import json
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cesnet.cli import main
from cesnet.econometrics import (
    IV_FE,
    LS_FE,
    PanelDataset,
    _design,
    apply_instrument_transform,
    fe_2sls,
    fe_ols,
    iv_diagnostics,
    recover_productivity,
    within_transform,
)
from cesnet.economy import cost_shares, write_csv
from cesnet.equilibrium import CONVERGED, solve_fixed_point_batch
from cesnet.errors import (
    DuplicateObservation,
    GammaNearZero,
    MalformedTable,
    RankDeficient,
    SingletonEntity,
    UnknownInstrument,
    WeakInstrumentWarning,
)

from conftest import random_economy


def make_panel(
    n_entities=30,
    n_periods=8,
    gamma=0.6,
    noise=0.0,
    seed=0,
    endogeneity=0.0,
    instruments=("iv1",),
    instrument_strength=1.0,
):
    """Simulate a share panel y = alpha_i + delta_t + gamma * x + u.

    Prices load on the instruments with the given strength; endogeneity
    feeds the structural error back into the price.
    """
    rng = np.random.default_rng(seed)
    N, T = n_entities, n_periods
    entity = np.repeat(np.arange(N), T)
    period = np.tile(np.arange(1, T + 1), N)
    alpha = np.repeat(rng.normal(0, 1, N), T)
    delta = np.tile(rng.normal(0, 0.5, T), N)
    u = rng.normal(0, noise, N * T) if noise > 0 else np.zeros(N * T)
    iv_cols = {k: rng.normal(0, 1, N * T) for k in instruments}
    x = rng.normal(0, 0.3, N * T) + endogeneity * u
    for v in iv_cols.values():
        x = x + instrument_strength * v
    y = alpha + delta + gamma * x + u
    return PanelDataset(
        entity=entity, period=period, y=y, x=x, instruments=iv_cols
    )


class TestPanelDataset:
    def test_nonfinite_rows_dropped(self):
        p = PanelDataset(
            entity=np.array([1, 1, 2, 2]),
            period=np.array([1, 2, 1, 2]),
            y=np.array([1.0, np.nan, 3.0, 4.0]),
            x=np.array([1.0, 2.0, 3.0, 4.0]),
        )
        assert p.nobs == 3
        np.testing.assert_array_equal(p.y, [1.0, 3.0, 4.0])

    @pytest.mark.parametrize("column", ["period", "y", "x"])
    def test_misaligned_columns(self, column):
        cols = {"entity": np.array([1, 1]), "period": np.array([1, 2]),
                "y": np.zeros(2), "x": np.zeros(2)}
        cols[column] = cols[column][:1]
        with pytest.raises(ValueError, match="^entity, period, y, x must share one length$"):
            PanelDataset(**cols)

    def test_every_row_masked_leaves_no_periods(self):
        # No entity is left to be a singleton, so the period count is what
        # fails; without its check the dummies' reshape would raise.
        p = PanelDataset(entity=[1, 1, 2, 2], period=[1, 2, 1, 2],
                         y=np.ones(4), x=np.full(4, np.nan))
        with pytest.raises(RankDeficient, match="^need at least two periods"):
            fe_ols(p)

    def test_misaligned_instrument(self):
        with pytest.raises(ValueError):
            PanelDataset(
                entity=np.array([1, 1]),
                period=np.array([1, 2]),
                y=np.zeros(2),
                x=np.zeros(2),
                instruments={"iv": np.zeros(3)},
            )


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_duplicate_pair_rejected_iff_it_survives_the_mask(data):
    """PanelDataset rejects a repeated (entity, period) pair exactly when two
    rows with it keep finite cells, and names the smallest such pair; the
    reference counts the kept pairs in plain Python."""
    label = (lambda e: f"s{e}") if data.draw(st.booleans(), label="strings") else int
    cell = st.floats(-1, 1) | st.just(float("nan"))
    rows = data.draw(st.lists(
        st.tuples(st.integers(-2, 3).map(label), st.integers(-2, 3),
                  cell, cell, cell),
        max_size=24))
    kept = [(e, t) for e, t, *cells in rows if not np.isnan(cells).any()]
    repeated = sorted(pair for pair, n in Counter(kept).items() if n > 1)

    def build():
        return PanelDataset(
            entity=np.array([r[0] for r in rows]),
            period=np.array([r[1] for r in rows], dtype=int),
            y=np.array([r[2] for r in rows]),
            x=np.array([r[3] for r in rows]),
            instruments={"w": np.array([r[4] for r in rows])},
        )

    if repeated:
        e, t = repeated[0]
        with pytest.raises(DuplicateObservation) as info:
            build()
        assert str(info.value) == f"entity {e!r} has more than one row for period {t!r}"
    else:
        assert build().nobs == len(kept)


def parent_design(panel, instrument_spec):
    """The design as it was built with ``np.unique`` on the entity labels
    and one demeaned 0/1 column per period, kept as oracle."""
    codes, inverse = np.unique(panel.entity, return_inverse=True)
    counts = np.bincount(inverse)
    if np.any(counts < 2):
        bad = codes[np.argmin(counts)].item()
        raise SingletonEntity(f"entity {bad!r} has fewer than 2 observations")

    def demean(v):
        means = np.bincount(inverse, weights=v) / counts
        return v - means[inverse]

    periods, t = np.unique(panel.period, return_inverse=True)
    if periods.size < 2:
        raise RankDeficient("need at least two periods for time dummies")
    D = np.column_stack(
        [demean((t == k).astype(float)) for k in range(1, periods.size)])
    y, x = demean(panel.y), demean(panel.x)
    Z = np.column_stack(
        [*(demean(panel.instruments[k]) for k in instrument_spec), D])
    return y, x, np.column_stack([x, D]), D, Z, periods, codes.size


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_entity_codes_and_design_equal_the_unique_oracle(data):
    """The panel's entity codes and labels are ``np.unique``'s, and the
    design built from them equals the per-column oracle bit for bit, or
    raises the oracle's error with its message.  Rows are shuffled, periods
    have gaps, entities differ in length and a NaN share masks a row (which
    may leave an entity a singleton)."""
    if data.draw(st.booleans(), label="unicode labels"):
        label = st.text(st.characters(blacklist_characters="\0"), max_size=3)
    else:
        label = st.integers(-10**6, 10**6)
    rows = []
    for e in data.draw(st.lists(label, min_size=1, max_size=6, unique=True)):
        periods = data.draw(st.lists(
            st.integers(-3, 12), min_size=2, max_size=8, unique=True))
        rows += [(e, t) for t in periods]
    rows = data.draw(st.permutations(rows), label="row order")
    n = len(rows)
    cells = st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n)
    y, x, w, v = (np.array(data.draw(cells)) for _ in range(4))
    masked = data.draw(st.sets(st.integers(0, n - 1), max_size=n // 2))
    y[list(masked)] = np.nan
    panel = PanelDataset(
        entity=np.array([r[0] for r in rows]),
        period=np.array([r[1] for r in rows]),
        y=y, x=x, instruments={"w": w, "v": v},
    )
    labels, codes = np.unique(panel.entity, return_inverse=True)
    for got, want in [(panel.entities, labels), (panel.entity_code, codes)]:
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    try:
        want = parent_design(panel, ["w", "v"])
    except (SingletonEntity, RankDeficient) as exc:
        with pytest.raises(type(exc)) as info:
            _design(panel, ["w", "v"])
        assert str(info.value) == str(exc)
        return
    got = _design(panel, ["w", "v"])
    for g, r in zip(got[:6], want[:6]):
        assert g.dtype == r.dtype and g.shape == r.shape
        assert g.tobytes() == r.tobytes()
    assert got[6] == want[6]


class TestWithinTransform:
    def test_three_point_entity(self):
        p = PanelDataset(
            entity=np.array([1, 1, 1]),
            period=np.array([1, 2, 3]),
            y=np.array([1.0, 2.0, 3.0]),
            x=np.zeros(3),
        )
        w = within_transform(p)
        np.testing.assert_allclose(w.y, [-1.0, 0.0, 1.0])

    def test_entity_means_become_zero(self):
        p = make_panel(noise=0.3, seed=4)
        w = within_transform(p)
        for ent in w.entities:
            mask = w.entity == ent
            assert w.y[mask].mean() == pytest.approx(0.0, abs=1e-12)
            assert w.x[mask].mean() == pytest.approx(0.0, abs=1e-12)

    def test_singleton_entity_rejected(self):
        p = PanelDataset(
            entity=np.array([1, 1, 2]),
            period=np.array([1, 2, 1]),
            y=np.zeros(3),
            x=np.zeros(3),
        )
        with pytest.raises(SingletonEntity):
            within_transform(p)

    def test_singleton_message_names_the_entity_plainly(self):
        p = PanelDataset(
            entity=np.array(["a", "b", "b"]),
            period=np.array([1, 1, 2]),
            y=np.zeros(3),
            x=np.zeros(3),
        )
        with pytest.raises(SingletonEntity, match=r"^entity 'a' has fewer"):
            within_transform(p)


class TestFeOls:
    def test_exact_recovery_without_noise(self):
        p = make_panel(gamma=0.37, noise=0.0, seed=1)
        est = fe_ols(p)
        assert est.coef == pytest.approx(0.37, abs=1e-10)
        assert est.sigma_hat == pytest.approx(1.0 - 0.37, abs=1e-10)
        assert est.method == LS_FE

    def test_matches_dummy_variable_regression(self):
        # Oracle: plain OLS with explicit entity dummies must give the same
        # slope and classical standard error.
        p = make_panel(n_entities=12, n_periods=5, gamma=0.8, noise=0.4, seed=2)
        est = fe_ols(p)
        ents = p.entities
        periods = p.periods
        E = np.column_stack([(p.entity == e).astype(float) for e in ents])
        D = np.column_stack([(p.period == t).astype(float) for t in periods[1:]])
        X = np.column_stack([p.x, D, E])
        beta, res, *_ = np.linalg.lstsq(X, p.y, rcond=None)
        resid = p.y - X @ beta
        s2 = resid @ resid / (p.nobs - X.shape[1])
        cov = s2 * np.linalg.inv(X.T @ X)
        assert est.coef == pytest.approx(beta[0], abs=1e-9)
        assert est.se == pytest.approx(np.sqrt(cov[0, 0]), abs=1e-9)
        np.testing.assert_allclose(est.time_dummies, beta[1 : periods.size], atol=1e-9)

    def test_consistency_under_noise(self):
        p = make_panel(n_entities=400, n_periods=10, gamma=-0.5, noise=0.2, seed=3)
        est = fe_ols(p)
        assert est.coef == pytest.approx(-0.5, abs=4 * est.se)

    def test_collinear_regressor_rejected(self):
        p = make_panel(seed=5)
        bad = PanelDataset(
            entity=p.entity, period=p.period, y=p.y,
            x=np.repeat(np.arange(p.entities.size, dtype=float), p.periods.size),
        )
        with pytest.raises(RankDeficient):
            fe_ols(bad)


class TestFe2sls:
    def test_instrumenting_with_x_equals_ols(self):
        p = make_panel(gamma=0.5, noise=0.3, seed=6)
        p = PanelDataset(
            entity=p.entity, period=p.period, y=p.y, x=p.x,
            instruments={"self": p.x.copy()},
        )
        iv = fe_2sls(p, ["self"])
        ols = fe_ols(p)
        assert iv.coef == pytest.approx(ols.coef, abs=1e-9)
        assert iv.se == pytest.approx(ols.se, abs=1e-9)
        assert iv.method == IV_FE

    def test_fixes_endogeneity_bias(self):
        p = make_panel(
            n_entities=300, n_periods=8, gamma=0.6, noise=0.5,
            endogeneity=1.0, seed=7, instruments=("iv1", "iv2"),
        )
        ols = fe_ols(p)
        iv = fe_2sls(p, ["iv1", "iv2"])
        assert abs(ols.coef - 0.6) > 4 * ols.se
        assert iv.coef == pytest.approx(0.6, abs=3 * iv.se)

    def test_x_constant_within_entities_is_rank_deficient(self):
        # Demeaned x is zero, so X = [x, D] loses a rank that Z keeps.
        p = make_panel(gamma=0.5, noise=0.3, seed=6)
        p = PanelDataset(entity=p.entity, period=p.period, y=p.y,
                         x=p.entity.astype(float), instruments=p.instruments)
        with pytest.raises(RankDeficient, match="^FE design matrix is rank deficient$"):
            fe_2sls(p, ["iv1"])

    def test_weak_instrument_warning(self):
        p = make_panel(
            n_entities=30, n_periods=5, gamma=0.5, noise=1.0,
            instrument_strength=0.01, seed=8,
        )
        with pytest.warns(WeakInstrumentWarning):
            fe_2sls(p, ["iv1"])

    def test_strong_instrument_no_warning(self):
        import warnings

        p = make_panel(noise=0.3, instrument_strength=1.0, seed=9)
        with warnings.catch_warnings():
            warnings.simplefilter("error", WeakInstrumentWarning)
            est = fe_2sls(p, ["iv1"])
        assert est.diagnostics.first_stage_f > 100

    def test_unknown_instrument(self):
        p = make_panel(seed=10)
        with pytest.raises(ValueError):
            fe_2sls(p, ["nope"])

    def test_no_residual_dof_rejected(self):
        # 4 rows less 2 entity means less [x, D_2] leave no residual dof.
        p = make_panel(n_entities=2, n_periods=2, noise=0.3, seed=23)
        with pytest.raises(RankDeficient, match="no residual degrees of freedom"):
            fe_2sls(p, ["iv1"])


def lsdv(p, spec):
    """The explicit dummy-variable design of panel p: regressors
    [x, time dummies, entity dummies] and instruments [spec, time dummies,
    entity dummies], the time dummies being D_2..D_T."""
    E = np.column_stack([(p.entity == e).astype(float) for e in p.entities])
    D = np.column_stack([(p.period == t).astype(float) for t in p.periods[1:]])
    return (np.column_stack([p.x, D, E]),
            np.column_stack([*(p.instruments[k] for k in spec), D, E]))


def ls_fit(M, v):
    """Least-squares coefficients and residuals of v on M."""
    coef = np.linalg.lstsq(M, v, rcond=None)[0]
    return coef, v - M @ coef


class TestFe2slsDummyVariableOracle:
    # Oracles: 2SLS and OLS with explicit entity and time dummies, whose
    # classical covariances use the residual dof nobs - columns.
    SPECS = [["iv1"], ["iv1", "iv2"], ["iv1", "iv2", "iv3"]]

    def panel(self, seed):
        return make_panel(n_entities=12, n_periods=5, gamma=0.8, noise=0.4,
                          endogeneity=1.0, seed=seed,
                          instruments=("iv1", "iv2", "iv3"))

    @pytest.mark.parametrize("spec", SPECS)
    def test_coefficients_and_standard_error(self, spec):
        p = self.panel(30 + len(spec))
        est = fe_2sls(p, spec)
        W, Z = lsdv(p, spec)
        What = Z @ ls_fit(Z, W)[0]
        bread = np.linalg.inv(W.T @ What)
        beta = bread @ (What.T @ p.y)
        resid = p.y - W @ beta
        s2 = resid @ resid / (p.nobs - W.shape[1])
        assert est.coef == pytest.approx(beta[0], abs=1e-9)
        assert est.se == pytest.approx(np.sqrt(s2 * bread[0, 0]), abs=1e-9)
        np.testing.assert_allclose(est.time_dummies, beta[1 : p.periods.size],
                                   atol=1e-9)
        # Sargan reads the 2SLS residuals: N R^2 on the instruments, with
        # one observation spent on each entity mean.
        if len(spec) > 1:
            u_fit = resid - ls_fit(Z, resid)[1]
            sargan = (p.nobs - p.entities.size) * (u_fit @ u_fit) / (resid @ resid)
            assert est.diagnostics.sargan == pytest.approx(sargan, rel=1e-9)

    @pytest.mark.parametrize("spec", SPECS)
    def test_endogeneity_f_is_t_squared_of_first_stage_residual(self, spec):
        p = self.panel(40 + len(spec))
        d = fe_2sls(p, spec).diagnostics
        W, Z = lsdv(p, spec)
        aug = np.column_stack([W, ls_fit(Z, p.x)[1]])
        coef, resid = ls_fit(aug, p.y)
        s2 = resid @ resid / (p.nobs - aug.shape[1])
        t = coef[-1] / np.sqrt(s2 * np.linalg.inv(aug.T @ aug)[-1, -1])
        assert d.endogeneity_f == pytest.approx(t**2, rel=1e-9)


class TestDiagnostics:
    @pytest.mark.parametrize("seed", range(6))
    def test_equal_to_the_diagnostics_of_fe_2sls(self, seed):
        # Both come from one 2SLS fit, so they agree in every bit.  The
        # panels are overidentified: only Sargan reads the 2SLS residuals.
        names = ("iv1", "iv2", "iv3")
        spec = list(names[: 2 + seed % 2])
        p = make_panel(n_entities=20 + 7 * seed, noise=0.3, seed=100 + seed,
                       endogeneity=0.5 * (seed % 3), instruments=names)
        assert iv_diagnostics(p, spec) == fe_2sls(p, spec).diagnostics

    @pytest.mark.parametrize("fit", [fe_2sls, iv_diagnostics])
    def test_unknown_instrument(self, fit):
        p = make_panel(seed=10)
        with pytest.raises(UnknownInstrument, match=r"\['nope'\]"):
            fit(p, ["iv1", "nope"])

    @pytest.mark.parametrize("fit", [fe_2sls, iv_diagnostics])
    def test_empty_instrument_list(self, fit):
        p = make_panel(seed=10)
        with pytest.raises(MalformedTable, match="at least one instrument"):
            fit(p, [])

    def test_just_identified_has_no_sargan(self):
        p = make_panel(noise=0.3, seed=11)
        d = iv_diagnostics(p, ["iv1"])
        assert d.sargan is None and d.sargan_p is None

    def test_valid_instruments_pass_sargan(self):
        p = make_panel(
            n_entities=200, n_periods=8, noise=0.4, seed=12,
            instruments=("iv1", "iv2", "iv3"),
        )
        d = iv_diagnostics(p, ["iv1", "iv2", "iv3"])
        assert d.sargan_p > 0.01

    def test_exogenous_regressor_passes_dm(self):
        p = make_panel(noise=0.4, endogeneity=0.0, seed=13)
        d = iv_diagnostics(p, ["iv1"])
        assert d.endogeneity_p > 0.01

    def test_endogenous_regressor_fails_dm(self):
        p = make_panel(
            n_entities=300, noise=0.5, endogeneity=1.0, seed=14,
            instruments=("iv1", "iv2"),
        )
        d = iv_diagnostics(p, ["iv1", "iv2"])
        assert d.endogeneity_p < 0.01

    def test_first_stage_f_matches_r2_form(self):
        # Oracle: F = (R2 / L) / ((1 - R2) / dof) from an explicit dummy
        # regression of x on entity dummies, time dummies and instruments.
        p = make_panel(noise=0.4, seed=15, instruments=("iv1", "iv2"))
        d = iv_diagnostics(p, ["iv1", "iv2"])
        E = np.column_stack([(p.entity == e).astype(float) for e in p.entities])
        D = np.column_stack([(p.period == t).astype(float) for t in p.periods[1:]])
        exog = np.column_stack([E, D])
        full = np.column_stack([exog, p.instruments["iv1"], p.instruments["iv2"]])
        rss_r = np.sum((p.x - exog @ np.linalg.lstsq(exog, p.x, rcond=None)[0]) ** 2)
        rss_u = np.sum((p.x - full @ np.linalg.lstsq(full, p.x, rcond=None)[0]) ** 2)
        dof = p.nobs - full.shape[1]
        f_oracle = ((rss_r - rss_u) / 2) / (rss_u / dof)
        assert d.first_stage_f == pytest.approx(f_oracle, rel=1e-9)


class TestHouseholdRegression:
    def test_kappa_recovery_without_noise(self):
        p = make_panel(gamma=0.4, noise=0.0, seed=16)
        est = fe_ols(p, parameter="kappa")
        assert est.parameter == "kappa"
        assert est.coef == pytest.approx(0.4, abs=1e-10)
        assert est.sigma_hat is None

    def test_iv_route(self):
        p = make_panel(gamma=0.4, noise=0.2, seed=17)
        est = fe_2sls(p, ["iv1"], parameter="kappa")
        assert est.method == IV_FE
        assert est.coef == pytest.approx(0.4, abs=4 * est.se)


class TestRecoverProductivity:
    def test_oracle_panel(self):
        # Build a panel whose time dummies are exactly delta_t =
        # -gamma * (ln zeta_t + ln p_t) with p constant, so recovery
        # returns the planted productivity path.
        rng = np.random.default_rng(18)
        gamma = 0.5
        ln_zeta = np.concatenate(([0.0], rng.normal(0, 0.2, 5)))
        delta = -gamma * ln_zeta
        N, T = 20, 6
        entity = np.repeat(np.arange(N), T)
        period = np.tile(np.arange(1, T + 1), N)
        x = rng.normal(0, 1, N * T)
        y = np.repeat(rng.normal(0, 1, N), T) + delta[period - 1] + gamma * x
        est = fe_ols(PanelDataset(entity=entity, period=period, y=y, x=x))
        rec = recover_productivity(est, np.ones(T))
        np.testing.assert_allclose(rec, ln_zeta, atol=1e-9)

    def test_price_deflation(self):
        p = make_panel(gamma=0.5, noise=0.0, seed=19, n_periods=4)
        est = fe_ols(p)
        prices = np.array([1.0, 1.1, 1.2, 1.3])
        base = recover_productivity(est, np.ones(4))
        deflated = recover_productivity(est, prices)
        np.testing.assert_allclose(deflated, base - np.log(prices), atol=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
    def test_rejects_non_positive_or_non_finite_price(self, bad):
        p = make_panel(gamma=0.5, noise=0.0, seed=19, n_periods=3)
        est = fe_ols(p)
        with pytest.raises(ValueError, match="output prices must be positive"):
            recover_productivity(est, [1.0, bad, 1.0])

    def test_rejects_wrong_length_prices(self):
        p = make_panel(gamma=0.5, noise=0.0, seed=19, n_periods=3)
        est = fe_ols(p)
        with pytest.raises(ValueError, match=r"output prices have shape \(4,\), expected \(3,\)"):
            recover_productivity(est, np.ones(4))

    def test_gamma_near_zero(self):
        p = make_panel(gamma=0.0, noise=0.0, seed=20)
        est = fe_ols(p)
        with pytest.raises(GammaNearZero):
            recover_productivity(est, np.ones(p.periods.size))

    def test_needs_gamma_estimate(self):
        p = make_panel(gamma=0.3, noise=0.0, seed=21)
        est = fe_ols(p, parameter="kappa")
        with pytest.raises(ValueError):
            recover_productivity(est, np.ones(p.periods.size))


class TestInstrumentTransforms:
    def panel(self):
        return PanelDataset(
            entity=np.array([1, 1, 1, 2, 2, 2]),
            period=np.array([1, 2, 3, 1, 2, 3]),
            y=np.zeros(6),
            x=np.zeros(6),
            instruments={"w": np.array([1.0, 2.0, 4.0, 10.0, 20.0, 40.0])},
        )

    def test_lag(self):
        # The rebuild drops each entity's first period, where the lag has
        # no neighbour.
        name, p = apply_instrument_transform(self.panel(), "lw")
        assert name == "l_w"
        np.testing.assert_array_equal(p.period, [2, 3, 2, 3])
        np.testing.assert_array_equal(p.instruments["l_w"], [1.0, 2.0, 10.0, 20.0])

    def test_forward(self):
        _, p = apply_instrument_transform(self.panel(), "fw")
        np.testing.assert_array_equal(p.period, [1, 2, 1, 2])
        np.testing.assert_array_equal(p.instruments["f_w"], [2.0, 4.0, 20.0, 40.0])

    def test_difference(self):
        _, p = apply_instrument_transform(self.panel(), "dw")
        np.testing.assert_array_equal(p.period, [2, 3, 2, 3])
        np.testing.assert_array_equal(p.instruments["d_w"], [1.0, 2.0, 10.0, 20.0])

    def test_panel_carries_the_order_of_its_kept_rows(self):
        # The transforms reuse the order the uniqueness check sorted by.
        p = PanelDataset(entity=np.array(["b", "a", "b", "a"]),
                         period=np.array([2, 2, 1, 1]),
                         y=np.array([0.0, np.nan, 0.0, 0.0]), x=np.zeros(4))
        np.testing.assert_array_equal(p.entity[p.order], ["a", "b", "b"])
        np.testing.assert_array_equal(p.period[p.order], [1, 1, 2])

    def test_plain_name_passthrough(self):
        panel = self.panel()
        name, p = apply_instrument_transform(panel, "w")
        assert name == "w" and p is panel

    def test_unknown_raises(self):
        with pytest.raises(ValueError):
            apply_instrument_transform(self.panel(), "qvoid")

    def test_transformed_rows_dropped_on_use(self):
        rng = np.random.default_rng(22)
        base = make_panel(noise=0.2, seed=22)
        name, p = apply_instrument_transform(base, "liv1")
        # Rebuilding with the lag keeps instruments finite, so period 1
        # rows vanish from the sample used by the estimator.
        assert name == "l_iv1"
        assert np.all(np.isfinite(p.instruments[name]))
        assert p.nobs == base.nobs - base.entities.size

    def test_column_of_the_transforms_name_is_domain_error(self):
        # A column given to the panel is not the lag, so 'lw' refuses it.
        panel = self.panel()
        given = replace(panel, instruments={**panel.instruments,
                                            "l_w": np.arange(6.0)})
        with pytest.raises(MalformedTable, match=(
                r"^transform 'lw' names 'l_w', a column of the panel$")):
            apply_instrument_transform(given, "lw")

    def test_transform_reuses_only_its_own_column(self):
        name, made = apply_instrument_transform(self.panel(), "lw")
        again, same = apply_instrument_transform(made, "lw")
        assert again == name and same is made
        # Demeaned, l_w is no longer the lag of the panel's w.
        with pytest.raises(MalformedTable):
            apply_instrument_transform(within_transform(made), "lw")

    def test_duplicate_entity_period_rejected(self):
        # Two period-2 rows of one entity would pair with each other; the
        # panel refuses them before any transform can run.
        with pytest.raises(DuplicateObservation,
                           match=r"^entity 'a' .* for period 2$"):
            PanelDataset(
                entity=np.array(["a", "a", "a", "a"]),
                period=np.array([1, 2, 2, 3]),
                y=np.zeros(4),
                x=np.zeros(4),
                instruments={"w": np.array([0.0, 1.0, 2.0, 3.0])},
            )


def reference_transform(panel, token):
    """Per-entity mask scan: the original implementation, kept as oracle."""
    transform = None
    name = token
    if token not in panel.instruments and token[:1] in ("l", "f", "d"):
        transform, name = token[0], token[1:]
    if name not in panel.instruments:
        raise ValueError(f"unknown instrument {token!r}")
    if transform is None:
        return name, panel
    col_name = f"{transform}_{name}"
    if col_name in panel.instruments:
        return col_name, panel
    base = panel.instruments[name]
    out = np.full(panel.nobs, np.nan)
    for ent in panel.entities:
        idx = np.flatnonzero(panel.entity == ent)
        order = idx[np.argsort(panel.period[idx])]
        v = base[order]
        if transform == "l":
            out[order[1:]] = v[:-1]
        elif transform == "f":
            out[order[:-1]] = v[1:]
        else:  # first difference
            out[order[1:]] = v[1:] - v[:-1]
    instruments = dict(panel.instruments)
    instruments[col_name] = out
    return col_name, PanelDataset(
        entity=panel.entity,
        period=panel.period,
        y=panel.y,
        x=panel.x,
        instruments=instruments,
    )


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_transform_equals_per_entity_loop(data):
    """The sort-once transform equals the reference bit for bit.

    Rows are shuffled, periods have gaps and entities differ in length.  x
    numbers the rows, so equal rebuilt panels mean the same rows got a NaN
    (and were dropped) under both implementations.  Chained tokens also
    cover transforms of an already shrunk panel and repeated tokens.
    """
    string_labels = data.draw(st.booleans(), label="string labels")
    rows = []
    for e in range(data.draw(st.integers(1, 6), label="entities")):
        periods = data.draw(st.lists(
            st.integers(-3, 12), min_size=1, max_size=8, unique=True))
        label = f"s{e}" if string_labels else 7 * e - 10
        rows += [(label, t) for t in periods]
    rows = data.draw(st.permutations(rows), label="row order")
    n = len(rows)
    w = data.draw(st.lists(
        st.floats(-1e3, 1e3, allow_nan=False), min_size=n, max_size=n))
    panel = PanelDataset(
        entity=np.array([r[0] for r in rows]),
        period=np.array([r[1] for r in rows]),
        y=np.zeros(n),
        x=np.arange(n, dtype=float),
        instruments={"w": np.array(w)},
    )
    new = ref = panel
    for token in data.draw(st.lists(
            st.sampled_from(["lw", "fw", "dw", "w"]), min_size=1, max_size=3)):
        name, new = apply_instrument_transform(new, token)
        ref_name, ref = reference_transform(ref, token)
        assert name == ref_name
        np.testing.assert_array_equal(new.entity, ref.entity)
        assert new.entity.dtype == ref.entity.dtype
        for got, want in [(new.period, ref.period), (new.y, ref.y),
                          (new.x, ref.x)]:
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert new.instruments.keys() == ref.instruments.keys()
        for k, v in ref.instruments.items():
            assert new.instruments[k].tobytes() == v.tobytes()


def model_panels(economy, periods, seed, step=0.05):
    """Input-share panels that the CES model itself generates.

    ln z follows a random walk with steps ``step * N(0, 1)`` over
    ``periods`` periods, and the prices are its equilibria.  Returns None
    if a period has none, else ``(ln_z, ln_pi, panel)``: ln z and ln pi
    with one row per period, and ``panel(j, x, instruments)``, sector j's
    panel with entities i = 0..n (0 the primary factor, priced 1), periods
    1..T, y = ln s_ij from ``cost_shares`` and x = ln pi_i unless another x
    is given.  By Shephard's lemma ln s_ij = ln a_ij + gamma_j ln pi_i -
    gamma_j ln(z_j pi_j): an entity effect, a period effect and the slope
    gamma_j.
    """
    rng = np.random.default_rng(seed)
    ln_z = rng.normal(0.0, step, (periods, economy.n)).cumsum(axis=0)
    z = np.exp(ln_z)
    batch = solve_fixed_point_batch(economy, z, tol=1e-14)
    if (batch.status != CONVERGED).any():
        return None
    shares = np.array([cost_shares(economy, p, 1.0, zt)
                       for p, zt in zip(batch.pi, z)])
    ln_pi = np.log(np.column_stack([np.ones(periods), batch.pi]))
    entity = np.repeat(np.arange(economy.n + 1), periods)
    period = np.tile(np.arange(1, periods + 1), economy.n + 1)

    def panel(j, x=None, instruments=None):
        return PanelDataset(
            entity=entity, period=period, y=np.log(shares[:, :, j].T.ravel()),
            x=ln_pi.T.ravel() if x is None else x, instruments=instruments or {})

    return ln_z, ln_pi[:, 1:], panel


#: Sector elasticities: log-limit sectors (gamma 0, or within the solver's
#: switch to the log form), and gammas whose recovery divides by no less
#: than 0.05.
MODEL_GAMMAS = st.one_of(
    st.sampled_from([0.0, 1e-9, -1e-9]),
    st.floats(0.05, 1.5), st.floats(-1.0, -0.05))


class TestModelPanels:
    """The paper's estimation loop closed on panels that the model makes:
    the FE fit of a sector's input shares returns its gamma, and its time
    dummies the sector's productivity path."""

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           gamma=st.lists(MODEL_GAMMAS, min_size=2, max_size=8),
           periods=st.integers(3, 20))
    def test_fe_ols_recovers_gamma_and_productivity(self, seed, gamma, periods):
        e = random_economy(seed, len(gamma), gamma=gamma)
        made = model_panels(e, periods, seed)
        assume(made is not None)  # an inelastic economy may be unviable
        ln_z, ln_pi, panel = made
        for j, g in enumerate(e.gamma):
            est = fe_ols(panel(j))
            assert abs(est.coef - g) <= 1e-13, (j, g, est.coef)
            if abs(g) < 1e-6:  # constant shares: no productivity to recover
                with pytest.raises(GammaNearZero):
                    recover_productivity(est, np.exp(ln_pi[:, j]))
                continue
            path = recover_productivity(est, np.exp(ln_pi[:, j]))
            np.testing.assert_allclose(path, ln_z[:, j] - ln_z[0, j],
                                       rtol=0, atol=1e-11)

    def test_cli_estimate_equals_the_library(self, tmp_path):
        e = random_economy(5, 6)
        _, _, panel = model_panels(e, 12, 5)
        p = panel(2)
        labels = [f"i{k}" for k in p.entity]
        share, price = np.exp(p.y), np.exp(p.x)
        path = tmp_path / "panel.csv"
        write_csv(path, ["entity", "period", "share", "price"], labels,
                  p.period, share, price)
        out = tmp_path / "est.json"
        assert main(["estimate", "--panel", str(path), "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        # The file holds the shortest round-trip form of each float.
        want = fe_ols(PanelDataset(entity=np.asarray(labels), period=p.period,
                                   y=np.log(share), x=np.log(price)))
        assert payload["coef"] == want.coef and payload["se"] == want.se
        assert payload["time_dummies"] == {
            str(t): v for t, v in zip(want.dummy_periods.tolist(),
                                      want.time_dummies.tolist())}
        assert abs(want.coef - e.gamma[2]) <= 1e-13

    def test_lag_instrument_covers_gamma_under_price_error(self):
        # Observed prices x = ln pi + 0.02 N(0, 1) attenuate FE-OLS; their
        # lag is correlated with ln pi, a random walk, and not with this
        # period's error, so 2SLS on it is consistent.  The walk's steps of
        # 0.02 keep the prices' spread near the error's, so the attenuation
        # is many standard errors.
        covered = {"ols": [], "2sls": []}
        for seed in range(10):
            e = random_economy(seed, 10)
            _, _, panel = model_panels(e, 20, seed, step=0.02)
            rng = np.random.default_rng(100 + seed)
            for j, g in enumerate(e.gamma):
                p = panel(j)
                x = p.x + rng.normal(0.0, 0.02, p.x.size)
                lag = np.where(p.period > 1, np.roll(x, 1), np.nan)
                ols = fe_ols(panel(j, x))
                name, lagged = apply_instrument_transform(
                    panel(j, x, {"w": x}), "lw")
                iv = fe_2sls(lagged, [name])
                # The lag pairs each row with its own entity's last period.
                oracle = fe_2sls(panel(j, x, {"lag": lag}), ["lag"])
                assert (iv.coef, iv.se, iv.nobs) == (oracle.coef, oracle.se,
                                                     oracle.nobs)
                covered["ols"].append(abs(ols.coef - g) <= 2 * ols.se)
                covered["2sls"].append(abs(iv.coef - g) <= 2 * iv.se)
        assert np.mean(covered["2sls"]) >= 0.9, covered
        assert np.mean(covered["ols"]) <= 0.1, covered
