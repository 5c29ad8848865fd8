import math
import threading
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import special, stats
from scipy.stats import norm

from cesnet import montecarlo
from cesnet.economy import check_shock
from cesnet.errors import (
    DegenerateSample,
    InvalidPreferences,
    MalformedTable,
    NonPositiveValue,
    SeriesTooShort,
    SingularSystem,
    TooFewSamples,
)
from cesnet.household import (
    COBB_DOUGLAS,
    GENERAL_CES,
    LEONTIEF,
    METHODS,
    HouseholdPrefs,
)
from cesnet.montecarlo import (
    QUANTILE_GRID,
    ShockConfig,
    distribution_from_shocks,
    hp_filter,
    price_index_dispersion,
    qq_points,
    sample_shocks,
    shock_matrix,
    shock_sample,
    simulate_distribution,
    summarize_samples,
)

from conftest import random_economy, random_shares, two_sector


class TestShockStream:
    def test_deterministic_by_index(self):
        cfg = ShockConfig(count=5, sigma=0.2, seed=42)
        a = shock_sample(3, cfg, 2)
        b = shock_sample(3, cfg, 2)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, shock_sample(3, cfg, 3))

    def test_stream_matches_indexed_draws(self):
        cfg = ShockConfig(count=4, seed=7)
        stream = list(sample_shocks(2, cfg))
        for k, z in enumerate(stream):
            np.testing.assert_array_equal(z, shock_sample(2, cfg, k))

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 12), count=st.integers(1, 40),
           seed=st.integers(0, 2**130),
           sigma=st.floats(1e-3, 2.0))
    @example(n=3, count=40, seed=2**100 + 3, sigma=0.2)
    @example(n=3, count=40, seed=2**130, sigma=0.2)
    def test_matrix_rows_equal_indexed_draws(self, n, count, seed, sigma):
        # Seeds of 2**32 and more have several entropy words, and from
        # 2**96 on more than the pool's four are hashed in.
        cfg = ShockConfig(count=count, sigma=sigma, seed=seed)
        Z = shock_matrix(n, cfg)
        assert Z.shape == (count, n)
        for k in range(count):
            assert Z[k].tobytes() == shock_sample(n, cfg, k).tobytes()

    @pytest.mark.parametrize("n", [10, 100])
    @pytest.mark.parametrize("seed", [0, 20110101, 2**32 - 1, 2**32, 2**64 + 5])
    def test_matrix_rows_follow_numpy_default_rng(self, n, seed):
        cfg = ShockConfig(count=2000, sigma=0.3, seed=seed)
        Z = shock_matrix(n, cfg)
        for k in range(cfg.count):
            normals = np.random.default_rng([seed, k]).standard_normal(n)
            assert Z[k].tobytes() == np.exp(0.3 * normals).tobytes(), k

    def test_matrix_refuses_a_numpy_that_seeds_otherwise(self, monkeypatch):
        real = montecarlo.shock_sample
        monkeypatch.setattr(montecarlo, "shock_sample",
                            lambda *a: np.nextafter(real(*a), np.inf))
        with pytest.raises(RuntimeError, match="default_rng"):
            shock_matrix(3, ShockConfig(count=5, seed=1))

    def test_log_moments(self):
        cfg = ShockConfig(count=4000, sigma=0.3, seed=1)
        logz = np.log([shock_sample(4, cfg, k) for k in range(cfg.count)])
        assert logz.mean() == pytest.approx(0.0, abs=0.01)
        assert logz.std() == pytest.approx(0.3, abs=0.01)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ShockConfig(count=0)
        with pytest.raises(ValueError):
            ShockConfig(sigma=0.0)

    @pytest.mark.parametrize("field", ["sigma"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_config_rejects_non_finite(self, field, value):
        with pytest.raises(ValueError, match=field):
            ShockConfig(**{field: value})

    def test_config_rejects_negative_sigma(self):
        with pytest.raises(ValueError, match="sigma"):
            ShockConfig(sigma=-1.0)

    def test_config_rejects_negative_seed(self):
        # default_rng([seed, k]) takes no negative entropy.
        with pytest.raises(ValueError, match="seed"):
            ShockConfig(seed=-1)

    @pytest.mark.parametrize("sigma, first_bad", [(200.0, 575), (800.0, 0), (1e6, 0)])
    def test_overflowing_stream_names_first_bad_draw(self, sigma, first_bad):
        # exp overflows to inf above about 709 and underflows to 0 below
        # about -745; at sigma 200 only draw 575 of the first 1000 does.
        cfg = ShockConfig(count=1000, sigma=sigma, seed=13)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonPositiveValue,
                               match=f"draw {first_bad} of seed 13 "):
                shock_matrix(4, cfg)

    def test_stream_refuses_an_overflowing_draw_at_its_first_row(self):
        # The stream is shock_matrix's rows: draw 0 of this seed is
        # [inf, 0.], which no row of the stream may hold.
        cfg = ShockConfig(count=3, sigma=1e6, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonPositiveValue, match="draw 0 of seed 0 "):
                next(sample_shocks(2, cfg))


class TestSimulateDistribution:
    @pytest.mark.usefixtures("force_pool")
    def test_worker_count_does_not_change_samples(self):
        e = random_economy(0, 3, gamma=0.0)
        prefs = HouseholdPrefs(mu=random_shares(0, 3))
        cfg = ShockConfig(count=200, sigma=0.2, seed=3)
        s1 = simulate_distribution(e, prefs, cfg, COBB_DOUGLAS, workers=1)
        s4 = simulate_distribution(e, prefs, cfg, COBB_DOUGLAS, workers=4)
        np.testing.assert_array_equal(s1.samples, s4.samples)
        assert s1.to_dict() == s4.to_dict()

    def test_unviable_draws_counted(self):
        # Heavy shocks on a Leontief economy knock some draws out of the
        # positive orthant; counts must still add up to the request.
        e = random_economy(1, 3, gamma=1.0)
        prefs = HouseholdPrefs(mu=random_shares(1, 3))
        cfg = ShockConfig(count=400, sigma=1.2, seed=5)
        s = simulate_distribution(e, prefs, cfg, LEONTIEF)
        assert s.n_viable + s.n_unviable == 400
        assert s.n_unviable > 0

    def test_methods_share_one_shock_stream(self):
        e = random_economy(2, 3, gamma=0.0)
        prefs = HouseholdPrefs(mu=random_shares(2, 3))
        cfg = ShockConfig(count=100, sigma=0.15, seed=9)
        cd = simulate_distribution(e, prefs, cfg, COBB_DOUGLAS)
        gc = simulate_distribution(e, prefs, cfg, GENERAL_CES)
        np.testing.assert_allclose(cd.samples, gc.samples, atol=1e-7)


class TestThreadPool:
    """Row blocks solved on a thread pool give the bits of an inline solve."""

    ECONOMIES = {
        "mixed": (random_economy(42, 10), 0.2),
        # Unviable Leontief draws and a long tail of general-CES sweeps.
        "inelastic": (random_economy(42, 10, gamma=0.9), 0.5),
    }

    @pytest.mark.usefixtures("force_pool")
    @pytest.mark.parametrize("economy", list(ECONOMIES))
    @pytest.mark.parametrize("method", METHODS)
    def test_bits_independent_of_workers(self, monkeypatch, economy, method):
        e, sigma = self.ECONOMIES[economy]
        prefs = HouseholdPrefs(mu=random_shares(1, e.n))
        shocks = shock_matrix(e.n, ShockConfig(count=150, sigma=sigma, seed=7))
        threads = []
        real = montecarlo.real_gdp_growth_batch
        monkeypatch.setattr(montecarlo, "real_gdp_growth_batch", lambda *a: (
            threads.append(threading.current_thread()) or real(*a)))
        runs = {w: distribution_from_shocks(e, prefs, shocks, method, 7, w)
                for w in (1, 2, 3, 8)}
        # One inline block, then 2 + 3 + 8 blocks on pool threads.
        assert threads[0] is threading.main_thread()
        assert len(threads) == 14
        assert threading.main_thread() not in threads[1:]
        for w in (2, 3, 8):
            assert runs[w].samples.tobytes() == runs[1].samples.tobytes()
            assert runs[w].to_dict() == runs[1].to_dict()
        if economy == "inelastic" and method == LEONTIEF:
            assert runs[1].n_unviable > 0

    def test_run_below_the_floor_builds_no_pool(self, monkeypatch):
        pools = []
        real = montecarlo.ThreadPoolExecutor
        monkeypatch.setattr(montecarlo, "ThreadPoolExecutor",
                            lambda *a: pools.append(a) or real(*a))
        e = random_economy(42, 10)
        prefs = HouseholdPrefs(mu=random_shares(1, 10))
        shocks = shock_matrix(10, ShockConfig(count=160, seed=3))
        assert 160 * 11 * 10 < 2 * montecarlo.MIN_BLOCK_FLOATS
        distribution_from_shocks(e, prefs, shocks, GENERAL_CES, 3, workers=8)
        assert pools == []
        monkeypatch.setattr(montecarlo, "MIN_BLOCK_FLOATS", 1)
        distribution_from_shocks(e, prefs, shocks, GENERAL_CES, 3, workers=8)
        assert pools == [(8,)]

    @pytest.mark.usefixtures("force_pool")
    @pytest.mark.parametrize("bad_rows", [[70], [70, 3]])
    def test_error_in_a_later_block_surfaces_as_inline(self, bad_rows):
        # Workers 2 cut 100 rows into blocks 0-49 and 50-99.  The first bad
        # row in stream order is reported, whichever block holds it.
        e = random_economy(42, 4)
        prefs = HouseholdPrefs(mu=random_shares(1, 4))
        shocks = shock_matrix(4, ShockConfig(count=100, seed=5))
        for k, row in enumerate(bad_rows):
            shocks[row, 1] = -1.0 - k
        errors = []
        for workers in (1, 2, 3):
            with pytest.raises(NonPositiveValue) as info:
                distribution_from_shocks(e, prefs, shocks, GENERAL_CES, 5, workers)
            errors.append(str(info.value))
        with pytest.raises(NonPositiveValue) as first:
            check_shock(shocks[min(bad_rows)], 4)
        assert errors == [str(first.value)] * 3


class TestSummary:
    def test_known_sample_moments(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        s = summarize_samples(x)
        assert s.mean == pytest.approx(2.5)
        assert s.variance == pytest.approx(np.var(x, ddof=1))
        assert s.skewness == pytest.approx(0.0, abs=1e-14)
        assert s.quantiles["0.5"] == pytest.approx(2.5)

    @settings(max_examples=60, deadline=None)
    @given(arrays(np.float64, st.integers(1, 400),
                  elements=st.floats(-1e6, 1e6, allow_subnormal=True)))
    def test_quantiles_equal_one_call_per_level(self, x):
        quantiles = summarize_samples(x).quantiles
        expected = [np.quantile(x, q) for q in QUANTILE_GRID]
        assert list(quantiles) == [f"{q:g}" for q in QUANTILE_GRID]
        for got, want in zip(quantiles.values(), expected):
            assert type(got) is float
            assert np.float64(got).tobytes() == want.tobytes()

    def test_normal_sample_near_zero_shape(self):
        x = np.random.default_rng(11).standard_normal(20000)
        s = summarize_samples(x)
        assert abs(s.skewness) < 0.05
        assert abs(s.kurtosis) < 0.1


class TestTailAsymmetry:
    def test_skew_sign_flips_with_elasticity(self):
        e_low = random_economy(3, 4, gamma=0.9)
        e_high = random_economy(3, 4, gamma=-1.0)
        prefs = HouseholdPrefs(mu=random_shares(3, 4))
        cfg = ShockConfig(count=1500, sigma=0.3, seed=13)
        low = simulate_distribution(e_low, prefs, cfg, GENERAL_CES)
        high = simulate_distribution(e_high, prefs, cfg, GENERAL_CES)
        assert low.skewness < -0.05
        assert high.skewness > 0.05

    def test_cobb_douglas_is_symmetric(self):
        e = random_economy(3, 4, gamma=0.0)
        prefs = HouseholdPrefs(mu=random_shares(3, 4))
        cfg = ShockConfig(count=4000, sigma=0.3, seed=13)
        s = simulate_distribution(e, prefs, cfg, COBB_DOUGLAS)
        assert abs(s.skewness) < 0.1

    def test_variance_dilation(self):
        e = random_economy(4, 5, gamma=0.0)
        m = random_shares(4, 5)
        cfg = ShockConfig(count=3000, sigma=0.25, seed=17)
        shocks = sample_shocks(5, cfg)
        ln_cd, ln_se = price_index_dispersion(e, m, shocks)
        assert np.var(ln_cd) > np.var(ln_se)

    @pytest.mark.parametrize("m", [
        [1.0, 1.0, 1.0, 1.0], [1.0, 0.0], [np.nan, 0.5, 0.25, 0.25],
        [np.inf, 0.5, 0.25, 0.25],
    ])
    def test_dispersion_rejects_bad_demand_shares(self, econ4, m):
        shocks = np.ones((3, 4))
        with pytest.raises(InvalidPreferences, match="expenditure shares"):
            price_index_dispersion(econ4, np.array(m), shocks)

    @pytest.mark.parametrize("row, error", [
        ([0.0, 1.0], NonPositiveValue), ([-1.0, 1.0], NonPositiveValue),
        ([np.nan, 1.0], NonPositiveValue), ([1.0, 1.0, 1.0], MalformedTable),
    ])
    def test_dispersion_rejects_bad_shocks(self, row, error):
        # A zero, negative or NaN shock has no finite log; an iterator of
        # rows is read as sample_shocks yields them.
        shocks = iter([np.ones(len(row)), np.array(row)])
        with pytest.raises(error):
            price_index_dispersion(two_sector(0.0), [0.4, 0.6], shocks)


class TestQqPoints:
    def test_sorted_and_standardized(self):
        x = np.random.default_rng(19).standard_normal(500)
        pts = qq_points(x)
        assert pts.shape == (500, 2)
        assert np.all(np.diff(pts[:, 0]) > 0)
        assert np.all(np.diff(pts[:, 1]) >= 0)
        assert pts[:, 1].mean() == pytest.approx(0.0, abs=1e-12)
        assert pts[:, 1].std() == pytest.approx(1.0, abs=1e-12)

    def test_plotting_positions(self):
        pts = qq_points(np.array([5.0, 1.0, 3.0]))
        expected = norm.ppf((np.arange(1, 4) - 0.5) / 3)
        np.testing.assert_allclose(pts[:, 0], expected)

    def test_normal_sample_hugs_diagonal(self):
        x = np.random.default_rng(23).standard_normal(5000)
        pts = qq_points(x)
        inner = pts[100:-100]
        assert np.max(np.abs(inner[:, 0] - inner[:, 1])) < 0.1

    def test_errors(self):
        with pytest.raises(TooFewSamples):
            qq_points(np.array([1.0, 2.0]))
        with pytest.raises(DegenerateSample):
            qq_points(np.ones(10))
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(DegenerateSample, match="non-finite"):
                qq_points(np.array([1.0, 2.0, bad, 4.0]))


class TestHpFilter:
    def test_linear_series_is_pure_trend(self):
        y = 0.7 * np.arange(30.0) + 2.0
        trend, cycle = hp_filter(y, 1600.0)
        np.testing.assert_allclose(trend, y, atol=1e-9)
        np.testing.assert_allclose(cycle, 0.0, atol=1e-9)

    def test_trend_plus_cycle_reconstructs(self):
        y = np.random.default_rng(29).standard_normal(50).cumsum()
        trend, cycle = hp_filter(y, 1600.0)
        np.testing.assert_allclose(trend + cycle, y, atol=1e-12)

    def test_dense_oracle(self):
        rng = np.random.default_rng(31)
        y = rng.standard_normal(40).cumsum()
        lam = 129600.0
        T = y.size
        K = np.zeros((T - 2, T))
        for t in range(T - 2):
            K[t, t : t + 3] = (1.0, -2.0, 1.0)
        oracle = np.linalg.solve(np.eye(T) + lam * K.T @ K, y)
        trend, _ = hp_filter(y, lam)
        np.testing.assert_allclose(trend, oracle, atol=1e-9)

    def test_small_lambda_tracks_series(self):
        y = np.sin(np.linspace(0, 6, 60))
        trend_tight, _ = hp_filter(y, 1e-6)
        np.testing.assert_allclose(trend_tight, y, atol=1e-5)

    def test_errors(self):
        with pytest.raises(SeriesTooShort):
            hp_filter(np.ones(3), 1600.0)
        with pytest.raises(ValueError):
            hp_filter(np.ones(10), 0.0)

    @pytest.mark.parametrize("lam", [1e16, 1e308, np.inf])
    def test_huge_lambda_is_singular(self, lam):
        # 1e16 leaves the system indefinite in floating point; 1e308 and
        # inf overflow it.
        y = np.random.default_rng(37).standard_normal(40).cumsum()
        with pytest.raises(SingularSystem, match="T = 40"):
            hp_filter(y, lam)

    @pytest.mark.parametrize("lam", [1e10, 1e14, 1e100])
    def test_trend_lost_to_rounding_is_singular(self, lam):
        # The solve succeeds, but I + lam K'K >= I bounds the trend's error
        # by the residual, which here exceeds sqrt(T * eps) of the series.
        y = np.random.default_rng(37).standard_normal(40).cumsum()
        with pytest.raises(SingularSystem, match="T = 40 is lost to rounding"):
            hp_filter(y, lam)


def assert_same_bits(got, expected):
    got, expected = np.asarray(got, dtype=float), np.asarray(expected, dtype=float)
    nan = np.isnan(expected)
    np.testing.assert_array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == expected[~nan].tobytes()


class TestScipyKernels:
    """The scipy.special ufuncs called in place of their scipy.stats
    wrappers give the same bits over the arguments each call site can
    pass: plotting positions in (0, 1), statistics >= 0, dof >= 1.  The
    program runs ndtri as montecarlo._ndtri, which TestNdtri holds to it."""

    SIZES = [3, 4, 5, 11, 12, 160, 5000]
    STATISTICS = np.concatenate([
        [0.0, 1e-300, 1e300, np.inf, np.nan],
        np.linspace(0.0, 60.0, 241), np.logspace(-12, 12, 97),
    ])

    @pytest.mark.parametrize("n", SIZES)
    def test_qq_and_royston_positions(self, n):
        k = np.arange(1, n + 1)
        for q in ((k - 0.5) / n, (k - 0.375) / (n + 0.25)):
            assert_same_bits(special.ndtri(q), stats.norm.ppf(q))

    def test_normal_tail(self):
        # Royston's z may have either sign, and ndtr(-z) is norm.sf(z) for
        # every z.
        z = np.concatenate([self.STATISTICS, -self.STATISTICS, [-0.0]])
        assert_same_bits(special.ndtr(-z), stats.norm.sf(z))

    @pytest.mark.parametrize("df", [1, 2, 3, 17])
    def test_sargan_tail(self, df):
        assert_same_bits(special.chdtrc(df, self.STATISTICS),
                         stats.chi2.sf(self.STATISTICS, df))

    @pytest.mark.parametrize("dof", [1, 7, 1583, 14399])
    def test_endogeneity_tail(self, dof):
        assert_same_bits(special.fdtrc(1, dof, self.STATISTICS),
                         stats.f.sf(self.STATISTICS, 1, dof))


def _lower_tail(t_max):
    """exp(-t) for t in [0.001, t_max]: log-uniform probabilities near 0."""
    return st.floats(1e-3, t_max).map(lambda t: math.exp(-t))


def _upper_tail(t_max):
    """1 - exp(-t) for t in [0.001, t_max]: log-uniform probabilities near 1."""
    return st.floats(1e-3, t_max).map(lambda t: -math.expm1(-t))


def _neighbours(p):
    return [np.nextafter(p, 0.0), p, np.nextafter(p, 1.0)]


class TestNdtri:
    """montecarlo._ndtri, the numpy port of Cephes ndtri, equals
    scipy.special.ndtri bit for bit on (0, 1).  Each example mixes the
    branches in one array, as a plotting-position vector does.  The
    explicit examples hold values where np.log, in place of the C library's
    log that Cephes calls, moves the last bit."""

    E2 = math.exp(-2.0)  # the central branch is e2 < p < 1 - e2
    PROBABILITY = st.one_of(
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        _lower_tail(700.0),
        # 1 - p is a multiple of 2**-53, the least of which is exp(-36.7...).
        _upper_tail(36.7),
        # The tail's sqrt(-2 ln y) crosses 8 at y = exp(-32).
        st.floats(31.99, 32.01).flatmap(
            lambda t: st.sampled_from([math.exp(-t), -math.expm1(-t)])),
        st.sampled_from(_neighbours(E2) + _neighbours(1.0 - E2)
                        + _neighbours(math.exp(-32.0))
                        + _neighbours(-math.expm1(-32.0))),
    )

    @settings(max_examples=300, deadline=None)
    @given(st.lists(PROBABILITY, min_size=1, max_size=40))
    @example(_neighbours(E2) + _neighbours(1.0 - E2))
    @example([0.08836463283573237, 0.009522358188614688, 0.9125382815310998,
              0.9982825473662674])
    def test_equals_scipy(self, probabilities):
        p = np.array(probabilities)
        assert_same_bits(montecarlo._ndtri(p), special.ndtri(p))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(3, 20000), st.booleans())
    @example(160, False)
    @example(239, False)
    @example(116, True)
    @example(5000, True)
    def test_plotting_positions(self, n, blom):
        # qq_points' (k - 0.5) / N, or shapiro_wilk's Blom positions.
        k = np.arange(1, n + 1)
        p = (k - 0.375) / (n + 0.25) if blom else (k - 0.5) / n
        assert_same_bits(montecarlo._ndtri(p), special.ndtri(p))


class TestSpotChecks:
    def test_tiny_sigma_yields_near_unit_shocks(self):
        cfg = ShockConfig(count=3, sigma=1e-12, seed=0)
        for z in sample_shocks(5, cfg):
            np.testing.assert_allclose(z, 1.0, atol=1e-10)

    def test_symmetric_sample_gives_antisymmetric_qq(self):
        pts = qq_points(np.array([-1.0, 0.0, 1.0]))
        np.testing.assert_allclose(pts[:, 1], -pts[::-1, 1], atol=1e-12)
        np.testing.assert_allclose(pts[:, 0], -pts[::-1, 0], atol=1e-12)

    def test_mean_growth_monotone_in_elasticity(self):
        from cesnet.economy import Economy

        base = random_economy(8, 3)
        prefs = HouseholdPrefs(mu=random_shares(8, 3))
        cfg = ShockConfig(count=400, sigma=0.3, seed=15)
        means = []
        for sigma_es in (0.1, 0.5, 1.0, 1.5, 2.0):
            e = Economy(base.labels, base.A, base.a0,
                        np.full(3, 1.0 - sigma_es))
            s = simulate_distribution(e, prefs, cfg, GENERAL_CES)
            means.append(s.mean)
        assert all(a <= b for a, b in zip(means, means[1:]))
