"""The batched equilibrium engine against its K = 1 wrappers.

Every row of a batched solve must equal, bit for bit, the single-shock call
on that row: prices, iteration count, residual and status for the recursive
solver, prices and status for the closed forms (uniform CES at a drawn
gamma, whose gamma = 1 case is Leontief), ln H and status for the household
aggregation.  A row's status names the exception, or the ``Unviable``
status, of the single-shock call.  Monte Carlo summaries must not depend on
how the draws are cut into blocks.
"""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cesnet import equilibrium, montecarlo
from cesnet.economy import Economy
from cesnet.equilibrium import (
    CONVERGED,
    DIVERGED,
    GAMMA_SWITCH,
    MAX_ITERATIONS,
    NO_POSITIVE_SOLUTION,
    OVERFLOW_GUARD,
    SINGULAR,
    solve_cobb_douglas,
    solve_cobb_douglas_batch,
    solve_fixed_point,
    solve_fixed_point_batch,
    solve_leontief,
    solve_uniform_ces,
    solve_uniform_ces_batch,
)
from cesnet.errors import (
    MalformedTable,
    NonPositivePrice,
    NonPositiveValue,
    NoPositiveSolution,
    SingularSystem,
)
from cesnet.household import (
    COBB_DOUGLAS,
    GENERAL_CES,
    LEONTIEF,
    METHODS,
    HouseholdPrefs,
    Unviable,
    real_gdp_growth,
    real_gdp_growth_batch,
)
from cesnet.montecarlo import ShockConfig, simulate_distribution

from conftest import random_economy, random_shares


@st.composite
def economies(draw):
    """Random economies, some with sectors below the log-limit switch."""
    n = draw(st.integers(min_value=1, max_value=8))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = np.random.default_rng(seed)
    gamma = rng.uniform(-1.0, 1.5, n)
    tiny = rng.random(n) < draw(st.sampled_from([0.0, 0.4]))
    gamma[tiny] = rng.choice([0.0, 0.3 * GAMMA_SWITCH, -0.7 * GAMMA_SWITCH], tiny.sum())
    return random_economy(seed, n, gamma=gamma)


@st.composite
def shock_matrices(draw, n):
    """(K, n) shocks; large sigma makes diverging and unviable draws."""
    K = draw(st.integers(min_value=1, max_value=12))
    sigma = draw(st.sampled_from([0.1, 0.6, 1.5]))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    return np.exp(sigma * np.random.default_rng(seed).standard_normal((K, n)))


def reference_fixed_point(e, z, tol=1e-10, max_iter=10_000):
    """A plain loop over one shock vector, one sweep at a time."""
    aug, g = e.augmented_coefficients(), e.gamma
    small = np.abs(g) < GAMMA_SWITCH
    paug = np.ones(e.n + 1)
    residual, tiny = np.inf, np.finfo(float).tiny
    for it in range(1, max_iter + 1):
        c = np.empty(e.n)
        c[small] = np.exp(np.log(paug) @ aug[:, small])
        gr = g[~small]
        # Prices falling toward 0 overflow a negative power to inf, and a
        # price below the smallest normal float has lost its relative
        # precision; the check below reports either as divergence.
        with np.errstate(over="ignore"):
            powers = paug[:, None] ** gr
        c[~small] = np.einsum("ij,ij->j", aug[:, ~small], powers) ** (1 / gr)
        pi = c / z
        if not np.all(np.isfinite(pi) & (pi >= tiny) & (pi <= OVERFLOW_GUARD)):
            return pi, it, np.inf, DIVERGED
        residual = np.max(np.abs(pi - paug[1:]))
        paug[1:] = pi
        if residual <= tol and residual <= np.sqrt(tol) * pi.min():
            return pi, it, residual, CONVERGED
    return paug[1:], max_iter, residual, MAX_ITERATIONS


@settings(max_examples=60, deadline=None)
@given(data=st.data(), max_iter=st.sampled_from([1, 5, 30, 10_000]))
def test_fixed_point_rows_equal_single_solves(data, max_iter):
    e = data.draw(economies())
    assert_rows_equal_single_solves(e, data.draw(shock_matrices(e.n)), max_iter)


def test_fixed_point_rows_equal_single_solves_past_a_power_overflow():
    # At gamma -1 the first row's prices fall geometrically.  The row
    # diverges once a price falls below the smallest normal float, 2.2e-308;
    # its round sweeps on past the power's overflow, which must not warn.
    e = random_economy(3, 2, gamma=-1.0)
    Z = np.array([[10.0, 10.0], [1.2, 0.9]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert_rows_equal_single_solves(e, Z, 10_000)
    assert list(solve_fixed_point_batch(e, Z).status) == [DIVERGED, CONVERGED]


def assert_rows_equal_single_solves(e, Z, max_iter):
    batch = solve_fixed_point_batch(e, Z, max_iter=max_iter)
    for k, z in enumerate(Z):
        one = solve_fixed_point(e, z, max_iter=max_iter)
        got = batch.row(k)
        np.testing.assert_array_equal(got.pi, one.pi)
        assert (got.iterations, got.residual, got.status) == (
            one.iterations, one.residual, one.status)
        ref_pi, *ref = reference_fixed_point(e, z, max_iter=max_iter)
        np.testing.assert_array_equal(got.pi, ref_pi)
        assert [got.iterations, got.residual, got.status] == ref


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_closed_form_rows_equal_single_solves(data):
    e = data.draw(economies())
    Z = data.draw(shock_matrices(e.n))
    gamma = data.draw(
        st.just(1.0) | st.floats(-1.5, 1.5).filter(lambda g: abs(g) >= 0.05)
    )
    pi, status = solve_uniform_ces_batch(e, Z, 1.0)
    pi_u, status_u = solve_uniform_ces_batch(e, Z, gamma)
    log_cd = solve_cobb_douglas_batch(e, Z)
    for k, z in enumerate(Z):
        assert closed_form_status(solve_leontief, e, z) == status[k]
        if status[k] == CONVERGED:
            np.testing.assert_array_equal(pi[k], solve_leontief(e, z))
            np.testing.assert_array_equal(pi[k], reference_leontief(e, z))
        assert closed_form_status(solve_uniform_ces, e, z, gamma) == status_u[k]
        if status_u[k] == CONVERGED:
            np.testing.assert_array_equal(pi_u[k], solve_uniform_ces(e, z, gamma))
            if gamma == 1.0:
                np.testing.assert_array_equal(pi_u[k], reference_leontief(e, z))
        np.testing.assert_array_equal(log_cd[k], solve_cobb_douglas(e, z))
        np.testing.assert_array_equal(log_cd[k], reference_cobb_douglas(e, z))


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    method=st.sampled_from(METHODS),
    kappa=st.sampled_from([0.0, 0.5, -1.2]),
    max_iter=st.sampled_from([5, 10_000]),
)
def test_growth_rows_equal_single_aggregations(data, method, kappa, max_iter):
    e = data.draw(economies())
    Z = data.draw(shock_matrices(e.n))
    prefs = HouseholdPrefs(mu=random_shares(e.n, e.n), kappa=kappa)
    ln_h, status = real_gdp_growth_batch(e, prefs, Z, method, max_iter=max_iter)
    if method == COBB_DOUGLAS:
        assert set(status) == {CONVERGED}
    for k, z in enumerate(Z):
        one = real_gdp_growth(e, prefs, z, method, max_iter=max_iter)
        if isinstance(one, Unviable):
            assert one.status == status[k] != CONVERGED and ln_h[k] == 0.0
        else:
            assert status[k] == CONVERGED and ln_h[k] == one
            assert one == reference_growth(e, prefs, z, method, max_iter)


def closed_form_status(solve, *args):
    """The row status that a single-shock closed-form call stands for."""
    try:
        solve(*args)
    except SingularSystem:
        return SINGULAR
    except NoPositiveSolution:
        return NO_POSITIVE_SOLUTION
    return CONVERGED


def reference_leontief(e, z):
    return np.linalg.solve((np.diag(z) - e.A).T, e.a0)


def reference_cobb_douglas(e, z):
    return np.linalg.solve((np.eye(e.n) - e.A).T, -np.log(z))


def reference_growth(e, prefs, z, method, max_iter):
    """ln H of one viable draw, priced one shock vector at a time."""
    if method == GENERAL_CES:
        pi = np.exp(np.log(reference_fixed_point(e, z, max_iter=max_iter)[0]))
    elif method == LEONTIEF:
        pi = np.exp(np.log(reference_leontief(e, z)))
    else:
        pi = np.exp(reference_cobb_douglas(e, z))
    mu, k = prefs.mu, prefs.kappa
    if k == 0:
        return mu @ np.log(1.0 / z) - mu @ np.log(pi)
    return np.log(mu @ (1.0 / z) ** k) / k - np.log(mu @ pi**k) / k


def oracle_cost_kernel(economy):
    """The per-column cost kernel, kept as the oracle: one power per price
    and column, summed per column, with the round length of n powers per
    price.  It is ``_cost_kernel``'s own path unless all power-form columns
    share one exponent, so it holds that one-exponent sum and the kernel's
    shorter rounds to the per-column bits."""
    aug = economy.augmented_coefficients()
    g = economy.gamma
    small = np.abs(g) < GAMMA_SWITCH
    rest = ~small
    aug_small, aug_rest = aug[:, small], np.ascontiguousarray(aug[:, rest])
    g_rest = g[rest]
    inv_rest = 1.0 / g_rest
    mixed = small.any()

    def costs(paug):
        powers = paug[:, :, None] ** g_rest
        c = np.einsum("ij,kij->kj", aug_rest, powers) ** inv_rest
        if not mixed:
            return c
        out = np.empty((paug.shape[0], g.size))
        out[:, rest] = c
        log_p = np.log(paug)[:, None, :]
        out[:, small] = np.exp(np.matmul(log_p, aug_small)[:, 0])
        return out

    return costs, economy.n


#: Exponents that numpy's power replaces by 1/x, sqrt(x) or x*x when the
#: exponent has stride 0, Leontief's 1, and criterion 4's 0.9 and -0.5.
SPECIAL_GAMMAS = [0.5, 2.0, -1.0, 1.0, 0.9, -0.5]


@st.composite
def repeated_gamma_economies(draw):
    """Economies whose exponents repeat: uniform, drawn from a small pool,
    mixed with log-limit columns, or all Cobb-Douglas."""
    n = draw(st.integers(min_value=1, max_value=24))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = np.random.default_rng(seed)
    kind = draw(st.sampled_from(["uniform", "pool", "mixed", "cobb-douglas"]))
    if kind == "uniform":
        gamma = np.full(n, draw(st.sampled_from(SPECIAL_GAMMAS)))
    elif kind == "cobb-douglas":
        gamma = rng.choice([0.0, 0.3 * GAMMA_SWITCH, -0.7 * GAMMA_SWITCH], n)
    else:
        values = np.concatenate([SPECIAL_GAMMAS, rng.uniform(-1.0, 1.5, 4)])
        size = draw(st.integers(min_value=1, max_value=4))
        gamma = rng.choice(rng.choice(values, size, replace=False), n)
        if kind == "mixed":
            tiny = rng.random(n) < 0.4
            gamma[tiny] = rng.choice([0.0, 0.5 * GAMMA_SWITCH], tiny.sum())
    return random_economy(seed, n, gamma=gamma)


def bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


def assert_same_as_old_kernel(e, Z, max_iter=10_000):
    """The solve equals, bit for bit, the solve with the oracle kernel, and
    the kernel counts the powers it takes as it should."""
    g_rest = e.gamma[np.abs(e.gamma) >= GAMMA_SWITCH]
    u = np.unique(g_rest).size
    powered = 1 if u == 1 else g_rest.size
    assert equilibrium._cost_kernel(e)[1] == powered + (g_rest.size < e.n)
    got = solve_fixed_point_batch(e, Z, max_iter=max_iter)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(equilibrium, "_cost_kernel", oracle_cost_kernel)
        want = solve_fixed_point_batch(e, Z, max_iter=max_iter)
    np.testing.assert_array_equal(bits(got.pi), bits(want.pi))
    np.testing.assert_array_equal(bits(got.residual), bits(want.residual))
    np.testing.assert_array_equal(got.iterations, want.iterations)
    assert list(got.status) == list(want.status)


@settings(max_examples=60, deadline=None)
@given(e=repeated_gamma_economies(), rows=st.integers(min_value=1, max_value=200),
       sigma=st.sampled_from([0.1, 0.5, 1.5]),
       seed=st.integers(min_value=0, max_value=10_000),
       max_iter=st.just(10_000))
# Two elasticity classes at n = 100, a size that hypothesis never draws; at
# 100 powers per price, fewer sweeps keep both solves affordable.
@example(e=random_economy(7, 100, gamma=np.resize([0.9, -0.5], 100)),
         rows=50, sigma=0.5, seed=7, max_iter=1000)
def test_shared_powers_equal_the_old_kernel(e, rows, sigma, seed, max_iter):
    Z = np.exp(sigma * np.random.default_rng(seed).standard_normal((rows, e.n)))
    assert_same_as_old_kernel(e, Z, max_iter=max_iter)


@pytest.mark.parametrize("gamma", SPECIAL_GAMMAS)
def test_shared_powers_of_a_uniform_economy(gamma):
    # At n = 100 the oracle takes n powers of each price; fewer rows and
    # sweeps keep it affordable, and at gamma 2 they still end in all three
    # statuses.
    for n, rows, max_iter in ((10, 200, 10_000), (100, 50, 1000)):
        e = random_economy(7, n, gamma=gamma)
        Z = np.exp(0.5 * np.random.default_rng(7).standard_normal((rows, n)))
        assert_same_as_old_kernel(e, Z, max_iter=max_iter)


@pytest.mark.parametrize("gamma", SPECIAL_GAMMAS)
def test_shared_powers_of_one_power_form_column(gamma):
    # One column takes the power form and the others the log-limit.
    g = np.zeros(10)
    g[3] = gamma
    e = random_economy(7, 10, gamma=g)
    Z = np.exp(0.5 * np.random.default_rng(7).standard_normal((200, 10)))
    assert_same_as_old_kernel(e, Z)


@pytest.mark.parametrize("round_sweeps", [1, 3, equilibrium.MAX_ROUND_SWEEPS])
def test_one_batch_holds_every_status(monkeypatch, round_sweeps):
    # Rows must not depend on how many sweeps run between two checks, and
    # the discarded sweeps past a row's divergence must stay silent.
    monkeypatch.setattr(equilibrium, "MAX_ROUND_SWEEPS", round_sweeps)
    e = random_economy(3, 4, gamma=0.9)
    Z = np.array([np.ones(4), np.full(4, 0.3), np.full(4, 1.2), np.full(4, 0.6)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = solve_fixed_point_batch(e, Z, max_iter=200)
    assert list(batch.status) == [CONVERGED, DIVERGED, CONVERGED, MAX_ITERATIONS]
    assert batch.residual[1] == np.inf
    for k, z in enumerate(Z):
        ref_pi, *ref = reference_fixed_point(e, z, max_iter=200)
        np.testing.assert_array_equal(batch.pi[k], ref_pi)
        assert [batch.iterations[k], batch.residual[k], batch.status[k]] == ref


def test_singular_leontief_row_fails_alone():
    e = Economy(labels=("a",), A=[[0.5]], a0=[0.5], gamma=[1.0])
    Z = np.array([[2.0], [0.5], [0.25], [1.0]])  # 0.5 - 0.5 = 0 is singular
    pi, status = solve_uniform_ces_batch(e, Z, 1.0)
    assert list(status) == [CONVERGED, SINGULAR, NO_POSITIVE_SOLUTION, CONVERGED]
    np.testing.assert_array_equal(pi[[0, 3]], [[0.5 / 1.5], [1.0]])
    with pytest.raises(SingularSystem):
        solve_leontief(e, Z[1])
    with pytest.raises(NoPositiveSolution):
        solve_leontief(e, Z[2])
    prefs = HouseholdPrefs(mu=[1.0])
    ln_h, growth_status = real_gdp_growth_batch(e, prefs, Z, LEONTIEF)
    assert list(growth_status) == list(status)
    assert list(ln_h[[1, 2]]) == [0.0, 0.0]
    assert real_gdp_growth(e, prefs, Z[1], LEONTIEF).status == SINGULAR


def test_batch_raises_the_first_rows_error():
    e = random_economy(0, 3)
    prefs = HouseholdPrefs(mu=random_shares(0, 3))
    Z = np.ones((4, 3))
    Z[2, 1] = np.nan
    Z[3, 0] = -1.0
    with pytest.raises(NonPositiveValue, match="nan"):
        real_gdp_growth_batch(e, prefs, Z, COBB_DOUGLAS)
    with pytest.raises(NonPositiveValue, match="nan"):
        solve_fixed_point_batch(e, Z)


def test_batch_validates_the_shocks_before_solving():
    # I - A is singular, so a solve of the first, valid row would raise
    # SingularSystem; the bad second row is reported first.
    e = Economy(labels=("a", "b"), A=[[1.0, 0.0], [0.0, 0.5]], a0=[0.0, 0.5],
                gamma=[0.0, 0.0])
    prefs = HouseholdPrefs(mu=[0.5, 0.5])
    with pytest.raises(NonPositiveValue, match="nan"):
        real_gdp_growth_batch(e, prefs, [[1.0, 1.0], [np.nan, 1.0]], COBB_DOUGLAS)


@pytest.mark.usefixtures("force_pool")
@pytest.mark.parametrize("method", METHODS)
def test_distribution_independent_of_blocks(monkeypatch, method):
    # Inelastic economy under large shocks: unviable Leontief draws and a
    # long tail of general-CES sweeps.
    e = random_economy(42, 6, gamma=0.9)
    prefs = HouseholdPrefs(mu=random_shares(1, 6))
    cfg = ShockConfig(count=120, sigma=0.5, seed=11)
    runs = [simulate_distribution(e, prefs, cfg, method, workers=w)
            for w in (1, 3, 8)]
    # 5 rows of (n + 1) * n floats per block: 24 blocks whatever the workers.
    monkeypatch.setattr(montecarlo, "WORKSPACE_BYTES", 5 * 8 * 7 * 6)
    runs += [simulate_distribution(e, prefs, cfg, method, workers=w)
             for w in (1, 8)]
    for other in runs[1:]:
        assert other.samples.tobytes() == runs[0].samples.tobytes()
        assert other.to_dict() == runs[0].to_dict()
    if method == LEONTIEF:
        assert runs[0].n_unviable > 0


def test_distribution_uses_one_row_per_draw(monkeypatch):
    # One shock matrix of one row per draw, and each row solved once.
    matrices, solved = [], []
    real_matrix = montecarlo.shock_matrix
    real_batch = montecarlo.real_gdp_growth_batch
    monkeypatch.setattr(montecarlo, "shock_matrix",
                        lambda *a: matrices.append(real_matrix(*a)) or matrices[-1])
    monkeypatch.setattr(montecarlo, "real_gdp_growth_batch",
                        lambda e, p, Z, m: solved.append(len(Z)) or real_batch(e, p, Z, m))
    e = random_economy(0, 3)
    prefs = HouseholdPrefs(mu=random_shares(0, 3))
    simulate_distribution(e, prefs, ShockConfig(count=25, seed=2), GENERAL_CES)
    assert [Z.shape for Z in matrices] == [(25, 3)]
    assert sum(solved) == 25
