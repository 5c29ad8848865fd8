import numpy as np
import pytest

from cesnet import household
from cesnet.economy import Economy
from cesnet.equilibrium import (
    DIVERGED,
    MAX_ITERATIONS,
    NO_POSITIVE_SOLUTION,
    SINGULAR,
    solve_fixed_point,
    solve_fixed_point_batch,
)
from cesnet.errors import InvalidPreferences, MalformedTable, NonPositivePrice
from cesnet.household import (
    COBB_DOUGLAS,
    GENERAL_CES,
    LEONTIEF,
    METHODS,
    HouseholdPrefs,
    Unviable,
    domar_weights,
    log_price_index,
    nominal_income,
    price_index,
    real_gdp_growth,
    real_gdp_growth_batch,
)
from cesnet.montecarlo import ShockConfig, distribution_from_shocks, simulate_distribution

from conftest import random_economy, random_shares

# A draw that fails with each status: economy, shock, method and max_iter.
UNVIABLE_DRAWS = {
    NO_POSITIVE_SOLUTION: (random_economy(5, 2, gamma=1.0), [0.01, 0.01],
                           LEONTIEF, 10000),
    DIVERGED: (random_economy(5, 2, gamma=1.0), [0.01, 0.01], GENERAL_CES, 10000),
    MAX_ITERATIONS: (random_economy(0, 2), [1.1, 0.9], GENERAL_CES, 2),
    # 0.5 - 0.5 = 0 is singular.
    SINGULAR: (Economy(labels=("a",), A=[[0.5]], a0=[0.5], gamma=[1.0]), [0.5],
               LEONTIEF, 10000),
}


class TestPriceIndex:
    def test_one_at_unit_prices(self):
        for kappa in (-1.0, 0.0, 0.5, 1.0):
            prefs = HouseholdPrefs(mu=random_shares(0, 5), kappa=kappa)
            assert price_index(np.ones(5), prefs) == pytest.approx(1.0)

    def test_geometric_mean_at_kappa_zero(self):
        prefs = HouseholdPrefs(mu=[0.5, 0.5], kappa=0.0)
        assert price_index(np.array([1.0, 4.0]), prefs) == pytest.approx(2.0)

    def test_arithmetic_mean_at_kappa_one(self):
        prefs = HouseholdPrefs(mu=[0.5, 0.5], kappa=1.0)
        assert price_index(np.array([1.0, 3.0]), prefs) == pytest.approx(2.0)

    def test_degree_one_homogeneity(self):
        prefs = HouseholdPrefs(mu=random_shares(1, 4), kappa=-0.7)
        pi = np.random.default_rng(1).uniform(0.5, 2.0, 4)
        assert price_index(3.0 * pi, prefs) == pytest.approx(
            3.0 * price_index(pi, prefs)
        )

    def test_kappa_log_limit_continuity(self):
        mu = random_shares(2, 4)
        pi = np.random.default_rng(2).uniform(0.5, 2.0, 4)
        lo = log_price_index(pi, HouseholdPrefs(mu=mu, kappa=1e-12))
        cd = log_price_index(pi, HouseholdPrefs(mu=mu, kappa=0.0))
        assert lo == pytest.approx(cd, rel=1e-9)

    def test_rejects_nonpositive_prices(self):
        prefs = HouseholdPrefs(mu=[1.0], kappa=0.5)
        with pytest.raises(NonPositivePrice):
            price_index(np.array([0.0]), prefs)

    def test_rejects_a_price_vector_of_the_wrong_shape(self):
        prefs = HouseholdPrefs(mu=[0.5, 0.5])
        with pytest.raises(MalformedTable, match="expected \\(2,\\)"):
            log_price_index(np.ones(3), prefs)

    def test_prefs_validation(self):
        with pytest.raises(ValueError):
            HouseholdPrefs(mu=[0.4, 0.4])
        with pytest.raises(ValueError):
            HouseholdPrefs(mu=[1.2, -0.2])

    @pytest.mark.parametrize("mu", [[], [[0.5, 0.5]]])
    def test_prefs_reject_empty_or_nested_shares(self, mu):
        with pytest.raises(InvalidPreferences, match="^mu must be a nonempty vector$"):
            HouseholdPrefs(mu=mu)

    @pytest.mark.parametrize("kappa", [np.nan, np.inf, -np.inf])
    def test_prefs_reject_non_finite_kappa(self, kappa):
        with pytest.raises(InvalidPreferences, match="^kappa must be finite$"):
            HouseholdPrefs(mu=[0.5, 0.5], kappa=kappa)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_prefs_reject_non_finite_shares(self, bad):
        with pytest.raises(ValueError, match="finite"):
            HouseholdPrefs(mu=[bad, 0.5])
        with pytest.raises(ValueError, match="finite"):
            HouseholdPrefs(mu=[1.0, bad])


class TestNominalIncome:
    def test_unit_shock_gives_h_prev(self):
        # The previous real GDP is normalized to one.
        prefs = HouseholdPrefs(mu=random_shares(3, 3), kappa=0.3)
        assert nominal_income(np.ones(3), prefs) == 1.0

    def test_harmonic_oracle(self):
        # kappa = 1 on reciprocal prices: W = mu . (1/z).
        prefs = HouseholdPrefs(mu=[0.25, 0.75], kappa=1.0)
        z = np.array([2.0, 0.5])
        assert nominal_income(z, prefs) == pytest.approx(0.25 / 2.0 + 0.75 / 0.5)


class TestRealGdpGrowth:
    @pytest.mark.parametrize("method", METHODS)
    def test_prefs_of_another_length_raise_before_any_solve(self, method, monkeypatch):
        def solve(*args, **kwargs):
            raise AssertionError("solved with preferences of another length")

        for name in ("solve_fixed_point_batch", "solve_uniform_ces_batch",
                     "solve_cobb_douglas_batch"):
            monkeypatch.setattr(household, name, solve)
        e = random_economy(1, 4)
        prefs = HouseholdPrefs(mu=random_shares(1, 3))
        calls = (
            lambda: real_gdp_growth(e, prefs, np.ones(4), method),
            lambda: real_gdp_growth_batch(e, prefs, np.ones((2, 4)), method),
            lambda: simulate_distribution(e, prefs, ShockConfig(count=5), method),
        )
        for call in calls:
            with pytest.raises(InvalidPreferences,
                               match="^3 expenditure shares for 4 sectors$"):
                call()

    def test_zero_growth_without_intermediates(self):
        e = Economy(
            labels=("a", "b"),
            A=[[0.0, 0.0], [0.0, 0.0]],
            a0=[1.0, 1.0],
            gamma=[0.5, -0.5],
        )
        prefs = HouseholdPrefs(mu=[0.5, 0.5], kappa=0.4)
        z = np.array([1.4, 0.7])
        for method in (GENERAL_CES, LEONTIEF, COBB_DOUGLAS):
            assert real_gdp_growth(e, prefs, z, method) == pytest.approx(0.0, abs=1e-10)

    def test_methods_agree_at_their_elasticities(self):
        prefs = HouseholdPrefs(mu=random_shares(4, 4), kappa=0.2)
        rng = np.random.default_rng(4)
        z = np.exp(0.1 * rng.standard_normal(4))
        e_leon = random_economy(4, 4, gamma=1.0)
        assert real_gdp_growth(e_leon, prefs, z, GENERAL_CES) == pytest.approx(
            real_gdp_growth(e_leon, prefs, z, LEONTIEF), abs=1e-8
        )
        e_cd = random_economy(4, 4, gamma=0.0)
        assert real_gdp_growth(e_cd, prefs, z, GENERAL_CES) == pytest.approx(
            real_gdp_growth(e_cd, prefs, z, COBB_DOUGLAS), abs=1e-8
        )

    @pytest.mark.parametrize("status", UNVIABLE_DRAWS)
    def test_unviable_is_raised(self, status):
        e, z, method, max_iter = UNVIABLE_DRAWS[status]
        prefs = HouseholdPrefs(mu=np.full(e.n, 1.0 / e.n))
        with pytest.raises(Unviable) as info:
            real_gdp_growth(e, prefs, np.array(z), method, max_iter=max_iter)
        assert (info.value.method, info.value.status) == (method, status)
        assert str(info.value) == (
            f"solver ran out of iterations under method {method!r}"
            if status == MAX_ITERATIONS
            else f"no positive equilibrium under method {method!r}")

    def test_out_of_iterations_is_not_called_no_equilibrium(self, econ4):
        # A draw that merely needs more sweeps than allowed says so.
        prefs = HouseholdPrefs(mu=random_shares(0, 4))
        z = np.exp(0.1 * np.random.default_rng(3).standard_normal(4))
        assert isinstance(real_gdp_growth(econ4, prefs, z), float)
        with pytest.raises(Unviable) as info:
            real_gdp_growth(econ4, prefs, z, GENERAL_CES, max_iter=2)
        assert info.value.status == MAX_ITERATIONS
        assert str(info.value) == (
            "solver ran out of iterations under method 'general-ces'")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_tiny_shock_fails_without_a_warning(self):
        # z = 1e-300 drives the recursion to inf, whose steps are inf - inf,
        # and the Cobb-Douglas prices past the range of exp.
        e = random_economy(1, 4)
        prefs = HouseholdPrefs(mu=random_shares(1, 4))
        Z = np.array([[1e-300, 1.0, 1.0, 1.0]])
        assert list(solve_fixed_point_batch(e, Z).status) == [DIVERGED]
        with pytest.raises(Unviable) as info:
            real_gdp_growth(e, prefs, Z[0])
        assert info.value.status == DIVERGED
        with pytest.raises(NonPositivePrice, match="left the float range"):
            real_gdp_growth_batch(e, prefs, Z, COBB_DOUGLAS)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_price_stuck_in_the_subnormals_is_no_equilibrium(self):
        # s2's price decays into the subnormals, where c(pi)/z rounds back
        # to itself: the step is exactly 0, and the row once retired as
        # "converged" at a price of 1.5e-323 with ln H = 325 at kappa 0.
        # Only statuses are asserted: the sweep counts follow the
        # CPU-dispatched bits of pow.
        table = np.array([[0.41128009, 0.4145973, 0.20975604],
                          [0.11083884, 0.20126295, 0.08942753],
                          [0.23428715, 0.17685884, 0.24280187],
                          [0.24359392, 0.20728092, 0.45801456]])
        table /= table.sum(axis=0)
        sigma = np.array([0.67949943, 0.65876687, 1.93902478])
        e = Economy(labels=("s0", "s1", "s2"), A=table[1:], a0=table[0],
                    gamma=1.0 - sigma)
        z = np.array([1.2075522, 0.82024082, 2.61335275])
        mu = [0.26326847, 0.29992489, 0.43680664]
        assert list(solve_fixed_point_batch(e, z[None, :]).status) == [DIVERGED]
        for kappa in (0.0, 0.5):
            with pytest.raises(Unviable) as info:
                real_gdp_growth(e, HouseholdPrefs(mu=mu, kappa=kappa), z)
            assert info.value.status == DIVERGED

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("kappa", [1e308, -1e308])
    @pytest.mark.parametrize("method", METHODS)
    def test_non_finite_growth_never_passes(self, econ4, method, kappa):
        # A price other than 1 overflows or underflows under such a kappa.
        prefs = HouseholdPrefs(mu=random_shares(0, 4), kappa=kappa)
        Z = np.array([[1.1, 0.9, 1.0, 1.0]])
        with pytest.raises(NonPositivePrice, match="left the float range"):
            real_gdp_growth_batch(econ4, prefs, Z, method)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("z, kappa", [([1e300, 1.0], 0.01),
                                          ([5e-324, 1.0], -0.01)])
    def test_price_at_zero_or_inf_never_passes(self, z, kappa):
        # Steel's Cobb-Douglas price exp(-L_00 ln 1e300) underflows to 0,
        # and 1/5e-324 is inf; with a small kappa, 0**kappa = 0 and
        # inf**kappa = inf would still give a finite but wrong ln H.
        e = Economy(labels=("steel", "corn"), A=[[0.2, 0.3], [0.3, 0.2]],
                    a0=[0.5, 0.5], gamma=[-0.5, 0.5])
        prefs = HouseholdPrefs(mu=[0.4, 0.6], kappa=kappa)
        with pytest.raises(NonPositivePrice, match="left the float range"):
            real_gdp_growth_batch(e, prefs, np.array([z]), COBB_DOUGLAS)

    @pytest.mark.usefixtures("force_pool")
    def test_non_finite_growth_message_independent_of_blocks(self, econ4):
        prefs = HouseholdPrefs(mu=random_shares(0, 4))
        Z = np.ones((4, 4))
        Z[3, 0] = 1e-300
        messages = set()
        for workers in (1, 2):
            with pytest.raises(NonPositivePrice) as info:
                distribution_from_shocks(econ4, prefs, Z, COBB_DOUGLAS, 0, workers)
            messages.add(str(info.value))
        assert len(messages) == 1

    def test_unknown_method_raises(self, econ4):
        prefs = HouseholdPrefs(mu=random_shares(0, 4))
        with pytest.raises(ValueError):
            real_gdp_growth(econ4, prefs, np.ones(4), "translog")


class TestDomarWeights:
    def test_no_intermediates_means_zero_weights(self):
        e = Economy(
            labels=("a", "b"),
            A=[[0.0, 0.0], [0.0, 0.0]],
            a0=[1.0, 1.0],
            gamma=[0.0, 0.0],
        )
        np.testing.assert_allclose(
            domar_weights(e, np.array([0.5, 0.5])), [0.0, 0.0], atol=1e-15
        )

    def test_single_sector_oracle(self):
        e = Economy(labels=("a",), A=[[0.5]], a0=[0.5], gamma=[0.0])
        np.testing.assert_allclose(domar_weights(e, np.array([1.0])), [1.0])

    def test_exact_linearity_of_cobb_douglas_growth(self):
        for seed in range(4):
            e = random_economy(seed, 5, gamma=0.0)
            mu = random_shares(seed, 5)
            prefs = HouseholdPrefs(mu=mu, kappa=0.0)
            lam = domar_weights(e, mu)
            rng = np.random.default_rng(seed + 60)
            z = np.exp(0.3 * rng.standard_normal(5))
            ln_h = real_gdp_growth(e, prefs, z, COBB_DOUGLAS)
            assert ln_h == pytest.approx(float(lam @ np.log(z)), abs=1e-12)

    def test_rejects_bad_demand_shares(self, econ4):
        with pytest.raises(ValueError):
            domar_weights(econ4, np.array([0.5, 0.5, 0.5, 0.5]))
        with pytest.raises(ValueError):
            domar_weights(econ4, np.array([1.0, 0.0]))
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                domar_weights(econ4, np.array([bad, 0.5, 0.25, 0.25]))


class TestSpotChecks:
    def test_uniform_shock_scales_income(self):
        prefs = HouseholdPrefs(mu=random_shares(5, 3), kappa=-0.4)
        assert nominal_income(np.full(3, 2.0), prefs) == pytest.approx(0.5)

    def test_direct_formula_evaluation(self):
        prefs = HouseholdPrefs(mu=[0.3, 0.7], kappa=0.5)
        z = np.array([1.2, 0.9])
        expected = (0.3 * (1 / 1.2) ** 0.5 + 0.7 * (1 / 0.9) ** 0.5) ** 2.0
        assert nominal_income(z, prefs) == pytest.approx(expected)

    def test_no_shock_means_no_growth_all_methods(self, econ4):
        prefs = HouseholdPrefs(mu=random_shares(0, 4), kappa=0.0)
        for method in (GENERAL_CES, LEONTIEF, COBB_DOUGLAS):
            assert real_gdp_growth(econ4, prefs, np.ones(4), method) == pytest.approx(
                0.0, abs=1e-10
            )

    def test_cobb_douglas_growth_is_linear_in_log_shocks(self):
        e = random_economy(6, 3, gamma=0.0)
        mu = random_shares(6, 3)
        prefs = HouseholdPrefs(mu=mu)
        z = np.exp(0.2 * np.random.default_rng(6).standard_normal(3))
        once = real_gdp_growth(e, prefs, z, COBB_DOUGLAS)
        twice = real_gdp_growth(e, prefs, z**2, COBB_DOUGLAS)
        assert twice == pytest.approx(2.0 * once, abs=1e-12)
