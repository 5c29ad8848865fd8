import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cesnet.economy import Economy
from cesnet.equilibrium import (
    cost_map,
    solve_cobb_douglas,
    solve_fixed_point,
    solve_fixed_point_batch,
    solve_leontief,
    solve_uniform_ces,
    unit_cost,
    unit_costs,
)
from cesnet.errors import NonPositivePrice, NoPositiveSolution

from conftest import random_economy


def two_sector(gamma):
    return Economy(
        labels=("u", "v"),
        A=[[0.2, 0.3], [0.3, 0.2]],
        a0=[0.5, 0.5],
        gamma=np.broadcast_to(gamma, (2,)).copy(),
    )


class TestUnitCost:
    def test_one_at_benchmark(self):
        for seed in range(3):
            e = random_economy(seed, 5)
            np.testing.assert_allclose(
                unit_costs(e, np.ones(5)), 1.0, atol=1e-14
            )

    def test_degree_one_homogeneity_single_sector(self):
        for gamma in (-1.0, 0.0, 0.5, 1.0):
            e = Economy(labels=("a",), A=[[0.0]], a0=[1.0], gamma=[gamma])
            assert unit_cost(e, 0, np.array([1.0]), pi0=2.0) == pytest.approx(2.0)

    def test_leontief_arithmetic_mean(self):
        e = Economy(labels=("a",), A=[[0.5]], a0=[0.5], gamma=[1.0])
        assert unit_cost(e, 0, np.array([3.0]), pi0=1.0) == pytest.approx(2.0)

    def test_rejects_nonpositive_price(self, econ4):
        with pytest.raises(NonPositivePrice):
            unit_costs(econ4, np.array([1.0, -1.0, 1.0, 1.0]))

    def test_log_limit_continuity(self, econ4):
        pi = np.array([1.2, 0.7, 1.5, 0.9])
        e_small = Economy(
            labels=econ4.labels, A=econ4.A, a0=econ4.a0,
            gamma=np.full(4, 1e-12),
        )
        e_zero = Economy(
            labels=econ4.labels, A=econ4.A, a0=econ4.a0, gamma=np.zeros(4)
        )
        np.testing.assert_allclose(
            unit_costs(e_small, pi), unit_costs(e_zero, pi), rtol=1e-9
        )


class TestFixedPoint:
    def test_benchmark_is_fixed_point(self, econ4):
        res = solve_fixed_point(econ4, np.ones(4))
        assert res.converged
        np.testing.assert_allclose(res.pi, 1.0, atol=1e-10)

    def test_leontief_oracle(self):
        e = two_sector(1.0)
        z = np.array([1.1, 1.0])
        res = solve_fixed_point(e, z, tol=1e-12)
        assert res.converged
        oracle = np.linalg.solve((np.diag(z) - e.A).T, e.a0)
        np.testing.assert_allclose(res.pi, oracle, atol=1e-8)

    def test_cobb_douglas_oracle(self):
        e = two_sector(1e-12)
        z = np.array([1.1, 0.9])
        res = solve_fixed_point(e, z, tol=1e-12)
        oracle = np.exp(
            np.linalg.solve((np.eye(2) - e.A).T, -np.log(z))
        )
        np.testing.assert_allclose(res.pi, oracle, atol=1e-6)

    def test_divergence_detected(self):
        # Leontief economy with tiny productivity: diag(z) - A fails
        # Hawkins-Simon, so the recursion blows up.
        e = two_sector(1.0)
        res = solve_fixed_point(e, np.array([0.01, 0.01]), max_iter=100000)
        assert res.status in ("diverged", "max_iterations")
        assert not res.converged

    def test_huge_shock_is_no_false_equilibrium(self):
        # The prices fall far below 1 while the absolute step is already
        # below tol; they once retired as "converged" at [2.47e-21, 2.50e-07]
        # with a relative residual of 1.
        res = solve_fixed_point(two_sector(np.array([-0.5, 0.5])), [1e6, 1e6])
        assert res.status in ("diverged", "max_iterations")

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n=st.integers(min_value=1, max_value=6),
        tol=st.sampled_from([1e-10, 1e-6]),
    )
    def test_converged_rows_are_relative_equilibria(self, seed, n, tol):
        # A converged row's last step is at most sqrt(tol) of its smallest
        # price, and the map is nonexpansive in relative terms, so its
        # relative residual is sqrt(tol) to first order.  At a subnormal
        # price the map can round back to the price and the residual read 0,
        # so every price must also be a normal float.
        e = random_economy(seed, n)
        rng = np.random.default_rng(seed)
        Z = np.exp(rng.uniform(np.log(1e-3), np.log(1e6), (20, n)))
        batch = solve_fixed_point_batch(e, Z, tol=tol)
        bound = np.sqrt(tol) * (1 + 2 * np.sqrt(tol))
        for k in np.flatnonzero(batch.status == "converged"):
            pi = batch.pi[k]
            relative = np.abs(cost_map(e, pi, Z[k]) - pi) / pi
            assert relative.max() <= bound
            assert pi.min() >= np.finfo(float).tiny

    def test_rejects_bad_inputs(self, econ4):
        with pytest.raises(ValueError):
            solve_fixed_point(econ4, np.ones(4), tol=-1.0)
        with pytest.raises(ValueError):
            solve_fixed_point(econ4, np.ones(4), max_iter=0)


class TestClosedForms:
    def test_uniform_ces_benchmark(self, econ4):
        e = random_economy(2, 4, gamma=-0.5)
        np.testing.assert_allclose(
            solve_uniform_ces(e, np.ones(4), -0.5), 1.0, atol=1e-12
        )

    def test_uniform_gamma_one_equals_leontief(self):
        e = two_sector(1.0)
        z = np.array([1.2, 0.8])
        np.testing.assert_array_equal(
            solve_uniform_ces(e, z, 1.0), solve_leontief(e, z)
        )

    def test_uniform_matches_recursion(self):
        e = two_sector(-0.5)
        z = np.array([1.2, 0.8])
        res = solve_fixed_point(e, z, tol=1e-13)
        np.testing.assert_allclose(
            solve_uniform_ces(e, z, -0.5), res.pi, atol=1e-8
        )

    def test_leontief_scalar_oracle(self):
        e = Economy(labels=("a",), A=[[0.4]], a0=[0.6], gamma=[1.0])
        np.testing.assert_allclose(
            solve_leontief(e, np.array([2.0])), [0.6 / 1.6]
        )

    def test_leontief_no_positive_solution(self):
        # z below the self-input coefficient: 1x1 Hawkins-Simon fails.
        e = Economy(labels=("a",), A=[[0.4]], a0=[0.6], gamma=[1.0])
        with pytest.raises(NoPositiveSolution):
            solve_leontief(e, np.array([0.3]))

    def test_cobb_douglas_trivial(self, econ4):
        np.testing.assert_allclose(
            solve_cobb_douglas(econ4, np.ones(4)), 0.0, atol=1e-15
        )

    def test_cobb_douglas_scalar_oracle(self):
        e = Economy(labels=("a",), A=[[0.7]], a0=[0.3], gamma=[0.0])
        lnpi = solve_cobb_douglas(e, np.array([np.e]))
        np.testing.assert_allclose(lnpi, [-1.0 / 0.3])

    def test_cobb_douglas_matches_recursion(self):
        e = random_economy(5, 4, gamma=0.0)
        z = np.exp(0.1 * np.random.default_rng(5).standard_normal(4))
        res = solve_fixed_point(e, z, tol=1e-13)
        np.testing.assert_allclose(
            solve_cobb_douglas(e, z), np.log(res.pi), atol=1e-9
        )


class TestProperties:
    @pytest.mark.parametrize("gamma", [-1.0, -0.5, 0.5, 1.0])
    def test_closed_form_recursion_equivalence(self, gamma):
        for seed in range(5):
            e = random_economy(seed, 5, gamma=gamma)
            rng = np.random.default_rng(seed + 100)
            z = np.exp(0.1 * rng.standard_normal(5))
            pi_closed = solve_uniform_ces(e, z, gamma)
            res = solve_fixed_point(e, z, tol=1e-13)
            assert res.converged
            assert np.max(np.abs(res.pi - pi_closed)) < 1e-8

    @pytest.mark.parametrize("pi0", [0.0, -1.0, np.nan])
    def test_bad_numeraire_is_a_nonpositive_price(self, econ4, pi0):
        with pytest.raises(NonPositivePrice, match="numeraire"):
            unit_costs(econ4, np.ones(4), pi0)

    def test_solver_settings_are_keyword_only(self, econ4):
        # A positional third argument must not be read as the tolerance.
        with pytest.raises(TypeError):
            solve_fixed_point(econ4, np.ones(4), 2.0)
        with pytest.raises(TypeError):
            solve_fixed_point_batch(econ4, np.ones((1, 4)), 2.0)

    def test_map_monotonicity(self, econ4):
        rng = np.random.default_rng(9)
        z = np.exp(0.1 * rng.standard_normal(4))
        lo = rng.uniform(0.5, 1.0, 4)
        hi = lo + rng.uniform(0.0, 1.0, 4)
        assert np.all(cost_map(econ4, lo, z) <= cost_map(econ4, hi, z))

    def test_benchmark_uniqueness_from_random_starts(self, econ4):
        # The cost map is a contraction: iterated from any positive start it
        # reaches the one benchmark equilibrium, where every price is 1.
        rng = np.random.default_rng(10)
        for _ in range(100):
            pi = rng.uniform(0.1, 10.0, 4)
            for _ in range(1000):
                new = cost_map(econ4, pi, np.ones(4))
                if np.max(np.abs(new - pi)) <= 1e-12:
                    break
                pi = new
            np.testing.assert_allclose(new, 1.0, atol=1e-9)

    def test_cobb_douglas_continuity_in_gamma(self):
        base = random_economy(11, 4)
        z = np.exp(0.1 * np.random.default_rng(11).standard_normal(4))
        ln_cd = solve_cobb_douglas(
            Economy(base.labels, base.A, base.a0, np.zeros(4)), z
        )
        for eps in (1e-5, -1e-5):
            e = Economy(base.labels, base.A, base.a0, np.full(4, eps))
            res = solve_fixed_point(e, z, tol=1e-13)
            assert np.max(np.abs(np.log(res.pi) - ln_cd)) < 1e-3

    @settings(max_examples=20, deadline=None)
    @given(
        scale=st.floats(min_value=0.1, max_value=10.0),
        seed=st.integers(min_value=0, max_value=50),
    )
    def test_unit_cost_homogeneity(self, scale, seed):
        e = random_economy(seed, 3)
        rng = np.random.default_rng(seed)
        pi = rng.uniform(0.5, 2.0, 3)
        pi0 = rng.uniform(0.5, 2.0)
        np.testing.assert_allclose(
            unit_costs(e, scale * pi, scale * pi0),
            scale * unit_costs(e, pi, pi0),
            rtol=1e-10,
        )
