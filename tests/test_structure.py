import numpy as np
import pytest

from cesnet.economy import Economy
from cesnet.equilibrium import solve_fixed_point, solve_leontief
from cesnet.errors import NonPositivePrice, NotAnEquilibrium
from cesnet.structure import (
    equilibrium_structure,
    gradient_cost,
    hawkins_simon,
)

from conftest import random_economy, two_sector


def solved(economy, z):
    res = solve_fixed_point(economy, z, tol=1e-13)
    assert res.converged
    return res.pi


class TestGradient:
    def test_benchmark_gradient_is_coefficients(self, econ4):
        grad, grad0 = gradient_cost(econ4, np.ones(4), 1.0, np.ones(4))
        np.testing.assert_allclose(grad, econ4.A, atol=1e-14)
        np.testing.assert_allclose(grad0, econ4.a0, atol=1e-14)

    def test_finite_difference_oracle(self):
        e = random_economy(1, 4)
        rng = np.random.default_rng(21)
        z = np.exp(0.1 * rng.standard_normal(4))
        pi = solved(e, z)
        grad, grad0 = gradient_cost(e, pi, 1.0, z)

        from cesnet.equilibrium import unit_costs

        h = 1e-6
        fd = np.empty((4, 4))
        for i in range(4):
            up = pi.copy()
            up[i] += h
            dn = pi.copy()
            dn[i] -= h
            fd[i] = (unit_costs(e, up) - unit_costs(e, dn)) / (2 * h)
        np.testing.assert_allclose(grad, fd, atol=1e-7)
        fd0 = (unit_costs(e, pi, 1.0 + h) - unit_costs(e, pi, 1.0 - h)) / (2 * h)
        np.testing.assert_allclose(grad0, fd0, atol=1e-7)

    def test_rejects_non_equilibrium(self, econ4):
        z = np.array([1.3, 1.0, 1.0, 1.0])
        with pytest.raises(NotAnEquilibrium):
            gradient_cost(econ4, np.ones(4), 1.0, z)

    @pytest.mark.parametrize("t", [1e-300, 1e300])
    def test_beyond_the_float_range_is_nonpositive_price(self, t):
        # Steel's pi^(gamma - 1) = pi^-1.5 overflows at 1e-300 and its
        # c^(1 - gamma) at 1e300; their product must not be returned.
        e = two_sector([-0.5, 0.5])  # the CLI's sigma 1.5 and 0.5
        z = np.array([1.1, 0.9])
        pi = solved(e, z)
        with pytest.raises(NonPositivePrice, match="cost gradient leaves"):
            gradient_cost(e, t * pi, t, z)


class TestStructure:
    def test_benchmark_structure(self, econ4):
        ones = np.ones(4)
        st = equilibrium_structure(econ4, ones, 1.0, ones)
        np.testing.assert_allclose(st.B, econ4.A, atol=1e-14)
        np.testing.assert_allclose(st.b0, econ4.a0, atol=1e-14)
        np.testing.assert_allclose(st.S, econ4.A, atol=1e-14)
        assert st.viable

    def test_leontief_b_is_coefficients_over_z(self):
        e = random_economy(2, 4, gamma=1.0)
        rng = np.random.default_rng(22)
        z = np.exp(0.05 * rng.standard_normal(4))
        pi = solve_leontief(e, z)
        st = equilibrium_structure(e, pi, 1.0, z)
        np.testing.assert_allclose(st.B, e.A / z[None, :], atol=1e-12)
        np.testing.assert_allclose(st.b0, e.a0 / z, atol=1e-12)

    def test_cobb_douglas_shares_are_coefficients(self):
        e = random_economy(3, 4, gamma=0.0)
        rng = np.random.default_rng(23)
        z = np.exp(0.1 * rng.standard_normal(4))
        pi = solved(e, z)
        st = equilibrium_structure(e, pi, 1.0, z)
        np.testing.assert_allclose(st.S, e.A, atol=1e-10)

    def test_euler_price_identity(self):
        for seed in range(4):
            e = random_economy(seed, 5)
            rng = np.random.default_rng(seed + 40)
            z = np.exp(0.1 * rng.standard_normal(5))
            pi = solved(e, z)
            st = equilibrium_structure(e, pi, 1.0, z)
            np.testing.assert_allclose(pi @ st.B + st.b0, pi, atol=1e-9)

    def test_share_columns_sum_to_one(self, econ4):
        rng = np.random.default_rng(24)
        z = np.exp(0.1 * rng.standard_normal(4))
        pi = solved(econ4, z)
        st = equilibrium_structure(econ4, pi, 1.0, z)
        grad0 = gradient_cost(econ4, pi, 1.0, z)[1]
        s0 = grad0 * 1.0 / (z * pi)
        np.testing.assert_allclose(st.S.sum(axis=0) + s0, 1.0, atol=1e-9)

    def test_does_not_depend_on_the_numeraire(self):
        # B, b0 and S are homogeneous of degree zero in (pi, pi0).
        e = two_sector([-0.5, 0.5])  # the CLI's sigma 1.5 and 0.5
        z = np.array([1.1, 0.9])
        pi = solved(e, z)
        at_one = equilibrium_structure(e, pi, 1.0, z)
        scaled = equilibrium_structure(e, 2.5 * pi, 2.5, z)
        for name in ("B", "b0", "S"):
            np.testing.assert_allclose(getattr(scaled, name),
                                       getattr(at_one, name), rtol=1e-12)
        assert scaled.viable is at_one.viable is True

    def test_converged_solution_is_viable(self, econ4):
        z = np.exp(0.1 * np.random.default_rng(25).standard_normal(4))
        pi = solved(econ4, z)
        assert equilibrium_structure(econ4, pi, 1.0, z).viable


class TestHawkinsSimon:
    def test_zero_matrix_viable(self):
        assert hawkins_simon(np.zeros((3, 3)))

    def test_spectral_radius_boundary(self):
        assert hawkins_simon(np.full((2, 2), 0.49))
        assert not hawkins_simon(np.full((2, 2), 0.51))

    def test_matches_minor_oracle(self):
        rng = np.random.default_rng(26)
        for _ in range(200):
            n = rng.integers(1, 6)
            B = rng.uniform(0.0, 0.6, (n, n))
            M = np.eye(n) - B
            minors = [np.linalg.det(M[: k + 1, : k + 1]) for k in range(n)]
            assert hawkins_simon(B) == all(d > 0 for d in minors)

    def test_singular_i_minus_b_is_not_viable(self):
        assert hawkins_simon([[1.0]]) is False

    def test_rejects_negative_or_nonsquare(self):
        with pytest.raises(ValueError):
            hawkins_simon(np.array([[-0.1]]))
        with pytest.raises(ValueError):
            hawkins_simon(np.zeros((2, 3)))

    @pytest.mark.parametrize("B", [
        [[np.nan]], [[0.1, np.inf], [0.0, 0.1]], [[0.1, 0.2], [np.nan, 0.1]],
    ])
    def test_rejects_non_finite(self, B):
        # Each passed as viable when only a negative entry was rejected.
        with pytest.raises(ValueError, match="finite"):
            hawkins_simon(np.array(B))

    def test_single_entry_above_one(self):
        assert not hawkins_simon(np.array([[1.2]]))

    def test_matches_minor_oracle_near_unit_spectral_radius(self):
        # Sparse and dense nonnegative B scaled to a spectral radius just
        # below or just above 1, where the viability verdict turns.
        rng = np.random.default_rng(28)
        verdicts = []
        for _ in range(300):
            n = rng.integers(1, 9)
            density = rng.uniform(0.2, 1.0)
            B = rng.uniform(0.0, 1.0, (n, n)) * (rng.random((n, n)) < density)
            B[0, 0] += 0.1  # a positive spectral radius to scale
            side = rng.choice([-1.0, 1.0])
            rho = max(abs(np.linalg.eigvals(B)))
            B *= (1.0 + side * 10 ** rng.uniform(-6, -2)) / rho
            M = np.eye(n) - B
            minors = [np.linalg.det(M[: k + 1, : k + 1]) for k in range(n)]
            viable = all(d > 0 for d in minors)
            assert viable == (side < 0)
            assert hawkins_simon(B) == viable
            verdicts.append(viable)
        assert 100 < sum(verdicts) < 200
