"""Equilibrium structure (B, b0), cost-share network S, and viability tests.

At an equilibrium price vector the gradient of each sector's unit cost
function gives the physical input-output coefficients that the economy has
transformed itself into; the Hawkins-Simon condition on ``I - B`` decides
whether that structure can serve any positive final demand.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .economy import Economy, check_prices, check_shock, cost_shares
from .equilibrium import unit_costs
from .errors import NonPositivePrice, NotAnEquilibrium

#: Max relative residual of the equilibrium condition tolerated by the
#: structure formulas.  Looser than the solver tolerance on purpose.
EQUILIBRIUM_TOLERANCE = 1e-6


@dataclass(frozen=True)
class EquilibriumStructure:
    """Equilibrium physical coefficients, cost shares and viability flag."""

    B: np.ndarray
    b0: np.ndarray
    S: np.ndarray
    viable: bool


def _require_equilibrium(economy, pi, pi0, z):
    """The validated ``(pi, pi0, z)`` and the unit costs at (pi0, pi)."""
    pi, pi0 = check_prices(pi, economy.n, pi0)
    z = check_shock(z, economy.n)
    c = unit_costs(economy, pi, pi0)
    residual = float(np.max(np.abs(c / z - pi) / pi))
    if residual > EQUILIBRIUM_TOLERANCE:
        raise NotAnEquilibrium(
            f"relative equilibrium residual {residual:.3g} exceeds "
            f"{EQUILIBRIUM_TOLERANCE:g}"
        )
    return pi, pi0, z, c


def gradient_cost(economy: Economy, pi, pi0, z):
    """Gradient of the unit cost aggregator at an equilibrium.

    Returns ``(grad, grad0)`` where ``grad[i, j] = d c_j / d pi_i`` for the
    n intermediate inputs and ``grad0[j]`` is the primary-factor partial.
    Uses the CES derivative ``a_ij pi_i^{gamma_j - 1} c_j^{1 - gamma_j}``,
    which is exact for every gamma including the Cobb-Douglas limit.
    """
    pi, pi0, _, c = _require_equilibrium(economy, pi, pi0, z)
    g = economy.gamma
    paug = np.concatenate(([pi0], pi))
    # The two powers overflow and underflow apart at extreme price levels.
    with np.errstate(over="ignore", invalid="ignore"):
        full = (
            economy.augmented_coefficients()
            * paug[:, None] ** (g[None, :] - 1.0)
            * c[None, :] ** (1.0 - g[None, :])
        )
    if not np.all(np.isfinite(full)):
        raise NonPositivePrice("cost gradient leaves the float range at these prices")
    return full[1:, :], full[0, :]


def equilibrium_structure(economy: Economy, pi, pi0, z) -> EquilibriumStructure:
    """Compute (B, b0), the cost-share network S, and viability at (pi, z).

    ``B[i, j] = (1/z_j) d c_j / d pi_i`` satisfies the Euler price identity
    ``pi_j = sum_i B_ij pi_i + b0_j pi0``; S holds the monetary cost shares.
    """
    grad, grad0 = gradient_cost(economy, pi, pi0, z)
    z = check_shock(z, economy.n)
    B = grad / z[None, :]
    b0 = grad0 / z
    S = cost_shares(economy, pi, pi0, z)[1:, :]
    return EquilibriumStructure(B=B, b0=b0, S=S, viable=hawkins_simon(B))


def hawkins_simon(B) -> bool:
    """True iff every leading principal minor of ``I - B`` is positive.

    Computed from the pivots of an unpivoted LU factorization: the k-th
    leading minor is the product of the first k pivots, so the test fails
    at the first pivot that is not positive (including one that underflows
    to zero).
    """
    B = np.asarray(B, dtype=float)
    if B.ndim != 2 or B.shape[0] != B.shape[1]:
        raise ValueError("B must be a square matrix")
    if np.any(B < 0):
        raise ValueError("B must be nonnegative")
    M = np.eye(B.shape[0]) - B
    return _pivots_all_positive(M)


def _pivots_all_positive(M) -> bool:
    M = M.copy()
    n = M.shape[0]
    for k in range(n):
        piv = M[k, k]
        # Pivot k is the ratio of consecutive leading minors, so a zero or
        # negative pivot means some leading minor is not positive.
        if piv <= 0:
            return False
        M[k + 1 :, k] /= piv
        M[k + 1 :, k + 1 :] -= np.outer(M[k + 1 :, k], M[k, k + 1 :])
    return True
