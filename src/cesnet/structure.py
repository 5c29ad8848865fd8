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


def gradient_cost(economy: Economy, pi, pi0, z):
    """Gradient of the unit cost aggregator at an equilibrium.

    Returns ``(grad, grad0)`` where ``grad[i, j] = d c_j / d pi_i`` for the
    n intermediate inputs and ``grad0[j]`` is the primary-factor partial.
    Uses the CES derivative ``a_ij pi_i^{gamma_j - 1} c_j^{1 - gamma_j}``,
    which is exact for every gamma including the Cobb-Douglas limit.
    Raises NotAnEquilibrium beyond the relative EQUILIBRIUM_TOLERANCE.
    """
    pi, pi0 = check_prices(pi, economy.n, pi0)
    z = check_shock(z, economy.n)
    c = unit_costs(economy, pi, pi0)
    residual = float(np.max(np.abs(c / z - pi) / pi))
    if residual > EQUILIBRIUM_TOLERANCE:
        raise NotAnEquilibrium(f"relative equilibrium residual {residual:.3g} "
                               f"exceeds {EQUILIBRIUM_TOLERANCE:g}")
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

    For a nonnegative B, ``I - B`` is a Z-matrix, whose leading principal
    minors are all positive iff it is a nonsingular M-matrix, iff
    ``(I - B) x = 1`` has a solution with every ``x_i > 0`` (Berman and
    Plemmons, *Nonnegative Matrices in the Mathematical Sciences*, ch. 6).
    So the test is one solve: a singular ``I - B``, or a solution with an
    entry that is not positive (including NaN), is not viable.  A B that is
    negative or not finite raises ValueError.
    """
    B = np.asarray(B, dtype=float)
    if B.ndim != 2 or B.shape[0] != B.shape[1]:
        raise ValueError("B must be a square matrix")
    if not np.all((B >= 0) & (B < np.inf)):
        raise ValueError("B must be nonnegative and finite")
    try:
        x = np.linalg.solve(np.eye(B.shape[0]) - B, np.ones(B.shape[0]))
    except np.linalg.LinAlgError:
        return False
    return bool(np.all(x > 0))
