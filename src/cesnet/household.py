"""Household price index, conservative nominal income and Domar aggregators.

The household holds CES preferences with expenditure shares mu and curvature
kappa (Cobb-Douglas utility at kappa = 0).  Real GDP growth under a
productivity shock z is

    ln H = -ln Pi(pi(z)) + ln Pi(1/z)

with the previous real GDP normalized to one: income is credited only up to
the conservative level ``W = Pi(1/z)``, so a simple economy without
intermediate inputs (where pi = 1/z exactly) records zero growth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .economy import Economy, check_prices, check_shock, check_shock_matrix
from .equilibrium import (
    CONVERGED,
    MAX_ITERATIONS,
    _solve,
    solve_cobb_douglas_batch,
    solve_fixed_point_batch,
    solve_uniform_ces_batch,
)
from .errors import CesnetError, InvalidPreferences, NonPositivePrice

#: Below this |kappa| the price index uses the Cobb-Douglas log-limit.
KAPPA_SWITCH = 1e-8

GENERAL_CES = "general-ces"
LEONTIEF = "leontief"
COBB_DOUGLAS = "cobb-douglas"
METHODS = (GENERAL_CES, LEONTIEF, COBB_DOUGLAS)


@dataclass(frozen=True)
class HouseholdPrefs:
    """CES utility parameters: expenditure shares mu and curvature kappa."""

    mu: np.ndarray
    kappa: float = 0.0

    def __post_init__(self):
        mu = np.ascontiguousarray(np.asarray(self.mu, dtype=float))
        if mu.ndim != 1 or mu.size == 0:
            raise InvalidPreferences("mu must be a nonempty vector")
        if not np.all(np.isfinite(mu)):
            raise InvalidPreferences("expenditure shares must be finite")
        if np.any(mu < 0):
            raise InvalidPreferences("expenditure shares must be nonnegative")
        if abs(mu.sum() - 1.0) > 1e-9:
            raise InvalidPreferences(
                f"expenditure shares sum to {float(mu.sum())!r}, expected 1"
            )
        if not np.isfinite(self.kappa):
            raise InvalidPreferences("kappa must be finite")
        mu.flags.writeable = False
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "kappa", float(self.kappa))

    @property
    def n(self) -> int:
        return self.mu.size


class Unviable(CesnetError):
    """No positive equilibrium was found for a draw.

    ``status`` is the solver's status for the draw (see ``equilibrium``).
    """

    def __init__(self, method: str, status: str):
        super().__init__(method, status)
        self.method = method
        self.status = status

    def __str__(self):
        if self.status == MAX_ITERATIONS:
            return f"solver ran out of iterations under method {self.method!r}"
        return f"no positive equilibrium under method {self.method!r}"


def log_price_index(pi, prefs: HouseholdPrefs) -> float:
    """ln Pi(pi) of the CES price index; NonPositivePrice if it leaves the float range."""
    pi, _ = check_prices(pi, prefs.n)
    ln = _log_price_index_rows(pi[None, :], prefs)[0]
    if np.isnan(ln):
        raise NonPositivePrice(f"a price index left the float range at prices {pi}")
    return float(ln)


def _log_price_index_rows(P, prefs: HouseholdPrefs) -> np.ndarray:
    """ln Pi of each row of a (K, n) price matrix, NaN where a price is 0 or
    inf (0**kappa = 0 would give a finite, wrong value) or ln Pi is not finite.

    Row-wise dot products through ``matmul`` on (1, n) @ (n, 1) blocks: a
    row's value is then the same for any K, which ``P @ mu`` does not
    guarantee.
    """
    k = prefs.kappa
    mu = prefs.mu[:, None]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if abs(k) < KAPPA_SWITCH:
            ln = np.matmul(np.log(P)[:, None, :], mu)[:, 0, 0]
        else:
            ln = np.log(np.matmul((P**k)[:, None, :], mu)[:, 0, 0]) / k
    ln[~(np.isfinite(ln) & np.all((P > 0) & (P < np.inf), axis=1))] = np.nan
    return ln


def price_index(pi, prefs: HouseholdPrefs) -> float:
    """CES price index Pi(pi); equals 1 at unit prices, homogeneous of
    degree one."""
    return float(np.exp(log_price_index(pi, prefs)))


def nominal_income(z, prefs: HouseholdPrefs) -> float:
    """Conservative nominal income ``W = Pi(1/z)``, at a previous real GDP
    of one."""
    with np.errstate(over="ignore"):  # check_prices refuses 1/z at inf
        inv_z = 1.0 / check_shock(z, prefs.n)
    return price_index(inv_z, prefs)


def real_gdp_growth(
    economy: Economy,
    prefs: HouseholdPrefs,
    z,
    method: str = GENERAL_CES,
    max_iter: int = 10000,
):
    """Log real GDP growth under shock z.

    method selects how equilibrium prices are obtained: "general-ces" runs
    the recursive solver on the economy's own elasticities, "leontief" and
    "cobb-douglas" use their closed forms.  A solver that fails to converge
    (diverged or out of iterations) and a closed form without a positive
    solution both raise ``Unviable``, carrying the row's status.
    """
    z = check_shock(z, economy.n)
    ln_h, status = real_gdp_growth_batch(
        economy, prefs, z[None, :], method, max_iter=max_iter)
    if status[0] != CONVERGED:
        raise Unviable(method, status[0])
    return float(ln_h[0])


def real_gdp_growth_batch(
    economy: Economy,
    prefs: HouseholdPrefs,
    Z,
    method: str = GENERAL_CES,
    max_iter: int = 10000,
) -> tuple[np.ndarray, np.ndarray]:
    """Log real GDP growth for every row of a (K, n) shock matrix.

    Returns ``(ln_h, status)``: the growth of each row and its solver status
    (see ``equilibrium``); ``ln_h`` is 0 where a row did not converge.  Row k
    equals ``real_gdp_growth(economy, prefs, Z[k], method, ...)`` bit for bit.
    Before any solve, preferences of another length raise InvalidPreferences,
    and the first bad shock row what ``check_shock`` raises.  A converged row
    with a price or 1/z at 0 or inf, or whose ln H is not finite (a price or
    price index beyond the float range), raises NonPositivePrice naming the
    first such row's shock.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    _check_share_count(economy, prefs)
    Z = check_shock_matrix(Z, economy.n)
    if method == COBB_DOUGLAS:
        log_pi = solve_cobb_douglas_batch(economy, Z)
        status = np.full(len(Z), CONVERGED, dtype=object)
    else:
        if method == GENERAL_CES:
            result = solve_fixed_point_batch(economy, Z, max_iter=max_iter)
            pi, status = result.pi, result.status
        else:
            pi, status = solve_uniform_ces_batch(economy, Z, 1.0)
        # exp(log(p)) below is not p for about 0.1% of lognormal prices,
        # and the golden digests pin that round trip: keep it.
        log_pi = np.log(pi[status == CONVERGED])
    ok = status == CONVERGED
    ln_h = np.zeros(len(Z))
    with np.errstate(over="ignore"):
        pi, inv_z = np.exp(log_pi), 1.0 / Z[ok]
    ln_h[ok] = _log_price_index_rows(inv_z, prefs) - _log_price_index_rows(pi, prefs)
    bad = ~np.isfinite(ln_h)
    if bad.any():
        raise NonPositivePrice(
            "a price or price index left the float range under shock "
            f"{Z[np.argmax(bad)]}")
    return ln_h, status


def domar_weights(economy: Economy, m) -> np.ndarray:
    """Linear shock weights of the Cobb-Douglas aggregator.

    Returns lambda such that the Cobb-Douglas-economy, Cobb-Douglas-utility
    growth is exactly ``ln H = sum_j lambda_j ln z_j``; with L the Leontief
    inverse, ``lambda = (L - I) m``.  The weights are zero without
    intermediate inputs: the conservative income rule exactly offsets the
    direct productivity gain, leaving only network amplification.
    """
    m, Lm = _leontief_demand(economy, m)
    return Lm - m


def _leontief_demand(economy: Economy, m) -> tuple[np.ndarray, np.ndarray]:
    """``(m, L m)``, with L the Leontief inverse, for final-demand shares m
    that ``HouseholdPrefs`` accepts, one per sector, or InvalidPreferences."""
    m = _check_share_count(economy, HouseholdPrefs(m))
    return m, _solve(np.eye(economy.n) - economy.A, m)


def _check_share_count(economy: Economy, prefs: HouseholdPrefs) -> np.ndarray:
    """``prefs.mu``, or InvalidPreferences unless it has one share per sector."""
    if prefs.n != economy.n:
        raise InvalidPreferences(f"{prefs.n} expenditure shares for {economy.n} sectors")
    return prefs.mu
