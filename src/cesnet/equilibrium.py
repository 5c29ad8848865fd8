"""Equilibrium price solvers: recursive fixed point and closed forms.

The equilibrium condition is ``pi = diag(z)^{-1} c(pi; 1)`` where c stacks
the sector CES unit cost functions of (pi0, pi), here at the numeraire
pi0 = 1.  Prices are homogeneous of degree one in pi0, so the solvers work
at pi0 = 1 only: the prices at another numeraire are pi0 times theirs.  The
recursion is a contraction on the positive orthant whenever a positive fixed
point exists, so iterating from the benchmark converges globally;
nonexistence shows up as divergence.

Closed forms exist for uniform elasticity (any gamma != 0, a linear solve
for pi^gamma) and for the Cobb-Douglas economy (gamma = 0, a linear solve
in logs).  The Leontief economy (sigma = 0) is the gamma = 1 case:
``solve_leontief`` is ``solve_uniform_ces`` at gamma = 1.

The recursive solver and the closed forms work on a (K, n) matrix of shock
rows (the ``*_batch`` functions); the single-shock functions are their
K = 1 case and return bit for bit the same row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .economy import Economy, check_prices, check_shock, check_shock_matrix
from .errors import NoPositiveSolution, SingularSystem

#: Below this |gamma| the CES power form is replaced by its log-limit.
GAMMA_SWITCH = 1e-8

#: Any iterate above this level is treated as divergence to infinity.
OVERFLOW_GUARD = 1e12

#: Sweeps per convergence check.  For a few small rows the check costs more
#: than a sweep, so a round runs as many sweeps as keep its work,
#: m * rows * (n + 1) * (u + n), within ROUND_FLOATS, and at most
#: MAX_ROUND_SWEEPS; that also bounds the sweeps wasted past a row's
#: retirement.  A sweep takes, of each price, n products and u powers (one
#: when all power-form columns share one exponent, else one per power-form
#: column), plus one log when some column takes the log-limit.  The products
#: count because a shared exponent's sum costs more than its powers at
#: n = 100: budgeted by powers alone, 204 rows of a uniform 100-sector
#: economy ran 6 sweeps a round and took 1.3 times as long as at one.  Of
#: 2**16 to 2**19, 2**18 was the fastest, or within 1% of it, in-process on
#: the solves of perfbench's mc-n10 and mc-boundary economies; mc-n10's 160
#: rows of 10 prices run 7 sweeps a round, 6% faster than the one sweep of
#: 2**16.  Only runs of at most about a thousand rows at n = 10, or a dozen
#: at n = 100, get more than one sweep per round.  A row's iterates, and so
#: its result, do not depend on the round length.
ROUND_FLOATS = 2**18
MAX_ROUND_SWEEPS = 16

#: Row outcomes, shared by the recursive solver and the closed forms.
CONVERGED = "converged"
DIVERGED = "diverged"
MAX_ITERATIONS = "max_iterations"
NO_POSITIVE_SOLUTION = "no_positive_solution"
SINGULAR = "singular"


@dataclass(frozen=True)
class EquilibriumResult:
    """Outcome of the recursive solver.

    ``status`` is one of "converged", "diverged" or "max_iterations"; prices
    are meaningful only when converged.
    """

    pi: np.ndarray
    iterations: int
    residual: float
    status: str

    @property
    def converged(self) -> bool:
        return self.status == CONVERGED


@dataclass(frozen=True)
class EquilibriumBatch:
    """Outcome of the recursive solver for each row of a (K, n) shock matrix.

    Row k holds what ``solve_fixed_point`` returns for shock row k: prices
    (K, n), iteration counts, final residuals and statuses, each of length K.
    """

    pi: np.ndarray
    iterations: np.ndarray
    residual: np.ndarray
    status: np.ndarray

    def row(self, k: int) -> EquilibriumResult:
        return EquilibriumResult(
            self.pi[k], int(self.iterations[k]), float(self.residual[k]),
            str(self.status[k]),
        )


def unit_costs(economy: Economy, pi, pi0: float = 1.0) -> np.ndarray:
    """CES unit costs of all sectors at prices (pi0, pi), without the 1/z.

    Sectors with |gamma| below GAMMA_SWITCH use the Cobb-Douglas log-limit
    ``exp(sum_i a_ij ln pi_i)``; the power form loses all precision there.
    """
    pi, pi0 = check_prices(pi, economy.n, pi0)
    paug = np.concatenate(([pi0], pi))
    costs, _ = _cost_kernel(economy)
    return costs(paug[None, :])[0]


def _cost_kernel(economy: Economy):
    """The unit-cost map on rows of augmented prices, (K, n + 1) -> (K, n),
    and the number u of powers (and logs) that it takes of each price.

    No input validation; hot path of the solver.  Each row is computed with
    the same operations whatever K is, so a row's costs do not depend on the
    rows batched with it.

    Two sums, adding the same products in the same order, so with the same
    bits.  When all power-form columns share one exponent (a uniform
    economy, with or without log-limit columns, or a single power-form
    column), each price is raised to it once and a two-operand einsum reads
    those powers for every column; otherwise a three-operand einsum reads
    one power per price and column.  The exponent's layout copies the
    per-column one, as numpy's float64 power takes 1/x, sqrt(x) or x*x for a
    stride-0 exponent of -1, 0.5 or 2, whose last bits can differ from
    pow's: an exponent shared by two or more columns is a strided
    (n + 1, 1) array, while a single column, like distinct exponents, keeps
    the 1-D exponents that the per-column power broadcasts with stride 0.
    Columns are never gathered from the powers of a few distinct exponents:
    no workload has them, and per-exponent sums beat that copy where
    measured.  The sums take einsum's own loops, never BLAS, whose blocking
    would change the bits with the build and thread count.
    """
    aug = economy.augmented_coefficients()
    g = economy.gamma
    small = np.abs(g) < GAMMA_SWITCH
    rest = ~small
    # C-contiguous, as the einsum is much slower on the F-ordered slice.
    aug_small, aug_rest = aug[:, small], np.ascontiguousarray(aug[:, rest])
    g_rest = g[rest]
    inv_rest = 1.0 / g_rest
    mixed = small.any()
    exps = g_rest
    if g_rest.size > 1 and np.all(g_rest == g_rest[0]):
        exps = np.full((aug.shape[0], 1), g_rest[0])
    single = exps.shape[-1] == 1

    def costs(paug):
        powers = np.power(paug[:, :, None], exps)
        if single:
            c = np.einsum("ij,ki->kj", aug_rest, powers[:, :, 0]) ** inv_rest
        else:
            c = np.einsum("ij,kij->kj", aug_rest, powers) ** inv_rest
        if not mixed:
            return c
        out = np.empty((paug.shape[0], g.size))
        out[:, rest] = c
        # Row-by-row vector-matrix products, as for a single price vector.
        log_p = np.log(paug)[:, None, :]
        out[:, small] = np.exp(np.matmul(log_p, aug_small)[:, 0])
        return out

    return costs, exps.shape[-1] + int(mixed)


def unit_cost(economy: Economy, j: int, pi, pi0: float = 1.0) -> float:
    """Unit cost of sector j; equals 1 at the benchmark by adding-up."""
    return float(unit_costs(economy, pi, pi0)[j])


def cost_map(economy: Economy, pi, z, pi0: float = 1.0) -> np.ndarray:
    """One sweep of the equilibrium recursion: ``c(pi; pi0) / z``.

    The map is monotone and strictly concave in pi, which is what makes the
    recursion a contraction.
    """
    z = check_shock(z, economy.n)
    return unit_costs(economy, pi, pi0) / z


def solve_fixed_point(
    economy: Economy, z, *, tol: float = 1e-10, max_iter: int = 10000,
) -> EquilibriumResult:
    """Iterate the price recursion from the benchmark until convergence.

    Returns an EquilibriumResult; status "diverged" signals that no positive
    equilibrium exists (a price fell below the smallest normal float,
    ``np.finfo(float).tiny``, or passed the overflow guard).  Without a
    positive equilibrium, prices that fall slowly toward 0 may not get below
    it within ``max_iter`` sweeps: such a draw ends "max_iterations", not
    "diverged", and is still counted unviable.  A sweep converges when its
    max-norm step is at most ``tol`` and at most ``sqrt(tol)`` times the
    smallest price, so that prices far below 1 must also settle relative to
    their size.
    """
    z = check_shock(z, economy.n)
    return solve_fixed_point_batch(
        economy, z[None, :], tol=tol, max_iter=max_iter).row(0)


def solve_fixed_point_batch(
    economy: Economy, Z, *, tol: float = 1e-10, max_iter: int = 10000,
) -> EquilibriumBatch:
    """Iterate the price recursion for every row of a (K, n) shock matrix.

    All active rows are swept together; a row retires at the first sweep at
    which it converges or diverges, keeping that iterate, iteration count and
    residual.  Sweeps run in rounds between two such checks (see
    ROUND_FLOATS), so that a long tail of a few slow rows costs little more
    than their sweeps.  A round's iterates are stored sector-major, (m + 1,
    n + 1, rows), as are the shocks, so that the step and the retirement test
    reduce along axis 1 with one vector operation across all rows, not one
    short reduction per row.  The cost kernel gets a C-contiguous row-major
    copy of each iterate, as its bits depend on that layout: on the
    transposed view, numpy's power writes its output in that view's order
    and einsum takes another summation path.
    Row k of the result equals ``solve_fixed_point(economy, Z[k], ...)`` bit
    for bit.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    Z = check_shock_matrix(Z, economy.n)
    K, n = Z.shape
    Z = np.ascontiguousarray(Z.T)
    costs, u = _cost_kernel(economy)
    rel_tol, tiny = np.sqrt(tol), np.finfo(float).tiny
    paug = np.ones((n + 1, K))
    # The kernel's row-major prices, copied into one buffer for all sweeps:
    # a fresh copy per sweep page-faulted thousands of times per solve at
    # n = 100.
    rowwise = np.empty((K, n + 1))
    pi = np.empty((K, n))
    iterations = np.full(K, max_iter)
    residual = np.empty(K)
    outcome = np.full(K, 2)  # index into (CONVERGED, DIVERGED, MAX_ITERATIONS)
    rows = np.arange(K)
    res = np.full(K, np.inf)
    it = 0
    while rows.size and it < max_iter:
        m = ROUND_FLOATS // (rows.size * (n + 1) * (u + n))
        m = max(1, min(m, MAX_ROUND_SWEEPS, max_iter - it))
        seq = np.empty((m + 1, n + 1, rows.size))
        seq[0] = paug
        seq[1:, 0] = 1.0
        prices = rowwise[: rows.size]
        # A row that diverges mid-round is swept on to the end of the round
        # and its later iterates are dropped below, so their zero, inf and
        # NaN prices must not warn, nor the inf - inf of their steps.
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            for s in range(m):
                np.copyto(prices, seq[s].T)
                np.divide(costs(prices).T, Z, out=seq[s + 1, 1:])
            # The numeraire adds zeros to the steps, so each is the
            # max-norm change of the row's prices.
            step = np.max(np.abs(seq[1:] - seq[:-1]), axis=1)
        paug, res = seq[m], step[-1]
        it += m
        new = seq[1:, 1:]
        low = new.min(axis=1)
        # A subnormal price has lost its relative precision: c(pi)/z can
        # round back to it, a step of exactly 0.
        diverged = ~((low >= tiny) & (new.max(axis=1) <= OVERFLOW_GUARD))
        done = diverged | ((step <= tol) & (step <= rel_tol * low))
        hit = done.any(axis=0)
        if not hit.any():
            continue
        # The first sweep of the round at which each such row is done.
        at, r = done.argmax(axis=0)[hit], np.flatnonzero(hit)
        finished = rows[r]
        pi[finished] = new[at, :, r]
        iterations[finished] = it - m + at + 1
        residual[finished] = step[at, r]
        outcome[finished] = diverged[at, r]
        keep = ~hit
        rows, Z, paug, res = rows[keep], Z[:, keep], paug[:, keep], res[keep]
    pi[rows] = paug[1:].T
    residual[rows] = res
    residual[outcome == 1] = np.inf
    status = np.array([CONVERGED, DIVERGED, MAX_ITERATIONS], dtype=object)[outcome]
    return EquilibriumBatch(pi, iterations, residual, status)


def solve_uniform_ces(economy: Economy, z, gamma: float) -> np.ndarray:
    """Closed-form prices for a uniform-elasticity economy (gamma != 0).

    Raises NoPositiveSolution if the equilibrium does not exist in the
    positive orthant and SingularSystem if ``diag(z)^gamma - A`` is not
    invertible.
    """
    z = check_shock(z, economy.n)
    pi, status = solve_uniform_ces_batch(economy, z[None, :], gamma)
    if status[0] == SINGULAR:
        raise SingularSystem("Singular matrix")
    if status[0] == NO_POSITIVE_SOLUTION:
        raise NoPositiveSolution(
            f"uniform-CES prices at gamma {gamma!r} left the positive orthant")
    return pi[0]


def solve_uniform_ces_batch(economy: Economy, Z, gamma: float):
    """Uniform-elasticity prices for every row of a (K, n) shock matrix.

    One stacked solve of ``q (diag(z)^gamma - A) = a0`` for
    q = pi^gamma, then the 1/gamma power.  Returns ``(pi, status)``: the
    prices and each row's status, "converged" for a positive q,
    "singular" for a singular matrix and "no_positive_solution" otherwise;
    prices of rows that did not converge are meaningless.
    """
    if gamma == 0:
        raise ValueError("gamma must be nonzero; use solve_cobb_douglas")
    Z = check_shock_matrix(Z, economy.n)
    K, n = Z.shape
    M = np.multiply((Z**gamma)[:, :, None], np.eye(n))
    M -= economy.A
    rhs = np.broadcast_to(economy.a0, (K, n))
    q, solved = _solve_rows(np.swapaxes(M, 1, 2), rhs)
    status = np.full(K, CONVERGED, dtype=object)
    status[~np.all(np.isfinite(q) & (q > 0), axis=1)] = NO_POSITIVE_SOLUTION
    status[~solved] = SINGULAR
    with np.errstate(invalid="ignore"):  # rows that did not converge
        return q ** (1.0 / gamma), status


def solve_leontief(economy: Economy, z) -> np.ndarray:
    """Closed-form Leontief prices, ``pi (diag(z) - A) = a0``: the gamma = 1
    case of :func:`solve_uniform_ces`, raising what it raises."""
    return solve_uniform_ces(economy, z, 1.0)


def _solve_rows(M, rhs):
    """Solve ``M[k] x_k = rhs[k]`` for every k; return x and the solved mask.

    One stacked LAPACK call; if it meets a singular matrix, the rows are
    solved one by one so that only the singular ones fail.
    """
    try:
        return _solve(M, rhs[..., None])[..., 0], np.ones(len(rhs), bool)
    except SingularSystem:
        pass
    x = np.zeros(rhs.shape)
    solved = np.zeros(len(rhs), bool)
    for k in range(len(rhs)):
        try:
            x[k] = _solve(M[k : k + 1], rhs[k : k + 1, :, None])[0, :, 0]
        except SingularSystem:
            continue
        solved[k] = True
    return x, solved


def _solve(M, rhs):
    """``np.linalg.solve(M, rhs)``, raising SingularSystem for a singular M."""
    try:
        return np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(str(exc)) from exc


def solve_cobb_douglas(economy: Economy, z) -> np.ndarray:
    """Closed-form Cobb-Douglas log-prices.

    ``ln pi = -ln z [I - A]^{-1}``; the result always exponentiates to a
    positive price vector.
    """
    z = check_shock(z, economy.n)
    return solve_cobb_douglas_batch(economy, z[None, :])[0]


def solve_cobb_douglas_batch(economy: Economy, Z) -> np.ndarray:
    """Cobb-Douglas log-prices for every row of a (K, n) shock matrix.

    A stacked solve against the broadcast ``(I - A)^T``; row k equals
    ``solve_cobb_douglas(economy, Z[k])`` bit for bit.  Raises SingularSystem
    if ``I - A`` is not invertible.
    """
    Z = check_shock_matrix(Z, economy.n)
    M = np.eye(economy.n) - economy.A
    return _solve(M.T, -np.log(Z)[..., None])[..., 0]
