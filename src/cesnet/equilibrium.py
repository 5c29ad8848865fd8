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
#: rows of 10 prices run 7 sweeps a round, 12% faster than the one sweep of
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
    costs, _ = _cost_kernel(economy, 1)
    return costs(paug[:, None])[:, 0]


def _cost_kernel(economy: Economy, width: int):
    """The unit-cost map on sector-major augmented prices, (n + 1, rows) ->
    (n, rows) for any rows up to ``width``, and the number u of powers (and
    logs) that it takes of each price.

    No input validation; hot path of the solver.  Each column is computed
    with the same operations whatever rows is, so its costs do not depend on
    the columns batched with it.  The costs returned may be a view of
    buffers that the next call overwrites.

    Every call with power-form columns takes the same three steps on one
    logical shape: the prices, broadcast to (n + 1, u, rows), are raised to
    the exponents, where u is 1 when all p power-form columns share one
    exponent and p otherwise; one einsum, ``"ij,ijk->jk"``, sums the powers
    into (p, rows), in its own loop, never BLAS, whose blocking would change
    the bits with the build and thread count; and the sums are raised to
    1/gamma.  For u = 1 the einsum broadcasts a size-1 labelled axis, which
    numpy documents only for ellipses; ``test_shared_powers_*`` guard it.
    An all-Cobb-Douglas economy skips the three calls, which on empty
    arrays made its solve up to 1.6 times slower.  The power and sum
    buffers are allocated once, at full width, and each row count picks one
    of three memory orders for them, which numpy's loops walk in memory
    order:

    - rows innermost when rows >= p, so that the power and sum sweep long
      contiguous loops across rows;
    - sectors innermost otherwise, as transposed views of the same buffers,
      for the same reason when p is the longer axis;
    - prices innermost for a single power-form column (n = 1 included),
      whose per-column sum is einsum's reduction along a price vector's
      n + 1 contiguous powers, with other bits than a sequential sum.

    The exponents follow the per-column formula's strides, as numpy's
    float64 power takes 1/x, sqrt(x), x or x*x for a stride-0 exponent of
    -1, 0.5, 1 or 2, whose last bits can differ from pow's: a single column
    takes scalar exponents, and two or more columns exponents with nonzero
    strides.  Those of a shared exponent, and with rows innermost every
    exponent and 1/gamma, are laid out once per solve at full width; with
    sectors innermost, distinct exponents and 1/gamma run along the
    contiguous sector vectors, as strided ones made the 25-row solve at
    n = 100 1.3 times slower.  Log-limit columns take row-by-row
    vector-matrix products on a row-major copy of the log prices, as for a
    single price vector, in fresh arrays, which on 204-row blocks at
    n = 100 faulted and took no more than full-width buffers.
    """
    aug = economy.augmented_coefficients()
    g = economy.gamma
    small = np.abs(g) < GAMMA_SWITCH
    rest = ~small
    # C-contiguous, as the einsum is much slower on the F-ordered slice.
    aug_small, aug_rest = aug[:, small], np.ascontiguousarray(aug[:, rest])
    g_rest = g[rest]
    inv_rest = 1.0 / g_rest
    (n1, n), p = aug.shape, g_rest.size
    mixed = small.any()
    u = 1 if p and np.all(g_rest == g_rest[0]) else p
    if p != 1:
        # A shared exponent is laid out along the prices too, the inner loop
        # of a one-row call, where a stride-0 exponent would change its bits.
        exps = np.full((n1 if u == 1 else 1, u, width), g_rest[:u, None])
        invs = np.repeat(inv_rest[:, None], width, axis=1)
    powers, sums = np.empty(n1 * u * width), np.empty(p * width)
    # Built once per row count: building them takes about a fifth of a
    # 5-row sweep at n = 10 (2.8 of 12-17 us).
    views = {}

    def layout(rows):
        """The powers, their exponents, the sums and their exponents of a
        call on `rows` prices, in the memory order that `rows` picks."""
        w, c = powers[: n1 * u * rows], sums[: p * rows]
        if p == 1:
            return w.reshape(rows, 1, n1).T, g_rest[0], c.reshape(1, rows), inv_rest[0]
        if rows >= p:
            return (w.reshape(n1, u, rows), exps[..., :rows],
                    c.reshape(p, rows), invs[:, :rows])
        return (w.reshape(n1, rows, u).swapaxes(1, 2),
                exps[..., :rows] if u == 1 else g_rest[:, None],
                c.reshape(rows, p).T, inv_rest[:, None])

    def costs(paug):
        v = views.get(paug.shape[1])
        if v is None:
            v = views[paug.shape[1]] = layout(paug.shape[1])
        w, e, c, ie = v
        if p:
            np.power(paug[:, None], e, out=w)
            np.einsum("ij,ijk->jk", aug_rest, w, out=c)
            np.power(c, ie, out=c)
            if not mixed:
                return c
        o = np.empty((n, paug.shape[1]))
        if p:
            o[rest] = c
        lg = np.log(np.ascontiguousarray(paug.T))
        # Row-by-row vector-matrix products, as for a single price vector.
        o[small] = np.exp(np.matmul(lg[:, None, :], aug_small)[:, 0]).T
        return o

    return costs, u + int(mixed)


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
    short reduction per row.  The cost kernel sweeps each iterate in place
    and writes its costs over the shocks into the next, and as every row
    starts at the benchmark, the first sweep's costs are one column's.
    Row k of the result equals ``solve_fixed_point(economy, Z[k], ...)`` bit
    for bit.
    """
    if not 0 < tol < np.inf:
        raise ValueError("tol must be positive and finite")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    Z = check_shock_matrix(Z, economy.n)
    K, n = Z.shape
    Z = np.ascontiguousarray(Z.T)
    costs, u = _cost_kernel(economy, K)
    rel_tol, tiny = np.sqrt(tol), np.finfo(float).tiny
    paug = np.ones((n + 1, K))
    benchmark = np.ones((n + 1, 1))
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
        # A row that diverges mid-round is swept on to the end of the round
        # and its later iterates are dropped below, so their zero, inf and
        # NaN prices must not warn, nor the inf - inf of their steps.
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            for s in range(m):
                prices = seq[s] if it or s else benchmark
                np.divide(costs(prices), Z, out=seq[s + 1, 1:])
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
    q = pi^gamma, then the 1/gamma power; if some row's matrix is
    singular, a second stacked solve takes the others.  Returns
    ``(pi, status)``: the prices and each row's status, "converged" for a
    positive q, "singular" for a singular matrix and
    "no_positive_solution" otherwise; prices of rows that did not converge
    are meaningless.
    """
    if not (np.isfinite(gamma) and gamma != 0):
        raise ValueError("gamma must be finite and nonzero; use solve_cobb_douglas at 0")
    Z = check_shock_matrix(Z, economy.n)
    K, n = Z.shape
    M = np.multiply((Z**gamma)[:, :, None], np.eye(n))
    M -= economy.A
    M = np.swapaxes(M, 1, 2)
    rhs = np.broadcast_to(economy.a0[:, None], (K, n, 1))
    solved = np.ones(K, bool)
    try:
        q = _solve(M, rhs)[..., 0]
    except SingularSystem:
        # The sign of the determinant comes from the same LU factorization
        # as the solve: zero exactly where the solve meets a zero pivot.
        solved = np.linalg.slogdet(M)[0] != 0
        q = np.zeros((K, n))
        q[solved] = _solve(M[solved], rhs[solved])[..., 0]
    status = np.full(K, CONVERGED, dtype=object)
    status[~np.all(np.isfinite(q) & (q > 0), axis=1)] = NO_POSITIVE_SOLUTION
    status[~solved] = SINGULAR
    with np.errstate(invalid="ignore"):  # rows that did not converge
        return q ** (1.0 / gamma), status


def solve_leontief(economy: Economy, z) -> np.ndarray:
    """Closed-form Leontief prices, ``pi (diag(z) - A) = a0``: the gamma = 1
    case of :func:`solve_uniform_ces`, raising what it raises."""
    return solve_uniform_ces(economy, z, 1.0)


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
