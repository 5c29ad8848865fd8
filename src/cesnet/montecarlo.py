"""Shock sampling, fluctuation distributions, QQ points and the HP filter.

Samples are drawn as iid lognormal sector shocks, stacked into a shock
matrix, pushed through a Domar aggregator, and summarized over the viable
draws.  Every sample's random stream is derived from (seed, sample index),
so runs are reproducible regardless of how the draws are split into blocks.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from typing import Iterator

import numpy as np

from .economy import Economy, check_shock_matrix
from .equilibrium import CONVERGED
from .errors import (
    AllSamplesUnviable,
    DegenerateSample,
    NonPositiveValue,
    SeriesTooShort,
    SingularSystem,
    TooFewSamples,
)
from .household import (
    GENERAL_CES,
    HouseholdPrefs,
    _leontief_demand,
    real_gdp_growth_batch,
)

QUANTILE_GRID = (0.01, 0.05, 0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99)

#: Float workspace one block of draws may take, counted as (n + 1) * n
#: floats a draw: the cost kernel holds (n + 1, u, rows) powers of u <= n
#: exponents, and the Leontief solve (rows, n, n) systems; the solver's
#: (m + 1, n + 1, rows) iterates of a round stay within ROUND_FLOATS.  For
#: 10k draws at n = 100 the count would be 800 MB.
WORKSPACE_BYTES = 16 * 2**20

#: Least work, in those (n + 1) * n floats a draw, that each block of a
#: multi-block run must hold; a smaller run is solved inline as one
#: block.  On a 2-core x86-64 VM, two threads on ten sectors broke even near
#: 640 draws (35k floats a block) and saved 25% at 1280 draws.
MIN_BLOCK_FLOATS = 2**16


@dataclass(frozen=True)
class ShockConfig:
    """Sampling law for zero-mean log shocks: ``ln z_j ~ N(0, sigma)`` iid."""

    count: int = 10000
    sigma: float = 0.2
    seed: int = 0

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("count must be at least 1")
        if not (np.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError("sigma must be positive and finite")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


@dataclass(frozen=True)
class DistributionSummary:
    """Moments, quantiles and viability counts of simulated ln H draws."""

    mean: float
    variance: float
    skewness: float
    kurtosis: float
    quantiles: dict[str, float]
    n_viable: int
    n_unviable: int
    method: str
    seed: int
    samples: np.ndarray = field(repr=False)

    def to_dict(self) -> dict:
        """JSON-ready summary: every field but the raw samples."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name != "samples"}


def shock_sample(n: int, config: ShockConfig, index: int) -> np.ndarray:
    """The index-th shock vector of the stream: its own (seed, index) rng."""
    rng = np.random.default_rng([config.seed, index])
    return np.exp(config.sigma * rng.standard_normal(n))


def sample_shocks(n: int, config: ShockConfig) -> Iterator[np.ndarray]:
    """Yield the deterministic shock stream: the rows of ``shock_matrix``."""
    yield from shock_matrix(n, config)


def _pcg64_states(seed: int, count: int) -> list[tuple[int, int]]:
    """The PCG64 ``(state, inc)`` that ``default_rng([seed, k])`` starts
    from, for k = 0 .. count - 1.

    This is NumPy's ``SeedSequence`` pool mixing and ``generate_state(4,
    uint64)``, run for every k at once, followed by PCG64's ``set_seed``;
    NEP 19 keeps both fixed.  Values are Python ints while they do not
    depend on k and uint64 arrays once they do, masked to 32 bits either
    way.  The entropy words are the seed's little-endian uint32 words, then
    k's one word (a matrix of 2**32 rows is out of reach), zero-padded to
    the four-word pool; words beyond four are hashed into the pool.
    """
    mask = 0xFFFFFFFF
    init_a, mult_a = 0x43B0D7E5, 0x931E8875
    init_b, mult_b = 0x8B51F9DD, 0x58F38DED
    mix_mult_l, mix_mult_r = 0xCA01F9DD, 0x4973F715
    pcg_mult, mask128 = 0x2360ED051FC65DA44385DF649FCCF645, (1 << 128) - 1
    words = [seed >> s & mask for s in range(0, max(seed.bit_length(), 1), 32)]
    words.append(np.arange(count, dtype=np.uint64))
    words += [0] * (4 - len(words))
    hash_a = init_a

    def hashmix(v):
        nonlocal hash_a
        v = v ^ hash_a
        hash_a = hash_a * mult_a & mask
        v = v * hash_a & mask
        return v ^ v >> 16

    def mix(x, y):
        v = (mix_mult_l * x - mix_mult_r * y) & mask
        return v ^ v >> 16

    pool = [hashmix(w) for w in words[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(w))
    hash_b, state = init_b, []
    for i in range(8):
        v = pool[i % 4] ^ hash_b
        hash_b = hash_b * mult_b & mask
        v = v * hash_b & mask
        state.append(v ^ v >> 16)
    # Little-endian pairs of words make the uint64 words (seed high, seed
    # low, inc high, inc low); set_seed takes two LCG steps from state 0.
    s_hi, s_lo, i_hi, i_lo = (
        (state[2 * j] | state[2 * j + 1] << 32).tolist() for j in range(4))
    states = []
    for a, b, c, d in zip(s_hi, s_lo, i_hi, i_lo):
        inc = ((c << 64 | d) << 1 | 1) & mask128
        states.append(((((a << 64 | b) + inc) * pcg_mult + inc) & mask128, inc))
    return states


def shock_matrix(n: int, config: ShockConfig) -> np.ndarray:
    """The stream as a (count, n) matrix; row k is ``shock_sample(n, config, k)``.

    Every row's generator is seeded at once (see ``_pcg64_states``), and
    the last row is checked against ``shock_sample``, so a NumPy whose
    ``default_rng`` seeds differently raises RuntimeError instead of
    giving another stream.  A draw whose exponential overflows to inf or
    underflows to 0 (a huge ``sigma``) raises NonPositiveValue naming the
    draw, and a matrix too large to allocate raises MemoryError.
    """
    bitgen = np.random.PCG64(0)
    rng = np.random.Generator(bitgen)
    try:
        shocks = np.empty((config.count, n))
    except ValueError as exc:  # a shape beyond numpy's dimension limit
        raise MemoryError(f"Unable to allocate an array with shape "
                          f"({config.count}, {n}): {exc}") from None
    for row, (state, inc) in zip(shocks, _pcg64_states(config.seed, config.count)):
        bitgen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                        "has_uint32": 0, "uinteger": 0}
        rng.standard_normal(out=row)
    shocks *= config.sigma
    with np.errstate(over="ignore"):
        np.exp(shocks, out=shocks)
        last = shock_sample(n, config, config.count - 1)
    if last.tobytes() != shocks[-1].tobytes():
        raise RuntimeError("this NumPy's default_rng does not seed as "
                           "SeedSequence and PCG64 did; the shock stream differs")
    bad = ~np.all(np.isfinite(shocks) & (shocks > 0), axis=1)
    if bad.any():
        raise NonPositiveValue(
            f"shock draw {int(bad.argmax())} of seed {config.seed} is not a "
            f"positive finite number (sigma {config.sigma!r})")
    return shocks


def simulate_distribution(
    economy: Economy,
    prefs: HouseholdPrefs,
    config: ShockConfig,
    method: str = GENERAL_CES,
    workers: int = 1,
) -> DistributionSummary:
    """Push the shock stream through a Domar aggregator and summarize.

    ``workers`` is the number of threads that solve the shock matrix's row
    blocks; results are identical for any value (see distribution_from_shocks).
    """
    shocks = shock_matrix(economy.n, config)
    return distribution_from_shocks(
        economy, prefs, shocks, method, config.seed, workers
    )


def distribution_from_shocks(
    economy, prefs, shocks, method=GENERAL_CES, seed=0, workers=1
) -> DistributionSummary:
    """Summarize ln H over the converged rows of a (count, n) shock matrix.

    Other rows are counted as unviable and excluded.  The rows are cut into
    blocks of near-equal size: one per worker, fewer where a block would
    hold less than MIN_BLOCK_FLOATS, and more where it would pass
    WORKSPACE_BYTES.  The blocks are solved on a pool of ``workers``
    threads, or inline when there is one block or one worker.  A row's value
    does not depend on its block or thread, so the result is identical for
    any ``workers``.  ``seed`` is only recorded in the summary.
    """
    count, n = shocks.shape
    row_floats = (n + 1) * n
    cap = max(1, WORKSPACE_BYTES // (8 * row_floats))
    nblocks = max(1, min(workers, count * row_floats // MIN_BLOCK_FLOATS),
                  -(-count // cap))
    bounds = [count * b // nblocks for b in range(nblocks + 1)]

    def solve(lo, hi):
        return real_gdp_growth_batch(economy, prefs, shocks[lo:hi], method)

    if workers > 1 and nblocks > 1:
        pool = ThreadPoolExecutor(min(workers, nblocks))
        try:
            blocks = list(pool.map(solve, bounds[:-1], bounds[1:]))
        finally:  # after an error, start no further block
            pool.shutdown(cancel_futures=True)
    else:
        blocks = list(map(solve, bounds[:-1], bounds[1:]))
    samples = np.concatenate([ln_h[status == CONVERGED] for ln_h, status in blocks])
    if samples.size == 0:
        raise AllSamplesUnviable(f"all {count} samples unviable for method {method!r}")
    return summarize_samples(samples, count - samples.size, method, seed)


def summarize_samples(samples, n_unviable=0, method="", seed=0) -> DistributionSummary:
    """Build a DistributionSummary from raw ln H draws."""
    samples = np.asarray(samples, dtype=float)
    mean = float(np.mean(samples))
    variance = skewness = kurtosis = 0.0
    if samples.size > 1:
        variance = float(np.var(samples, ddof=1))
        sd = np.sqrt(np.var(samples))
        if sd > 0:
            centred = (samples - mean) / sd
            skewness = float(np.mean(centred**3))
            kurtosis = float(np.mean(centred**4) - 3.0)
    quantiles = dict(zip(map("{:g}".format, QUANTILE_GRID),
                         np.quantile(samples, QUANTILE_GRID).tolist()))
    return DistributionSummary(
        mean=mean,
        variance=variance,
        skewness=skewness,
        kurtosis=kurtosis,
        quantiles=quantiles,
        n_viable=int(samples.size),
        n_unviable=int(n_unviable),
        method=method,
        seed=seed,
        samples=samples,
    )


def price_index_dispersion(economy: Economy, m, shocks) -> tuple[np.ndarray, np.ndarray]:
    """Log price-index draws for the Cobb-Douglas vs the simple economy.

    Returns ``(ln Pi_CD, ln Pi_SE)`` per shock sample, where the
    Cobb-Douglas index routes the log shocks through the Leontief inverse
    and the simple economy uses the shares directly.  Used to exhibit the
    variance dilation caused by the granularity of the Leontief inverse.
    ``m`` is checked as ``household.domar_weights`` checks it, and the
    shock rows, an iterable of length-n vectors, as ``check_shock_matrix``
    checks them.
    """
    m = np.asarray(m, dtype=float)
    Lm = _leontief_demand(economy, m)
    logz = np.log(check_shock_matrix(list(shocks), economy.n))
    return -logz @ Lm, -logz @ m


def qq_points(samples) -> np.ndarray:
    """Normal QQ pairs for a sample, shape (N, 2).

    Samples are standardized to zero mean and unit (population) variance;
    the k-th theoretical quantile uses the plotting position (k - 0.5) / N.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.size < 3:
        raise TooFewSamples(f"need at least 3 samples, got {samples.size}")
    if not np.isfinite(samples).all():
        raise DegenerateSample("non-finite sample has no QQ representation")
    sd = float(np.std(samples))
    if sd == 0:
        raise DegenerateSample("constant sample has no QQ representation")
    standardized = np.sort((samples - samples.mean()) / sd)
    k = np.arange(1, samples.size + 1)
    # _ndtri is scipy.stats.norm.ppf to the bit on (0, 1), where
    # (k - 0.5) / N lies, without loading SciPy (see _ndtri).
    theoretical = _ndtri((k - 0.5) / samples.size)
    return np.column_stack([theoretical, standardized])


def _libm_log(a) -> np.ndarray:
    """ln of each value by the C library's ``log``, which Cephes calls."""
    return np.array(list(map(math.log, a.tolist())))


def _ndtri(p) -> np.ndarray:
    """The standard normal quantile of each p in (0, 1), equal to the bit to
    ``scipy.special.ndtri``, without the import of ``scipy.special``: it
    takes longer than all the rest of ``import cesnet.cli``.

    This is a numpy port of Cephes ``ndtri``, which SciPy runs: the same
    coefficients, branches and order of operations, each of them correctly
    rounded in numpy as in C.  Cephes ``polevl`` is ``np.polyval`` and
    ``p1evl`` is ``np.polyval`` with a leading 1.0.  The two tail logarithms
    are ``_libm_log``: numpy's SIMD ``np.log`` differs from the C library's
    in the last bit for some arguments.  Each branch runs on its own values
    only, and the far tail (p or 1 - p below about 1e-14) only when some
    value needs it.
    """
    p0 = (-5.99633501014107895267E1, 9.80010754185999661536E1,
          -5.66762857469070293439E1, 1.39312609387279679503E1,
          -1.23916583867381258016E0)
    q0 = (1.0, 1.95448858338141759834E0, 4.67627912898881538453E0,
          8.63602421390890590575E1, -2.25462687854119370527E2,
          2.00260212380060660359E2, -8.20372256168333339912E1,
          1.59056225126211695515E1, -1.18331621121330003142E0)
    p1 = (4.05544892305962419923E0, 3.15251094599893866154E1,
          5.71628192246421288162E1, 4.40805073893200834700E1,
          1.46849561928858024014E1, 2.18663306850790267539E0,
          -1.40256079171354495875E-1, -3.50424626827848203418E-2,
          -8.57456785154685413611E-4)
    q1 = (1.0, 1.57799883256466749731E1, 4.53907635128879210584E1,
          4.13172038254672030440E1, 1.50425385692907503408E1,
          2.50464946208309415979E0, -1.42182922854787788574E-1,
          -3.80806407691578277194E-2, -9.33259480895457427372E-4)
    p2 = (3.23774891776946035970E0, 6.91522889068984211695E0,
          3.93881025292474443415E0, 1.33303460815807542389E0,
          2.01485389549179081538E-1, 1.23716634817820021358E-2,
          3.01581553508235416007E-4, 2.65806974686737550832E-6,
          6.23974539184983293730E-9)
    q2 = (1.0, 6.02427039364742014255E0, 3.67983563856160859403E0,
          1.37702099489081330271E0, 2.16236993594496635890E-1,
          1.34204006088543189037E-2, 3.28014464682127739104E-4,
          2.89247864745380683936E-6, 6.79019408009981274425E-9)
    e2 = 0.13533528323661269189  # exp(-2)
    p = np.asarray(p, dtype=float)
    upper = p > 1.0 - e2
    y = np.where(upper, 1.0 - p, p)
    x = np.empty_like(y)
    central = y > e2
    yc = y[central] - 0.5
    y2 = yc * yc
    x[central] = (yc + yc * (y2 * np.polyval(p0, y2) / np.polyval(q0, y2))
                  ) * 2.50662827463100050242E0
    tail = ~central
    if tail.any():
        # sqrt(-2 ln y) - ln(t) / t less a rational function of 1 / t.
        t = np.sqrt(-2.0 * _libm_log(y[tail]))
        t0 = t - _libm_log(t) / t
        z = 1.0 / t
        t1 = np.empty_like(t)
        far = t >= 8.0  # about y <= exp(-32)
        near = ~far
        zn = z[near]
        t1[near] = zn * np.polyval(p1, zn) / np.polyval(q1, zn)
        if far.any():
            zf = z[far]
            t1[far] = zf * np.polyval(p2, zf) / np.polyval(q2, zf)
        d = t0 - t1
        x[tail] = np.where(upper[tail], d, -d)
    return x


def hp_filter(series, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Hodrick-Prescott trend/cycle split of a series.

    Solves the penalized least squares problem
    ``min sum (y - tau)^2 + lam * sum (second difference of tau)^2``
    exactly via the symmetric pentadiagonal system ``(I + lam K'K) tau = y``.
    A lambda so large that the system overflows or is no longer positive
    definite in floating point (from about 1e15 on) raises
    ``SingularSystem``, and so does a solve whose residual cannot vouch for
    the trend (see below).
    """
    # Imported here: scipy.linalg is slow to load and only this needs it.
    from scipy.linalg import solveh_banded

    y = np.asarray(series, dtype=float)
    if y.ndim != 1 or y.size < 4:
        raise SeriesTooShort("HP filter needs a 1-d series of length >= 4")
    if not lam > 0:
        raise ValueError("lambda must be positive")
    T = y.size
    main = np.full(T, 6.0)
    main[[0, -1]] = 1.0
    main[[1, -2]] = 5.0
    off1 = np.full(T - 1, -4.0)
    off1[[0, -1]] = -2.0
    off2 = np.full(T - 2, 1.0)
    ab = np.zeros((3, T))
    with np.errstate(over="ignore"):
        ab[0] = 1.0 + lam * main
        ab[1, : T - 1] = lam * off1
        ab[2, : T - 2] = lam * off2
    singular = (f"HP system with lambda = {lam:g} and T = {T} is not "
                "positive definite in floating point")
    if not np.isfinite(ab).all():
        raise SingularSystem(singular)
    try:
        trend = solveh_banded(ab, y, lower=True)
    except np.linalg.LinAlgError:
        raise SingularSystem(singular) from None
    # The system is I + lam K'K >= I, so the trend is off by at most the
    # residual's 2-norm.  A trend vouched for to fewer than half the digits
    # a stable solve of T equations keeps, sqrt(T * eps) of the series, is
    # lost to rounding: at lambda 1e100 the solve returns about 1e-85.
    residual = ab[0] * trend - y
    for k in (1, 2):
        residual[k:] += ab[k, :-k] * trend[:-k]
        residual[:-k] += ab[k, :-k] * trend[k:]
    error_bound = np.linalg.norm(residual)
    limit = np.sqrt(T * np.finfo(float).eps) * np.linalg.norm(y)
    if not error_bound <= limit:
        raise SingularSystem(
            f"HP trend with lambda = {lam:g} and T = {T} is lost to rounding: "
            f"residual {error_bound:.3g} exceeds {limit:.3g}")
    return trend, y - trend
