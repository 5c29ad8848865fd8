"""Shock sampling, fluctuation distributions, QQ points and the HP filter.

Samples are drawn as iid lognormal sector shocks, stacked into a shock
matrix, pushed through a Domar aggregator, and summarized over the viable
draws.  Every sample's random stream is derived from (seed, sample index),
so runs are reproducible regardless of how the draws are split into blocks.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from typing import Iterator

import numpy as np
from scipy import special

from .economy import Economy
from .equilibrium import CONVERGED, _solve
from .errors import (
    AllSamplesUnviable,
    DegenerateSample,
    NonPositiveValue,
    SeriesTooShort,
    SingularSystem,
    TooFewSamples,
)
from .household import GENERAL_CES, HouseholdPrefs, real_gdp_growth_batch

QUANTILE_GRID = (0.01, 0.05, 0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99)

#: Float workspace one block of draws may take: the general-CES sweep holds
#: (rows, n + 1, n) arrays, which for 10k draws at n = 100 would be 800 MB.
WORKSPACE_BYTES = 16 * 2**20

#: Least work, in floats of that (rows, n + 1, n) workspace, that each block
#: of a multi-block run must hold; a smaller run is solved inline as one
#: block.  On a 2-core x86-64 VM, two threads on ten sectors broke even near
#: 640 draws (35k floats a block) and saved 25% at 1280 draws.
MIN_BLOCK_FLOATS = 2**16


@dataclass(frozen=True)
class ShockConfig:
    """Sampling law for log shocks: ``ln z_j ~ N(mean, sigma)`` iid."""

    count: int = 10000
    sigma: float = 0.2
    seed: int = 0
    mean: float = 0.0

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("count must be at least 1")
        if not (np.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError("sigma must be positive and finite")
        if not np.isfinite(self.mean):
            raise ValueError("mean must be finite")
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
    return np.exp(config.mean + config.sigma * rng.standard_normal(n))


def sample_shocks(n: int, config: ShockConfig) -> Iterator[np.ndarray]:
    """Yield the deterministic stream of ``config.count`` shock vectors."""
    for k in range(config.count):
        yield shock_sample(n, config, k)


def shock_matrix(n: int, config: ShockConfig) -> np.ndarray:
    """The stream as a (count, n) matrix; row k is ``shock_sample(n, config, k)``.

    A draw whose exponential overflows to inf or underflows to 0 (a huge
    ``sigma`` or ``mean``) raises NonPositiveValue naming the draw.
    """
    with np.errstate(over="ignore"):
        shocks = np.array([shock_sample(n, config, k) for k in range(config.count)])
    bad = ~np.all(np.isfinite(shocks) & (shocks > 0), axis=1)
    if bad.any():
        raise NonPositiveValue(
            f"shock draw {int(bad.argmax())} of seed {config.seed} is not a "
            f"positive finite number (sigma {config.sigma!r}, mean {config.mean!r})")
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
    """
    m = np.asarray(m, dtype=float)
    Lm = _solve(np.eye(economy.n) - economy.A, m)
    logz = np.log(np.asarray(list(shocks), dtype=float))
    return -logz @ Lm, -logz @ m


def qq_points(samples) -> np.ndarray:
    """Normal QQ pairs for a sample, shape (N, 2).

    Samples are standardized to zero mean and unit (population) variance;
    the k-th theoretical quantile uses the plotting position (k - 0.5) / N.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.size < 3:
        raise TooFewSamples(f"need at least 3 samples, got {samples.size}")
    sd = float(np.std(samples))
    if sd == 0:
        raise DegenerateSample("constant sample has no QQ representation")
    standardized = np.sort((samples - samples.mean()) / sd)
    k = np.arange(1, samples.size + 1)
    # ndtri is scipy.stats.norm.ppf on (0, 1), where (k - 0.5) / N lies.
    theoretical = special.ndtri((k - 0.5) / samples.size)
    return np.column_stack([theoretical, standardized])


def hp_filter(series, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Hodrick-Prescott trend/cycle split of a series.

    Solves the penalized least squares problem
    ``min sum (y - tau)^2 + lam * sum (second difference of tau)^2``
    exactly via the symmetric pentadiagonal system ``(I + lam K'K) tau = y``.
    A lambda so large that the system overflows or is no longer positive
    definite in floating point (from about 1e15 on) raises
    ``SingularSystem``.
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
    return trend, y - trend
