"""Geometric Brownian motion parameter estimation and normality screening.

Two estimators for per-period drift and volatility from a positive level
series: one based on the sample moments of log increments, one based on the
sample moments of gross ratios.  Both are per-period; no annualization is
applied.  The Shapiro-Wilk test screens growth rates for normality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSample, NonPositiveValue, SeriesTooShort
from .montecarlo import _ndtri

SAMPLE_MOMENTS = "sample-moments"
SIMULATED_ML = "simulated-ml"


@dataclass(frozen=True)
class GbmEstimate:
    """Estimated drift and volatility per period."""

    mu_hat: float
    sigma_hat: float
    method: str
    n_obs: int


def _check_series(series, min_len):
    x = np.asarray(series, dtype=float)
    if x.ndim != 1 or x.size < min_len:
        raise SeriesTooShort(f"series must be 1-d with length >= {min_len}")
    if not np.all(np.isfinite(x)) or np.any(x <= 0):
        raise NonPositiveValue("level series must be strictly positive")
    return x


def estimate_gbm_moments(series) -> GbmEstimate:
    """Log-increment estimator: sd of d ln X with divisor (l - 2), and
    ``mu = mean(d ln X) + sigma^2 / 2``."""
    x = _check_series(series, 3)
    ell = x.size
    dlx = np.diff(np.log(x))
    mean_dlx = dlx.mean()
    sigma = math.sqrt(np.sum((dlx - mean_dlx) ** 2) / (ell - 2))
    mu = mean_dlx + 0.5 * sigma**2
    return GbmEstimate(mu_hat=mu, sigma_hat=sigma, method=SAMPLE_MOMENTS, n_obs=ell)


def estimate_gbm_dlm(series) -> GbmEstimate:
    """Gross-ratio estimator: sd of X_{k+1}/X_k with divisor (l - 1), and
    ``mu = mean ratio - 1``."""
    x = _check_series(series, 2)
    ell = x.size
    ratios = x[1:] / x[:-1]
    mean_r = ratios.mean()
    sigma = math.sqrt(np.sum((ratios - mean_r) ** 2) / (ell - 1))
    return GbmEstimate(
        mu_hat=mean_r - 1.0, sigma_hat=sigma, method=SIMULATED_ML, n_obs=ell
    )


def shapiro_wilk(series) -> tuple[float, float]:
    """Shapiro-Wilk W statistic and p-value for 3 <= l <= 5000 samples.

    Weights and the p-value transformation follow Royston's polynomial
    approximations (the AS R94 algorithm); the statistic is invariant under
    affine transformations of the sample.
    """
    x = np.asarray(series, dtype=float)
    if x.ndim != 1 or x.size < 3 or x.size > 5000:
        raise SeriesTooShort("Shapiro-Wilk needs a 1-d sample of length 3..5000")
    if not np.isfinite(x).all():
        raise DegenerateSample("non-finite sample")
    if np.ptp(x) == 0:
        raise DegenerateSample("constant sample")
    nn = x.size
    xs = np.sort(x)

    # _ndtri is scipy.stats.norm.ppf to the bit on (0, 1), where Blom's
    # positions lie: a numpy port of Cephes ndtri with libm's log (see
    # montecarlo._ndtri).
    m = _ndtri((np.arange(1, nn + 1) - 0.375) / (nn + 0.25))
    summ2 = float(m @ m)
    ssumm2 = math.sqrt(summ2)
    a = np.empty(nn)
    if nn == 3:
        a[:] = (-math.sqrt(0.5), 0.0, math.sqrt(0.5))
    else:
        rsn = 1.0 / math.sqrt(nn)
        a_n = np.polyval(
            (-2.706056, 4.434685, -2.071190, -0.147981, 0.221157, 0.0), rsn
        ) + m[-1] / ssumm2
        if nn <= 5:
            i1 = nn - 1
            fac = math.sqrt((summ2 - 2 * m[-1] ** 2) / (1 - 2 * a_n**2))
            a[1:i1] = m[1:i1] / fac
        else:
            a_n1 = np.polyval(
                (-3.582633, 5.682633, -1.752461, -0.293762, 0.042981, 0.0), rsn
            ) + m[-2] / ssumm2
            i1 = nn - 2
            fac = math.sqrt(
                (summ2 - 2 * m[-1] ** 2 - 2 * m[-2] ** 2)
                / (1 - 2 * a_n**2 - 2 * a_n1**2)
            )
            a[2:i1] = m[2:i1] / fac
            a[-2] = a_n1
            a[1] = -a_n1
        a[-1] = a_n
        a[0] = -a_n

    centred = xs - xs.mean()
    W = float((a @ centred) ** 2 / (centred @ centred))
    W = min(W, 1.0)

    if nn == 3:
        pw = 1.90985931710274 * (math.asin(math.sqrt(W)) - 1.0471975511965976)
        return W, float(min(max(pw, 0.0), 1.0))
    if nn <= 11:
        g = -2.273 + 0.459 * nn
        y = -math.log(g - math.log1p(-W))
        mu = np.polyval((-0.0006714, 0.025054, -0.39978, 0.5440), nn)
        sigma = math.exp(np.polyval((-0.0020322, 0.062767, -0.77857, 1.3822), nn))
    else:
        ln_n = math.log(nn)
        y = math.log1p(-W)
        mu = np.polyval((0.0038915, -0.083751, -0.31082, -1.5861), ln_n)
        sigma = math.exp(np.polyval((0.0030302, -0.082676, -0.4803), ln_n))
    # ndtr(-z) is scipy.stats.norm.sf(z) for every z.  Imported here:
    # scipy.special is slow to load, and only gbm and the IV diagnostics
    # need it.
    from scipy.special import ndtr

    return W, float(ndtr(-((y - mu) / sigma)))
