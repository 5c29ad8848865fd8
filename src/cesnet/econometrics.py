"""Fixed-effects and 2SLS panel estimation of substitution elasticities.

The log cost-share regression is estimated within (entity demeaned) with
time dummies; the slope on log factor prices identifies gamma (and sigma =
1 - gamma), or kappa directly for the household expenditure regression.
Prices may be instrumented; diagnostics are the Cragg-Donald first-stage F,
the Sargan overidentification statistic and the Davidson-MacKinnon
endogeneity F.

Each failure condition has one owner: ``PanelDataset`` rejects a repeated
(entity, period) pair when it is built, ``_design`` rejects an empty or
unknown instrument list, ``_lstsq`` (the one least-squares solve) rejects a
rank-deficient matrix, and ``_residual_dof`` rejects a fit without residual
degrees of freedom.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    DuplicateObservation,
    GammaNearZero,
    MalformedTable,
    RankDeficient,
    SingletonEntity,
    UnknownInstrument,
    WeakInstrumentWarning,
)

LS_FE = "LS_FE"
IV_FE = "IV_FE"

#: Rule-of-thumb threshold below which the first stage is flagged as weak.
WEAK_INSTRUMENT_F = 10.0


@dataclass(frozen=True)
class PanelDataset:
    """Long-format panel of (factor, period) observations.

    ``y`` holds log shares, ``x`` log factor prices; ``instruments`` maps
    instrument names to columns aligned with the observations.  Rows with a
    nonfinite y, x or instrument value are dropped at construction; two kept
    rows with one (entity, period) pair raise DuplicateObservation.
    """

    entity: np.ndarray
    period: np.ndarray
    y: np.ndarray
    x: np.ndarray
    instruments: dict[str, np.ndarray] = field(default_factory=dict)
    #: The kept rows' order by (entity, period), from the uniqueness check.
    order: np.ndarray = field(init=False, repr=False, compare=False)
    #: The distinct entities, sorted, and each row's index into them: what
    #: ``np.unique(entity, return_inverse=True)`` gives, from the same sort.
    entities: np.ndarray = field(init=False, repr=False, compare=False)
    entity_code: np.ndarray = field(init=False, repr=False, compare=False)
    #: The instruments that ``apply_instrument_transform`` made; any other
    #: rebuild, such as ``within_transform``'s, starts it empty.
    transformed: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        entity = np.asarray(self.entity)
        period = np.asarray(self.period)
        y = np.asarray(self.y, dtype=float)
        x = np.asarray(self.x, dtype=float)
        n = entity.shape[0]
        if not (period.shape == y.shape == x.shape == (n,)):
            raise ValueError("entity, period, y, x must share one length")
        instruments = {
            k: np.asarray(v, dtype=float) for k, v in self.instruments.items()
        }
        for k, v in instruments.items():
            if v.shape != (n,):
                raise ValueError(f"instrument {k!r} misaligned with observations")
        keep = np.isfinite(y) & np.isfinite(x)
        for v in instruments.values():
            keep &= np.isfinite(v)
        entity, period = entity[keep], period[keep]
        # Sorted by (entity, period), a repeated pair's rows are adjacent and
        # the first such pair is the smallest.
        order = np.lexsort((period, entity))
        e, t = entity[order], period[order]
        first = np.ones(order.size, dtype=bool)  # a row starts its entity's run
        first[1:] = e[1:] != e[:-1]
        twin = np.flatnonzero(~first[1:] & (t[1:] == t[:-1]))
        if twin.size:
            raise DuplicateObservation(
                f"entity {e[twin[0]].item()!r} has more than one row "
                f"for period {t[twin[0]].item()!r}"
            )
        code = np.empty(order.size, dtype=np.intp)
        code[order] = np.cumsum(first) - 1
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "entities", e[first])
        object.__setattr__(self, "entity_code", code)
        object.__setattr__(self, "transformed", frozenset())
        object.__setattr__(self, "entity", entity)
        object.__setattr__(self, "period", period)
        object.__setattr__(self, "y", y[keep])
        object.__setattr__(self, "x", x[keep])
        object.__setattr__(
            self, "instruments", {k: v[keep] for k, v in instruments.items()}
        )

    @property
    def nobs(self) -> int:
        return self.y.size

    @property
    def periods(self) -> np.ndarray:
        return np.unique(self.period)


@dataclass(frozen=True)
class IvDiagnostics:
    """IV regression diagnostics; sargan is None when just identified."""

    first_stage_f: float
    sargan: float | None
    sargan_p: float | None
    endogeneity_f: float
    endogeneity_p: float
    instruments: tuple[str, ...]


@dataclass(frozen=True)
class ElasticityEstimate:
    """FE regression result for gamma (production) or kappa (household)."""

    parameter: str  # "gamma" or "kappa"
    coef: float
    se: float
    time_dummies: np.ndarray  # coefficient of D_t relative to the base period
    dummy_periods: np.ndarray  # the periods t = 2..T those dummies belong to
    method: str  # LS_FE or IV_FE
    nobs: int
    n_entities: int
    diagnostics: IvDiagnostics | None = None

    @property
    def sigma_hat(self) -> float | None:
        """1 - gamma for production runs; undefined for kappa runs."""
        if self.parameter != "gamma":
            return None
        return 1.0 - self.coef


def within_transform(panel: PanelDataset) -> PanelDataset:
    """Demean y, x and every instrument by entity over included periods."""
    demean, _ = _entity_demeaner(panel)
    return replace(
        panel,
        y=demean(panel.y),
        x=demean(panel.x),
        instruments={k: demean(v) for k, v in panel.instruments.items()},
    )


def _entity_demeaner(panel):
    """``(demean, counts)``: the function that takes each entity's mean out
    of a column of ``panel``, and each entity's row count."""
    code = panel.entity_code
    counts = np.bincount(code, minlength=panel.entities.size)
    if np.any(counts < 2):
        bad = panel.entities[np.argmin(counts)].item()
        raise SingletonEntity(f"entity {bad!r} has fewer than 2 observations")

    def demean(v):
        means = np.bincount(code, weights=v) / counts
        return v - means[code]

    return demean, counts


def _design(panel: PanelDataset, instrument_spec=None):
    """Entity-demeaned response y, price x, time dummies D = [D_2..D_T],
    regressors X = [x, D] and, given a nonempty ``instrument_spec`` of panel
    instruments, Z = [named instruments, D] (else None).
    """
    if instrument_spec is not None:
        if not instrument_spec:
            raise MalformedTable("IV estimation needs at least one instrument")
        missing = [k for k in instrument_spec if k not in panel.instruments]
        if missing:
            raise UnknownInstrument(f"unknown instruments: {missing}")
    demean, counts = _entity_demeaner(panel)
    periods, t = np.unique(panel.period, return_inverse=True)
    if periods.size < 2:
        raise RankDeficient("need at least two periods for time dummies")
    # One column per period 2..T, each demeaned as ``demean`` would: an
    # entity's count of the period over its row count is the float that
    # its 0/1 column's mean is.  D is built in place, indicator - mean.
    T, code = periods.size, panel.entity_code
    hits = np.bincount(code * T + t, minlength=counts.size * T)
    D = (hits.reshape(-1, T)[:, 1:] / counts[:, None])[code]
    np.subtract(t[:, None] == np.arange(1, T), D, out=D)
    y = demean(panel.y)
    x = demean(panel.x)
    X = np.column_stack([x, D])
    Z = None if instrument_spec is None else np.column_stack(
        [*(demean(panel.instruments[k]) for k in instrument_spec), D])
    return y, x, X, D, Z, periods, counts.size


def fe_ols(panel: PanelDataset, parameter: str = "gamma") -> ElasticityEstimate:
    """Within (FE) least squares of demeaned y on demeaned [x, time dummies].

    Standard errors use the fixed-effects degrees of freedom
    ``nobs - n_entities - k``.
    """
    design = _design(panel)
    beta, cov, _ = _ols_fit(design, design[2], "FE design matrix")
    return _estimate(parameter, LS_FE, panel, design, beta, cov)


def _estimate(parameter, method, panel, design, beta, cov, diagnostics=None):
    """The ElasticityEstimate of a fit ``beta`` with covariance ``cov`` of
    the regressors ``[x, time dummies]`` of ``design``."""
    *_, periods, n_entities = design
    return ElasticityEstimate(
        parameter=parameter,
        coef=float(beta[0]),
        se=float(np.sqrt(cov[0, 0])),
        time_dummies=beta[1:].copy(),
        dummy_periods=periods[1:].copy(),
        method=method,
        nobs=panel.nobs,
        n_entities=n_entities,
        diagnostics=diagnostics,
    )


def fe_2sls(
    panel: PanelDataset,
    instrument_spec: list[str],
    parameter: str = "gamma",
) -> ElasticityEstimate:
    """Within 2SLS with x instrumented and time dummies exogenous.

    Warns WeakInstrumentWarning when the first-stage F falls below 10.
    Diagnostics (first-stage F, Sargan when overidentified, Davidson-
    MacKinnon endogeneity F) are attached to the estimate.
    """
    design = _design(panel, instrument_spec)
    beta, cov, resid = _2sls_fit(design)
    diag = _iv_diagnostics(design, instrument_spec, resid)
    if diag.first_stage_f < WEAK_INSTRUMENT_F:
        warnings.warn(
            f"first-stage F = {diag.first_stage_f:.2f} below "
            f"{WEAK_INSTRUMENT_F:g}",
            WeakInstrumentWarning,
            stacklevel=2,
        )
    return _estimate(parameter, IV_FE, panel, design, beta, cov, diag)


def _2sls_fit(design):
    """The 2SLS fit of y on X = [x, D] with instruments Z, as ``_fit``
    returns it, with the bread ``(X' P_Z X)^{-1}``."""
    y, _, X, _, Z, _, _ = design
    # The projection's solve checks Z's rank; X enters no least-squares
    # solve, so its rank is checked here.
    if np.linalg.matrix_rank(X) < X.shape[1]:
        raise RankDeficient("FE design matrix is rank deficient")
    Xhat = Z @ _lstsq(Z, X, "instrument matrix")
    try:
        XtPX_inv = np.linalg.inv(X.T @ Xhat)
    except np.linalg.LinAlgError as exc:
        raise RankDeficient(f"projected design is singular: {exc}") from exc
    return _fit(design, X, XtPX_inv @ (Xhat.T @ y), XtPX_inv)


def iv_diagnostics(panel: PanelDataset, instrument_spec: list[str]) -> IvDiagnostics:
    """First-stage (Cragg-Donald) F, Sargan statistic and endogeneity F.

    With one endogenous regressor the Cragg-Donald statistic reduces to the
    F of excluded instruments in the first stage after partialling out the
    exogenous time dummies.  Sargan is N R^2 of the 2SLS residuals on the
    full instrument set (chi-square with L - 1 dof), reported as None when
    just identified.  The endogeneity test augments the structural OLS with
    the first-stage residuals (Davidson-MacKinnon F with 1 numerator dof).
    The residuals are those of the fit of ``fe_2sls``, so the result equals
    its ``diagnostics``.
    """
    design = _design(panel, instrument_spec)
    return _iv_diagnostics(design, instrument_spec, _2sls_fit(design)[2])


def _iv_diagnostics(design, instrument_spec, u):
    """The diagnostics of the 2SLS fit of ``design`` with residuals u."""
    # Imported here: scipy.special is slow to load, and only these tail
    # probabilities and gbm's need it.
    from scipy import special

    _, x, X, _, Z, _, n_entities = design
    L = len(instrument_spec)
    # Its partialled columns are freed before the augmented fit below, the
    # largest of the diagnostics.
    first_stage_f = _first_stage_f(design, L)

    if L > 1:
        u_fit = Z @ _lstsq(Z, u, "instrument matrix")
        r2 = float(u_fit @ u_fit) / float(u @ u)
        # Entity demeaning removes one dimension per entity, so the
        # effective sample size of the N R^2 statistic is n - n_entities;
        # using raw n makes the test over-reject in short panels.
        sargan = (u.size - n_entities) * r2
        # chdtrc is scipy.stats.chi2.sf for a statistic >= 0 and dof >= 1:
        # here n - n_entities >= 1, R^2 >= 0 and L - 1 >= 1.
        sargan_p = float(special.chdtrc(L - 1, sargan))
    else:
        sargan = None
        sargan_p = None

    # Davidson-MacKinnon: add the first-stage residuals to the OLS
    # regression; their significance signals endogeneity of x.
    v_hat = x - Z @ _lstsq(Z, x, "instrument matrix")
    if np.linalg.norm(v_hat) <= 1e-10 * max(np.linalg.norm(x), 1.0):
        # The instruments predict x exactly, so there is no first-stage
        # residual to test; x is exogenous by construction.
        endogeneity_f = 0.0
        endogeneity_p = 1.0
    else:
        X_aug = np.column_stack([X, v_hat])
        beta_aug, cov_aug, _ = _ols_fit(design, X_aug, "augmented design matrix")
        t_v = beta_aug[-1] / np.sqrt(cov_aug[-1, -1])
        endogeneity_f = float(t_v**2)
        # fdtrc is scipy.stats.f.sf for F >= 0 and dof >= 1: here F = t^2
        # and _residual_dof is at least 1.
        endogeneity_p = float(
            special.fdtrc(1, _residual_dof(design, X_aug.shape[1]), endogeneity_f)
        )

    return IvDiagnostics(
        first_stage_f=first_stage_f,
        sargan=sargan,
        sargan_p=sargan_p,
        endogeneity_f=endogeneity_f,
        endogeneity_p=endogeneity_p,
        instruments=tuple(instrument_spec),
    )


def _first_stage_f(design, L):
    """The first-stage F of the L excluded instruments of ``design``:
    partial the dummies out of x and the excluded instruments, then test
    the joint significance of the instruments."""
    _, x, _, D, Z, _, _ = design

    def partial_dummies(v):
        return v - D @ _lstsq(D, v, "time dummy matrix")

    x_t = partial_dummies(x)
    V_t = np.column_stack([partial_dummies(col) for col in Z[:, :L].T])
    fitted = V_t @ _lstsq(V_t, x_t, "partialled instrument matrix")
    rss = float(((x_t - fitted) ** 2).sum())
    ess = float((fitted**2).sum())
    return (ess / L) / (rss / _residual_dof(design, D.shape[1] + L))


def recover_productivity(estimate: ElasticityEstimate, output_prices) -> np.ndarray:
    """Cumulative log productivity ``ln zeta_t / zeta_1`` from time dummies.

    ``-(mu_t - mu_1) / gamma - ln(p_t / p_1)`` with the first element zero;
    ``output_prices`` aligns with the base period followed by the dummy
    periods.
    """
    if estimate.parameter != "gamma":
        raise ValueError("productivity recovery needs a gamma estimate")
    gamma = estimate.coef
    if abs(gamma) < 1e-6:
        raise GammaNearZero("recovery is singular at the Cobb-Douglas point")
    p = np.asarray(output_prices, dtype=float)
    T = estimate.time_dummies.size + 1
    if p.shape != (T,):
        raise ValueError(f"output prices have shape {p.shape}, expected ({T},)")
    if not np.all(np.isfinite(p) & (p > 0)):
        raise ValueError("output prices must be positive and finite")
    mu_diff = np.concatenate(([0.0], estimate.time_dummies))
    return -mu_diff / gamma - np.log(p / p[0])


def apply_instrument_transform(panel: PanelDataset, token: str) -> tuple[str, PanelDataset]:
    """Materialize a named instrument transform as a new column.

    ``token`` is an instrument name optionally prefixed by ``l`` (first
    lag), ``f`` (first forward) or ``d`` (first difference).  Transformed
    cells without a neighbour period become NaN and are masked out by the
    PanelDataset constructor on rebuild.  Returns the resolved column name
    and the extended dataset.  A column of the transform's name is reused
    when an earlier call made it; any other raises MalformedTable.
    """
    transform = None
    name = token
    if token not in panel.instruments and token[:1] in ("l", "f", "d"):
        transform, name = token[0], token[1:]
    if name not in panel.instruments:
        raise UnknownInstrument(f"unknown instrument {token!r}")
    if transform is None:
        return name, panel
    col_name = f"{transform}_{name}"
    if col_name in panel.transformed:
        return col_name, panel
    if col_name in panel.instruments:
        raise MalformedTable(
            f"transform {token!r} names {col_name!r}, a column of the panel")
    # The panel's (entity, period) pairs are distinct, so in its order by
    # them a row's neighbour is the next row when both share an entity.
    order = panel.order
    code = panel.entity_code[order]
    same = code[1:] == code[:-1]
    v = panel.instruments[name][order]
    lo, hi = v[:-1][same], v[1:][same]
    out = np.full(panel.nobs, np.nan)
    if transform == "l":
        out[order[1:][same]] = lo
    elif transform == "f":
        out[order[:-1][same]] = hi
    else:  # first difference
        out[order[1:][same]] = hi - lo
    rebuilt = replace(panel, instruments={**panel.instruments, col_name: out})
    object.__setattr__(rebuilt, "transformed", panel.transformed | {col_name})
    return col_name, rebuilt


def _lstsq(M, v, what):
    """Least-squares coefficients of v on the columns of M, which must have
    full column rank; ``what`` names M in the error."""
    coef, _, rank, _ = np.linalg.lstsq(M, v, rcond=None)
    if rank < M.shape[1]:
        raise RankDeficient(f"{what} is rank deficient")
    return coef


def _residual_dof(design, k):
    """Residual degrees of freedom of a fit with k regressors on the
    entity-demeaned ``design``: one is spent on each entity mean."""
    y, *_, n_entities = design
    dof = y.size - n_entities - k
    if dof <= 0:
        raise RankDeficient("no residual degrees of freedom")
    return dof


def _ols_fit(design, X, what):
    """OLS of the response of ``design`` on X, as ``_fit`` returns it, with
    the bread ``(X' X)^{-1}``."""
    return _fit(design, X, _lstsq(X, design[0], what), np.linalg.inv(X.T @ X))


def _fit(design, X, beta, bread):
    """``(beta, s2 * bread, resid)`` for coefficients ``beta`` of the
    response of ``design`` on X: the residuals and their variance s2 with
    the fixed-effects residual degrees of freedom."""
    y = design[0]
    resid = y - X @ beta
    s2 = float(resid @ resid) / _residual_dof(design, X.shape[1])
    return beta, s2 * bread, resid
