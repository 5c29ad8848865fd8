"""Domain types for the n-sector economy plus CSV ingestion and calibration.

The benchmark calibration convention: all prices and productivities equal one
in the base period, so the share parameters of every sector's CES cost
function coincide with the observed input-output coefficients.  Columns of
the coefficient table (primary factor row stacked on the intermediate block)
therefore sum to one.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ColumnSumViolation,
    MalformedTable,
    NegativeCoefficient,
    NonPositivePrice,
    NonPositiveValue,
)

#: Maximum column-sum deviation that the loader silently renormalizes away.
RENORM_TOLERANCE = 1e-6

#: Adding-up tolerance enforced by the Economy constructor.
ADDING_UP_TOLERANCE = 1e-9

PRIMARY_ROW_LABEL = "PRIMARY"


@dataclass(frozen=True)
class Economy:
    """Immutable benchmark calibration of an n-sector CES economy.

    Attributes
    ----------
    labels : tuple of str
        Sector names, length n.
    A : ndarray, shape (n, n)
        Input-output coefficients ``a[i, j]`` (cost share of input i in
        sector j at the benchmark).
    a0 : ndarray, shape (n,)
        Primary-factor coefficients per sector.
    gamma : ndarray, shape (n,)
        CES exponents, ``gamma[j] = 1 - sigma[j]`` with sigma the sector-j
        elasticity of substitution.  A Leontief sector has gamma = 1, a
        Cobb-Douglas sector gamma = 0.
    """

    labels: tuple[str, ...]
    A: np.ndarray = field(repr=False)
    a0: np.ndarray = field(repr=False)
    gamma: np.ndarray = field(repr=False)

    def __post_init__(self):
        A = np.ascontiguousarray(np.asarray(self.A, dtype=float))
        a0 = np.ascontiguousarray(np.asarray(self.a0, dtype=float))
        gamma = np.ascontiguousarray(np.asarray(self.gamma, dtype=float))
        n = len(self.labels)
        if A.shape != (n, n) or a0.shape != (n,) or gamma.shape != (n,):
            raise MalformedTable(
                f"inconsistent shapes: A{A.shape}, a0{a0.shape}, "
                f"gamma{gamma.shape} for {n} sectors"
            )
        for name, arr in (("A", A), ("a0", a0), ("gamma", gamma)):
            if not np.all(np.isfinite(arr)):
                raise MalformedTable(f"{name} must be finite")
        if np.any(A < 0) or np.any(a0 < 0):
            raise NegativeCoefficient("coefficients must be nonnegative")
        colsums = a0 + A.sum(axis=0)
        bad = np.abs(colsums - 1.0) > ADDING_UP_TOLERANCE
        if np.any(bad):
            j = int(np.argmax(np.abs(colsums - 1.0)))
            raise ColumnSumViolation(
                f"column {self.labels[j]!r} sums to {float(colsums[j])!r}, expected 1"
            )
        for arr in (A, a0, gamma):
            arr.flags.writeable = False
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "a0", a0)
        object.__setattr__(self, "gamma", gamma)

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def sigma(self) -> np.ndarray:
        """Sector elasticities of substitution, ``1 - gamma``."""
        return 1.0 - self.gamma

    def augmented_coefficients(self) -> np.ndarray:
        """Coefficient block with the primary row on top, shape (n+1, n)."""
        return np.vstack([self.a0, self.A])


def check_shock(z, n: int) -> np.ndarray:
    """Validate a productivity vector: length n, strictly positive."""
    z = np.asarray(z, dtype=float)
    if z.shape != (n,):
        raise MalformedTable(f"shock vector has shape {z.shape}, expected ({n},)")
    if not np.all(np.isfinite(z)) or np.any(z <= 0):
        raise NonPositiveValue(
            f"productivity levels must be strictly positive, got {z}"
        )
    return z


def check_shock_matrix(Z, n: int) -> np.ndarray:
    """Validate a (K, n) matrix of productivity rows, each strictly positive.

    A bad row raises what ``check_shock`` raises for the first such row.
    """
    Z = np.asarray(Z, dtype=float)
    if Z.ndim != 2 or Z.shape[1] != n:
        raise MalformedTable(f"shock matrix has shape {Z.shape}, expected (K, {n})")
    valid = valid_shock_rows(Z)
    if not valid.all():
        check_shock(Z[np.argmin(valid)], n)
    return Z


def valid_shock_rows(Z) -> np.ndarray:
    """Mask of the rows of a shock matrix that are finite and strictly positive."""
    return np.all(np.isfinite(Z) & (Z > 0), axis=1)


def check_prices(pi, n: int, pi0: float = 1.0) -> tuple[np.ndarray, float]:
    """Validate a price vector and the numeraire; both strictly positive."""
    pi = np.asarray(pi, dtype=float)
    if pi.shape != (n,):
        raise MalformedTable(f"price vector has shape {pi.shape}, expected ({n},)")
    if not np.all(np.isfinite(pi)) or np.any(pi <= 0):
        raise NonPositivePrice(f"prices must be strictly positive, got {pi}")
    return pi, check_numeraire(pi0)


def check_numeraire(pi0) -> float:
    """Validate the numeraire price: finite and strictly positive."""
    pi0 = float(pi0)
    if not np.isfinite(pi0) or pi0 <= 0:
        raise NonPositivePrice(f"numeraire must be strictly positive, got {pi0}")
    return pi0


def load_economy(io_table_path, elasticities_path) -> Economy:
    """Load an Economy from an IO-table CSV and an elasticities CSV.

    The IO table has header ``sector,<label_1>,...,<label_n>``, a first data
    row ``PRIMARY,a_01,...,a_0n`` and n further rows ``label_i,a_i1,...,a_in``.
    The elasticities file has rows ``label_j,sigma_j`` (read by
    :func:`load_labelled_vector`); sigma is converted to
    ``gamma = 1 - sigma``.

    Columns whose sums deviate from one by at most ``RENORM_TOLERANCE`` are
    renormalized; larger deviations raise :class:`ColumnSumViolation`.
    """
    labels, a0, A = _parse_io_table(io_table_path)
    try:
        sigma = load_labelled_vector(elasticities_path, labels, "elasticities")
    except OSError as exc:
        raise MalformedTable(f"cannot read elasticities: {exc}") from exc

    colsums = a0 + A.sum(axis=0)
    deviation = np.abs(colsums - 1.0)
    if np.any(deviation > RENORM_TOLERANCE):
        j = int(np.argmax(deviation))
        raise ColumnSumViolation(
            f"column {labels[j]!r} sums to {colsums[j]:.9g}; "
            f"deviation exceeds {RENORM_TOLERANCE:g}"
        )
    a0 = a0 / colsums
    A = A / colsums
    return Economy(labels=tuple(labels), A=A, a0=a0, gamma=1.0 - sigma)


def save_economy(economy: Economy, io_table_path, elasticities_path) -> None:
    """Write the IO table and elasticities CSVs consumed by load_economy.

    Values are written with shortest round-trip formatting, so a save/load
    cycle reproduces the coefficient arrays bit for bit.
    """
    with open(io_table_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sector", *economy.labels])
        writer.writerow([PRIMARY_ROW_LABEL, *[repr(float(v)) for v in economy.a0]])
        for i, lab in enumerate(economy.labels):
            writer.writerow([lab, *[repr(float(v)) for v in economy.A[i]]])
    with open(elasticities_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        for lab, s in zip(economy.labels, economy.sigma):
            writer.writerow([lab, repr(float(s))])


def benchmark_shares(economy: Economy) -> np.ndarray:
    """Cost shares at the benchmark, shape (n+1, n): exactly a0 over A."""
    ones = np.ones(economy.n)
    return cost_shares(economy, ones, pi0=1.0, z=ones)


def cost_shares(economy: Economy, pi, pi0: float = 1.0, z=None) -> np.ndarray:
    """Factor cost shares by Shephard's lemma, shape (n+1, n).

    Row 0 is the primary factor; ``shares[i, j] = a[i, j] *
    (z_j pi_j / pi_i) ** (-gamma_j)``.  Shares sum to one per column only at
    an equilibrium (or the benchmark).
    """
    pi, pi0 = check_prices(pi, economy.n, pi0)
    if z is None:
        z = np.ones(economy.n)
    z = check_shock(z, economy.n)
    paug = np.concatenate(([pi0], pi))
    ratio = (z * pi)[None, :] / paug[:, None]
    return economy.augmented_coefficients() * ratio ** (-economy.gamma[None, :])


def read_csv_rows(path) -> list[list[str]]:
    """The rows of a UTF-8 CSV file, blank rows included.

    A byte that is not UTF-8 raises UnicodeDecodeError with the file's path
    in its message.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            return list(csv.reader(fh))
    except UnicodeDecodeError as exc:
        exc.reason += f" in {path}"
        raise
    except csv.Error as exc:  # e.g. a field beyond csv.field_size_limit()
        raise MalformedTable(f"{path}: {exc}") from exc


def _parse_io_table(path):
    try:
        rows = read_csv_rows(path)
    except OSError as exc:
        raise MalformedTable(f"cannot read IO table: {exc}") from exc
    rows = [r for r in rows if r and any(cell.strip() for cell in r)]
    if len(rows) < 3:
        raise MalformedTable("IO table needs a header, a PRIMARY row and sector rows")
    header = rows[0]
    labels = [cell.strip() for cell in header[1:]]
    n = len(labels)
    if n == 0:
        raise MalformedTable("IO table header declares no sectors")
    if len(rows) != n + 2:
        raise MalformedTable(
            f"IO table has {len(rows) - 2} sector rows, expected {n}"
        )
    if rows[1][0].strip() != PRIMARY_ROW_LABEL:
        raise MalformedTable(
            f"first data row must be labelled {PRIMARY_ROW_LABEL!r}, "
            f"got {rows[1][0]!r}"
        )
    a0 = _parse_row(rows[1], n, "PRIMARY")
    A = np.empty((n, n))
    for i, row in enumerate(rows[2:]):
        lab = row[0].strip()
        if lab != labels[i]:
            raise MalformedTable(
                f"row {i + 1} labelled {lab!r}, expected {labels[i]!r}"
            )
        A[i] = _parse_row(row, n, lab)
    if np.any(a0 < 0) or np.any(A < 0):
        raise NegativeCoefficient("IO table contains a negative coefficient")
    return labels, a0, A


def _parse_row(row, n, label):
    if len(row) != n + 1:
        raise MalformedTable(f"row {label!r} has {len(row) - 1} values, expected {n}")
    try:
        return np.array([float(cell) for cell in row[1:]])
    except ValueError as exc:
        raise MalformedTable(f"non-numeric value in row {label!r}: {exc}") from exc


def load_labelled_vector(path, labels, what) -> np.ndarray:
    """The values of a ``label,value`` CSV file, in the order of ``labels``.

    Blank rows are skipped, and so is a non-numeric first row (a header such
    as ``sector,sigma``); a later label overrides an earlier one.  A row
    without exactly two fields, a non-numeric value or a label with no row
    raises :class:`MalformedTable`, whose message starts with ``what``.
    """
    values = {}
    for idx, row in enumerate(read_csv_rows(path)):
        if not "".join(row).strip():
            continue
        if len(row) != 2:
            raise MalformedTable(f"{what} row {idx} has {len(row)} fields")
        try:
            values[row[0].strip()] = float(row[1])
        except ValueError:
            if idx == 0:
                continue
            raise MalformedTable(
                f"{what} row {idx} has a non-numeric value {row[1]!r}"
            ) from None
    missing = [lab for lab in labels if lab not in values]
    if missing:
        raise MalformedTable(f"{what} missing for sectors: {missing}")
    return np.array([values[lab] for lab in labels])
