"""Domain types for the n-sector economy plus CSV ingestion and calibration.

The benchmark calibration convention: all prices and productivities equal one
in the base period, so the share parameters of every sector's CES cost
function coincide with the observed input-output coefficients.  Columns of
the coefficient table (primary factor row stacked on the intermediate block)
therefore sum to one.
"""

from __future__ import annotations

import csv
import io
import re
import warnings
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
        if len(set(self.labels)) != n:
            dup = next(x for i, x in enumerate(self.labels) if x in self.labels[:i])
            raise MalformedTable(f"duplicate sector label {dup!r}")
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
    valid = np.all(np.isfinite(Z) & (Z > 0), axis=1)
    if not valid.all():
        check_shock(Z[np.argmin(valid)], n)
    return Z


def check_prices(pi, n: int, pi0: float = 1.0) -> tuple[np.ndarray, float]:
    """Validate a price vector and the numeraire; both strictly positive."""
    pi = np.asarray(pi, dtype=float)
    if pi.shape != (n,):
        raise MalformedTable(f"price vector has shape {pi.shape}, expected ({n},)")
    if not np.all(np.isfinite(pi)) or np.any(pi <= 0):
        raise NonPositivePrice(f"prices must be strictly positive, got {pi}")
    pi0 = float(pi0)
    if not np.isfinite(pi0) or pi0 <= 0:
        raise NonPositivePrice(f"numeraire must be strictly positive, got {pi0}")
    return pi, pi0


def load_economy(io_table_path, elasticities_path) -> Economy:
    """Load an Economy from an IO-table CSV and an elasticities CSV.

    The IO table has header ``sector,<label_1>,...,<label_n>``, a first data
    row ``PRIMARY,a_01,...,a_0n`` and n further rows ``label_i,a_i1,...,a_in``
    (read by :func:`read_csv_table`).
    The elasticities file has rows ``label_j,sigma_j`` (read by
    :func:`load_labelled_vector`); sigma is converted to
    ``gamma = 1 - sigma``.

    Columns whose sums deviate from one by at most ``RENORM_TOLERANCE`` are
    renormalized; larger deviations raise :class:`ColumnSumViolation`.  The
    :class:`Economy` constructor then checks the coefficient signs.  A file
    that cannot be opened raises the ``OSError`` of ``open``.
    """
    labels, a0, A = _parse_io_table(io_table_path)
    sigma = load_labelled_vector(elasticities_path, labels, "elasticities")

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

    Values are written with shortest round-trip formatting.  A save/load
    cycle gives back, bit for bit, A and a0 divided by their column sums and
    gamma as 1 - (1 - gamma), which are the originals only where exact.
    """
    labels = economy.labels
    write_csv(io_table_path, ["sector", *labels], [PRIMARY_ROW_LABEL, *labels],
              *economy.augmented_coefficients().T)
    write_csv(elasticities_path, None, labels, economy.sigma)


def write_csv(path, header, *columns):
    """Write a CSV file: the header row (none if ``header`` is None), then one
    row per index of the columns.

    A column is a float array, whose cells are written in shortest
    round-trip form (the ``repr`` of the float, so a reader gets back the
    same bits), or a list of labels, quoted as ``csv.writer`` quotes them.
    The file is written in one pass, with ``csv.writer``'s CRLF line ends.
    """
    cells = [map(repr, col.tolist()) if isinstance(col, np.ndarray)
             else map(_csv_cell, col) for col in columns]
    rows = cells[0] if len(cells) == 1 else map(",".join, zip(*cells))
    lines = [] if header is None else [",".join(map(_csv_cell, header))]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("\r\n".join([*lines, *rows, ""]))


_NEEDS_QUOTES = re.compile('[,"\r\n]').search


def _csv_cell(text):
    """A text cell with the minimal quoting of ``csv.writer``."""
    if _NEEDS_QUOTES(text):
        return '"' + text.replace('"', '""') + '"'
    return text


def cost_shares(economy: Economy, pi, pi0: float, z) -> np.ndarray:
    """Factor cost shares by Shephard's lemma, shape (n+1, n).

    Row 0 is the primary factor; ``shares[i, j] = a[i, j] *
    (z_j pi_j / pi_i) ** (-gamma_j)``.  Shares sum to one per column only at
    an equilibrium (or the benchmark).
    """
    pi, pi0 = check_prices(pi, economy.n, pi0)
    z = check_shock(z, economy.n)
    paug = np.concatenate(([pi0], pi))
    ratio = (z * pi)[None, :] / paug[:, None]
    return economy.augmented_coefficients() * ratio ** (-economy.gamma[None, :])


def read_csv_columns(path, name, width=None) -> list[list[str]]:
    """The columns of the non-blank rows of the UTF-8 CSV file ``name`` at
    ``path``: column j lists the rows' cells j.

    This is the reference reader: ``csv.reader`` parses the file's text,
    read and decoded once.  A row whose cells are all blank is dropped; the
    others are numbered from 1, a header being row 1.  Given ``width`` (a
    field count, or ``"first"`` for the first row's), a row of another
    width raises ``MalformedTable("<name> row <i> has <k> fields")``;
    without it, rows may differ in width, and only the columns that every
    row has are returned.  A byte that is not UTF-8 raises
    UnicodeDecodeError naming the path and the byte's offset in the file.
    """
    return _csv_columns(_read_text(path), path, name, width)


def _read_text(path) -> str:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        exc.reason += f" in {path}"
        raise


def _csv_columns(text, path, name, width) -> list[list[str]]:
    try:
        reader = csv.reader(io.StringIO(text, newline=""))
        rows = [row for row in reader if "".join(row).strip()]
    except csv.Error as exc:  # e.g. a field beyond csv.field_size_limit()
        raise MalformedTable(f"{path}: {exc}") from exc
    if width == "first":
        width = len(rows[0]) if rows else 0
    if width is not None and set(map(len, rows)) - {width}:
        i, row = next((i, r) for i, r in enumerate(rows, 1) if len(r) != width)
        raise MalformedTable(f"{name} row {i} has {len(row)} fields")
    return [list(col) for col in zip(*rows)]


def read_typed_columns(path, name, types, width=None, header=None):
    """``(head, columns)``: the cells of row 1 of a CSV file if it is a
    header (if ``header`` is None or its cell ``header`` is not a number),
    else None, and the columns of the other rows, as :func:`read_csv_columns`
    reads them.  Column j is an array of ``types[j]`` (``object``, ``int``
    or ``float``; the last type holds for later columns) where one
    ``np.loadtxt`` call reads the text (see :func:`_loadtxt`), else the list
    of its cells for :func:`parse_column`: the same values, bit for bit.
    """
    text = _read_text(path)
    typed = _loadtxt(text, types, width, header)
    if typed is not None:
        return typed
    columns = _csv_columns(text, path, name, width)
    if columns and (header is None or not _is_number(columns[header][0])):
        return [col[0] for col in columns], [col[1:] for col in columns]
    return None, columns


def _loadtxt_lines(text):
    """The lines of ``text`` if it is plain: ASCII with no ``"``, NUL or
    0x1c to 0x1f, line ends all LF or all CRLF, and no line longer than
    ``csv.field_size_limit()``; else None.  ``csv.reader`` splits each line
    of plain text on its commas alone, and numpy parses its numbers as
    ``float()`` and ``int()`` do.  numpy's int parser misreads (and may
    crash on) non-ASCII text, and numpy skips 0x1c to 0x1f around numbers.
    """
    if not text.isascii() or any(c in text for c in '"\0\x1c\x1d\x1e\x1f'):
        return None
    sep = "\r\n" if "\r" in text else "\n"
    lines = text.split(sep)
    if sep == "\r\n":  # a bare CR or LF is left inside a line
        for k in range(0, len(lines), 1024):  # blocks bound the joined copy
            rest = "".join(lines[k:k + 1024])
            if "\r" in rest or "\n" in rest:
                return None
    return lines if max(map(len, lines)) <= csv.field_size_limit() else None


def _loadtxt(text, types, width, header):
    """What :func:`read_typed_columns` returns for ``text``, from one
    ``np.loadtxt`` call; None if the text is not plain or the call might
    not give it.  A table with no number column is refused, since only a
    number cell fails on a row of blank cells, which ``csv.reader`` drops.
    """
    lines = _loadtxt_lines(text)
    if lines is None:
        return None
    head = lines[0].split(",")
    kinds = [*types, *types[-1:] * len(head)][:len(head)]
    if (not "".join(head).strip() or set(kinds) == {object}
            or width not in (None, "first", len(head))):
        return None
    if header is not None and _is_number(head[header]):
        head = None
    dtype = np.dtype([(f"f{j}", kind) for j, kind in enumerate(kinds)])
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = np.loadtxt(lines, dtype, delimiter=",", comments=None,
                               skiprows=int(head is not None), ndmin=1)
    except Exception:  # the csv.reader path gives the result or the error
        return None
    return head, [np.ascontiguousarray(table[f]) for f in dtype.names]


def _is_number(cell) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def read_csv_table(path, name, types) -> tuple[list[str], list]:
    """The header (the first non-blank row) of a CSV file whose rows are all
    as wide, and its columns from row 2 on, as :func:`read_typed_columns`
    gives them for ``types``."""
    head, columns = read_typed_columns(path, name, types, width="first")
    if not columns or not len(columns[0]):
        raise MalformedTable(f"{name} needs a header row and data rows")
    return [cell.strip() for cell in head], columns


def parse_column(cells, convert, what, name, first_row) -> np.ndarray:
    """The cells of a column from row ``first_row`` of file ``name`` on,
    converted by ``convert`` (``float`` or ``int``) into an array.  The first
    cell it rejects raises ``MalformedTable("non-numeric <what> '<cell>' in
    <name> row <i>")``.  A column that is an array comes back as it is."""
    if isinstance(cells, np.ndarray):
        return cells
    try:
        return np.asarray(list(map(convert, cells)))
    except ValueError:
        for i, cell in enumerate(cells, first_row):
            try:
                convert(cell)
            except ValueError:
                raise MalformedTable(
                    f"non-numeric {what} {cell!r} in {name} row {i}"
                ) from None
        raise


def _parse_io_table(path):
    header, columns = read_csv_table(path, "IO table", (object, float))
    labels, n = header[1:], len(header) - 1
    if n == 0:
        raise MalformedTable("IO table header declares no sectors")
    if len(columns[0]) != n + 1:
        raise MalformedTable(
            f"IO table has {len(columns[0]) - 1} sector rows, expected {n}"
        )
    expected = [PRIMARY_ROW_LABEL, *labels]
    for i, (cell, label) in enumerate(zip(columns[0], expected), 2):
        if cell.strip() != label:
            raise MalformedTable(
                f"IO table row {i} labelled {cell.strip()!r}, expected {label!r}"
            )
    coefficients = np.column_stack([
        parse_column(col, float, "coefficient", "IO table", 2)
        for col in columns[1:]
    ])
    return labels, coefficients[0], coefficients[1:]


def load_labelled_vector(path, labels, what) -> np.ndarray:
    """The values of a ``label,value`` CSV file, in the order of ``labels``.

    A row without exactly two fields, a non-numeric value, a label on two
    rows or a label with no row raises :class:`MalformedTable`; ``what``
    names the file.
    """
    first, keys, values = _value_column(path, what, 1, width=2)
    keys = [key.strip() for key in keys]
    found = dict(zip(keys, values.tolist()))
    if len(found) != len(keys):
        seen = {}
        for i, key in enumerate(keys, first):
            if key in seen:
                raise MalformedTable(
                    f"label {key!r} on {what} rows {seen[key]} and {i}")
            seen[key] = i
    missing = [lab for lab in labels if lab not in found]
    if missing:
        raise MalformedTable(f"{what} missing for sectors: {missing}")
    return np.array([found[lab] for lab in labels])


def load_column(path) -> np.ndarray:
    """The first cell of each row of a series CSV file, as finite floats;
    later cells are ignored."""
    first, _, values = _value_column(path, "series", 0)
    if not np.isfinite(values).all():
        i = int(np.argmin(np.isfinite(values)))
        cell = read_csv_columns(path, "series")[0][first - 1 + i]
        raise MalformedTable(f"non-finite value {cell!r} in series row {first + i}")
    return values


def _value_column(path, name, col, width=None):
    """``(first_row, keys, values)``: from the first data row of a CSV file
    on, its cells 0 and its cells ``col`` as floats.  A first row whose cell
    ``col`` is not a number is a header, such as ``sector,sigma``.
    """
    types = (object, float) if col else (float,)
    head, columns = read_typed_columns(path, name, types, width, header=col)
    keys, cells = (columns[0], columns[col]) if columns else ([], [])
    first = 1 if head is None else 2
    return first, keys, parse_column(cells, float, "value", name, first)
