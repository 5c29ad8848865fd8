import csv

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cesnet import economy
from cesnet.economy import (
    Economy,
    check_shock,
    cost_shares,
    load_economy,
    parse_column,
    read_csv_columns,
    read_typed_columns,
    save_economy,
)
from cesnet.errors import ColumnSumViolation, MalformedTable, NegativeCoefficient

from conftest import random_economy


def write_csvs(tmp_path, io_rows, el_rows):
    io_path = tmp_path / "io.csv"
    el_path = tmp_path / "el.csv"
    io_path.write_text("\n".join(io_rows) + "\n")
    el_path.write_text("\n".join(el_rows) + "\n")
    return io_path, el_path


class TestLoader:
    def test_well_formed_two_sector(self, tmp_path):
        io_path, el_path = write_csvs(
            tmp_path,
            [
                "sector,steel,corn",
                "PRIMARY,0.5,0.5",
                "steel,0.2,0.3",
                "corn,0.3,0.2",
            ],
            ["steel,1.5", "corn,0.5"],
        )
        e = load_economy(io_path, el_path)
        assert e.n == 2
        assert e.labels == ("steel", "corn")
        np.testing.assert_allclose(e.A, [[0.2, 0.3], [0.3, 0.2]])
        np.testing.assert_allclose(e.a0, [0.5, 0.5])
        np.testing.assert_allclose(e.gamma, [-0.5, 0.5])

    def test_negative_coefficient(self, tmp_path):
        io_path, el_path = write_csvs(
            tmp_path,
            [
                "sector,steel,corn",
                "PRIMARY,0.6,0.5",
                "steel,-0.1,0.3",
                "corn,0.5,0.2",
            ],
            ["steel,1.0", "corn,1.0"],
        )
        with pytest.raises(NegativeCoefficient):
            load_economy(io_path, el_path)

    def test_negative_coefficient_with_bad_column_sum(self, tmp_path):
        # Column sums are checked on load, signs by the Economy after it.
        io_path, el_path = write_csvs(
            tmp_path,
            [
                "sector,steel,corn",
                "PRIMARY,0.5,0.5",
                "steel,-0.1,0.3",
                "corn,0.5,0.2",
            ],
            ["steel,1.0", "corn,1.0"],
        )
        with pytest.raises(ColumnSumViolation, match="column 'steel'"):
            load_economy(io_path, el_path)

    def test_column_sum_violation(self, tmp_path):
        io_path, el_path = write_csvs(
            tmp_path,
            [
                "sector,steel,corn",
                "PRIMARY,0.43,0.5",
                "steel,0.2,0.3",
                "corn,0.3,0.2",
            ],
            ["steel,1.0", "corn,1.0"],
        )
        with pytest.raises(ColumnSumViolation):
            load_economy(io_path, el_path)

    def test_nan_cell_of_io_table(self, tmp_path):
        io_path, el_path = write_csvs(
            tmp_path,
            ["sector,a,b", "PRIMARY,0.5,0.5", "a,nan,0.3", "b,0.3,0.2"],
            ["a,1.0", "b,1.0"],
        )
        with pytest.raises(MalformedTable, match="A must be finite"):
            load_economy(io_path, el_path)

    def test_small_deviation_renormalized(self, tmp_path):
        io_path, el_path = write_csvs(
            tmp_path,
            [
                "sector,steel,corn",
                f"PRIMARY,{0.5 + 4e-7},0.5",
                "steel,0.2,0.3",
                "corn,0.3,0.2",
            ],
            ["steel,1.0", "corn,1.0"],
        )
        e = load_economy(io_path, el_path)
        np.testing.assert_allclose(e.a0 + e.A.sum(axis=0), 1.0, atol=1e-15)

    def test_malformed_shapes(self, tmp_path):
        io_path, el_path = write_csvs(
            tmp_path,
            ["sector,steel,corn", "PRIMARY,0.5,0.5", "steel,0.5,0.5"],
            ["steel,1.0", "corn,1.0"],
        )
        with pytest.raises(MalformedTable):
            load_economy(io_path, el_path)

    def test_missing_elasticity(self, tmp_path):
        io_path, el_path = write_csvs(
            tmp_path,
            [
                "sector,steel,corn",
                "PRIMARY,0.5,0.5",
                "steel,0.2,0.3",
                "corn,0.3,0.2",
            ],
            ["steel,1.0"],
        )
        with pytest.raises(MalformedTable):
            load_economy(io_path, el_path)

    def test_header_without_sectors(self, tmp_path):
        io_path, el_path = write_csvs(tmp_path, ["sector", "PRIMARY"], ["a,1.0"])
        with pytest.raises(MalformedTable, match="^IO table header declares no sectors$"):
            load_economy(io_path, el_path)

    def test_sector_row_with_the_wrong_label(self, tmp_path):
        io_path, el_path = write_csvs(
            tmp_path,
            ["sector,steel,corn", "PRIMARY,0.5,0.5", "steel,0.2,0.3", "wheat,0.3,0.2"],
            ["steel,1.0", "corn,1.0"],
        )
        with pytest.raises(MalformedTable,
                           match="^IO table row 4 labelled 'wheat', expected 'corn'$"):
            load_economy(io_path, el_path)

    def test_duplicate_sector_label(self, tmp_path):
        io_path, el_path = write_csvs(
            tmp_path,
            ["sector,a,a", "PRIMARY,0.5,0.5", "a,0.2,0.3", "a,0.3,0.2"],
            ["a,1.0"],
        )
        with pytest.raises(MalformedTable, match="^duplicate sector label 'a'$"):
            load_economy(io_path, el_path)

    def test_round_trip_bit_identical(self, tmp_path):
        e = random_economy(3, 6)
        io_path = tmp_path / "io.csv"
        el_path = tmp_path / "el.csv"
        save_economy(e, io_path, el_path)
        e2 = load_economy(io_path, el_path)
        # repr round-trips doubles exactly; renormalization divides by a
        # column sum that reproduces as exactly 1 only if adding-up held
        # bit-exactly, so compare against the renormalized original.
        colsums = e.a0 + e.A.sum(axis=0)
        np.testing.assert_array_equal(e2.A, e.A / colsums)
        np.testing.assert_array_equal(e2.a0, e.a0 / colsums)
        np.testing.assert_array_equal(e2.gamma, e.gamma)
        assert e2.labels == e.labels


def oracle_read_csv_rows(path, name, width=None) -> list[list[str]]:
    """The reader before it returned columns, kept verbatim as the oracle:
    every file went through ``csv.reader``."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = [row for row in csv.reader(fh) if "".join(row).strip()]
    except UnicodeDecodeError as exc:
        exc.reason += f" in {path}"
        raise
    except csv.Error as exc:  # e.g. a field beyond csv.field_size_limit()
        raise MalformedTable(f"{path}: {exc}") from exc
    if width == "first":
        width = len(rows[0]) if rows else 0
    if width is not None and set(map(len, rows)) - {width}:
        i, row = next((i, r) for i, r in enumerate(rows, 1) if len(r) != width)
        raise MalformedTable(f"{name} row {i} has {len(row)} fields")
    return rows


def outcome(read):
    """What a read returns, or the class and message of what it raises."""
    try:
        return [list(col) for col in read()]
    except Exception as exc:
        return type(exc), str(exc)


#: Every character that quoting, line ends, blank cells or csv's NUL rule
#: treat apart, with U+2028 and form feed, which str.splitlines() breaks on
#: and csv does not.
READER_CHARS = [",", '"', "\r", "\n", " ", "\t", "\0", "\u2028", "\x0c",
                "a", "1", ".", "-"]
CELL = st.text(alphabet=[c for c in READER_CHARS if c not in ",\r\n"],
               max_size=4)
ROWS = st.one_of(
    st.lists(st.lists(CELL, min_size=1, max_size=3), max_size=6),
    st.integers(1, 3).flatmap(lambda w: st.lists(
        st.lists(CELL, min_size=w, max_size=w), max_size=6)),
)
READER_TEXTS = st.one_of(
    st.text(alphabet=READER_CHARS, max_size=40),
    st.text(alphabet=[c for c in READER_CHARS if c not in '"\r\0'], max_size=40),
    st.builds(lambda rows, end, last: end.join(map(",".join, rows)) + last * end,
              ROWS, st.sampled_from(["\n", "\r\n", "\r"]), st.booleans()),
)


def splits_plainly(text, limit):
    """The plain-text rule of the loadtxt path: ASCII, no quote, no NUL, no
    0x1c to 0x1f, line ends all LF or all CRLF, and no line longer than the
    field size limit."""
    if not text.isascii() or any(c in text for c in '"\0\x1c\x1d\x1e\x1f'):
        return False
    if "\r" in text and not (text.count("\r") == text.count("\r\n")
                             == text.count("\n")):
        return False
    return max(map(len, text.replace("\r\n", "\n").split("\n"))) <= limit


class TestCsvReader:
    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=READER_TEXTS, width=st.sampled_from(["first", 2, None]),
           limit=st.sampled_from([None, 1, 3]))
    @example(text="a\n ", width=None, limit=None)
    @example(text=" ,\r\na", width=None, limit=None)
    @example(text="a,1\r\n\r\nb,2", width=2, limit=None)
    def test_columns_equal_csv_reader(self, tmp_path, text, width, limit):
        path = tmp_path / "t.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)
        old_limit = csv.field_size_limit()
        try:
            if limit is not None:
                csv.field_size_limit(limit)
            want = outcome(lambda: zip(*oracle_read_csv_rows(path, "t", width)))
            got = outcome(lambda: read_csv_columns(path, "t", width))
            plain = economy._loadtxt_lines(text) is not None
            assert plain == splits_plainly(text, csv.field_size_limit())
        finally:
            csv.field_size_limit(old_limit)
        assert got == want

    @pytest.mark.parametrize("text", ["a,1\nb,2\n", "a,1\r\nb,2\r\n"])
    def test_plain_text_takes_the_loadtxt_path(self, tmp_path, text):
        path = tmp_path / "t.csv"
        path.write_bytes(text.encode())
        assert economy._loadtxt_lines(text) == ["a,1", "b,2", ""]
        assert read_csv_columns(path, "t", 2) == [["a", "b"], ["1", "2"]]
        head, (keys, values) = read_typed_columns(path, "t", (object, float), 2, 1)
        assert head is None and keys.tolist() == ["a", "b"]
        assert values.dtype == np.float64 and values.tolist() == [1.0, 2.0]

    @pytest.mark.parametrize("stray", ["\r", "\n"])
    def test_stray_line_end_past_the_first_block_is_seen(self, stray):
        # The CRLF check joins the lines 1024 at a time.
        lines = [f"s{k},1" for k in range(3000)]
        assert economy._loadtxt_lines("\r\n".join(lines)) == lines
        lines[2500] = f"s2500{stray},1"
        assert economy._loadtxt_lines("\r\n".join(lines)) is None

    def test_decode_error_gives_the_byte_offset_in_the_file(self, tmp_path):
        # The offset counts from the start of the file, not from the start
        # of a chunk that a text reader was decoding.
        path = tmp_path / "big.csv"
        path.write_bytes(b"v\n" + b"1.0\n" * 5000 + b"\xe9\n")
        with pytest.raises(UnicodeDecodeError) as info:
            read_csv_columns(path, "big")
        assert info.value.start == 20002
        assert "position 20002" in str(info.value)
        assert str(path) in str(info.value)

    def test_nul_takes_the_csv_path(self, tmp_path):
        # Python 3.10's csv rejects a NUL and 3.11's reads it as a
        # character; either way the reader does what csv.reader does.
        path = tmp_path / "t.csv"
        path.write_bytes(b"a,\x00\nb,2\n")
        assert economy._loadtxt_lines(path.read_text()) is None
        want = outcome(lambda: zip(*oracle_read_csv_rows(path, "t", 2)))
        assert outcome(lambda: read_csv_columns(path, "t", 2)) == want


def _is_number(cell):
    try:
        float(cell)
    except ValueError:
        return False
    return True


def oracle_typed_columns(path, name, width, header):
    """``(head, columns)`` from the csv.reader oracle, each number column
    converted by ``parse_column`` as ``float()`` or ``int()`` reads it."""
    columns = [list(col) for col in zip(*oracle_read_csv_rows(path, name, width))]
    head = None
    if columns and (header is None or not _is_number(columns[header][0])):
        head, columns = [col[0] for col in columns], [col[1:] for col in columns]
    return head, columns


def typed_outcome(read, types):
    """What a typed read returns, its number columns through
    ``parse_column`` and each as its dtype and its bytes, or the class and
    message of what it raises."""
    try:
        head, columns = read()
        first = 1 if head is None else 2
        kinds = [*types, *types[-1:] * len(columns)]
        out = []
        for col, kind in zip(columns, kinds):
            if kind is object:
                out.append(list(col))
                continue
            col = parse_column(col, kind, "v", "t", first)
            # An int beyond int64 gives a column of Python ints.
            out.append((col.dtype.str, col.shape, col.tolist()
                        if col.dtype == object else col.tobytes()))
        return head, out
    except Exception as exc:
        return type(exc), str(exc)


DIGITS = st.text(st.sampled_from("0123456789"), min_size=1, max_size=25)
#: Number cells that float() reads: float reprs, long decimals with
#: exponents past the float range, and the spellings of nan and inf.
FLOAT_CELLS = st.one_of(
    st.floats().map(repr),
    st.builds(lambda sign, a, b, e: f"{sign}{a}.{b}{e}",
              st.sampled_from(["", "+", "-"]), DIGITS, DIGITS,
              st.sampled_from(["", "e5", "E-330", "e+400", "e-3"])),
    st.sampled_from(["nan", "-nan", "+NaN", "inf", "-Infinity", "1e5", ".5",
                     "5.", "+1", "-0", "007", "5e-324",
                     "2.4703282292062328e-324", "1.7976931348623159e308"]),
)
INT_CELLS = st.one_of(
    st.integers(-2**63, 2**63 - 1).map(str),
    st.sampled_from(["+1", "-0", "007", "9223372036854775807"]),
)
#: Cells that float() or int() may read and numpy's parsers may not, or
#: that neither reads.
ODD_CELLS = st.one_of(
    st.integers(-2**70, 2**70).map(str),
    st.sampled_from(["1_0", "1__0", "\u0663", "\uff11", "\u0661.\u0665",
                     "9223372036854775808", "-9223372036854775809", "1.0",
                     "infinit", "0x10", "1.5j", "", "x"]),
)
#: Blanks around a cell; all but the first four are rare in text.
BLANKS = ["", " ", "\t", "\x0c", "\x0b", "\x1c", "\x1f", "\xa0", "\u2028",
          "\u3000"]
LABELS = ["a", "b", "1", " ", "\t", "\u00e9", "\U0001f600", "\u2028"]


@st.composite
def typed_tables(draw):
    """A CSV text and the reading of it: types, width and header rule.

    Each kind of trouble (odd cells, odd blanks, non-ASCII labels, blank,
    short and long rows, quotes, bare CR and mixed line ends) is drawn
    rarely, so about half the texts are plain tables that loadtxt reads.
    """
    def rarely():
        return draw(st.integers(0, 39)) == 0

    def blank():
        return draw(st.sampled_from(BLANKS[:4] if not rarely() else BLANKS))

    def label():
        chars = LABELS if rarely() else LABELS[:5]
        return draw(st.text(st.sampled_from(chars), max_size=4))

    def cell(kind):
        if kind is object:
            return label()
        text = draw(ODD_CELLS if rarely() else
                    INT_CELLS if kind is int else FLOAT_CELLS)
        return blank() + text + blank()

    types, width, header = draw(st.sampled_from([
        ((object, int, float), "first", None), ((object, float), "first", None),
        ((float,), "first", None), ((object, float), 2, 1), ((float,), None, 0),
        ((int,), None, None)]))
    ncols = 2 if width == 2 else draw(st.integers(1 + (object in types), 4))
    kinds = [*types, *types[-1:] * ncols][:ncols]
    rows = [[label() or "h" for _ in kinds]] if draw(st.booleans()) else []
    for _ in range(draw(st.integers(0, 6)) if rarely() else draw(st.integers(1, 6))):
        row = [cell(kind) for kind in kinds]
        if rarely():
            row = [blank() for _ in kinds]
        elif rarely():
            row = row[:-1]
        elif rarely():
            row.append(cell(float))
        rows.append(row)
    lines = [",".join(row) for row in rows]
    if lines and rarely():
        i = draw(st.integers(0, len(lines) - 1))
        lines[i] = draw(st.sampled_from(['"', '""', '"1"'])) + lines[i]
    end = draw(st.sampled_from(["\n", "\r\n"]))
    if rarely():
        end = "\r"
    text = end.join(lines) + draw(st.sampled_from(["", end]))
    if rarely():
        text = text.replace(end, "\n", 1)
    return text, types, width, header


class TestTypedReader:
    @settings(max_examples=500, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(table=typed_tables())
    @example(table=("x\n1\n1_0\n", (float,), None, 0))
    @example(table=("p\n3_0\n", (int,), None, None))
    @example(table=("a,b\n1,2\n,\n3,4\n", (float,), "first", None))
    @example(table=("v\r\n9223372036854775808\r\n", (int,), None, None))
    def test_typed_columns_equal_csv_reader(self, tmp_path, table):
        text, types, width, header = table
        path = tmp_path / "t.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)
        want = typed_outcome(
            lambda: oracle_typed_columns(path, "t", width, header), types)
        got = typed_outcome(
            lambda: read_typed_columns(path, "t", types, width, header), types)
        assert got == want

    def test_perfbench_shaped_crlf_panel_takes_the_fast_path(self, tmp_path,
                                                             monkeypatch):
        # csv.writer's CRLF rows with repr floats, as the benchmark writes
        # its panel; the csv.reader path is switched off to show it unused.
        rng = np.random.default_rng(18)
        path = tmp_path / "panel.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["entity", "period", "share", "price", "inst_w", "inst_v"])
            for i in range(200):
                writer.writerow([f"e{i // 10}", i % 10 + 1,
                                 *rng.lognormal(size=2).tolist(),
                                 *rng.normal(size=2).tolist()])
        types = (object, int, float)
        want = typed_outcome(
            lambda: oracle_typed_columns(path, "panel", "first", None), types)
        monkeypatch.setattr(economy, "_csv_columns", None)
        head, columns = read_typed_columns(path, "panel", types, "first")
        assert [col.dtype for col in columns] == [object, np.int64] + [np.float64] * 4
        assert all(col.flags.c_contiguous for col in columns)
        assert typed_outcome(lambda: (head, columns), types) == want


class TestEconomyType:
    def test_rejects_negative(self):
        with pytest.raises(NegativeCoefficient):
            Economy(labels=("a",), A=[[-0.1]], a0=[1.1], gamma=[0.0])

    def test_rejects_bad_column_sum(self):
        with pytest.raises(ColumnSumViolation):
            Economy(labels=("a",), A=[[0.4]], a0=[0.5], gamma=[0.0])

    def test_column_sum_message_prints_a_plain_float(self):
        with pytest.raises(ColumnSumViolation) as info:
            Economy(labels=("a",), A=[[0.6]], a0=[0.5], gamma=[0.0])
        assert str(info.value) == "column 'a' sums to 1.1, expected 1"

    @pytest.mark.parametrize("field", ["A", "a0", "gamma"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, field, bad):
        args = {"A": [[0.4]], "a0": [0.6], "gamma": [0.0]}
        args[field] = np.full_like(args[field], bad)
        with pytest.raises(MalformedTable, match=f"{field} must be finite"):
            Economy(labels=("a",), **args)

    def test_rejects_inconsistent_shapes(self):
        with pytest.raises(MalformedTable, match=(
                r"^inconsistent shapes: A\(1, 1\), a0\(2,\), gamma\(1,\) for 1 sectors$")):
            Economy(labels=("a",), A=[[0.4]], a0=[0.6, 0.0], gamma=[0.0])

    def test_check_shock_rejects_the_wrong_length(self):
        with pytest.raises(MalformedTable,
                           match=r"^shock vector has shape \(3,\), expected \(2,\)$"):
            check_shock(np.ones(3), 2)

    def test_immutable_arrays(self, econ4):
        with pytest.raises(ValueError):
            econ4.A[0, 0] = 99.0

    def test_sigma_gamma_identity(self, econ4):
        np.testing.assert_array_equal(econ4.sigma, 1.0 - econ4.gamma)


def shares_at_benchmark(e):
    """Cost shares at the benchmark, where every price and productivity is
    one."""
    ones = np.ones(e.n)
    return cost_shares(e, ones, 1.0, ones)


class TestBenchmarkShares:
    def test_equals_calibrated_coefficients(self, econ4):
        # 1.0 ** x is exactly 1, so the shares are the coefficients' bits.
        np.testing.assert_array_equal(shares_at_benchmark(econ4),
                                      econ4.augmented_coefficients())

    def test_single_sector_pure_primary(self):
        e = Economy(labels=("only",), A=[[0.0]], a0=[1.0], gamma=[0.5])
        shares = shares_at_benchmark(e)
        np.testing.assert_array_equal(shares, [[1.0], [0.0]])

    def test_columns_sum_to_one(self):
        for seed in range(5):
            e = random_economy(seed, 5)
            np.testing.assert_allclose(
                shares_at_benchmark(e).sum(axis=0), 1.0, atol=1e-12
            )

    def test_zero_coefficient_share_stays_zero(self):
        e = Economy(
            labels=("a", "b"),
            A=[[0.3, 0.0], [0.0, 0.4]],
            a0=[0.7, 0.6],
            gamma=[0.5, -0.5],
        )
        pi = np.array([1.3, 0.8])
        z = np.array([1.1, 0.9])
        shares = cost_shares(e, pi, 1.0, z)
        assert shares[2, 0] == 0.0 and shares[1, 1] == 0.0
