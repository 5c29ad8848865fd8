import numpy as np
import pytest

from cesnet.economy import (
    Economy,
    benchmark_shares,
    cost_shares,
    load_economy,
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

    def test_immutable_arrays(self, econ4):
        with pytest.raises(ValueError):
            econ4.A[0, 0] = 99.0

    def test_sigma_gamma_identity(self, econ4):
        np.testing.assert_array_equal(econ4.sigma, 1.0 - econ4.gamma)


class TestBenchmarkShares:
    def test_equals_calibrated_coefficients(self, econ4):
        shares = benchmark_shares(econ4)
        np.testing.assert_allclose(shares[0], econ4.a0, atol=1e-15)
        np.testing.assert_allclose(shares[1:], econ4.A, atol=1e-15)

    def test_single_sector_pure_primary(self):
        e = Economy(labels=("only",), A=[[0.0]], a0=[1.0], gamma=[0.5])
        shares = benchmark_shares(e)
        np.testing.assert_array_equal(shares, [[1.0], [0.0]])

    def test_columns_sum_to_one(self):
        for seed in range(5):
            e = random_economy(seed, 5)
            np.testing.assert_allclose(
                benchmark_shares(e).sum(axis=0), 1.0, atol=1e-12
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
