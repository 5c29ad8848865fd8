import csv
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from cesnet import econometrics as em
from cesnet import montecarlo
from cesnet.cli import load_config, main
from cesnet.economy import (
    _loadtxt,
    _loadtxt_lines,
    parse_column,
    read_csv_table,
    save_economy,
    write_csv,
)
from cesnet.household import METHODS, HouseholdPrefs, real_gdp_growth
from cesnet.montecarlo import hp_filter, qq_points

from conftest import random_economy


def write_economy(tmp_path):
    io_path = tmp_path / "io.csv"
    el_path = tmp_path / "el.csv"
    io_path.write_text(
        "sector,steel,corn\n"
        "PRIMARY,0.5,0.5\n"
        "steel,0.2,0.3\n"
        "corn,0.3,0.2\n"
    )
    el_path.write_text("steel,1.5\ncorn,0.5\n")
    return str(io_path), str(el_path)


def write_prefs(tmp_path):
    p = tmp_path / "mu.csv"
    p.write_text("steel,0.4\ncorn,0.6\n")
    return str(p)


def write_shocks(tmp_path, steel=1.1, corn=0.9):
    p = tmp_path / "z.csv"
    p.write_text(f"steel,{steel}\ncorn,{corn}\n")
    return str(p)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def single_json_error(capsys):
    """The one JSON line a domain error leaves on stderr, parsed; nothing
    may reach stdout."""
    out, err = capsys.readouterr()
    assert out == "", out
    assert err.count("\n") == 1 and err.endswith("\n"), err
    return json.loads(err)


def reject_constant(name):
    """``parse_constant`` hook of a strict JSON reader: NaN and Infinity
    are not JSON."""
    raise ValueError(f"non-standard JSON constant {name}")


class TestSolve:
    def test_benchmark_prices_are_one(self, tmp_path):
        io_path, el_path = write_economy(tmp_path)
        rc = main([
            "solve", "--economy", io_path, "--elasticities", el_path,
            "--outdir", str(tmp_path / "out"),
        ])
        assert rc == 0
        rows = read_csv(tmp_path / "out" / "prices.csv")
        assert rows[0] == ["label", "price"]
        assert [r[0] for r in rows[1:]] == ["steel", "corn"]
        for r in rows[1:]:
            assert float(r[1]) == pytest.approx(1.0, abs=1e-10)
        meta = json.loads((tmp_path / "out" / "solve_meta.json").read_text())
        assert meta["status"] == "converged"

    def test_divergence_reports_json_error(self, tmp_path, capsys):
        io_path, el_path = write_economy(tmp_path)
        z_path = write_shocks(tmp_path, steel=0.01, corn=0.01)
        rc = main([
            "solve", "--economy", io_path, "--elasticities", el_path,
            "--shocks", z_path, "--outdir", str(tmp_path / "out"),
        ])
        assert rc == 1
        assert capsys.readouterr().err == (
            '{"error": "NotConverged", "message": "status diverged"}\n'
        )
        meta = json.loads((tmp_path / "out" / "solve_meta.json").read_text(),
                          parse_constant=reject_constant)
        assert meta["status"] == "diverged"
        assert meta["residual"] is None
        assert not (tmp_path / "out" / "prices.csv").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_price_falling_to_zero_does_not_warn(self, tmp_path, capsys):
        # Corn's price falls to zero within a round of sweeps, and the CES
        # power with corn's gamma = 1 - 1.79 < 0 then divides by zero.
        io_path, el_path = write_economy(tmp_path)
        Path(el_path).write_text("steel,0.67\ncorn,1.79\n")
        z_path = write_shocks(tmp_path, steel=0.01, corn=100.0)
        rc = main([
            "solve", "--economy", io_path, "--elasticities", el_path,
            "--shocks", z_path, "--outdir", str(tmp_path / "out"),
        ])
        assert rc == 1
        assert single_json_error(capsys) == {
            "error": "NotConverged", "message": "status diverged"}

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_price_stuck_in_the_subnormals_exits_1(self, tmp_path, capsys):
        # s2's price decays to a subnormal that the map rounds back to
        # itself; solve once exited 0 with s2 at 1.5e-323 and aggregate
        # with ln H = 325.
        (tmp_path / "io.csv").write_text(
            "sector,s0,s1,s2\n"
            "PRIMARY,0.41128009,0.4145973,0.20975604\n"
            "s0,0.11083884,0.20126295,0.08942753\n"
            "s1,0.23428715,0.17685884,0.24280187\n"
            "s2,0.24359392,0.20728092,0.45801456\n")
        (tmp_path / "el.csv").write_text(
            "s0,0.67949943\ns1,0.65876687\ns2,1.93902478\n")
        (tmp_path / "z.csv").write_text(
            "s0,1.2075522\ns1,0.82024082\ns2,2.61335275\n")
        (tmp_path / "mu.csv").write_text(
            "s0,0.26326847\ns1,0.29992489\ns2,0.43680664\n")
        inputs = ["--economy", str(tmp_path / "io.csv"),
                  "--elasticities", str(tmp_path / "el.csv"),
                  "--shocks", str(tmp_path / "z.csv")]
        out = tmp_path / "out"
        assert main(["solve", *inputs, "--outdir", str(out)]) == 1
        assert single_json_error(capsys) == {
            "error": "NotConverged", "message": "status diverged"}
        meta = json.loads((out / "solve_meta.json").read_text())
        assert meta["status"] == "diverged"
        assert not (out / "prices.csv").exists()
        for kappa in ("0", "0.5"):
            assert main(["aggregate", *inputs, "--prefs", str(tmp_path / "mu.csv"),
                         "--kappa", kappa]) == 1
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.count("\n") == 1
            assert json.loads(captured.err)["error"] == "Unviable"

    @staticmethod
    def prices(tmp_path, pi0, *shocks):
        io_path, el_path = write_economy(tmp_path)
        out = tmp_path / f"out{pi0}"
        rc = main(["solve", "--economy", io_path, "--elasticities", el_path,
                   *shocks, "--pi0", pi0, "--outdir", str(out)])
        assert rc == 0
        return np.array([float(r[1]) for r in read_csv(out / "prices.csv")[1:]])

    def test_numeraire_scales_the_prices(self, tmp_path):
        # Prices are homogeneous of degree one in the numeraire.
        shocks = ["--shocks", write_shocks(tmp_path)]
        base = self.prices(tmp_path, "1", *shocks)
        np.testing.assert_array_equal(self.prices(tmp_path, "2.5", *shocks),
                                      2.5 * base)

    @pytest.mark.parametrize("pi0", ["1e-9", "1e13"])
    def test_extreme_numeraire_is_exact(self, tmp_path, pi0):
        # The solver's tolerance and overflow guard are absolute, so they
        # hold at the numeraire 1 whatever --pi0 is.
        assert list(self.prices(tmp_path, pi0)) == [float(pi0)] * 2

    def test_price_beyond_the_float_range_is_domain_error(self, tmp_path,
                                                         capsys):
        # Prices at numeraire 1 are above 2 under halved productivity, so
        # 1e308 times them is inf.
        io_path, el_path = write_economy(tmp_path)
        z_path = write_shocks(tmp_path, steel=0.5, corn=0.5)
        rc = main(["solve", "--economy", io_path, "--elasticities", el_path,
                   "--shocks", z_path, "--pi0", "1e308",
                   "--outdir", str(tmp_path / "out")])
        assert rc == 1
        assert single_json_error(capsys)["error"] == "NonPositivePrice"
        assert not (tmp_path / "out" / "prices.csv").exists()

    def test_missing_file_is_domain_error(self, tmp_path, capsys):
        io_path, el_path = write_economy(tmp_path)
        bad = tmp_path / "io_bad.csv"
        bad.write_text("sector,steel\nPRIMARY,0.5\n")
        rc = main([
            "solve", "--economy", str(bad), "--elasticities", el_path,
            "--outdir", str(tmp_path / "out"),
        ])
        assert rc == 1
        assert "error" in json.loads(capsys.readouterr().err)


class TestUsageErrors:
    def test_unknown_flag_exits_2(self, tmp_path, capsys):
        io_path, el_path = write_economy(tmp_path)
        rc = main([
            "solve", "--economy", io_path, "--elasticities", el_path,
            "--frobnicate",
        ])
        capsys.readouterr()
        assert rc == 2

    def test_missing_required_exits_2(self, capsys):
        rc = main(["solve"])
        capsys.readouterr()
        assert rc == 2

    def test_unknown_subcommand_exits_2(self, capsys):
        rc = main(["transmogrify"])
        capsys.readouterr()
        assert rc == 2


    @pytest.mark.parametrize("argv", [["--config"], ["solve", "--config"]])
    def test_config_without_value_exits_2(self, capsys, argv):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:") and "Traceback" not in err


class TestNonUtf8Input:
    @pytest.mark.parametrize("bad", [
        "panel", "economy", "elasticities", "prefs", "input", "config",
    ])
    def test_latin1_byte_is_domain_error(self, tmp_path, capsys, bad):
        io_path, el_path = write_economy(tmp_path)
        latin = tmp_path / "latin.csv"
        latin.write_bytes(b"\xe9,1\n")
        if bad == "panel":
            argv = ["estimate", "--panel", str(latin)]
        elif bad == "config":
            argv = ["--config", str(latin), "qq", "--input", str(latin)]
        elif bad == "input":
            argv = ["qq", "--input", str(latin), "--outdir", str(tmp_path)]
        else:
            inputs = {"economy": io_path, "elasticities": el_path,
                      "prefs": write_prefs(tmp_path),
                      "shocks": write_shocks(tmp_path), bad: str(latin)}
            argv = ["aggregate",
                    *(a for k, v in inputs.items() for a in (f"--{k}", v))]
        assert main(argv) == 1
        err = single_json_error(capsys)
        assert err["error"] == "UnicodeDecodeError"
        assert "0xe9" in err["message"]
        assert str(latin) in err["message"]


class TestNonFiniteCells:
    @pytest.mark.parametrize("subcommand, cell", [
        ("qq", "nan"), ("qq", "inf"), ("hp", "nan"), ("hp", "-inf"),
    ])
    def test_column_input_is_domain_error(self, tmp_path, capsys, subcommand,
                                          cell):
        src = tmp_path / "x.csv"
        src.write_text(f"value\n1.0\n2.5\n{cell}\n0.5\n4.0\n")
        out = tmp_path / "out"
        assert main([subcommand, "--input", str(src), "--outdir", str(out)]) == 1
        err = single_json_error(capsys)
        assert err["error"] == "MalformedTable" and repr(cell) in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_io_table_cell_is_domain_error(self, tmp_path, capsys, cell):
        io_path, el_path = write_economy(tmp_path)
        (tmp_path / "io.csv").write_text(
            "sector,steel,corn\nPRIMARY,0.5,0.5\n"
            f"steel,{cell},0.3\ncorn,0.3,0.2\n"
        )
        rc = main(["experiment", "--economy", io_path, "--elasticities",
                   el_path, "--prefs", write_prefs(tmp_path), "--count", "5",
                   "--outdir", str(tmp_path / "out")])
        assert rc == 1
        assert single_json_error(capsys)["error"] in (
            "MalformedTable", "ColumnSumViolation")
        assert not (tmp_path / "out" / "report.json").exists()


class TestNonFiniteSigma:
    @pytest.mark.parametrize("subcommand", ["simulate", "experiment"])
    @pytest.mark.parametrize("sigma", ["nan", "inf", "-1", "0"])
    def test_bad_sigma_is_usage_error(self, tmp_path, capsys, subcommand, sigma):
        io_path, el_path = write_economy(tmp_path)
        rc = main([
            subcommand, "--economy", io_path, "--elasticities", el_path,
            "--prefs", write_prefs(tmp_path), "--count", "5", "--sigma", sigma,
            "--outdir", str(tmp_path / "out"),
        ])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("usage:") and "--sigma" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("subcommand", ["simulate", "experiment"])
    def test_sigma_whose_draws_overflow_is_a_domain_error(self, tmp_path, capsys,
                                                          subcommand):
        # A finite sigma whose draws leave exp's range is no usage error;
        # the message names the first such draw and the sigma.
        io_path, el_path = write_economy(tmp_path)
        rc = main([
            subcommand, "--economy", io_path, "--elasticities", el_path,
            "--prefs", write_prefs(tmp_path), "--count", "5", "--sigma", "1e6",
            "--outdir", str(tmp_path / "out"),
        ])
        assert rc == 1
        assert single_json_error(capsys) == {
            "error": "NonPositiveValue",
            "message": "shock draw 0 of seed 20110101 is not a positive finite "
                       "number (sigma 1000000.0)",
        }
        assert not (tmp_path / "out").exists()

    def test_bad_sigma_in_config_is_usage_error(self, tmp_path, capsys):
        io_path, el_path = write_economy(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"economy = {io_path}\nelasticities = {el_path}\n"
                       f"prefs = {write_prefs(tmp_path)}\nsigma = nan\n")
        rc = main(["--config", str(cfg), "experiment", "--count", "5",
                   "--outdir", str(tmp_path / "out")])
        assert rc == 2
        assert "--sigma" in capsys.readouterr().err


class TestBadCountWorkersKappa:
    @pytest.mark.parametrize("subcommand", ["simulate", "experiment"])
    @pytest.mark.parametrize("flag, value", [
        ("--count", "0"), ("--count", "-3"), ("--workers", "0"),
        ("--kappa", "nan"), ("--kappa", "inf"),
    ])
    def test_is_usage_error(self, tmp_path, capsys, subcommand, flag, value):
        io_path, el_path = write_economy(tmp_path)
        rc = main([
            subcommand, "--economy", io_path, "--elasticities", el_path,
            "--prefs", write_prefs(tmp_path), "--count", "5", flag, value,
            "--outdir", str(tmp_path / "out"),
        ])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("usage:") and flag in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("subcommand", ["simulate", "experiment"])
    def test_unallocatable_count_is_a_domain_error(self, tmp_path, capsys, subcommand):
        # 10**13 draws of two shocks take 146 TiB, more than an x86-64
        # address space holds, so the allocation fails at once; 10**20
        # rows pass numpy's largest dimension.  No output directory is made.
        io_path, el_path = write_economy(tmp_path)
        for count, reason in ((10**13, "146. TiB"),
                              (10**20, "Maximum allowed dimension exceeded")):
            rc = main([
                subcommand, "--economy", io_path, "--elasticities", el_path,
                "--prefs", write_prefs(tmp_path), "--count", str(count),
                "--outdir", str(tmp_path / "out"),
            ])
            assert rc == 1
            error = single_json_error(capsys)
            assert error["error"] == "MemoryError"
            assert f"shape ({count}, 2)" in error["message"]
            assert reason in error["message"]
            assert not (tmp_path / "out").exists()


class TestMissingFiles:
    @pytest.mark.parametrize("missing", [
        "panel", "input", "config", "economy", "elasticities", "prefs",
        "shocks",
    ])
    def test_missing_input_file_is_domain_error(self, tmp_path, capsys, missing):
        io_path, el_path = write_economy(tmp_path)
        series = tmp_path / "series.csv"
        series.write_text("1.0\n2.0\n3.0\n")
        gone = str(tmp_path / "missing.csv")
        qq = ["qq", "--outdir", str(tmp_path / "out"), "--input"]
        argv = {
            "panel": ["estimate", "--panel", gone],
            "input": [*qq, gone],
            "config": ["--config", gone, *qq, str(series)],
        }.get(missing)
        if argv is None:
            inputs = {"economy": io_path, "elasticities": el_path,
                      "prefs": write_prefs(tmp_path),
                      "shocks": write_shocks(tmp_path), missing: gone}
            argv = ["aggregate",
                    *(a for k, v in inputs.items() for a in (f"--{k}", v))]
        assert main(argv) == 1
        err = single_json_error(capsys)
        assert err["error"] == "FileNotFoundError"
        assert "missing.csv" in err["message"]


class TestStructure:
    def test_benchmark_structure_files(self, tmp_path):
        io_path, el_path = write_economy(tmp_path)
        out = tmp_path / "out"
        rc = main([
            "structure", "--economy", io_path, "--elasticities", el_path,
            "--outdir", str(out),
        ])
        assert rc == 0
        b = read_csv(out / "b_matrix.csv")
        assert b[1][0] == "PRIMARY"
        np.testing.assert_allclose(
            [float(v) for v in b[2][1:]], [0.2, 0.3], atol=1e-9
        )
        s = read_csv(out / "s_matrix.csv")
        np.testing.assert_allclose(
            [float(v) for v in s[1][1:]], [0.2, 0.3], atol=1e-9
        )
        meta = json.loads((out / "structure.json").read_text())
        assert meta["viable"] is True

    def test_takes_no_numeraire(self, tmp_path, capsys):
        # B, b0 and S are homogeneous of degree zero in prices, so a
        # numeraire cannot move them (see test_structure.py).
        io_path, el_path = write_economy(tmp_path)
        rc = main(["structure", "--economy", io_path, "--elasticities", el_path,
                   "--pi0", "2", "--outdir", str(tmp_path / "out")])
        assert rc == 2
        assert "--pi0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_divergence_reports_json_error(self, tmp_path, capsys):
        io_path, el_path = write_economy(tmp_path)
        z_path = write_shocks(tmp_path, steel=0.01, corn=0.01)
        rc = main([
            "structure", "--economy", io_path, "--elasticities", el_path,
            "--shocks", z_path, "--outdir", str(tmp_path / "out"),
        ])
        assert rc == 1
        assert capsys.readouterr().err == (
            '{"error": "NotConverged", "message": "status diverged"}\n'
        )
        assert not (tmp_path / "out").exists()


class TestAggregate:
    def test_matches_library_value(self, tmp_path, capsys):
        io_path, el_path = write_economy(tmp_path)
        mu_path = write_prefs(tmp_path)
        z_path = write_shocks(tmp_path)
        rc = main([
            "aggregate", "--economy", io_path, "--elasticities", el_path,
            "--prefs", mu_path, "--kappa", "0.3", "--shocks", z_path,
            "--method", "leontief",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        from cesnet.economy import load_economy

        e = load_economy(io_path, el_path)
        prefs = HouseholdPrefs(mu=[0.4, 0.6], kappa=0.3)
        expected = real_gdp_growth(e, prefs, np.array([1.1, 0.9]), "leontief")
        assert payload["ln_h"] == pytest.approx(expected, abs=1e-12)

    def test_unviable_exit_1(self, tmp_path, capsys):
        io_path, el_path = write_economy(tmp_path)
        mu_path = write_prefs(tmp_path)
        z_path = write_shocks(tmp_path, steel=0.01, corn=0.01)
        rc = main([
            "aggregate", "--economy", io_path, "--elasticities", el_path,
            "--prefs", mu_path, "--shocks", z_path, "--method", "leontief",
        ])
        assert rc == 1
        assert capsys.readouterr().err == (
            '{"error": "Unviable", "message": '
            '"no positive equilibrium under method \'leontief\'"}\n'
        )

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("method", METHODS)
    def test_tiny_shock_is_a_result_or_one_error(self, tmp_path, capsys,
                                                 method):
        # z = 1e-300 sends the recursion to inf and the Cobb-Douglas prices
        # past the range of exp; neither may warn or print a NaN.
        io_path, el_path = write_economy(tmp_path)
        rc = main([
            "aggregate", "--economy", io_path, "--elasticities", el_path,
            "--prefs", write_prefs(tmp_path), "--method", method,
            "--shocks", write_shocks(tmp_path, steel=1e-300, corn=1.0),
        ])
        out, err = capsys.readouterr()
        if rc == 0:
            assert err == "" and np.isfinite(json.loads(out)["ln_h"])
        else:
            assert rc == 1 and out == ""
            assert err.count("\n") == 1 and set(json.loads(err)) == {
                "error", "message"}

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("kappa", ["1e308", "-1e308"])
    @pytest.mark.parametrize("method", METHODS)
    def test_growth_beyond_the_float_range(self, tmp_path, capsys, method,
                                           kappa):
        io_path, el_path = write_economy(tmp_path)
        rc = main([
            "aggregate", "--economy", io_path, "--elasticities", el_path,
            "--prefs", write_prefs(tmp_path), "--shocks", write_shocks(tmp_path),
            "--method", method, f"--kappa={kappa}",
        ])
        assert rc == 1
        err = single_json_error(capsys)
        assert err["error"] == "NonPositivePrice"
        assert err["message"] == (
            "a price or price index left the float range under shock [1.1 0.9]")


    @pytest.mark.parametrize("mu", [("nan", "0.6"), ("-0.4", "1.4"),
                                    ("0.4", "0.4")])
    def test_invalid_prefs_is_domain_error(self, tmp_path, capsys, mu):
        io_path, el_path = write_economy(tmp_path)
        mu_path = tmp_path / "mu.csv"
        mu_path.write_text(f"steel,{mu[0]}\ncorn,{mu[1]}\n")
        rc = main([
            "aggregate", "--economy", io_path, "--elasticities", el_path,
            "--prefs", str(mu_path), "--shocks", write_shocks(tmp_path),
        ])
        assert rc == 1
        assert single_json_error(capsys)["error"] == "InvalidPreferences"


class TestSimulate:
    @pytest.mark.usefixtures("force_pool")
    def test_outputs_and_determinism(self, tmp_path):
        io_path, el_path = write_economy(tmp_path)
        mu_path = write_prefs(tmp_path)
        args = [
            "simulate", "--economy", io_path, "--elasticities", el_path,
            "--prefs", mu_path, "--method", "cobb-douglas",
            "--count", "200", "--sigma", "0.2", "--seed", "11",
        ]
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(args + ["--outdir", str(out1)]) == 0
        assert main(args + ["--outdir", str(out2), "--workers", "4"]) == 0
        for name in (
            "summary_cobb_douglas.json",
            "samples_cobb_douglas.csv",
            "qq_cobb_douglas.csv",
        ):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        summary = json.loads((out1 / "summary_cobb_douglas.json").read_text())
        assert summary["n_viable"] + summary["n_unviable"] == 200


class TestQqAndHp:
    def test_qq_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(50)
        src = tmp_path / "x.csv"
        src.write_text("value\n" + "\n".join(repr(float(v)) for v in x) + "\n")
        out = tmp_path / "out"
        assert main(["qq", "--input", str(src), "--outdir", str(out)]) == 0
        rows = read_csv(out / "qq.csv")
        got = np.array([[float(a), float(b)] for a, b in rows[1:]])
        np.testing.assert_array_equal(got, qq_points(x))

    def test_hp_round_trip(self, tmp_path):
        y = np.random.default_rng(1).standard_normal(40).cumsum()
        src = tmp_path / "y.csv"
        src.write_text("value\n" + "\n".join(repr(float(v)) for v in y) + "\n")
        out = tmp_path / "out"
        assert main([
            "hp", "--input", str(src), "--lam", "129600", "--outdir", str(out)
        ]) == 0
        rows = read_csv(out / "hp.csv")
        trend = np.array([float(r[0]) for r in rows[1:]])
        expected, _ = hp_filter(y, 129600.0)
        np.testing.assert_array_equal(trend, expected)

    def test_trend_lost_to_rounding_exits_1(self, tmp_path, capsys):
        # At lambda 1e100 the banded solve succeeds but returns a trend of
        # about 1e-85: its residual is the size of the series.
        y = np.random.default_rng(37).standard_normal(40).cumsum()
        src = tmp_path / "y.csv"
        src.write_text("\n".join(repr(float(v)) for v in y) + "\n")
        out = tmp_path / "out"
        assert main(["hp", "--input", str(src), "--lam", "1e100",
                     "--outdir", str(out)]) == 1
        err = single_json_error(capsys)
        assert err["error"] == "SingularSystem"
        assert "T = 40" in err["message"]
        assert not out.exists()


class TestImportCost:
    """``import cesnet.cli`` loads numpy and no SciPy, and so do the
    commands of the simulation path: ``qq_points`` runs montecarlo's own
    port of ``ndtri``.  ``gbm`` and ``estimate --method iv`` load
    ``scipy.special`` for their tail probabilities, and ``hp`` loads
    ``scipy.linalg``, when they first run.  Each case runs ``main`` in a
    fresh interpreter, as the test process has SciPy loaded already."""

    CODE = (
        "import json, sys\n"
        "import cesnet.cli\n"
        "def scipy_modules():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "print(json.dumps(scipy_modules()))\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    assert cesnet.cli.main(argv) == 0, argv\n"
        "print(json.dumps(scipy_modules()))\n"
    )

    def scipy_modules(self, tmp_path, argvs):
        """The scipy modules loaded after ``import cesnet.cli``, and after
        ``main`` has then run each argv."""
        src = Path(__file__).resolve().parents[1] / "src"
        done = subprocess.run(
            [sys.executable, "-c", self.CODE, json.dumps(argvs)], cwd=tmp_path,
            capture_output=True, text=True, check=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        lines = done.stdout.splitlines()
        return json.loads(lines[0]), json.loads(lines[-1])

    def test_simulation_commands_load_no_scipy(self, tmp_path):
        io_path, el_path = write_economy(tmp_path)
        economy = ["--economy", io_path, "--elasticities", el_path]
        prefs = ["--prefs", write_prefs(tmp_path)]
        sampling = ["--count", "40", "--outdir", "out"]
        (tmp_path / "samples.csv").write_text("\n".join(map(str, range(10))) + "\n")
        argvs = [
            ["solve", *economy, "--shocks", write_shocks(tmp_path), "--outdir", "out"],
            ["structure", *economy, "--outdir", "out"],
            ["aggregate", *economy, *prefs, "--shocks", write_shocks(tmp_path)],
            ["simulate", *economy, *prefs, *sampling],
            ["qq", "--input", "samples.csv", "--outdir", "out"],
            ["experiment", *economy, *prefs, *sampling],
        ]
        assert self.scipy_modules(tmp_path, argvs) == ([], [])
        assert (tmp_path / "out" / "qq.csv").is_file()

    def test_gbm_loads_scipy_special(self, tmp_path):
        levels = np.exp(np.random.default_rng(4).normal(0.0, 0.1, 12).cumsum())
        (tmp_path / "levels.csv").write_text(
            "a\n" + "".join(f"{v!r}\n" for v in levels.tolist()))
        before, after = self.scipy_modules(
            tmp_path, [["gbm", "--input", "levels.csv", "--outdir", "out"]])
        assert before == [] and "scipy.special" in after

    def test_iv_estimate_loads_scipy_special(self, tmp_path):
        panel = TestEstimate().write_panel(tmp_path)
        before, after = self.scipy_modules(tmp_path, [[
            "estimate", "--panel", panel, "--method", "iv", "--iv", "w",
            "--out", "estimate.json"]])
        assert before == [] and "scipy.special" in after

    def test_hp_loads_scipy_linalg(self, tmp_path):
        (tmp_path / "series.csv").write_text("1\n3\n2\n5\n4\n")
        before, after = self.scipy_modules(
            tmp_path, [["hp", "--input", "series.csv", "--outdir", "out"]])
        assert before == [] and "scipy.linalg" in after


class TestGbm:
    def test_per_column_estimates(self, tmp_path):
        rng = np.random.default_rng(2)
        a = np.exp(rng.normal(0.02, 0.05, 40).cumsum())
        b = np.exp(rng.normal(0.0, 0.3, 40).cumsum())
        src = tmp_path / "levels.csv"
        with open(src, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["alpha", "beta"])
            w.writerows(zip((repr(float(v)) for v in a), (repr(float(v)) for v in b)))
        out = tmp_path / "out"
        assert main(["gbm", "--input", str(src), "--outdir", str(out)]) == 0
        rows = read_csv(out / "gbm.csv")
        assert rows[0][0] == "series"
        assert [r[0] for r in rows[1:]] == ["alpha", "beta"]
        from cesnet.gbm import estimate_gbm_moments

        est = estimate_gbm_moments(a)
        assert float(rows[1][1]) == pytest.approx(est.mu_hat, rel=1e-12)
        assert rows[1][7] in ("yes", "no")

    @pytest.mark.parametrize("cell", ["-2", "0", "nan", "inf"])
    def test_bad_level_names_column_and_row(self, tmp_path, capsys, cell):
        src = tmp_path / "levels.csv"
        src.write_text(f"a,b\n\n1,{cell}\n1,3\n1,4\n2,5\n")
        argv = ["gbm", "--input", str(src), "--outdir", str(tmp_path / "out")]
        assert main(argv) == 1
        assert single_json_error(capsys) == {
            "error": "NonPositiveValue",
            "message": f"non-positive or non-finite level '{cell}' in level "
                       "table column 'b' row 2",
        }


class TestEstimate:
    def write_panel(self, tmp_path, gamma=0.5, noise=0.1, seed=0, slope=0.8):
        rng = np.random.default_rng(seed)
        N, T = 25, 6
        rows = [["entity", "period", "share", "price", "inst_w"]]
        alpha = rng.normal(0, 0.5, N)
        delta = rng.normal(0, 0.2, T)
        for i in range(N):
            for t in range(T):
                w = rng.normal(0, 1)
                lnp = slope * w + rng.normal(0, 0.2)
                lns = alpha[i] + delta[t] + gamma * lnp + rng.normal(0, noise)
                rows.append([
                    f"e{i}", t + 1, repr(float(np.exp(lns))),
                    repr(float(np.exp(lnp))), repr(float(w)),
                ])
        path = tmp_path / "panel.csv"
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        return str(path)

    def test_ls_estimate(self, tmp_path, capsys):
        panel = self.write_panel(tmp_path, gamma=0.5, noise=0.0)
        assert main(["estimate", "--panel", panel]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["coef"] == pytest.approx(0.5, abs=1e-9)
        assert payload["sigma_hat"] == pytest.approx(0.5, abs=1e-9)
        assert payload["method"] == "LS_FE"

    def test_iv_estimate_with_diagnostics(self, tmp_path):
        panel = self.write_panel(tmp_path, gamma=0.5, noise=0.2, seed=3)
        out = tmp_path / "est.json"
        rc = main([
            "estimate", "--panel", panel, "--method", "iv", "--iv", "w",
            "--out", str(out),
        ])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["method"] == "IV_FE"
        assert payload["diagnostics"]["instruments"] == ["w"]
        assert payload["diagnostics"]["first_stage_f"] > 10
        assert payload["coef"] == pytest.approx(0.5, abs=6 * payload["se"])

    def test_weak_instrument_is_one_json_warning(self, tmp_path, capsys):
        # The instrument does not move the price.
        panel = self.write_panel(tmp_path, slope=0.0)
        rc = main(["estimate", "--panel", panel, "--method", "iv", "--iv", "w"])
        assert rc == 0
        captured = capsys.readouterr()
        f = json.loads(captured.out)["diagnostics"]["first_stage_f"]
        assert f < 10
        assert captured.err == (
            f'{{"message": "first-stage F = {f:.2f} below 10", '
            '"warning": "WeakInstrumentWarning"}\n')

    def test_other_warnings_are_shown_as_before(self, tmp_path, monkeypatch):
        fe_ols = em.fe_ols

        def warn_then_fit(*args, **kwargs):
            warnings.warn("a library warning", UserWarning)
            return fe_ols(*args, **kwargs)

        monkeypatch.setattr(em, "fe_ols", warn_then_fit)
        with pytest.warns(UserWarning, match="a library warning"):
            assert main(["estimate", "--panel", self.write_panel(tmp_path)]) == 0

    def test_lagged_instrument_token(self, tmp_path):
        panel = self.write_panel(tmp_path, gamma=0.5, noise=0.2, seed=4)
        out = tmp_path / "est.json"
        rc = main([
            "estimate", "--panel", panel, "--method", "iv", "--iv", "w,lw",
            "--out", str(out),
        ])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["diagnostics"]["instruments"] == ["w", "l_w"]
        assert payload["diagnostics"]["sargan"] is not None

    def test_bad_header_is_domain_error(self, tmp_path, capsys):
        p = tmp_path / "panel.csv"
        p.write_text("id,period,share,price\n1,1,0.5,1.0\n")
        assert main(["estimate", "--panel", str(p)]) == 1
        assert "error" in json.loads(capsys.readouterr().err)

    @pytest.mark.parametrize("column, cell", [
        (1, "x"), (1, "2.5"), (2, "zz"), (3, "1,5"), (4, ""),
    ])
    def test_non_numeric_cell_is_domain_error(self, tmp_path, capsys,
                                              column, cell):
        path = self.write_panel(tmp_path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        rows[2][column] = cell
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        assert main(["estimate", "--panel", path]) == 1
        err = single_json_error(capsys)
        assert err["error"] == "MalformedTable"
        assert err["message"].endswith(f"{cell!r} in panel row 3")

    def test_ragged_row_is_domain_error(self, tmp_path, capsys):
        path = self.write_panel(tmp_path)
        with open(path, "a") as fh:
            fh.write("e0,7,0.5\n")
        assert main(["estimate", "--panel", path]) == 1
        assert single_json_error(capsys)["message"] == "panel row 152 has 3 fields"

    def test_unknown_instrument_is_domain_error(self, tmp_path, capsys):
        path = self.write_panel(tmp_path)
        rc = main(["estimate", "--panel", path, "--method", "iv",
                   "--iv", "w,qvoid"])
        assert rc == 1
        assert single_json_error(capsys) == {
            "error": "UnknownInstrument", "message": "unknown instrument 'qvoid'",
        }

    @pytest.mark.parametrize("iv", [[], ["--iv", " , "], ["--iv", ""]])
    def test_iv_without_instruments_is_domain_error(self, tmp_path, capsys, iv):
        path = self.write_panel(tmp_path)
        assert main(["estimate", "--panel", path, "--method", "iv", *iv]) == 1
        assert single_json_error(capsys) == {
            "error": "MalformedTable",
            "message": "IV estimation needs at least one instrument",
        }

    @pytest.mark.parametrize("flags", [
        ["--method", "ls"], ["--method", "iv", "--iv", "w"],
    ])
    def test_duplicate_rows_rejected_by_fit(self, tmp_path, capsys, flags):
        path = self.write_panel(tmp_path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        rows[20][2] = "0.25"  # entity e3, period 2, another share
        with open(path, "a", newline="") as fh:
            csv.writer(fh).writerow(rows[20])
        assert main(["estimate", "--panel", path, *flags]) == 1
        assert single_json_error(capsys) == {
            "error": "DuplicateObservation",
            "message": "entity 'e3' has more than one row for period 2",
        }

    def test_first_stage_without_residual_dof(self, tmp_path, capsys):
        # 6 rows less 3 entity means, D_2 and two instruments leave the
        # first stage no residual degrees of freedom.
        rng = np.random.default_rng(24)
        rows = [["entity", "period", "share", "price", "inst_w", "inst_v"]]
        for i in range(3):
            for t in (1, 2):
                cells = [*rng.uniform(0.1, 0.9, 2), *rng.normal(0, 1, 2)]
                rows.append([f"e{i}", t, *(repr(float(c)) for c in cells)])
        path = tmp_path / "panel.csv"
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        rc = main(["estimate", "--panel", str(path), "--method", "iv",
                   "--iv", "w,v"])
        assert rc == 1
        assert single_json_error(capsys) == {
            "error": "RankDeficient",
            "message": "no residual degrees of freedom",
        }

    def add_column(self, path, name, seed=5):
        """Append a column of standard normal noise to the panel at path."""
        rng = np.random.default_rng(seed)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        rows[0].append(name)
        for row in rows[1:]:
            row.append(repr(float(rng.normal())))
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)

    @pytest.mark.parametrize("column", ["inst_w", "w"])
    def test_repeated_instrument_name_is_domain_error(self, tmp_path, capsys,
                                                      column):
        # The later column used to replace the earlier one in silence.
        path = self.write_panel(tmp_path)
        self.add_column(path, column)
        rc = main(["estimate", "--panel", path, "--method", "iv", "--iv", "w"])
        assert rc == 1
        assert single_json_error(capsys) == {
            "error": "MalformedTable",
            "message": f"panel columns 'inst_w' and {column!r} both name "
                       "instrument 'w'",
        }

    def test_transform_naming_a_panel_column_is_domain_error(self, tmp_path,
                                                             capsys):
        # 'lw' used to return the file's l_w column, not the lag of w.
        path = self.write_panel(tmp_path)
        self.add_column(path, "inst_l_w")
        rc = main(["estimate", "--panel", path, "--method", "iv", "--iv", "lw"])
        assert rc == 1
        assert single_json_error(capsys) == {
            "error": "MalformedTable",
            "message": "transform 'lw' names 'l_w', a column of the panel",
        }

    def test_duplicate_rows_rejected_by_transform(self, tmp_path, capsys):
        path = self.write_panel(tmp_path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        with open(path, "a", newline="") as fh:
            csv.writer(fh).writerow(rows[9])  # entity e1, period 3
        rc = main(["estimate", "--panel", path, "--method", "iv",
                   "--iv", "w,lw"])
        assert rc == 1
        assert single_json_error(capsys) == {
            "error": "DuplicateObservation",
            "message": "entity 'e1' has more than one row for period 3",
        }


class TestConfig:
    def test_config_supplies_defaults_and_flags_win(self, tmp_path, capsys):
        io_path, el_path = write_economy(tmp_path)
        mu_path = write_prefs(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# experiment settings\n"
            f"economy = {io_path}\n"
            f"elasticities = {el_path}\n"
            f"prefs = {mu_path}\n"
            "count = 50\n"
            "sigma = 0.1\n"
            "seed = 5\n"
            "method = cobb-douglas\n"
        )
        out1 = tmp_path / "c1"
        rc = main(["--config", str(cfg), "simulate", "--outdir", str(out1)])
        assert rc == 0
        s1 = json.loads((out1 / "summary_cobb_douglas.json").read_text())
        assert s1["n_viable"] + s1["n_unviable"] == 50
        assert s1["seed"] == 5

        out2 = tmp_path / "c2"
        rc = main([
            "--config", str(cfg), "simulate", "--seed", "9",
            "--outdir", str(out2),
        ])
        assert rc == 0
        s2 = json.loads((out2 / "summary_cobb_douglas.json").read_text())
        assert s2["seed"] == 9
        assert s1["mean"] != s2["mean"]

    @pytest.mark.parametrize("form", ["--config FILE", "--config=FILE"])
    def test_both_config_forms_load_the_file(self, tmp_path, capsys, form):
        io_path, el_path = write_economy(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"economy = {io_path}\nelasticities = {el_path}\n"
                       f"prefs = {write_prefs(tmp_path)}\ncount = 0\n")
        flag = form.replace("FILE", str(cfg)).split(" ")
        rc = main([*flag, "simulate", "--outdir", str(tmp_path / "out")])
        assert rc == 2
        assert "argument --count: must be a positive integer: '0'" in (
            capsys.readouterr().err)

    def test_each_config_gets_its_own_defaults(self, tmp_path):
        io_path, el_path = write_economy(tmp_path)
        configs = []
        for seed in (5, 6):
            cfg = tmp_path / f"seed{seed}.cfg"
            cfg.write_text(
                f"economy = {io_path}\nelasticities = {el_path}\n"
                f"prefs = {write_prefs(tmp_path)}\ncount = 4\nseed = {seed}\n"
                "method = cobb-douglas\n"
            )
            configs.append(str(cfg))
        seeds = []
        for i, cfg in enumerate([*configs, *configs]):
            out = tmp_path / f"out{i}"
            assert main(["--config", cfg, "simulate", "--outdir", str(out)]) == 0
            summary = json.loads((out / "summary_cobb_douglas.json").read_text())
            seeds.append(summary["seed"])
        assert seeds == [5, 6, 5, 6]
        # Without a config the flags are required again.
        assert main(["simulate", "--outdir", str(tmp_path / "none")]) == 2

    @pytest.mark.parametrize("subcommand, key, value", [
        ("simulate", "method", "foo"), ("aggregate", "method", "foo"),
        ("estimate", "method", "bogus"), ("estimate", "parameter", "bogus"),
    ])
    def test_config_value_outside_choices_is_usage_error(
            self, tmp_path, capsys, subcommand, key, value):
        io_path, el_path = write_economy(tmp_path)
        cfg = tmp_path / "run.cfg"
        # One config of valid inputs for all three subcommands, each of
        # which ignores the keys it does not take.
        cfg.write_text(
            f"economy = {io_path}\nelasticities = {el_path}\n"
            f"prefs = {write_prefs(tmp_path)}\nshocks = {write_shocks(tmp_path)}\n"
            f"panel = {TestEstimate().write_panel(tmp_path)}\ncount = 5\n"
            f"outdir = {tmp_path / 'out'}\n{key} = {value}\n"
        )
        rc = main(["--config", str(cfg), subcommand])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("usage:") and "invalid choice" in err
        assert "Traceback" not in err

    def test_negative_kappa_with_exponent_parses_in_every_form(
            self, tmp_path, capsys):
        io_path, el_path = write_economy(tmp_path)
        base = ["aggregate", "--economy", io_path, "--elasticities", el_path,
                "--prefs", write_prefs(tmp_path), "--shocks",
                write_shocks(tmp_path)]
        cfg = tmp_path / "run.cfg"
        cfg.write_text("kappa = -1e-3\n")
        outs = []
        for argv in (["--config", str(cfg), *base], [*base, "--kappa", "-1e-3"],
                     [*base, "--kappa=-1e-3"]):
            assert main(argv) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1] == outs[2]
        assert main(base) == 0
        assert capsys.readouterr().out != outs[0]  # kappa 0 differs

    def test_bad_config_value_fails_under_a_flag_override(self, tmp_path,
                                                         capsys):
        io_path, el_path = write_economy(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"economy = {io_path}\nelasticities = {el_path}\n"
                       f"prefs = {write_prefs(tmp_path)}\ncount = abc\n")
        rc = main(["--config", str(cfg), "simulate", "--count", "5",
                   "--outdir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("usage:") and "argument --count" in err
        assert not (tmp_path / "out").exists()

    def test_unknown_config_key_is_usage_error(self, tmp_path, capsys):
        # A misspelt key would otherwise leave its option at the default.
        io_path, el_path = write_economy(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"economy = {io_path}\nelasticities = {el_path}\n"
                       f"prefs = {write_prefs(tmp_path)}\ncount = 5\n"
                       "sigmaa = 0.9\n")
        rc = main(["--config", str(cfg), "simulate",
                   "--outdir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("usage:") and "unknown config key 'sigmaa'" in err
        assert not (tmp_path / "out").exists()

    def test_config_line_without_equals_is_domain_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("count = 5\nsigma 0.3\n")
        rc = main(["--config", str(cfg), "simulate", "--outdir", str(tmp_path / "out")])
        assert rc == 1
        assert single_json_error(capsys) == {
            "error": "MalformedTable", "message": "config line without '=': 'sigma 0.3'"}
        assert not (tmp_path / "out").exists()

    def test_load_config_parses_flat_file(self, tmp_path):
        cfg = tmp_path / "a.cfg"
        cfg.write_text("max-iter = 500\n\n# note\nsigma=0.3\n")
        assert load_config(cfg) == {"max_iter": "500", "sigma": "0.3"}

    @pytest.mark.parametrize("end", ["\r\n", "\r"])
    def test_load_config_reads_crlf_and_cr_line_ends(self, tmp_path, end):
        cfg = tmp_path / "a.cfg"
        cfg.write_bytes(end.join(["max-iter = 500", "", "# note", "sigma=0.3", ""])
                        .encode())
        assert load_config(cfg) == {"max_iter": "500", "sigma": "0.3"}


class TestExperiment:
    @pytest.mark.usefixtures("force_pool")
    def test_report_and_worker_invariance(self, tmp_path):
        io_path, el_path = write_economy(tmp_path)
        mu_path = write_prefs(tmp_path)
        args = [
            "experiment", "--economy", io_path, "--elasticities", el_path,
            "--prefs", mu_path, "--count", "150", "--sigma", "0.2",
            "--seed", "21",
        ]
        out1, out2 = tmp_path / "e1", tmp_path / "e2"
        assert main(args + ["--outdir", str(out1)]) == 0
        assert main(args + ["--outdir", str(out2), "--workers", "4"]) == 0
        report = json.loads((out1 / "report.json").read_text())
        assert set(report["methods"]) == {
            "general-ces", "leontief", "cobb-douglas"
        }
        hashes = {
            m["shock_stream_sha256"] for m in report["methods"].values()
        }
        assert len(hashes) == 1
        assert set(report["mean_ordering"]) <= set(report["methods"])
        assert (out1 / "report.json").read_bytes() == (
            out2 / "report.json"
        ).read_bytes()
        for tag in ("general_ces", "leontief", "cobb_douglas"):
            assert (out1 / f"samples_{tag}.csv").read_bytes() == (
                out2 / f"samples_{tag}.csv"
            ).read_bytes()

    @pytest.mark.parametrize("n", [40])
    def test_every_file_independent_of_workers(self, tmp_path, n):
        # At the natural work floor, 400 draws of n >= 40 sectors are
        # enough for --workers 2 to solve two blocks on a thread pool.
        # BLAS keeps its thread count.
        count = 400
        assert count * (n + 1) * n >= 2 * montecarlo.MIN_BLOCK_FLOATS
        e = random_economy(n, n)
        io_path, el_path, mu_path = (tmp_path / f for f in ("io.csv", "el.csv",
                                                             "mu.csv"))
        save_economy(e, io_path, el_path)
        mu_path.write_text("".join(f"{label},{1 / n!r}\n" for label in e.labels))
        args = ["experiment", "--economy", str(io_path), "--elasticities",
                str(el_path), "--prefs", str(mu_path), "--count", str(count),
                "--seed", "3"]
        for w in (1, 2):
            assert main([*args, "--workers", str(w), "--outdir",
                         str(tmp_path / f"w{w}")]) == 0
        names = sorted(os.listdir(tmp_path / "w1"))
        assert len(names) == 10 and names == sorted(os.listdir(tmp_path / "w2"))
        for name in names:
            assert (tmp_path / "w1" / name).read_bytes() == (
                tmp_path / "w2" / name).read_bytes(), name


class TestExperimentEdgeCases:
    def find_crippling_seed(self):
        # A single shock draw that breaks Hawkins-Simon for the Leontief
        # closed form while Cobb-Douglas stays well defined.
        from cesnet.montecarlo import ShockConfig, shock_sample

        A = np.array([[0.2, 0.3], [0.3, 0.2]])
        for seed in range(200):
            z = shock_sample(2, ShockConfig(count=1, sigma=2.0, seed=seed), 0)
            if np.linalg.det(np.diag(z) - A) < 0:
                return seed
        raise AssertionError("no crippling seed found")

    def test_count_one_partial_report(self, tmp_path):
        io_path, el_path = write_economy(tmp_path)
        mu_path = write_prefs(tmp_path)
        seed = self.find_crippling_seed()
        out = tmp_path / "out"
        rc = main([
            "experiment", "--economy", io_path, "--elasticities", el_path,
            "--prefs", mu_path, "--count", "1", "--sigma", "2.0",
            "--seed", str(seed), "--outdir", str(out),
        ])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        leontief = report["methods"]["leontief"]
        assert leontief["failed"] == "AllSamplesUnviable"
        cd = report["methods"]["cobb-douglas"]
        assert cd["n_viable"] == 1 and cd["skewness"] == 0.0
        assert (out / "samples_cobb_douglas.csv").exists()
        assert not (out / "qq_cobb_douglas.csv").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("kappa", ["1e308", "-1e308"])
    def test_growth_beyond_the_float_range(self, tmp_path, capsys, kappa):
        # Every method fails: the report is written, then the first
        # method's error ends the run.
        io_path, el_path = write_economy(tmp_path)
        out = tmp_path / "out"
        rc = main([
            "experiment", "--economy", io_path, "--elasticities", el_path,
            "--prefs", write_prefs(tmp_path), "--count", "5",
            f"--kappa={kappa}", "--outdir", str(out),
        ])
        assert rc == 1
        assert single_json_error(capsys)["error"] == "NonPositivePrice"
        text = (out / "report.json").read_text()
        assert "NaN" not in text and "Infinity" not in text
        report = json.loads(text)
        assert report["mean_ordering"] == []
        for entry in report["methods"].values():
            assert entry["failed"] == "NonPositivePrice"


class TestLoaderMessages:
    """Every CSV input names a bad row the same way: rows are numbered from
    1 over the non-blank rows, the header being row 1.  Each case puts a
    blank line before row 3 and breaks that row's last cell."""

    #: Per input file: its subcommand, its valid rows, its name in
    #: messages and what its cells hold.
    FILES = {
        "economy": ("aggregate", ["sector,steel,corn", "PRIMARY,0.5,0.5",
                                  "steel,0.2,0.3", "corn,0.3,0.2"],
                    "IO table", "coefficient"),
        "elasticities": ("aggregate", ["sector,sigma", "steel,1.5", "corn,0.5"],
                         "elasticities", "value"),
        "prefs": ("aggregate", ["sector,mu", "steel,0.4", "corn,0.6"],
                  "mu", "value"),
        "shocks": ("aggregate", ["sector,z", "steel,1.1", "corn,0.9"],
                   "shock", "value"),
        "qq": ("qq", ["x", "1.0", "2.5", "0.5", "4.0"], "series", "value"),
        "hp": ("hp", ["x", "1.0", "2.5", "0.5", "4.0"], "series", "value"),
        "gbm": ("gbm", ["a,b", "1.0,2.0", "1.1,1.9", "1.3,2.2", "1.2,2.1"],
                "level table", "level"),
        "panel": ("estimate", ["entity,period,share,price", "a,1,0.5,1.0",
                               "a,2,0.4,1.2", "b,1,0.3,0.9", "b,2,0.6,1.1"],
                  "panel", "price"),
    }

    def error(self, tmp_path, capsys, key, row3):
        subcommand, rows, _, _ = self.FILES[key]
        path = tmp_path / f"{key}.csv"
        path.write_text("\n".join([*rows[:2], "", row3, *rows[3:]]) + "\n")
        if subcommand == "aggregate":
            io_path, el_path = write_economy(tmp_path)
            inputs = {"economy": io_path, "elasticities": el_path,
                      "prefs": write_prefs(tmp_path),
                      "shocks": write_shocks(tmp_path), key: str(path)}
            argv = ["aggregate",
                    *(a for k, v in inputs.items() for a in (f"--{k}", v))]
        elif subcommand == "estimate":
            argv = ["estimate", "--panel", str(path)]
        else:
            argv = [subcommand, "--input", str(path),
                    "--outdir", str(tmp_path / "out")]
        assert main(argv) == 1
        err = single_json_error(capsys)
        assert err["error"] == "MalformedTable"
        return err["message"]

    @pytest.mark.parametrize("key", list(FILES))
    def test_non_numeric_cell(self, tmp_path, capsys, key):
        _, rows, name, what = self.FILES[key]
        row3 = ",".join([*rows[2].split(",")[:-1], "x"])
        assert self.error(tmp_path, capsys, key, row3) == (
            f"non-numeric {what} 'x' in {name} row 3")

    @pytest.mark.parametrize("key", ["elasticities", "prefs", "shocks"])
    def test_label_on_two_rows(self, tmp_path, capsys, key):
        # A second steel row, before the corn row.
        _, rows, name, _ = self.FILES[key]
        row3 = "\n".join(["steel,0.7", rows[2]])
        assert self.error(tmp_path, capsys, key, row3) == (
            f"label 'steel' on {name} rows 2 and 3")

    @pytest.mark.parametrize("key", [k for k in FILES if k not in ("qq", "hp")])
    def test_ragged_row(self, tmp_path, capsys, key):
        # A column file reads only the first cell of each row.
        _, rows, name, _ = self.FILES[key]
        cells = rows[2].split(",")[:-1]
        assert self.error(tmp_path, capsys, key, ",".join(cells)) == (
            f"{name} row 3 has {len(cells)} fields")



class TestPlainInputErrors:
    """Malformed plain text, the kind the loadtxt path reads, exits 1 with
    the message the csv.reader path gives: the line is compared byte for
    byte."""

    PANEL = [["entity", "period", "share", "price", "inst_w", "inst_v"]] + [
        [f"e{i // 3}", str(i % 3 + 1), repr(0.3 + 0.01 * i), repr(1.0 + 0.02 * i),
         repr(0.1 * i - 0.5), repr(0.7 - 0.05 * i)] for i in range(12)]

    def run(self, tmp_path, capsys, argv, name, text):
        path = tmp_path / name
        path.write_bytes(text.encode())
        assert _loadtxt_lines(text) is not None
        capsys.readouterr()
        assert main([argv[0], argv[1], str(path), *argv[2:]]) == 1
        return capsys.readouterr().err

    def panel_error(self, tmp_path, capsys, row, column, cell):
        rows = [list(r) for r in self.PANEL]
        if column is None:
            rows[row - 1].append(cell)
        else:
            rows[row - 1][column] = cell
        text = "".join(",".join(r) + "\r\n" for r in rows)
        return self.run(tmp_path, capsys, ["estimate", "--panel"], "panel.csv", text)

    @pytest.mark.parametrize("row, column, cell, message", [
        (7, 2, "abc", "non-numeric share 'abc' in panel row 7"),
        (5, None, "0.5", "panel row 5 has 7 fields"),
        (4, 1, "1.5", "non-numeric period '1.5' in panel row 4"),
    ])
    def test_panel(self, tmp_path, capsys, row, column, cell, message):
        err = self.panel_error(tmp_path, capsys, row, column, cell)
        assert err == ('{"error": "MalformedTable", "message": "%s"}\n' % message)

    def test_non_positive_gbm_level(self, tmp_path, capsys):
        text = "a,b\r\n1.0,2.0\r\n1.1,-1.9\r\n1.3,2.2\r\n1.2,2.1\r\n"
        err = self.run(tmp_path, capsys, ["gbm", "--input", "--outdir",
                                          str(tmp_path / "out")], "levels.csv", text)
        assert err == ('{"error": "NonPositiveValue", "message": "non-positive or '
                       "non-finite level '-1.9' in level table column 'b' row 3\"}\n")

    def test_non_finite_qq_value(self, tmp_path, capsys):
        text = "x\n1.0\n2.5\n nan\n4.0\n"
        err = self.run(tmp_path, capsys, ["qq", "--input", "--outdir",
                                          str(tmp_path / "out")], "series.csv", text)
        assert err == ('{"error": "MalformedTable", "message": '
                       "\"non-finite value ' nan' in series row 4\"}\n")


class TestInputStyles:
    """One panel and one IO table, each written with LF line ends, with
    CRLF, with CRLF but for one LF-ended row, with every cell quoted and
    with a row of empty cells mid-file, read as the same typed columns and
    give the same output bytes, whichever path the reader takes."""

    STYLES = ("lf", "crlf", "mixed", "quoted", "blank")
    #: The styles that are plain text (``_loadtxt_lines``) and those that
    #: loadtxt reads: the quoted and mixed files are not plain, and loadtxt
    #: refuses the plain file's row of empty cells.
    PLAIN = ("lf", "crlf", "blank")
    LOADTXT = ("lf", "crlf")

    @staticmethod
    def inputs(tmp_path):
        """``{kind: (rows, name, types, argv)}``, ``argv`` taking the path."""
        rng = np.random.default_rng(16)
        N, T, n = 40, 6, 5
        w = rng.normal(0.0, 1.0, N * T)
        u = rng.normal(0.0, 0.5, N * T)
        x = 0.7 * w + u + rng.normal(0.0, 0.3, N * T)
        y = np.repeat(rng.normal(0.0, 1.0, N), T) + 0.6 * x + u
        panel = [["entity", "period", "share", "price", "inst_w"]] + [
            [f"e{i // T}", i % T + 1, *cells] for i, cells in
            enumerate(zip(np.exp(y).tolist(), np.exp(x).tolist(), w.tolist()))]
        a = rng.uniform(0.1, 1.0, (n + 1, n))
        a /= a.sum(axis=0)
        labels = [f"s{j}" for j in range(n)]
        table = [["sector", *labels]] + [
            [label, *row] for label, row in zip(["PRIMARY", *labels], a.tolist())]
        el = tmp_path / "el.csv"
        el.write_text("".join(f"{label},{s!r}\n" for label, s in
                              zip(labels, rng.uniform(0.2, 1.8, n).tolist())))
        return {
            "panel": (panel, "panel", (object, int, float), lambda path, out: [
                "estimate", "--panel", path, "--method", "iv", "--iv", "w",
                "--out", str(out / "est.json")]),
            "io": (table, "IO table", (object, float), lambda path, out: [
                "solve", "--economy", path, "--elasticities", str(el),
                "--outdir", str(out)]),
        }

    @staticmethod
    def text(rows, style):
        if style == "blank":
            rows = [*rows[:3], [""] * len(rows[0]), *rows[3:]]
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\r\n" if style in ("crlf", "mixed") else "\n",
                   quoting=csv.QUOTE_ALL if style == "quoted" else csv.QUOTE_MINIMAL,
                   ).writerows(rows)
        text = buf.getvalue()
        if style == "mixed":  # the third row ends in LF alone
            ends = text.split("\r\n")
            text = "\r\n".join(ends[:3]) + "\n" + "\r\n".join(ends[3:])
        return text

    @pytest.mark.parametrize("kind", ["panel", "io"])
    def test_every_style_reads_alike(self, tmp_path, kind):
        rows, name, types, argv = self.inputs(tmp_path)[kind]
        read = {}
        for style in self.STYLES:
            text = self.text(rows, style)
            assert (_loadtxt_lines(text) is not None) == (style in self.PLAIN), style
            assert (_loadtxt(text, types, "first", None) is not None) == (
                style in self.LOADTXT), style
            path = tmp_path / f"{kind}_{style}.csv"
            path.write_bytes(text.encode())
            header, columns = read_csv_table(path, name, types)
            kinds = [*types, *types[-1:] * len(columns)]
            typed = [self.typed(col, t, name) for col, t in zip(columns, kinds)]
            out = tmp_path / style
            out.mkdir()
            assert main(argv(str(path), out)) == 0
            files = {f.name: f.read_bytes() for f in sorted(out.iterdir())}
            read[style] = (header, typed, files)
        for style in self.STYLES:
            assert read[style] == read["lf"], style

    @staticmethod
    def typed(column, kind, name):
        """A label column's cells, or a number column's dtype and bytes."""
        if kind is object:
            return list(column)
        values = parse_column(column, kind, "cell", name, 2)
        return values.dtype.str, values.tobytes()


# Finite floats, with the corner cases of shortest round-trip formatting.
FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, 1e16, 1e-7, 1e15, 123456789012345678.0])
LABELS = st.text(st.sampled_from('ab ,"\r\n\'x\u00e9'), max_size=6)


class TestCsvWriter:
    """``write_csv`` against ``csv.writer`` fed ``repr(float(v))`` cells."""

    @staticmethod
    def reference(header, labels, values):
        buf = io.StringIO(newline="")
        writer = csv.writer(buf)
        if header is not None:
            writer.writerow(header)
        for i, row in enumerate(values):
            lead = [] if labels is None else [labels[i]]
            writer.writerow([*lead, *(repr(float(v)) for v in row)])
        return buf.getvalue().encode("utf-8")

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), rows=st.integers(0, 6), cols=st.integers(1, 3),
           labelled=st.booleans())
    def test_bytes_equal_csv_writer_reference(self, tmp_path, data, rows,
                                              cols, labelled):
        values = np.array(
            data.draw(st.lists(st.lists(FLOATS, min_size=cols, max_size=cols),
                               min_size=rows, max_size=rows)),
            dtype=float,
        ).reshape(rows, cols)
        labels = (data.draw(st.lists(LABELS, min_size=rows, max_size=rows))
                  if labelled else None)
        header = data.draw(st.none() | st.lists(LABELS.filter(bool), min_size=1,
                                                max_size=cols + labelled))
        path = tmp_path / "out.csv"
        columns = ([] if labels is None else [labels]) + list(values.T)
        write_csv(path, header, *columns)
        assert path.read_bytes() == self.reference(header, labels, values)


def _is_float(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


#: Cell text that no numeric column accepts and that keeps the row's shape.
NON_NUMERIC = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters=',"\r\n'),
    min_size=1, max_size=8,
).filter(lambda s: s.strip() and not _is_float(s))


class TestCliFuzz:
    """Malformed inputs and bad flags: exit 1 with one JSON line, or exit 2.

    Every input file of a subcommand starts out valid (the subcommand exits
    0 on it, see ``test_valid_inputs_succeed``); a drawn case then breaks
    one file or one flag.  A traceback would escape ``main`` and fail the
    test.
    """

    #: Rows of each valid input file, keyed by its flag.
    FILES = {
        "economy": [["sector", "steel", "corn"], ["PRIMARY", "0.5", "0.5"],
                    ["steel", "0.2", "0.3"], ["corn", "0.3", "0.2"]],
        "elasticities": [["steel", "1.5"], ["corn", "0.5"]],
        "prefs": [["steel", "0.4"], ["corn", "0.6"]],
        "shocks": [["steel", "1.1"], ["corn", "0.9"]],
        "input": [["x"], ["1.0"], ["2.5"], ["0.5"], ["4.0"], ["3.0"]],
        "levels": [["a", "b"], ["1.0", "2.0"], ["1.1", "1.9"], ["1.3", "2.2"],
                   ["1.2", "2.1"], ["1.5", "2.4"]],
        "panel": [["entity", "period", "share", "price", "inst_w"]] + [
            [e, str(t), repr(0.1 + 0.05 * i + 0.02 * t * t),
             repr(1.0 + 0.1 * i * t + 0.03 * t), repr(0.5 * i - 0.2 * t * t)]
            for i, e in enumerate("abcd") for t in range(1, 4)
        ],
    }
    #: Per input file: the first row and first column that hold numbers
    #: (a non-numeric first row of a column file reads as its header).
    NUMERIC_FROM = {"economy": (1, 1), "elasticities": (0, 1), "prefs": (0, 1),
                    "shocks": (0, 1), "input": (1, 0), "levels": (1, 0),
                    "panel": (1, 1)}
    #: Per subcommand: its input files and its flags with values it rejects.
    COMMANDS = {
        "solve": (("economy", "elasticities", "shocks"), {
            "--tol": ["0", "-1", "nan", "abc"],
            "--max-iter": ["0", "-2", "1.5", "abc"],
            "--pi0": ["0", "-1", "nan", "abc"],
        }),
        "aggregate": (("economy", "elasticities", "prefs", "shocks"), {
            "--method": ["bogus"],
            "--kappa": ["nan", "inf", "abc", "1e308", "-1e308"],
        }),
        "qq": (("input",), {"--outdir": []}),
        "hp": (("input",), {"--lam": ["0", "-1", "nan", "abc", "1e16", "1e308"]}),
        "gbm": (("levels",), {"--outdir": []}),
        "estimate": (("panel",), {
            "--method": ["bogus"], "--parameter": ["bogus"],
            "--iv": ["zz", "l"],
        }),
        "experiment": (("economy", "elasticities", "prefs"), {
            "--count": ["0", "-3", "1.5", "abc"],
            "--sigma": ["0", "-1", "nan", "800"], "--workers": ["0", "abc"],
            "--seed": ["abc", "-1"], "--kappa": ["nan", "1e308", "-1e308"],
        }),
    }
    #: The flag values above that parse but fail in the run: domain errors,
    #: each with its error's name.  Every other value is a usage error.
    DOMAIN_ERRORS = {
        # kappa +-1e308 puts ln H beyond the float range (see
        # TestAggregate); in experiment it fails every method, after the
        # report is written (see TestExperimentEdgeCases).
        ("aggregate", "--kappa", "1e308"): "NonPositivePrice",
        ("aggregate", "--kappa", "-1e308"): "NonPositivePrice",
        ("experiment", "--kappa", "1e308"): "NonPositivePrice",
        ("experiment", "--kappa", "-1e308"): "NonPositivePrice",
        # lambda 1e16 makes the HP system indefinite in floating point and
        # 1e308 overflows it.
        ("hp", "--lam", "1e16"): "SingularSystem",
        ("hp", "--lam", "1e308"): "SingularSystem",
        ("estimate", "--iv", "zz"): "UnknownInstrument",
        ("estimate", "--iv", "l"): "UnknownInstrument",
        # sigma 800 overflows exp.
        ("experiment", "--sigma", "800"): "NonPositiveValue",
    }

    def argv(self, work, subcommand):
        files, _ = self.COMMANDS[subcommand]
        argv = [subcommand]
        for name in files:
            path = work / f"{name}.csv"
            path.write_text("\n".join(map(",".join, self.FILES[name])) + "\n",
                            encoding="utf-8")
            # gbm reads its level table with --input, as qq/hp their column.
            argv += [f"--{'input' if name == 'levels' else name}", str(path)]
        if subcommand not in ("aggregate", "estimate"):
            argv += ["--outdir", str(work / "out")]
        if subcommand == "experiment":
            argv += ["--count", "5"]
        return argv

    @pytest.mark.parametrize("subcommand", list(COMMANDS))
    def test_valid_inputs_succeed(self, tmp_path, capsys, subcommand):
        assert main(self.argv(tmp_path, subcommand)) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("subcommand, flag, value", [
        (sub, flag, value) for sub, (_, flags) in COMMANDS.items()
        for flag, values in flags.items() for value in values
    ])
    def test_bad_flag_value(self, tmp_path, capsys, subcommand, flag, value):
        rc = main([*self.argv(tmp_path, subcommand), flag, value])
        error = self.DOMAIN_ERRORS.get((subcommand, flag, value))
        if error is None:
            assert rc == 2 and capsys.readouterr().err.startswith("usage:")
        else:
            assert rc == 1 and single_json_error(capsys)["error"] == error

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), subcommand=st.sampled_from(list(COMMANDS)),
           kind=st.sampled_from(["ragged", "non-numeric", "non-finite",
                                 "blank", "missing", "not-utf8", "huge-field",
                                 "bad-flag"]))
    def test_malformed_input_or_flag(self, tmp_path, capsys, data,
                                     subcommand, kind):
        files, flags = self.COMMANDS[subcommand]
        work = tmp_path / f"case{len(list(tmp_path.iterdir()))}"
        work.mkdir()
        argv = self.argv(work, subcommand)
        name = data.draw(st.sampled_from(files))
        path = work / f"{name}.csv"
        rows = [list(r) for r in self.FILES[name]]
        first_row, first_col = self.NUMERIC_FROM[name]
        r = data.draw(st.integers(first_row, len(rows) - 1))
        c = data.draw(st.integers(first_col, len(rows[r]) - 1))
        if kind == "ragged":
            assume(name != "input")  # a column file ignores extra columns
            if data.draw(st.booleans()):
                rows[r].append("1.0")
            else:
                del rows[r][c]
        elif kind == "non-numeric":
            rows[r][c] = data.draw(NON_NUMERIC)
        elif kind == "non-finite":
            assume(name != "panel")  # the panel drops non-finite rows
            rows[r][c] = data.draw(st.sampled_from(["nan", "inf", "-inf"]))
        elif kind == "huge-field":
            rows[r][c] = "1" * (csv.field_size_limit() + 1)
        elif kind == "bad-flag":
            flag = data.draw(st.sampled_from([*flags, "--frobnicate"]))
            values = flags.get(flag, [])
            argv += [flag, data.draw(st.sampled_from(values))] if values else [flag]
        text = "\n".join(map(",".join, rows)) + "\n"
        if kind == "blank":
            text = data.draw(st.sampled_from(["", "\n", " \n\n", ",\n , \n"]))
        path.write_text(text, encoding="utf-8")
        if kind == "missing":
            path.unlink()
        elif kind == "not-utf8":
            raw = path.read_bytes()
            at = data.draw(st.integers(0, len(raw)))
            path.write_bytes(raw[:at] + b"\xff" + raw[at:])
        capsys.readouterr()
        rc = main(argv)
        if rc == 2:
            assert kind == "bad-flag"
            assert capsys.readouterr().err.startswith("usage:")
            return
        assert rc == 1
        err = single_json_error(capsys)
        assert set(err) == {"error", "message"}
        if kind == "not-utf8":
            assert err["error"] == "UnicodeDecodeError"
            assert str(path) in err["message"]
