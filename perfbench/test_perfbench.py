"""Smoke tests of the benchmark at tiny sizes.

Run with ``python3 -m pytest perfbench``.  They check that every metric
named in BENCHMARK.json is printed with its unit, that a corrupted output
file counts as a failed op, that the traced run's counters repeat exactly,
and that the benchmark fails without the program's sources.
"""

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run

run.import_program()

import workloads  # noqa: E402  (needs cesnet on the path)
from workloads import Estimate, MonteCarlo  # noqa: E402

BENCHMARK = json.loads((run.BENCH_DIR.parent / "BENCHMARK.json").read_text())


def tiny(spec):
    if isinstance(spec, Estimate):
        return Estimate(spec.name, entities=60, periods=5,
                        probe_ref_s=spec.probe_ref_s)
    return MonteCarlo(spec.name, spec.n, spec.gamma, spec.sigma,
                      count=2 if spec.n > 10 else 6,
                      probe_sweeps=spec.probe_sweeps, probe_ref_s=spec.probe_ref_s)


@pytest.fixture
def tiny_workloads(monkeypatch):
    for name, spec in list(workloads.WORKLOADS.items()):
        monkeypatch.setitem(workloads.WORKLOADS, name, tiny(spec))
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)


def bench(capsys, workload, trace, seed=3):
    assert run.main(["--workload", workload, "--seed", str(seed),
                     "--seconds", "0.05", "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.splitlines()
    return lines, json.loads(lines[-1])


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_unit(tiny_workloads, capsys, workload, trace):
    lines, result = bench(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert any(line.startswith(f"{m['name']} = ") and line.endswith(f" {m['unit']}")
                   for line in lines), m["name"]


def test_traced_counters_repeat(tiny_workloads, capsys):
    counts = []
    for _ in range(2):
        _, result = bench(capsys, "mc-boundary", 1)
        counts.append({k: v["value"] for k, v in result["metrics"].items()
                       if v["unit"] in ("count", "bytes") or "unviable" in k})
    assert counts[0] == counts[1]
    assert counts[0]["montecarlo.shock_vectors_per_draw"] > 0


def _corrupt_samples(outdir):
    path = outdir / "samples_cobb_douglas.csv"
    lines = path.read_text().splitlines()
    lines[1] = repr(float(lines[1]) + 1e-9)
    path.write_text("\n".join(lines) + "\n")


def _corrupt_general_ces(outdir):
    path = outdir / "samples_general_ces.csv"
    lines = path.read_text().splitlines()
    lines[-1] = repr(float(lines[-1]) * (1 + 1e-6))
    path.write_text("\n".join(lines) + "\n")


def _truncate_report(outdir):
    path = outdir / "report.json"
    path.write_text(path.read_text()[:40])


def _shift_estimate(outdir):
    path = outdir / "estimate.json"
    payload = json.loads(path.read_text())
    payload["coef"] += 10 * payload["se"]
    path.write_text(json.dumps(payload))


@pytest.mark.parametrize("workload, corrupt", [
    ("mc-n10", _corrupt_samples),
    ("mc-n10", _truncate_report),
    ("mc-boundary", _corrupt_general_ces),
    ("estimate-iv", _shift_estimate),
])
def test_corrupted_output_counts_as_failed(tiny_workloads, monkeypatch, tmp_path,
                                          workload, corrupt):
    from cesnet import cli

    case = workloads.WORKLOADS[workload].case(5)
    case.write_inputs(tmp_path / "inputs")
    runner = run.Runner(case, tmp_path)
    assert runner.op(0).passed

    program = cli.main

    def corrupting_main(argv):
        code = program(argv)
        corrupt(runner.outdir)
        return code

    monkeypatch.setattr(cli, "main", corrupting_main)
    assert not runner.op(1).passed
    assert (runner.attempted, runner.failed) == (2, 1)


def test_only_slow_viable_draws_may_be_reported_unviable(tiny_workloads):
    case = workloads.WORKLOADS["mc-boundary"].case(5)
    expected = {"general-ces": np.array([0.1, 0.2, 0.3]),
                "slow": [False, True, False]}
    assert case._match_closed_form(np.array([0.1, 0.3]), expected) == []
    assert case.slow_dropped == 1
    assert case._match_closed_form(np.array([0.2, 0.3]), expected)
    assert case._match_closed_form(np.array([0.1, 0.2]), expected)
    assert case._match_closed_form(np.array([0.1, 0.2 + 1e-7, 0.3]), expected)


def test_fails_without_program_sources(tmp_path):
    shutil.copy(run.BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "_work"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc-n10", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
