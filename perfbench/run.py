#!/usr/bin/env python3
"""Layered benchmark of the ``cesnet experiment`` and ``cesnet estimate`` paths.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the program is imported from ``src/``.
An op is one in-process ``cesnet.cli.main`` invocation on inputs generated
from ``--seed``.  Ops run back to back (a closed loop with one client) for
``--seconds`` seconds, and each op's output files are checked.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs half the
time untraced, then the other half with every public function of the traced
layers wrapped in a span (see ``spans.py``), and prints the per-layer
metrics.  Each metric is printed as ``name = value unit``; the last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.

BLAS is pinned to one thread, the single-threaded baseline, before numpy is
imported.  Scratch files go to ``perfbench/_work/`` and are removed on exit.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path
from typing import NamedTuple

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
WORK_ROOT = BENCH_DIR / "_work"

#: Set-up (import, input generation, a warm-up op) is repeated this many
#: times; setup_s is the median.
SETUP_REPEATS = 3

#: op_s_tail is this percentile of the op times.  Op sizes are chosen so that
#: a run holds 40 to 100 ops, which leaves at least ten op times beyond it.
TAIL_PERCENTILE = 75


def import_program() -> None:
    """Import cesnet from this checkout's ``src/``."""
    if not (SRC_DIR / "cesnet" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no cesnet sources at {SRC_DIR}")
    sys.path.insert(0, str(SRC_DIR))
    import cesnet.cli

    if Path(cesnet.cli.__file__).resolve().parent != SRC_DIR / "cesnet":
        raise SystemExit(f"perfbench: imported cesnet from {cesnet.cli.__file__}")


def environment() -> dict:
    import numpy
    import scipy

    def blas(config):
        dep = config.get("Build Dependencies", {}).get("blas", {})
        return f"{dep.get('name', '?')} {dep.get('version', '?')}"

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.__config__.CONFIG),
        "scipy_blas": blas(scipy.__config__.CONFIG),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


class SpeedProbe:
    """Times the case's probe kernel between ops to track the machine's speed.

    On a shared machine the wall time of an identical op swings by up to 2x
    with the load of other tenants, and its CPU time swings with it.  Each
    workload's probe is a frozen copy of the kind of work its ops do (see
    ``workloads.py``), so it slows down with them.  Every time the
    benchmark reports is rescaled by the probe's reference time over the
    mean of the probes taken just before and just after it: it is the time
    the op would take at the reference machine's idle speed.  Unadjusted
    wall times are printed alongside.
    """

    def __init__(self, kernel, ref_s: float):
        self.kernel, self.ref_s = kernel, ref_s
        self.last = self.run()

    def run(self) -> float:
        t0 = time.perf_counter()
        self.kernel()
        return time.perf_counter() - t0

    def scale(self) -> float:
        """Probe again; the factor for the interval since the last probe."""
        before, self.last = self.last, self.run()
        return self.ref_s / ((before + self.last) / 2)


class Op(NamedTuple):
    wall: float  # seconds, unadjusted
    seconds: float  # seconds at the probe's reference speed
    written: int  # bytes of output files
    passed: bool


class Runner:
    """Runs the ops of one case, checks them and counts failures.

    With a ``tracer`` set, each op's span record is appended to ``records``.
    """

    def __init__(self, case, work: Path):
        self.case = case
        self.outdir = work / "out"
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.tracer = None
        self.records = []
        self.probe = SpeedProbe(case.probe, case.spec.probe_ref_s)

    def op(self, index: int) -> Op:
        from cesnet import cli  # looked up per op: the tracer replaces main

        shutil.rmtree(self.outdir, ignore_errors=True)
        self.outdir.mkdir(parents=True)
        argv = self.case.argv(index, self.outdir)
        if self.tracer:
            self.tracer.start_op()
        self.attempted += 1
        self.probe.scale()
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception as exc:  # a traceback is a failed op, not a crash
            code = repr(exc)
        wall = time.perf_counter() - t0
        scale = self.probe.scale()
        if self.tracer:
            self.tracer.record.scale = scale
            self.records.append(self.tracer.record)
        written = sum(p.stat().st_size for p in self.outdir.iterdir())
        if code != 0:
            problems = [f"exit {code}"]
        else:
            try:
                problems = self.case.check(index, self.outdir)
            except Exception as exc:  # unreadable output fails the check
                problems = [f"output check raised {exc!r}"]
        if problems:
            self.failed += 1
            self.problems.append((index, problems))
        return Op(wall, wall * scale, written, not problems)

    def loop(self, seconds: float, min_ops: int = 1) -> list[Op]:
        """Ops back to back until ``seconds`` have passed and ``min_ops`` ran."""
        ops = []
        deadline = time.perf_counter() + seconds
        while len(ops) < min_ops or time.perf_counter() < deadline:
            ops.append(self.op(len(ops)))
        return ops


def import_seconds() -> float:
    """Wall seconds of ``import cesnet.cli`` in a fresh interpreter."""
    code = ("import time; t0 = time.perf_counter(); import cesnet.cli; "
            "print(time.perf_counter() - t0)")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(SRC_DIR)))
    return float(done.stdout)


def setup(case, runner: Runner, work: Path) -> list[float]:
    """Adjusted seconds of each set-up: import the program in a fresh
    interpreter, write the inputs, warm up with op 0."""
    reps = []
    for r in range(SETUP_REPEATS):
        runner.probe.scale()
        import_s = import_seconds() * runner.probe.scale()
        t0 = time.perf_counter()
        case.write_inputs(work / f"inputs{r}")
        write_s = time.perf_counter() - t0
        op = runner.op(0)
        reps.append(import_s + write_s * op.seconds / op.wall + op.seconds)
    return reps


def percentile(values, p: int) -> float:
    """Linear-interpolation percentile, as numpy.percentile computes it."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def end_to_end(spec, runner: Runner, ops: list[Op], setup_s: float) -> dict:
    times = [op.seconds for op in ops]
    walls = [op.wall for op in ops]
    tail_s = percentile(times, TAIL_PERCENTILE)
    beyond = sum(t > tail_s for t in times)
    print(f"op_s_tail is the p{TAIL_PERCENTILE} of {len(ops)} op times; "
          f"{beyond} lie beyond it")
    print(f"unadjusted wall time per op: p50 {statistics.median(walls):.6f} s, "
          f"p{TAIL_PERCENTILE} {percentile(walls, TAIL_PERCENTILE):.6f} s")
    p50 = statistics.median(times)
    # Completed items per second at the median op time.  The mean op time
    # is not used: on mc-boundary a few draws take thousands of sweeps, and
    # which op seeds hold them moves a mean by 10% from seed to seed.
    passed = sum(op.passed for op in ops) / len(ops)
    return {
        "setup_s": (setup_s, "s"),
        "op_s_p50": (p50, "s"),
        "op_s_tail": (tail_s, "s"),
        "items_per_s": (spec.items_per_op * passed / p50, "1/s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_frac": (1.0 - runner.failed / runner.attempted, "frac"),
    }


def per_layer(spec, records, traced: list[Op], plain: list[Op], cycle: int) -> dict:
    """Per-layer metrics from the traced ops.

    Times are per-op means over all traced ops, adjusted like op times, so
    the layer self times add up to the mean traced op time.  Counters cover
    the first ``cycle`` ops, one op per distinct input, so they repeat
    exactly across runs.
    """
    from spans import CLOSED_FORMS, LAYERS
    from workloads import METHODS

    n = len(records)

    def mean(fn):
        """Mean adjusted seconds per op of ``fn(record)``."""
        return sum(r.scale * fn(r) for r in records) / n

    def self_of(*keys):
        return mean(lambda r: sum(r.self[k] for k in keys))

    def total_of(*keys):
        return mean(lambda r: sum(r.total[k] for k in keys))

    def layer_self(layer):
        return mean(lambda r: r.layer_self(layer))

    counted = records[:cycle]
    sweeps = [s for r in counted for s in r.sweeps]
    all_sweeps = sum(sum(r.sweeps) for r in records)
    draws = spec.draws_per_op * len(counted)
    status = sum((r.status for r in counted), Counter())
    fixed_point = self_of("equilibrium.solve_fixed_point")
    m = {
        "economy.load_s": (total_of("economy.load_economy"), "s"),
        "montecarlo.shock_gen_s": (
            self_of("montecarlo.shock_sample", "montecarlo.sample_shocks"), "s"),
        "montecarlo.shock_vectors_per_draw": (
            sum(r.calls["montecarlo.shock_sample"] for r in counted) / draws
            if draws else 0.0, "count"),
        "montecarlo.summary_s": (
            total_of("montecarlo.summarize_samples", "montecarlo.qq_points"), "s"),
        "equilibrium.fixed_point_s": (fixed_point, "s"),
        "equilibrium.us_per_sweep": (
            fixed_point * n / all_sweeps * 1e6 if all_sweeps else 0.0, "us"),
        "equilibrium.sweeps_per_draw_p50": (
            percentile(sweeps, 50) if sweeps else 0.0, "count"),
        "equilibrium.sweeps_per_draw_p99": (
            percentile(sweeps, 99) if sweeps else 0.0, "count"),
        "equilibrium.sweeps_per_draw_max": (max(sweeps, default=0), "count"),
        "equilibrium.status_converged": (status["converged"], "count"),
        "equilibrium.status_diverged": (status["diverged"], "count"),
        "equilibrium.status_max_iterations": (status["max_iterations"], "count"),
        "equilibrium.closed_form_s": (
            self_of(*(f"equilibrium.{f}" for f in CLOSED_FORMS)), "s"),
        "equilibrium.closed_form_failures": (
            sum(r.closed_form_failures for r in counted), "count"),
        "household.aggregate_s": (layer_self("household"), "s"),
        "econometrics.transform_s": (
            total_of("econometrics.apply_instrument_transform"), "s"),
        "econometrics.fit_s": (self_of("econometrics.fe_2sls"), "s"),
        "econometrics.diagnostics_s": (total_of("econometrics.iv_diagnostics"), "s"),
        "cli.self_s": (layer_self("cli"), "s"),
        "cli.bytes_written": (sum(op.written for op in traced[:cycle]) / cycle, "bytes"),
    }
    for method in METHODS:
        calls = sum(r.aggregations[method] for r in counted)
        unviable = sum(r.unviable[method] for r in counted)
        m[f"household.unviable_frac.{method}"] = (
            unviable / calls if calls else 0.0, "frac")
    for layer in ("economy", "montecarlo", "equilibrium", "econometrics"):
        m[f"{layer}.self_s"] = (layer_self(layer), "s")
    traced_mean = sum(op.seconds for op in traced) / n
    m["trace.op_s"] = (traced_mean, "s")
    m["trace.overhead_frac"] = (
        statistics.median(op.seconds for op in traced)
        / statistics.median(op.seconds for op in plain) - 1.0, "frac")
    layer_sum = sum(layer_self(layer) for layer in LAYERS)
    print(f"layer self times add up to {layer_sum:.6f} s of the "
          f"{traced_mean:.6f} s mean traced op ({n} ops)")
    return m


def measure(spec, seed: int, seconds: float, trace: bool):
    """Set up, run and check one case; return (runner, {name: (value, unit)})."""
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{spec.name}-", dir=WORK_ROOT))
    try:
        case = spec.case(seed)
        runner = Runner(case, work)
        reps = setup(case, runner, work)
        setup_s = statistics.median(reps)
        print(f"setup_s is the median of {len(reps)} set-ups: "
              f"{', '.join(f'{r:.6f}' for r in reps)} s")
        if not trace:
            return runner, end_to_end(spec, runner, runner.loop(seconds), setup_s)

        from spans import Tracer
        from workloads import OP_SEEDS

        plain = runner.loop(seconds / 2)
        runner.tracer = Tracer()
        runner.tracer.install()
        try:
            traced = runner.loop(seconds / 2, min_ops=OP_SEEDS)
        finally:
            runner.tracer.uninstall()
        return runner, per_layer(spec, runner.records, traced, plain, OP_SEEDS)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            WORK_ROOT.rmdir()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    print("environment " + json.dumps(environment(), sort_keys=True))
    runner, metrics = measure(WORKLOADS[args.workload], args.seed,
                              args.seconds, bool(args.trace))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    if getattr(runner.case, "slow_dropped", 0):
        print(f"{runner.case.slow_dropped} viable draws near the viability "
              "boundary were reported unviable by the program")
    for index, problems in runner.problems[:20]:
        print(f"op {index} failed: {'; '.join(problems)}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
