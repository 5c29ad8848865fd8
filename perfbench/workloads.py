"""Seeded inputs, command lines and output checks for each workload.

A workload bound to a workload seed is a *case*.  The case derives the
preference shares, the program's ``--seed`` values and the panel from the
workload seed (the economies are fixed yardsticks, see YARDSTICK_SEED),
writes the input files, builds the ``cesnet`` argument vector of each op and
checks each op's output files against values computed here without the
solver under test.

Monte Carlo ops cycle through ``OP_SEEDS`` program seeds drawn from the
workload seed, so one run covers several shock streams and the deterministic
counters of the traced run are taken over exactly one cycle.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

from cesnet.economy import Economy, save_economy

#: Distinct program seeds per Monte Carlo run; op i uses seed i % OP_SEEDS.
OP_SEEDS = 16

#: Construction seed of the yardstick economies (the ten-sector economy of
#: the acceptance criteria).  The network is held fixed per workload because
#: the mean sweep count varies from 37 to 48 across random ten-sector
#: economies, which would swamp run-to-run differences.
YARDSTICK_SEED = 42

METHODS = ("general-ces", "leontief", "cobb-douglas")

#: Contraction rate above which a viable uniform-CES draw needs over about
#: 2000 sweeps to converge; the program may report such draws unviable.
SLOW_RATE = 0.99


def yardstick_economy(n: int, gamma=None) -> Economy:
    """Random valid economy with exact adding-up.

    ``gamma=None`` draws sector exponents from U[-1, 1.5]; a scalar gives a
    uniform-elasticity economy.
    """
    rng = np.random.default_rng(YARDSTICK_SEED)
    a0 = rng.uniform(0.2, 0.6, n)
    w = rng.uniform(0.1, 1.0, (n, n))
    A = (1.0 - a0) * w / w.sum(axis=0)
    if gamma is None:
        gamma = rng.uniform(-1.0, 1.5, n)
    gamma = np.broadcast_to(np.asarray(gamma, dtype=float), (n,)).copy()
    labels = tuple(f"s{i}" for i in range(n))
    return Economy(labels=labels, A=A, a0=a0, gamma=gamma)


def sweep_probe(economy: Economy, sweeps: int):
    """A frozen copy of the fixed-point solver's sweep, used as a speed probe.

    It runs the same mix of small numpy calls as the program's solve, so it
    slows down by about as much when other tenants load the machine.
    """
    aug = np.vstack([economy.a0, economy.A])
    g = economy.gamma
    z = np.exp(0.2 * np.random.default_rng(0).standard_normal(economy.n))

    def probe():
        paug = np.ones(economy.n + 1)
        for _ in range(sweeps):
            pi = np.einsum("ij,ij->j", aug, paug[:, None] ** g[None, :]) ** (1.0 / g) / z
            if not np.all(np.isfinite(pi)) or np.any(pi <= 0):
                raise ArithmeticError("speed probe left the positive orthant")
            float(np.max(np.abs(pi - paug[1:])))
            paug[1:] = pi

    return probe


def panel_probe(rows: int):
    """A speed probe with the panel path's mix: float parsing, string-array
    scans and a least-squares fit."""
    rng = np.random.default_rng(0)
    cells = [repr(float(x)) for x in rng.normal(size=rows)]
    entity = np.repeat([f"e{i}" for i in range(rows // 10)], 10)
    X = rng.normal(size=(rows, 12))
    y = rng.normal(size=rows)

    def probe():
        sum(float(c) for c in cells)
        for i in range(16):
            np.flatnonzero(entity == f"e{i}")
        np.linalg.lstsq(X, y, rcond=None)

    return probe


def _sub_rng(seed: int, name: str) -> np.random.Generator:
    tag = int.from_bytes(hashlib.sha256(name.encode()).digest()[:4], "big")
    return np.random.default_rng([seed, tag])


def _read_column(path: Path) -> np.ndarray:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return np.array([float(r[0]) for r in rows[1:]])


class MonteCarlo:
    """``cesnet experiment`` on a yardstick economy.

    An item is one (draw, method) evaluation, so an op is ``count * 3``
    items.
    """

    def __init__(self, name, n, gamma, sigma, count, probe_sweeps, probe_ref_s):
        self.name = name
        self.n, self.gamma, self.sigma, self.count = n, gamma, sigma, count
        self.probe_sweeps, self.probe_ref_s = probe_sweeps, probe_ref_s
        self.items_per_op = count * len(METHODS)
        self.draws_per_op = count

    def case(self, seed: int) -> "MonteCarloCase":
        return MonteCarloCase(self, seed)


class MonteCarloCase:
    def __init__(self, spec: MonteCarlo, seed: int):
        self.spec = spec
        self.economy = yardstick_economy(spec.n, spec.gamma)
        self.probe = sweep_probe(self.economy, spec.probe_sweeps)
        rng = _sub_rng(seed, spec.name)
        mu = rng.uniform(0.5, 1.0, spec.n)
        self.mu = mu / mu.sum()
        self.op_seeds = [int(s) for s in rng.integers(1, 2**31, OP_SEEDS)]
        self.slow_dropped = 0
        self._expected = [self._expect(s) for s in self.op_seeds]

    def _shocks(self, seed: int) -> np.ndarray:
        """The program's shock stream, rebuilt from its (seed, index) law."""
        n, sigma = self.spec.n, self.spec.sigma
        return np.stack([
            np.exp(0.0 + sigma * np.random.default_rng([seed, k]).standard_normal(n))
            for k in range(self.spec.count)
        ])

    def _expect(self, seed: int) -> dict:
        e, mu = self.economy, self.mu
        Z = self._shocks(seed)
        digest = hashlib.sha256()
        for z in Z:
            digest.update(z.tobytes())
        logz = np.log(Z)
        # Cobb-Douglas economy with Cobb-Douglas utility: ln H = log(z) . lambda
        # with lambda = (I - A)^{-1} mu - mu (Domar weights).
        domar = np.linalg.solve(np.eye(e.n) - e.A, mu) - mu
        expected = {"sha256": digest.hexdigest(), "cobb-douglas": logz @ domar}
        gamma = np.unique(e.gamma)
        if gamma.size == 1 and gamma[0] != 0:
            # Uniform CES: in q = pi^g the recursion is the linear map
            # q <- (a0 + q A) diag(z)^-g, so a draw is viable exactly when
            # q (diag(z)^g - A) = a0 has a strictly positive solution, and
            # the recursion contracts at the spectral radius of A diag(z)^-g.
            g = float(gamma[0])
            rate = np.max(np.abs(np.linalg.eigvals(e.A * Z[:, None, :] ** -g)), axis=1)
            ln_h, slow = [], []
            for z, lz, r in zip(Z, logz, rate):
                q = np.linalg.solve((np.diag(z**g) - e.A).T, e.a0)
                if np.all(np.isfinite(q)) and np.all(q > 0):
                    ln_h.append(-mu @ lz - mu @ (np.log(q) / g))
                    slow.append(r > SLOW_RATE)
            expected["general-ces"] = np.array(ln_h)
            expected["slow"] = slow
        return expected

    def write_inputs(self, directory: Path) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        self.io_path = directory / "io.csv"
        self.el_path = directory / "elasticities.csv"
        self.mu_path = directory / "mu.csv"
        save_economy(self.economy, self.io_path, self.el_path)
        with open(self.mu_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["label", "mu"])
            for lab, m in zip(self.economy.labels, self.mu):
                writer.writerow([lab, repr(float(m))])

    def argv(self, op: int, outdir: Path) -> list[str]:
        return [
            "experiment",
            "--economy", str(self.io_path),
            "--elasticities", str(self.el_path),
            "--prefs", str(self.mu_path),
            "--count", str(self.spec.count),
            "--sigma", repr(self.spec.sigma),
            "--seed", str(self.op_seeds[op % OP_SEEDS]),
            "--outdir", str(outdir),
        ]

    def check(self, op: int, outdir: Path) -> list[str]:
        """Problems found in the op's outputs; empty when all checks pass."""
        expected = self._expected[op % OP_SEEDS]
        count = self.spec.count
        problems = []
        report = json.loads((outdir / "report.json").read_text(encoding="utf-8"))
        for method in METHODS:
            entry = report["methods"][method]
            if entry["shock_stream_sha256"] != expected["sha256"]:
                problems.append(f"{method}: shock stream hash differs")
            if "failed" in entry:
                problems.append(f"{method}: failed with {entry['failed']}")
                continue
            if entry["n_viable"] + entry["n_unviable"] != count:
                problems.append(f"{method}: n_viable + n_unviable != {count}")
            samples = _read_column(outdir / f"samples_{method.replace('-', '_')}.csv")
            if samples.size != entry["n_viable"]:
                problems.append(f"{method}: {samples.size} samples, "
                                f"n_viable {entry['n_viable']}")
                continue
            if method == "cobb-douglas":
                if np.max(np.abs(samples - expected[method]), initial=0) > 1e-12:
                    problems.append("cobb-douglas: ln H differs from log(z) . "
                                    "Domar weights by more than 1e-12")
            elif method in expected:
                problems += self._match_closed_form(samples, expected)
        return problems

    def _match_closed_form(self, samples, expected) -> list[str]:
        """Match general-CES draws, in order, to the uniform-CES closed form.

        The program may report a viable draw as unviable only when its
        recursion contracts at a rate above SLOW_RATE, where the solver's
        default iteration cap can bite; such draws are counted in
        ``slow_dropped``.
        """
        want, slow = expected["general-ces"], expected["slow"]
        j = 0
        for value in samples:
            while j < want.size and abs(value - want[j]) > 1e-8:
                if not slow[j]:
                    return [f"general-ces: viable draw {j} is missing or its "
                            "ln H differs from the closed form by more than 1e-8"]
                self.slow_dropped += 1
                j += 1
            if j == want.size:
                return ["general-ces: a sample matches no closed-form draw"]
            j += 1
        if not all(slow[j:]):
            return ["general-ces: viable draws missing at the end"]
        self.slow_dropped += want.size - j
        return []


class Estimate:
    """``cesnet estimate --method iv`` on a synthetic panel.

    An item is one panel row, so an op is ``entities * periods`` items.
    """

    GAMMA = 0.6

    def __init__(self, name, entities, periods, probe_ref_s):
        self.name = name
        self.entities, self.periods = entities, periods
        self.probe_ref_s = probe_ref_s
        self.items_per_op = entities * periods
        self.draws_per_op = 0

    def case(self, seed: int) -> "EstimateCase":
        return EstimateCase(self, seed)


class EstimateCase:
    def __init__(self, spec: Estimate, seed: int):
        self.spec = spec
        N, T = spec.entities, spec.periods
        self.probe = panel_probe(4000)
        rng = _sub_rng(seed, spec.name)
        self.entity = np.repeat([f"e{i}" for i in range(N)], T)
        self.period = np.tile(np.arange(1, T + 1), N)
        alpha = np.repeat(rng.normal(0.0, 1.0, N), T)
        delta = np.tile(rng.normal(0.0, 0.5, T), N)
        u = rng.normal(0.0, 0.5, N * T)
        self.w = rng.normal(0.0, 1.0, N * T)
        self.v = rng.normal(0.0, 1.0, N * T)
        lag_v = np.roll(self.v.reshape(N, T), 1, axis=1)
        lag_v[:, 0] = 0.0
        # x is endogenous through u; w and the lag of v move it exogenously.
        x = rng.normal(0.0, 0.3, N * T) + u + 0.7 * self.w + 0.7 * lag_v.ravel()
        y = alpha + delta + spec.GAMMA * x + u
        self.share = np.exp(y)
        self.price = np.exp(x)

    def write_inputs(self, directory: Path) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        self.panel_path = directory / "panel.csv"
        with open(self.panel_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["entity", "period", "share", "price", "inst_w", "inst_v"])
            for row in zip(self.entity, self.period.tolist(), self.share.tolist(),
                           self.price.tolist(), self.w.tolist(), self.v.tolist()):
                writer.writerow(row)

    def argv(self, op: int, outdir: Path) -> list[str]:
        return [
            "estimate", "--panel", str(self.panel_path),
            "--method", "iv", "--iv", "w,lv", "--parameter", "gamma",
            "--out", str(outdir / "estimate.json"),
        ]

    def check(self, op: int, outdir: Path) -> list[str]:
        payload = json.loads((outdir / "estimate.json").read_text(encoding="utf-8"))
        problems = []
        coef, se = payload["coef"], payload["se"]
        if not (math.isfinite(coef) and math.isfinite(se) and se > 0):
            problems.append("coefficient or standard error not finite")
        elif abs(coef - self.spec.GAMMA) > 4 * se:
            problems.append(f"coef {coef} more than 4 s.e. from {self.spec.GAMMA}")
        # The lag drops each entity's first period.
        nobs = self.spec.entities * (self.spec.periods - 1)
        if payload["nobs"] != nobs:
            problems.append(f"nobs {payload['nobs']}, expected {nobs}")
        diagnostics = payload.get("diagnostics") or {}
        for key in ("first_stage_f", "sargan", "sargan_p",
                    "endogeneity_f", "endogeneity_p"):
            value = diagnostics.get(key)
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                problems.append(f"diagnostic {key} not finite: {value!r}")
        return problems


#: Why each workload exists is recorded in BENCHMARK.json.  probe_ref_s is
#: the probe's time on an idle core of the reference machine (a 2-vCPU
#: Xeon VM at 2.1 GHz, first percentile of 400 runs).
WORKLOADS = {
    w.name: w
    for w in (
        MonteCarlo("mc-n10", n=10, gamma=None, sigma=0.2, count=160,
                   probe_sweeps=100, probe_ref_s=0.00254),
        MonteCarlo("mc-n100", n=100, gamma=None, sigma=0.2, count=50,
                   probe_sweeps=40, probe_ref_s=0.00312),
        MonteCarlo("mc-boundary", n=10, gamma=0.9, sigma=0.5, count=100,
                   probe_sweeps=100, probe_ref_s=0.00253),
        Estimate("estimate-iv", entities=1600, periods=10, probe_ref_s=0.00258),
    )
}
