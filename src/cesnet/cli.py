"""Command-line frontend: solve, structure, aggregate, simulate, qq, hp,
gbm, estimate and the batch experiment driver.

Configuration precedence is flags > config file > defaults; the config file
is a flat ``key = value`` text file whose keys match the long option names
(with dashes replaced by underscores).  All randomness flows from a single
``--seed`` with a fixed default, so published runs are reproducible.

Exit codes: 0 on success, 1 on domain errors (reported as a JSON object on
standard error), 2 on usage errors.  A weak first stage in ``estimate`` is
reported as a JSON object on standard error too, and exits 0.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import os
import re
import sys
import warnings
from pathlib import Path

import numpy as np

from . import economy as econ
from . import econometrics as em
from . import equilibrium as eq
from . import gbm as gbm_mod
from . import montecarlo as mc
from . import structure as struct_mod
from .errors import (CesnetError, MalformedTable, NonPositiveValue, NotConverged,
                     WeakInstrumentWarning)
from .household import METHODS, HouseholdPrefs, real_gdp_growth

DEFAULT_SEED = 20110101


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _build_parser()[0].parse_args(_with_config(argv))
        with warnings.catch_warnings():
            warnings.showwarning = functools.partial(_show_warning, warnings.showwarning)
            return args.func(args)
    except SystemExit as exc:  # argparse: usage error, or --help
        return int(exc.code or 0)
    except (CesnetError, OSError, UnicodeDecodeError, MemoryError) as exc:
        # OSError: an input file that is missing or unreadable, or an
        # output that cannot be written; UnicodeDecodeError: an input
        # file that is not UTF-8; MemoryError: arrays too large to
        # allocate, such as the shocks of a huge --count, reported by
        # that name rather than numpy's private subclass.
        name = "MemoryError" if isinstance(exc, MemoryError) else type(exc).__name__
        _stderr_line(error=name, message=str(exc))
        return 1


def _show_warning(show, message, category, *args, **kwargs):
    """Write a weak-instrument warning that the filters let through as one
    JSON line on standard error, and hand any other warning to ``show``."""
    if issubclass(category, WeakInstrumentWarning):
        _stderr_line(message=str(message), warning=category.__name__)
    else:
        show(message, category, *args, **kwargs)


def _stderr_line(**fields):
    json.dump(fields, sys.stderr, sort_keys=True)
    sys.stderr.write("\n")


# --- configuration ----------------------------------------------------------

def _with_config(argv):
    """``argv`` with each item of its ``--config`` file that the subcommand
    takes as one ``--flag=value`` token right after the subcommand.

    The command line's own flags come later, so they win, and argparse
    checks a config value exactly as its flag.  A key that no subcommand
    takes is a usage error.  The pre-parser reads
    ``--config`` as the full parser does (``--config=FILE``, abbreviations).
    """
    pre = argparse.ArgumentParser(prog="cesnet", add_help=False)
    pre.add_argument("--config")
    pre.add_argument("rest", nargs=argparse.REMAINDER)
    known = pre.parse_known_args(argv)[0]
    config = {} if known.config is None else load_config(known.config)
    parser, by_subcommand = _build_parser()
    unknown = set(config).difference(*by_subcommand.values())
    if unknown:  # a key that only another subcommand takes is not an error
        parser.error(f"unknown config key {min(unknown)!r} in {known.config}")
    flags = by_subcommand.get(known.rest[0] if known.rest else None, {})
    at = len(argv) - len(known.rest) + 1
    items = [f"{flags[k]}={v}" for k, v in config.items() if k in flags]
    return [*argv[:at], *items, *argv[at:]]


def load_config(path) -> dict:
    """Parse a flat ``key = value`` config file into a string dict; its
    lines may end in LF, CRLF or CR."""
    out = {}
    for line in econ._read_text(path).splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise MalformedTable(f"config line without '=': {line!r}")
        key, value = line.split("=", 1)
        out[key.strip().replace("-", "_")] = value.strip()
    return out


@functools.cache
def _build_parser():
    """The parser, and per subcommand each option's long flag by dest;
    memoised, as parsing leaves the parser as it was."""
    parser = argparse.ArgumentParser(
        prog="cesnet",
        description="Multisector CES production-network toolkit",
    )
    parser.add_argument("--config", help="flat key=value config file")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, func, help_):
        p = sub.add_parser(name, help=help_)
        # argparse before 3.13 reads "-1e-3" as a flag, not a negative number.
        p._negative_number_matcher = re.compile(r"^-\.?\d")
        p.set_defaults(func=func)
        return p

    def economy_opts(p):
        p.add_argument("--economy", required=True, help="IO table CSV")
        p.add_argument("--elasticities", required=True,
                       help="sector elasticities CSV (label,sigma)")

    def prefs_opts(p):
        p.add_argument("--prefs", required=True,
                       help="expenditure shares CSV (label,mu)")
        p.add_argument("--kappa", type=_finite_float, default=0.0,
                       help="household utility curvature (default 0, Cobb-Douglas)")

    def sampling_opts(p):
        p.add_argument("--count", type=_positive_int, default=10000)
        p.add_argument("--sigma", type=_positive_float, default=0.2)
        p.add_argument("--seed", type=_nonnegative_int, default=DEFAULT_SEED)
        p.add_argument("--workers", type=_positive_int, default=_usable_cpus(),
                       help="threads that solve the blocks of draws (default: "
                            "the CPUs this process may use); a run too small "
                            "to pay for a thread pool is solved inline, and "
                            "outputs are byte-identical for any value")
        p.add_argument("--outdir", default=".")

    p = add("solve", _cmd_solve, "solve equilibrium prices for a shock")
    economy_opts(p)
    p.add_argument("--shocks", help="shock CSV (label,z); defaults to the benchmark")
    p.add_argument("--pi0", type=_positive_float, default=1.0)
    p.add_argument("--tol", type=_positive_float, default=1e-10)
    p.add_argument("--max-iter", type=_positive_int, default=10000)
    p.add_argument("--outdir", default=".")

    p = add("structure", _cmd_structure, "equilibrium structure and viability")
    economy_opts(p)
    p.add_argument("--shocks", help="shock CSV (label,z)")
    p.add_argument("--outdir", default=".")

    p = add("aggregate", _cmd_aggregate, "real GDP growth for one shock")
    economy_opts(p)
    prefs_opts(p)
    p.add_argument("--shocks", required=True, help="shock CSV")
    p.add_argument("--method", choices=METHODS, default="general-ces")

    p = add("simulate", _cmd_simulate, "Monte Carlo fluctuation distribution")
    economy_opts(p)
    prefs_opts(p)
    p.add_argument("--method", choices=METHODS, default="general-ces")
    sampling_opts(p)

    p = add("qq", _cmd_qq, "normal QQ points of a sample CSV")
    p.add_argument("--input", required=True, help="one-column CSV of samples")
    p.add_argument("--outdir", default=".")

    p = add("hp", _cmd_hp, "Hodrick-Prescott trend/cycle split")
    p.add_argument("--input", required=True, help="one-column CSV series")
    p.add_argument("--lam", type=_positive_float, default=1600.0)
    p.add_argument("--outdir", default=".")

    p = add("gbm", _cmd_gbm, "GBM drift/volatility and normality per column")
    p.add_argument("--input", required=True,
                   help="CSV, one series per column with a header row")
    p.add_argument("--outdir", default=".")

    p = add("estimate", _cmd_estimate, "FE / IV panel elasticity estimation")
    p.add_argument("--panel", required=True,
                   help="long CSV: entity,period,share,price[,inst_*...]")
    p.add_argument("--method", choices=("ls", "iv"), default="ls")
    p.add_argument("--iv", default="",
                   help="comma-separated instrument tokens, e.g. a,lb "
                        "(l/f/d prefixes are lag/forward/difference)")
    p.add_argument("--parameter", choices=("gamma", "kappa"), default="gamma")
    p.add_argument("--out", help="write the estimate JSON here instead of stdout")

    p = add("experiment", _cmd_experiment,
            "paired-sample comparison of the three aggregators")
    economy_opts(p)
    prefs_opts(p)
    sampling_opts(p)

    flags = {name: {a.dest: a.option_strings[-1] for a in p._actions
                    if a.dest != "help"}
             for name, p in sub.choices.items()}
    return parser, flags


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _positive_float(text):
    value = float(text)
    if not (np.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be positive and finite: {text!r}")
    return value


def _finite_float(text):
    value = float(text)
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite: {text!r}")
    return value


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer: {text!r}")
    return value


def _nonnegative_int(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer: {text!r}")
    return value


# --- shared IO helpers ------------------------------------------------------

def _load_shocks(args, economy):
    if getattr(args, "shocks", None):
        return econ.load_labelled_vector(args.shocks, economy.labels, "shock")
    return np.ones(economy.n)


def _load_prefs(args, economy):
    mu = econ.load_labelled_vector(args.prefs, economy.labels, "mu")
    return HouseholdPrefs(mu=mu, kappa=args.kappa)


def _write_json(path, payload):
    Path(path).write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


def _outdir(args) -> Path:
    out = Path(args.outdir)
    out.mkdir(parents=True, exist_ok=True)
    return out


# --- subcommands ------------------------------------------------------------

def _cmd_solve(args) -> int:
    economy = econ.load_economy(args.economy, args.elasticities)
    z = _load_shocks(args, economy)
    result = eq.solve_fixed_point(economy, z, tol=args.tol, max_iter=args.max_iter)
    out = _outdir(args)
    # A diverged solve's residual is inf, which strict JSON cannot hold.
    residual = result.residual if np.isfinite(result.residual) else None
    _write_json(out / "solve_meta.json", {
        "status": result.status, "iterations": result.iterations,
        "residual": residual, "tol": args.tol,
    })
    if not result.converged:
        raise NotConverged(f"status {result.status}")
    # Prices at numeraire 1 scaled to --pi0; one that overflows to inf or
    # underflows to 0 raises NonPositivePrice.
    with np.errstate(over="ignore"):
        prices = econ.check_prices(args.pi0 * result.pi, economy.n)[0]
    econ.write_csv(out / "prices.csv", ["label", "price"], economy.labels, prices)
    return 0


def _cmd_structure(args) -> int:
    economy = econ.load_economy(args.economy, args.elasticities)
    z = _load_shocks(args, economy)
    result = eq.solve_fixed_point(economy, z)
    if not result.converged:
        raise NotConverged(f"status {result.status}")
    structure = struct_mod.equilibrium_structure(economy, result.pi, 1.0, z)
    out = _outdir(args)
    header = ["input", *economy.labels]
    econ.write_csv(out / "b_matrix.csv", header, ["PRIMARY", *economy.labels],
                   *np.vstack([structure.b0, structure.B]).T)
    econ.write_csv(out / "s_matrix.csv", header, economy.labels, *structure.S.T)
    _write_json(out / "structure.json", {
        "viable": structure.viable, "iterations": result.iterations,
        "residual": result.residual,
    })
    return 0


def _cmd_aggregate(args) -> int:
    economy = econ.load_economy(args.economy, args.elasticities)
    prefs = _load_prefs(args, economy)
    z = _load_shocks(args, economy)
    growth = real_gdp_growth(economy, prefs, z, method=args.method)
    print(json.dumps({"ln_h": growth, "method": args.method}, sort_keys=True))
    return 0


def _cmd_simulate(args) -> int:
    economy = econ.load_economy(args.economy, args.elasticities)
    prefs = _load_prefs(args, economy)
    config = mc.ShockConfig(count=args.count, sigma=args.sigma, seed=args.seed)
    summary = mc.simulate_distribution(
        economy, prefs, config, method=args.method, workers=args.workers
    )
    _write_summary_files(_outdir(args), summary)
    return 0


def _write_summary_files(out, summary):
    """Write the summary, sample and QQ files of the summary's method."""
    tag = summary.method.replace("-", "_")
    _write_json(out / f"summary_{tag}.json", summary.to_dict())
    econ.write_csv(out / f"samples_{tag}.csv", ["ln_h"], summary.samples)
    # QQ points need at least 3 distinct draws; tiny runs still get a
    # valid summary and sample file.
    if summary.samples.size >= 3 and np.ptp(summary.samples) > 0:
        econ.write_csv(out / f"qq_{tag}.csv", ["theoretical", "sample"],
                       *mc.qq_points(summary.samples).T)


def _cmd_qq(args) -> int:
    samples = econ.load_column(args.input)
    pairs = mc.qq_points(samples)
    out = _outdir(args)
    econ.write_csv(out / "qq.csv", ["theoretical", "sample"], *pairs.T)
    return 0


def _cmd_hp(args) -> int:
    series = econ.load_column(args.input)
    trend, cycle = mc.hp_filter(series, args.lam)
    out = _outdir(args)
    econ.write_csv(out / "hp.csv", ["trend", "cycle"], trend, cycle)
    return 0


def _cmd_gbm(args) -> int:
    names, columns = econ.read_csv_table(args.input, "level table", (float,))
    rows = []
    for j, (name, cells) in enumerate(zip(names, columns)):
        series = econ.parse_column(cells, float, "level", "level table", 2)
        bad = ~(np.isfinite(series) & (series > 0))
        if bad.any():
            i = int(bad.argmax())
            cell = econ.read_csv_columns(args.input, "level table")[j][i + 1]
            raise NonPositiveValue(
                f"non-positive or non-finite level {cell!r} in level "
                f"table column {name!r} row {i + 2}")
        moments = gbm_mod.estimate_gbm_moments(series)
        dlm = gbm_mod.estimate_gbm_dlm(series)
        growth = np.diff(np.log(series))
        rows.append([moments.mu_hat, moments.sigma_hat, dlm.mu_hat,
                     dlm.sigma_hat, *gbm_mod.shapiro_wilk(growth)])
    stats = np.array(rows, dtype=float)
    out = _outdir(args)
    econ.write_csv(
        out / "gbm.csv",
        ["series", "mu_moments", "sigma_moments", "mu_dlm", "sigma_dlm",
         "sw_w", "sw_p", "normal_5pct"],
        names, *stats.T, ["yes" if p >= 0.05 else "no" for p in stats[:, 5]],
    )
    return 0


def _cmd_estimate(args) -> int:
    if args.method == "iv":
        # The diagnostics' tail probabilities need scipy.special.  Loaded
        # before the panel, not in the middle of the fit, it left the
        # process's peak RSS about 1.5 MB lower (perfbench estimate-iv).
        from scipy import special  # noqa: F401
    panel = _load_panel(args.panel)
    tokens = [t.strip() for t in args.iv.split(",") if t.strip()]
    resolved = []
    for token in tokens:
        name, panel = em.apply_instrument_transform(panel, token)
        resolved.append(name)
    if args.method == "iv":
        estimate = em.fe_2sls(panel, resolved, parameter=args.parameter)
    else:
        estimate = em.fe_ols(panel, parameter=args.parameter)
    payload = _estimate_payload(estimate)
    if args.out:
        _write_json(args.out, payload)
    else:
        print(json.dumps(payload, sort_keys=True, indent=2))
    return 0


def _estimate_payload(estimate):
    """The estimate's fields, with the time dummies keyed by their period
    and no diagnostics key for a least-squares fit."""
    payload = dataclasses.asdict(estimate)
    periods = payload.pop("dummy_periods")
    payload["time_dummies"] = {
        str(t): float(v) for t, v in zip(periods, payload["time_dummies"])
    }
    if payload["diagnostics"] is None:
        del payload["diagnostics"]
    if estimate.parameter == "gamma":
        payload["sigma_hat"] = estimate.sigma_hat
        payload["sigma_se"] = estimate.se
    return payload


def _load_panel(path):
    header, columns = econ.read_csv_table(path, "panel", (object, int, float))
    if header[:4] != ["entity", "period", "share", "price"]:
        raise MalformedTable(
            "panel header must start with entity,period,share,price"
        )
    inst_names = [c[5:] if c.startswith("inst_") else c for c in header[4:]]
    for j, name in enumerate(inst_names):
        if name in inst_names[:j]:
            raise MalformedTable(
                f"panel columns {header[4 + inst_names.index(name)]!r} and "
                f"{header[4 + j]!r} both name instrument {name!r}")
    entity = list(map(str.strip, columns[0]))
    period = econ.parse_column(columns[1], int, "period", "panel", 2)
    share, price, *inst = (econ.parse_column(col, float, name, "panel", 2)
                           for name, col in zip(header[2:], columns[2:]))
    # Zero shares have no log; NaN rows are masked by the constructor.
    with np.errstate(divide="ignore", invalid="ignore"):
        y = np.where(share > 0, np.log(share), np.nan)
        x = np.log(price)
    return em.PanelDataset(
        entity=np.asarray(entity),
        period=period,
        y=y,
        x=x,
        instruments=dict(zip(inst_names, inst)),
    )


def _cmd_experiment(args) -> int:
    economy = econ.load_economy(args.economy, args.elasticities)
    prefs = _load_prefs(args, economy)
    config = mc.ShockConfig(count=args.count, sigma=args.sigma, seed=args.seed)
    shocks = mc.shock_matrix(economy.n, config)
    out = _outdir(args)
    shock_hash = hashlib.sha256(shocks.tobytes()).hexdigest()

    report = {"seed": args.seed, "count": args.count, "sigma": args.sigma,
              "methods": {}}
    errors = []
    for method in METHODS:
        entry = {"shock_stream_sha256": shock_hash}
        try:
            summary = mc.distribution_from_shocks(
                economy, prefs, shocks, method, args.seed, args.workers
            )
        except CesnetError as exc:
            errors.append(exc)
            entry["failed"] = type(exc).__name__
            entry["message"] = str(exc)
        else:
            entry.update(summary.to_dict())
            _write_summary_files(out, summary)
        report["methods"][method] = entry
    means = {m: e["mean"] for m, e in report["methods"].items() if "mean" in e}
    report["mean_ordering"] = sorted(means, key=means.get)
    _write_json(out / "report.json", report)
    if not report["mean_ordering"]:  # every method failed
        raise errors[0]
    return 0


if __name__ == "__main__":
    sys.exit(main())
