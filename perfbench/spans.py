"""Per-layer spans and counters, recorded from outside the program.

``Tracer.install`` replaces every public function of the traced ``cesnet``
modules, in every ``cesnet`` module namespace that refers to it, with a
wrapper that times the call as a span.  A span's self time is its duration
minus the durations of the spans it caused, so the self times of one op add
up to the duration of its outermost span (``cli.main``).  Spans are reduced
to per-function totals as they close; a handful of observers also count what
the calls returned (solver statuses, sweeps, unviable outcomes).

``structure`` and ``gbm`` are not traced: no workload runs them.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter, defaultdict

from cesnet import cli, econometrics, economy, equilibrium, household, montecarlo
from cesnet.errors import CesnetError
from cesnet.household import Unviable

LAYERS = {
    "economy": economy,
    "montecarlo": montecarlo,
    "equilibrium": equilibrium,
    "household": household,
    "econometrics": econometrics,
    "cli": cli,
}

CLOSED_FORMS = ("solve_uniform_ces", "solve_leontief", "solve_cobb_douglas")


class OpRecord:
    """What one op did: time per function and the counters."""

    def __init__(self):
        self.total = defaultdict(float)  # inclusive seconds, by "layer.func"
        self.self = defaultdict(float)  # self seconds, by "layer.func"
        self.calls = Counter()
        self.status = Counter()
        self.sweeps = []  # iterations of each solve_fixed_point call
        self.aggregations = Counter()  # real_gdp_growth calls per method
        self.unviable = Counter()  # Unviable outcomes per method
        self.closed_form_failures = 0
        self.scale = 1.0  # speed adjustment of the op, set by the runner

    def layer_self(self, layer: str) -> float:
        prefix = layer + "."
        return sum(v for k, v in self.self.items() if k.startswith(prefix))


class Tracer:
    def __init__(self):
        self.record = OpRecord()
        self._children = [0.0]  # child time accumulated by each open span
        self._patched = []  # (namespace, attribute, original)

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "cesnet" or name.startswith("cesnet.")]
        for layer, module in LAYERS.items():
            for name, fn in vars(module).items():
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                wrapper = self._wrap(f"{layer}.{name}", fn)
                for namespace in modules:
                    for attr, value in list(vars(namespace).items()):
                        if value is fn:
                            setattr(namespace, attr, wrapper)
                            self._patched.append((namespace, attr, fn))

    def uninstall(self) -> None:
        for namespace, attr, fn in reversed(self._patched):
            setattr(namespace, attr, fn)
        self._patched.clear()

    def start_op(self) -> None:
        self.record = OpRecord()

    def _wrap(self, key, fn):
        observe = _OBSERVERS.get(key)
        children = self._children
        clock = time.perf_counter
        tracer = self

        def span(*args, **kwargs):
            children.append(0.0)
            t0 = clock()
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except CesnetError as exc:
                error = exc
                raise
            finally:
                duration = clock() - t0
                child = children.pop()
                children[-1] += duration
                rec = tracer.record
                rec.total[key] += duration
                rec.self[key] += duration - child
                rec.calls[key] += 1
                if observe is not None:
                    observe(rec, args, kwargs, result, error)

        span.__wrapped__ = fn
        return span


def _observe_fixed_point(rec, args, kwargs, result, error):
    if result is not None:
        rec.status[result.status] += 1
        rec.sweeps.append(result.iterations)


def _observe_closed_form(rec, args, kwargs, result, error):
    if error is not None:
        rec.closed_form_failures += 1


def _observe_growth(rec, args, kwargs, result, error):
    method = kwargs.get("method", args[3] if len(args) > 3 else household.GENERAL_CES)
    rec.aggregations[method] += 1
    if isinstance(result, Unviable):
        rec.unviable[method] += 1


_OBSERVERS = {
    "equilibrium.solve_fixed_point": _observe_fixed_point,
    "household.real_gdp_growth": _observe_growth,
    **{f"equilibrium.{name}": _observe_closed_form for name in CLOSED_FORMS},
}
