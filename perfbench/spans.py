"""Benchmark-side tracing of the hccycles layers.

`Tracer.install()` replaces the public functions of each hccycles module, and
the methods of `Poly`, with wrappers; `uninstall()` puts the originals back.
Nothing in the library changes.  A wrapped function is replaced in every
hccycles module that binds it, so calls through `from .x import f` names are
seen as well.

* A span wrapper records (span id, parent id, name, label, start, end).  A
  span's self time is its duration minus the durations of its direct
  children, worked out when the pass ends.
* Hot leaf functions get a counter only, no timer: every rootsystem
  function, `closedforms.gamma` and `_near_nonpositive_int`, and
  `diagrams.partial_leq` (together about 650k calls per verify pass), and
  generator functions, whose call returns before any work is done.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time
from collections import Counter, defaultdict

from hccycles.cycles import QuadratureSpec

LAYERS = ("cli", "cycles", "closedforms", "series", "polynomial", "diagrams", "rootsystem")
COUNT_ONLY = {"closedforms.gamma", "closedforms._near_nonpositive_int", "diagrams.partial_leq"}
SUITES = ("combinatorics", "series", "integrals", "identities")
CLOSED_FORM_EVALS = ("closedforms.a_w", "closedforms.F_w_at_1", "closedforms.limit_value")


def _integrate_label(arguments, result):
    """(rank, nodes) of one `cycles.integrate` call."""
    c, quad = arguments["c"], arguments.get("quad") or QuadratureSpec()
    return c.rank, quad.points_per_axis ** c.naxes


def _freudenthal_label(arguments, result):
    """Number of coefficients the table holds."""
    return len(result.entries)


def _cli_label(arguments, result):
    """The suite of a `hc verify <suite>` call."""
    argv = arguments.get("argv") or []
    return argv[1] if len(argv) > 1 and argv[0] == "verify" else None


LABELS = {
    "cycles.integrate": _integrate_label,
    "series.freudenthal_table": _freudenthal_label,
    "cli.main": _cli_label,
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.passes: list[dict] = []
        self._current = 0
        self._next_id = 1
        self._patches: list[tuple] = []

    # -- wrappers ------------------------------------------------------------

    def _span(self, name: str, fn):
        label = LABELS.get(name)
        signature = inspect.signature(fn) if label else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._current
            sid = self._current = self._next_id
            self._next_id += 1
            result = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter()
                self._current = parent
                tag = None
                if label and result is not None:
                    tag = label(signature.bind(*args, **kwargs).arguments, result)
                self.spans.append((sid, parent, name, tag, t0, t1))

        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ----------------------------------------------------------

    def install(self):
        modules = [m for key, m in sys.modules.items() if key == "hccycles" or key.startswith("hccycles.")]
        for layer in LAYERS:
            mod = importlib.import_module(f"hccycles.{layer}")
            for attr, fn in list(vars(mod).items()):
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                if attr.startswith("_") and name not in COUNT_ONLY:
                    continue
                count_only = layer == "rootsystem" or name in COUNT_ONLY or inspect.isgeneratorfunction(fn)
                wrapper = self._counter(name, fn) if count_only else self._span(name, fn)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is fn:
                            self._patches.append((m, key, fn))
                            setattr(m, key, wrapper)
        poly = importlib.import_module("hccycles.polynomial").Poly
        for attr, member in list(vars(poly).items()):
            name = f"polynomial.Poly.{attr}"
            if attr.startswith("_") and not attr.startswith("__"):
                continue
            if inspect.isfunction(member):
                wrapped = self._span(name, member)
            elif isinstance(member, classmethod):
                wrapped = classmethod(self._span(name, member.__func__))
            else:
                continue
            self._patches.append((poly, attr, member))
            setattr(poly, attr, wrapped)

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- per-pass aggregation --------------------------------------------------

    def end_pass(self, seconds: float):
        """Fold the spans and counts of one traced pass into a pass summary."""
        child = defaultdict(float)
        for _, parent, _, _, t0, t1 in self.spans:
            child[parent] += t1 - t0
        self_s, incl_s, calls = defaultdict(float), defaultdict(float), Counter(self.counts)
        by_label = defaultdict(lambda: defaultdict(lambda: [0.0, 0]))  # name -> label -> [seconds, calls]
        for sid, _, name, tag, t0, t1 in self.spans:
            self_s[name] += (t1 - t0) - child[sid]
            incl_s[name] += t1 - t0
            calls[name] += 1
            if tag is not None:
                by_label[name][tag][0] += t1 - t0
                by_label[name][tag][1] += 1
        self.passes.append({"seconds": seconds, "self_s": self_s, "incl_s": incl_s,
                            "calls": calls, "by_label": by_label})
        self.spans.clear()
        self.counts.clear()

    def layer_metrics(self, untraced_pass_s: list[float]) -> dict[str, float]:
        """Per-layer metrics: per-pass values are medians over the traced
        passes; rates are totals over all of them; 0 where a layer is not called."""
        passes = self.passes

        def per_pass(fn) -> float:
            return statistics.median(fn(p) for p in passes)

        def layer_sum(key, layer):
            return lambda p: sum(v for k, v in p[key].items() if k.split(".")[0] == layer)

        def rate(num, den) -> float:
            total = sum(den(p) for p in passes)
            return sum(num(p) for p in passes) / total if total else 0.0

        def integrate(p, rank=None):
            """(seconds, nodes) of the integrate calls at one rank, or all."""
            items = [(s, n * c) for (r, n), (s, c) in p["by_label"]["cycles.integrate"].items() if rank in (None, r)]
            return sum(s for s, _ in items), sum(n for _, n in items)

        out = {}
        for rank in (1, 2, 3):
            out[f"cycles.ns_per_node.r{rank}"] = 1e9 * rate(lambda p: integrate(p, rank)[0],
                                                           lambda p: integrate(p, rank)[1])
        out["cycles.integrate.self_s"] = per_pass(lambda p: p["self_s"]["cycles.integrate"])
        out["cycles.nodes"] = per_pass(lambda p: integrate(p)[1])
        out["cycles.integrate.calls"] = per_pass(lambda p: p["calls"]["cycles.integrate"])
        out["cycles.phase_continuation.self_s"] = per_pass(lambda p: p["self_s"]["cycles.phase_continuation"])
        out["cycles.self_s"] = per_pass(layer_sum("self_s", "cycles"))
        out["closedforms.self_s"] = per_pass(layer_sum("self_s", "closedforms"))
        out["closedforms.evals_per_s"] = rate(lambda p: sum(p["calls"][k] for k in CLOSED_FORM_EVALS),
                                              lambda p: sum(p["incl_s"][k] for k in CLOSED_FORM_EVALS))
        out["closedforms.gamma.calls"] = per_pass(lambda p: p["calls"]["closedforms.gamma"])
        out["rootsystem.calls"] = per_pass(layer_sum("calls", "rootsystem"))
        out["series.freudenthal.entries_per_s"] = rate(
            lambda p: sum(entries * c for entries, (_, c) in p["by_label"]["series.freudenthal_table"].items()),
            lambda p: p["incl_s"]["series.freudenthal_table"])
        for fn in ("freudenthal_table", "residual_L", "commuting_symbol_table", "operator_commutator"):
            out[f"series.{fn}.self_s"] = per_pass(lambda p, fn=fn: p["self_s"][f"series.{fn}"])
        out["series.self_s"] = per_pass(layer_sum("self_s", "series"))
        out["polynomial.self_s"] = per_pass(layer_sum("self_s", "polynomial"))
        out["polynomial.calls"] = per_pass(layer_sum("calls", "polynomial"))
        out["diagrams.self_s"] = per_pass(layer_sum("self_s", "diagrams"))
        out["diagrams.partial_leq.calls"] = per_pass(lambda p: p["calls"]["diagrams.partial_leq"])
        out["cli.self_s"] = per_pass(layer_sum("self_s", "cli"))
        for suite in SUITES:
            out[f"cli.suite_s.{suite}"] = per_pass(lambda p, s=suite: p["by_label"]["cli.main"][s][0])
        traced = statistics.median(p["seconds"] for p in passes)
        out["trace.overhead_frac"] = traced / statistics.median(untraced_pass_s) - 1.0
        return {k: float(v) for k, v in out.items()}
