"""Span tracing for the traced benchmark run, installed from outside rkec.

Each wrapper replaces a public function on the module that *calls* it: rkec
modules bind their imports with ``from .flows import ...``, so patching the
defining module would miss every call.  A span records name, start, end,
parent span and the instance being processed; spans are kept in memory and
written out when the traced pass ends.  A layer's self time is its span time
minus the time covered by its child spans.

Untraced passes run with no wrapper in place: ``Tracer.installed()`` patches
on entry and restores the original functions on exit.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
from contextlib import contextmanager
from time import perf_counter

# Callers of the flows layer that get their own ``flows.calls.<caller>`` count.
FLOW_CALLERS = ("rings", "deficiency", "solver", "exact", "verify")

# (module the call site lives in, attribute, span name)
SPANS = (
    ("rkec.cli", "parse_instance", "instance.parse"),
    ("rkec.solver", "solution_from_doc", "instance.parse"),
    ("rkec.cli", "solve", "solver.solve"),
    ("rkec.solver", "rooted_max_level", "deficiency"),
    ("rkec.greedy", "rooted_max_level", "deficiency"),
    ("rkec.greedy", "rooted_cores", "deficiency"),
    ("rkec.solver", "run_phase", "greedy.phase"),
    ("rkec.greedy", "cheapest_star", "greedy.star"),
    ("rkec.greedy", "build_ring_context", "rings.ctx"),
    ("rkec.greedy", "primal_dual_ring_cover", "rings.pd"),
    ("rkec.cli", "brute_force_opt", "exact.brute"),
    ("rkec.verify", "brute_force_opt", "exact.brute"),
    ("rkec.cli", "audit_run", "verify.audit"),
    ("rkec.cli", "check_feasible", "verify.check_feasible"),
    ("rkec.verify", "check_feasible", "verify.check_feasible"),
    ("rkec.verify", "bound_decision", "verify.bound_decision"),
    # ``flows.flow.*`` run a max-flow; ``flows.view.*`` only assemble arcs, so
    # they count towards ``flows.s`` but not towards ``flows.calls.*``.
    ("rkec.rings", "min_violated_cut", "flows.flow.rings"),
    ("rkec.deficiency", "closest_sink_cut", "flows.flow.deficiency"),
    ("rkec.deficiency", "instance_view", "flows.view.deficiency"),
    ("rkec.solver", "max_flow_value", "flows.flow.solver"),
    ("rkec.solver", "instance_view", "flows.view.solver"),
    ("rkec.exact", "closest_sink_cut", "flows.flow.exact"),
    ("rkec.exact", "max_flow_value", "flows.flow.exact"),
    ("rkec.exact", "instance_view", "flows.view.exact"),
    ("rkec.verify", "max_flow_value", "flows.flow.verify"),
    ("rkec.verify", "max_flow_paths", "flows.flow.verify"),
    ("rkec.verify", "instance_view", "flows.view.verify"),
)

# Wrappers that only count calls: a span per ring query would double the
# tracing cost of the hottest path, and its time is already split between
# ``rings.pd`` self time and the flows spans underneath.
COUNTS = (("rkec.rings", "min_violated_set", "rings.mvs"),)


class Tracer:
    """In-memory span recorder with per-name count, total and self time."""

    def __init__(self, keep_spans: bool = False):
        self.keep_spans = keep_spans
        self.spans: list[tuple] = []  # (id, parent id, name, instance, start, end)
        self.totals: dict[str, list] = {}  # name -> [calls, total s, self s]
        self.counts: dict[str, float] = {}
        self.instance: str | None = None
        self.missing: list[str] = []
        self._stack: list[list] = []  # [span id, start, child time]
        self._next_id = 0

    def add(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def begin(self) -> list:
        frame = [self._next_id, perf_counter(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def end(self, frame: list, name: str) -> None:
        end = perf_counter()
        stack = self._stack
        stack.pop()
        duration = end - frame[1]
        if stack:
            stack[-1][2] += duration
        entry = self.totals.get(name)
        if entry is None:
            entry = self.totals[name] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - frame[2]
        if self.keep_spans:
            parent = stack[-1][0] if stack else None
            self.spans.append((frame[0], parent, name, self.instance, frame[1], end))

    @contextmanager
    def span(self, name: str):
        frame = self.begin()
        try:
            yield
        finally:
            self.end(frame, name)

    def _wrap_span(self, fn, name: str):
        observe = _OBSERVERS.get(name)

        def wrapped(*args, **kwargs):
            if observe is not None:
                observe(self, args)
            frame = self.begin()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(frame, name)
            if name == "rings.pd" and result is None:
                self.add("rings.pd_unpriceable")
            return result

        return wrapped

    def _wrap_count(self, fn, name: str):
        def wrapped(*args, **kwargs):
            self.add(name)
            return fn(*args, **kwargs)

        return wrapped

    @contextmanager
    def installed(self):
        """Patch every traced call site; restore the originals on exit.

        A call site that no longer exists (a later refactor renamed or inlined
        it) is skipped and listed in ``missing``, so the rest still traces.
        """
        patched = []
        self.missing = []
        plan = [(m, a, n, self._wrap_span) for m, a, n in SPANS]
        plan += [(m, a, n, self._wrap_count) for m, a, n in COUNTS]
        try:
            for module_name, attr, name, wrap in plan:
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if original is None:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                setattr(module, attr, wrap(original, name))
                patched.append((module, attr, original))
            yield self
        finally:
            for module, attr, original in reversed(patched):
                setattr(module, attr, original)

    def dump(self, path) -> None:
        """Write the kept spans as gzipped JSON lines, times relative to the first."""
        origin = min((span[4] for span in self.spans), default=0.0)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for span_id, parent, name, instance, start, end in sorted(self.spans):
                fh.write(json.dumps({
                    "id": span_id, "parent": parent, "name": name, "instance": instance,
                    "start": round(start - origin, 9), "end": round(end - origin, 9),
                }) + "\n")


def _observe_star(tracer: Tracer, args) -> None:
    # cheapest_star(inst, units, cores, level): every candidate head is paired
    # with every core before the lazy bound decides how many get priced.
    inst, units, cores = args[0], args[1], args[2]
    heads = sys.modules["rkec.greedy"].candidate_heads(inst, units)
    tracer.add("greedy.pairs_offered", len(heads) * len(cores))


def _observe_flow(tracer: Tracer, args) -> None:
    tracer.add("flows.arcs", len(args[0].arcs))


_OBSERVERS = {"greedy.star": _observe_star}
_OBSERVERS.update({f"flows.flow.{c}": _observe_flow for c in FLOW_CALLERS})


_LAYER_UNITS = {
    "greedy.priced_frac": "ratio",
    "greedy.pairs_per_star": "pairs/star",
    "rings.mvs_per_pd": "calls/pd",
    "flows.arcs_mean": "arcs",
}


def layer_unit(name: str) -> str:
    return _LAYER_UNITS.get(name, "s" if name.endswith(("_s", ".s")) else "count")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures of one traced pass, keyed by metric name."""
    totals, counts = tracer.totals, tracer.counts

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return totals.get(name, (0, 0.0, 0.0))[1]

    def self_time(name):
        return totals.get(name, (0, 0.0, 0.0))[2]

    def ratio(num, den):
        return num / den if den else 0.0

    flow_calls = {c: calls(f"flows.flow.{c}") for c in FLOW_CALLERS}
    flow_time = sum(v[1] for k, v in totals.items() if k.startswith("flows."))
    stars = calls("greedy.star")
    offered = counts.get("greedy.pairs_offered", 0)
    pd_calls = calls("rings.pd")
    out = {
        "cli.self_s": self_time("cli"),
        "instance.parse_s": total("instance.parse"),
        "instance.parse.calls": calls("instance.parse"),
        "solver.solve.calls": calls("solver.solve"),
        "solver.self_s": self_time("solver.solve"),
        "deficiency.calls": calls("deficiency"),
        "deficiency.self_s": self_time("deficiency"),
        "greedy.stars": stars,
        "greedy.self_s": self_time("greedy.phase") + self_time("greedy.star"),
        "greedy.pairs_offered": offered,
        "greedy.pairs_priced": pd_calls,
        "greedy.priced_frac": ratio(pd_calls, offered),
        "greedy.pairs_per_star": ratio(pd_calls, stars),
        "rings.ctx.calls": calls("rings.ctx"),
        "rings.ctx_s": total("rings.ctx"),
        "rings.pd.calls": pd_calls,
        "rings.pd_self_s": self_time("rings.pd"),
        "rings.pd_unpriceable": counts.get("rings.pd_unpriceable", 0),
        "rings.mvs.calls": counts.get("rings.mvs", 0),
        "rings.mvs_per_pd": ratio(counts.get("rings.mvs", 0), pd_calls),
        "flows.s": flow_time,
        "flows.arcs_mean": ratio(counts.get("flows.arcs", 0), sum(flow_calls.values())),
        "exact.brute.calls": calls("exact.brute"),
        "exact.brute_s": total("exact.brute"),
        "exact.self_s": self_time("exact.brute"),
        "verify.audit_s": total("verify.audit"),
        "verify.check_feasible_s": total("verify.check_feasible"),
        "verify.bound_decision_s": total("verify.bound_decision"),
    }
    for caller, n in flow_calls.items():
        out[f"flows.calls.{caller}"] = n
    return out
