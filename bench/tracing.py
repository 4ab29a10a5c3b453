"""In-memory spans and counts around calls into the layers of `mso2dd`.

A traced call records (name, start, end, parent span, operation id). Each
function is wrapped where its caller looks it up: the functions the benchmark
calls itself are wrapped in the worker's own table, and the ones the
compilers call are patched in the compiler's module, because `mso2dd.sdd` and
`mso2dd.obdd` import them into their own namespaces.
"""

from __future__ import annotations

import contextlib
import importlib
import time

# (module, attribute, span name) for functions called from inside the compilers
INNER_LAYERS = (
    ("mso2dd.sdd", "forget_plan", "states.forget_plan_s"),
    ("mso2dd.sdd", "reachable_states", "states.reachable_s"),
    ("mso2dd.sdd", "context_assignment_mapping", "sdd.context_s"),
    ("mso2dd.sdd", "state_table_mapping", "sdd.mapping_s"),
    ("mso2dd.obdd", "forget_plan", "states.forget_plan_s"),
    ("mso2dd.obdd", "reachable_states", "states.reachable_s"),
    ("mso2dd.obdd", "reduce_obdd", "obdd.reduce_s"),
)

# Per-layer metrics: name -> unit. Times are self time summed per workload.
PER_LAYER = {
    "mso.parse_s": "s",
    "graph.build_s": "s",
    "decomposition.parse_s": "s",
    "decomposition.validate_s": "s",
    "decomposition.min_fill_s": "s",
    "decomposition.make_nice_s": "s",
    "decomposition.coloring_s": "s",
    "decomposition.width": "count",
    "decomposition.nice_nodes": "count",
    "decomposition.joins": "count",
    "states.forget_plan_s": "s",
    "states.reachable_s": "s",
    "states.reachable": "count",
    "states.max_per_node": "count",
    "states.sum_per_node": "count",
    "states.forget_entries": "count",
    "states.join_entries": "count",
    "states.entries_per_s": "1/s",
    "sdd.build_s": "s",
    "sdd.mapping_s": "s",
    "sdd.context_s": "s",
    "sdd.size": "nodes",
    "sdd.decomp_nodes": "count",
    "sdd.vtree_nodes": "count",
    "sdd.pairs_requested": "count",
    "sdd.size_per_pair": "ratio",
    "obdd.build_s": "s",
    "obdd.reduce_s": "s",
    "obdd.size": "nodes",
    "obdd.levels": "count",
    "serialize.dump_s": "s",
    "serialize.load_s": "s",
    "serialize.bytes": "B",
    "query.sat_s": "s",
    "query.count_s": "s",
    "query.min_card_s": "s",
    "query.enumerate_s": "s",
    "oracle.truth_table_s": "s",
    "oracle.diagram_table_s": "s",
    "oracle.assignments": "count",
    "bound.log10_ratio": "log10",
    "reach.attempted": "count",
    "reach.recursion_errors": "count",
    "trace.overhead_s": "s",
    "trace.pace_s": "s",
}

# counts that combine by maximum rather than by sum
MAXIMA = ("decomposition.width", "states.max_per_node", "bound.log10_ratio")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self.op: str | None = None
        self._open: list[int] = []
        self._paused = False

    def _start(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def _end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str, op: str):
        """A span around one operation; the spans opened inside it inherit op."""
        self.op = op
        idx = self._start(name)
        try:
            yield
        finally:
            self._end(idx)

    @contextlib.contextmanager
    def paused(self):
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def count(self, name: str, value) -> None:
        if name in MAXIMA:
            self.counts[name] = max(self.counts.get(name, value), value)
        else:
            self.counts[name] = self.counts.get(name, 0) + value

    def wrap(self, name: str, fn, hook=None):
        """Span around every call of fn; hook(tracer, args, result) records counts."""

        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            idx = self._start(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(idx)
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    def self_times(self) -> dict[str, float]:
        """Span duration minus the part its child spans cover, summed by name."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out: dict[str, float] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - covered[i]
        return out


# -- count hooks: (tracer, call args, result) ---------------------------------


def on_reachable(tr: Tracer, args, reach) -> None:
    sizes = [len(states) for states in reach.per_node.values()]
    tr.count("states.reachable", reach.count)
    tr.count("states.sum_per_node", sum(sizes))
    tr.count("states.max_per_node", max(sizes))
    tr.count("states.forget_entries", sum(len(t) for t in reach.forget_tables.values()))
    tr.count("states.join_entries", sum(len(t) for t in reach.join_tables.values()))


def on_mapping(tr: Tracer, args, mapping) -> None:
    _builder, g_a, _g_b, _table, out_states = args[:5]
    tr.count("sdd.pairs_requested", len(tuple(out_states)) * len(g_a.states()))


def on_make_nice(tr: Tracer, args, nice) -> None:
    tr.count("decomposition.width", nice.width())
    tr.count("decomposition.nice_nodes", len(nice))
    tr.count("decomposition.joins", sum(1 for n in nice.nodes.values() if n.kind == "join"))


def on_dump(tr: Tracer, args, text) -> None:
    tr.count("serialize.bytes", len(text.encode()))


def on_oracle_table(tr: Tracer, args, table) -> None:
    tr.count("oracle.assignments", 1 << len(tuple(args[2])))


HOOKS = {
    "states.reachable_s": on_reachable,
    "sdd.mapping_s": on_mapping,
    "decomposition.make_nice_s": on_make_nice,
    "serialize.dump_s": on_dump,
    "oracle.truth_table_s": on_oracle_table,
}


def install_inner(tracer: Tracer) -> None:
    for module_name, attr, name in INNER_LAYERS:
        module = importlib.import_module(module_name)
        setattr(module, attr, tracer.wrap(name, getattr(module, attr), HOOKS.get(name)))


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric except the reach set and the tracing overhead,
    which the worker and the driver fill in."""
    out = {name: 0.0 for name in PER_LAYER if PER_LAYER[name] == "s"}
    out.update({name: 0 for name in PER_LAYER if PER_LAYER[name] != "s"})
    for name, value in tracer.self_times().items():
        if name in out:
            out[name] = value
    out.update(tracer.counts)
    entries = out["states.forget_entries"] + out["states.join_entries"]
    out["states.entries_per_s"] = entries / out["states.reachable_s"] if out["states.reachable_s"] else 0.0
    pairs = out["sdd.pairs_requested"]
    out["sdd.size_per_pair"] = out["sdd.size"] / pairs if pairs else 0.0
    return out
