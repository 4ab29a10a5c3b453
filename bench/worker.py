"""One repetition of one workload, in a fresh interpreter.

Run by `bench/run.py` as `python3 bench/worker.py '<json spec>'`. It imports
`mso2dd` from the checkout's `src/`, parses the generated inputs, then does
what `mso2dd compile`, `query` and `verify` do for each instance, one
operation at a time, and checks every answer against a reference that does
not come from the compiler. The last line of its output is one JSON object.

A fresh process per repetition matters: `mso2dd.states` interns states in a
module-level table that is never cleared, so in-process repeats would
measure a warm table. The recursion limit is left at the interpreter's
default.
"""

from __future__ import annotations

import bisect
import contextlib
import json
import math
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

E2E_TIMES = ("compile_s", "query_s", "enumerate_s", "verify_s")
# Times are adjusted to a reference pace of the machine: a pace slice (a
# fixed integer loop) takes PACE_REF_S seconds at that pace. Slices are taken
# between operations, at most one per PACE_GAP_S, and three after an
# operation of LONG_OP_S or more; an operation's pace is the mean of the
# slices within PACE_WINDOW_S before it and the mean of those after it.
PACE_ITERATIONS = 20_000
PACE_REF_S = 0.0025
PACE_GAP_S = 0.04
LONG_OP_S = 0.2
PACE_WINDOW_S = 0.25


def load_api(tracer):
    """The functions the benchmark calls, wrapped in spans when tracing."""
    import mso2dd
    from mso2dd import oracle

    layers = {
        "parse_formula": ("mso.parse_s", mso2dd.parse_formula),
        "desugar": ("mso.parse_s", mso2dd.desugar),
        "parse_graph": ("graph.build_s", mso2dd.parse_graph),
        "parse_tree_decomposition": ("decomposition.parse_s", mso2dd.parse_tree_decomposition),
        "validate_decomposition": ("decomposition.validate_s", mso2dd.validate_decomposition),
        "min_fill_decomposition": ("decomposition.min_fill_s", mso2dd.min_fill_decomposition),
        "make_nice": ("decomposition.make_nice_s", mso2dd.make_nice),
        "good_coloring": ("decomposition.coloring_s", mso2dd.good_coloring),
        "compile_sdd": ("sdd.build_s", mso2dd.compile_sdd),
        "compile_obdd": ("obdd.build_s", mso2dd.compile_obdd),
        "serialize_diagram": ("serialize.dump_s", mso2dd.serialize_diagram),
        "load_diagram": ("serialize.load_s", mso2dd.load_diagram),
        "is_satisfiable": ("query.sat_s", oracle.is_satisfiable),
        "model_count": ("query.count_s", mso2dd.model_count),
        "min_cardinality_model": ("query.min_card_s", mso2dd.min_cardinality_model),
        "enumerate_models": ("query.enumerate_s", mso2dd.enumerate_models),
        "truth_table_oracle": ("oracle.truth_table_s", oracle.truth_table_oracle),
        "truth_table": ("oracle.diagram_table_s", oracle.truth_table),
    }
    if tracer is None:
        funcs = {key: fn for key, (_, fn) in layers.items()}
    else:
        funcs = {key: tracer.wrap(name, fn, tracing.HOOKS.get(name)) for key, (name, fn) in layers.items()}
    return SimpleNamespace(**funcs)


def pace_slice() -> float:
    """Seconds for a fixed integer loop. It allocates nothing the garbage
    collector tracks and touches almost no memory, so its time follows the
    machine's pace rather than the state of the program's heap."""
    start = time.perf_counter()
    x = 0
    for i in range(PACE_ITERATIONS):
        x = (x * 31 + i) & 0xFFFFFFFF
    return time.perf_counter() - start


def legend_bits(legend, alpha) -> tuple:
    """The bit string a decoded model sets over the legend, computed here
    rather than by the program's encoder."""
    bits = []
    for dv in legend:
        value = alpha[dv.var]
        bits.append(int(value == dv.obj) if dv.kind == "eq" else int(dv.obj in value))
    return tuple(bits)


class Repetition:
    def __init__(self, mso2dd, api, tracer) -> None:
        self.mso2dd = mso2dd
        self.api = api
        self.tracer = tracer
        self.intervals: list[tuple[str, str, float, float]] = []
        self.slices: list[tuple[float, float]] = []  # (taken at, seconds)
        self.diagram_size = 0
        self.attempted = 0
        self.failed_ops: set[str] = set()
        self.errors: list[str] = []
        self.fingerprint: dict[str, list] = {}

    # -- bookkeeping ---------------------------------------------------------

    def sample_pace(self, force: bool = False) -> None:
        now = time.perf_counter()
        if force or now - self.slices[-1][0] >= PACE_GAP_S:
            self.slices.append((now, pace_slice()))

    @contextlib.contextmanager
    def op(self, metric: str, op_id: str):
        """Count one operation and record when it ran, under a metric; pace
        slices are taken around it."""
        self.attempted += 1
        self.sample_pace()
        span = self.tracer.span("op", op_id) if self.tracer else contextlib.nullcontext()
        with span:
            start = time.perf_counter()
            try:
                yield
            finally:
                end = time.perf_counter()
                self.intervals.append((metric, op_id, start, end))
        if end - start >= LONG_OP_S:
            for _ in range(3):
                self.sample_pace(force=True)
        else:
            self.sample_pace()

    def pace(self) -> float:
        return statistics.median(d for _, d in self.slices)

    def pace_at(self, stamps: list[float], start: float, end: float) -> float:
        """Seconds per pace slice around one operation: the slices taken
        within PACE_WINDOW_S before it (at least the latest one) and after it
        (at least the earliest one), each side weighted equally."""
        i = bisect.bisect_right(stamps, start)  # slices[:i] came before the operation
        lo = min(bisect.bisect_left(stamps, start - PACE_WINDOW_S), i - 1)
        before = self.slices[max(lo, 0):max(i, 1)]
        j = min(bisect.bisect_left(stamps, end), len(stamps) - 1)  # slices[j:] came after
        hi = max(bisect.bisect_right(stamps, end + PACE_WINDOW_S), j + 1)
        after = self.slices[j:hi]
        return (statistics.fmean(d for _, d in before) + statistics.fmean(d for _, d in after)) / 2

    def times(self, adjusted: bool) -> dict[str, float]:
        """Per metric, the sum over operations of their median pass time
        times the number of passes: a pause that lands in one short pass
        does not move the total. Adjusted times scale each pass to the
        reference pace."""
        stamps = [t for t, _ in self.slices]
        samples: dict[tuple[str, str], list[float]] = {}
        for metric, op_id, start, end in self.intervals:
            scale = PACE_REF_S / self.pace_at(stamps, start, end) if adjusted else 1.0
            samples.setdefault((metric, op_id), []).append((end - start) * scale)
        out = dict.fromkeys(E2E_TIMES, 0.0)
        for (metric, _), values in samples.items():
            out[metric] += statistics.median(values) * len(values)
        return out

    def fail(self, op_id: str, message: str) -> None:
        self.failed_ops.add(op_id)
        self.errors.append(f"{op_id}: {message}")

    def check(self, ok: bool, op_id: str, message: str) -> None:
        if not ok:
            self.fail(op_id, message)

    # -- the pipeline, as the command line runs it ----------------------------

    def parse(self, inst):
        api = self.api
        raw = api.parse_formula(inst.formula)
        phi = api.desugar(raw)
        g = api.parse_graph(inst.graph_text)
        td = api.parse_tree_decomposition(inst.td) if inst.td is not None else None
        return raw, phi, g, td

    def compile(self, parsed, target: str):
        """`mso2dd compile`: decomposition, nice form, colouring, compile,
        serialized text. `auto` picks the OBDD when the nice form is join-free."""
        api, m = self.api, self.mso2dd
        _, phi, g, td = parsed
        if td is not None:
            report = api.validate_decomposition(g, td)
            if not report.valid:
                raise m.Mso2ddError("supplied decomposition invalid")
        else:
            td = api.min_fill_decomposition(g)
        nice = api.make_nice(g, td)
        coloring = api.good_coloring(g, nice)
        join_free = m.is_path_decomposition(nice)
        if target == "auto":
            target = "obdd" if join_free else "sdd"
        if target == "obdd":
            if not join_free:
                raise m.Mso2ddError("path decomposition required for the obdd target")
            comp = api.compile_obdd(phi, g, nice, coloring)
        else:
            comp = api.compile_sdd(phi, g, nice, coloring)
        return target, comp, api.serialize_diagram(comp), nice

    def query(self, text: str, inst):
        """`mso2dd query`: load, then sat, count and min-card."""
        api = self.api
        diagram = api.load_diagram(text)
        sat = api.is_satisfiable(diagram)
        count = api.model_count(diagram)
        named = lambda names: [  # noqa: E731
            d for d in diagram.legend if d.var is not None and d.var.name in names
        ]
        forced = {d: 0 for d in named(inst.min_card_forced)}
        try:
            min_card = api.min_cardinality_model(diagram, named(inst.min_card_targets), forced)
        except self.mso2dd.Mso2ddError:
            min_card = None  # no model under the pinned variables
        return diagram, sat, count, min_card

    def verify(self, diagram, parsed):
        """`mso2dd verify`: oracle truth table against the diagram's."""
        _, phi, g, _ = parsed
        dvars = self.mso2dd.decision_variables(phi, g)
        if set(diagram.legend) != set(dvars):
            raise self.mso2dd.Mso2ddError("diagram legend does not match the instance")
        expected = self.api.truth_table_oracle(phi, g, dvars)
        actual = self.api.truth_table(diagram, dvars)
        return dvars, expected, expected == actual

    # -- compile everything, then query in rounds -------------------------------

    def compile_instance(self, inst, parsed) -> list:
        """Compile to each requested target; returns (inst, parsed, target, text)
        per diagram made."""
        targets = ("sdd", "obdd") if inst.targets == "both" else (inst.targets,)
        made = []
        for requested in targets:
            op_id = f"{inst.name}/{requested}/compile"
            try:
                with self.op("compile_s", op_id):
                    target, comp, text, nice = self.compile(parsed, requested)
            except Exception:  # a failed operation is counted; the run goes on
                self.fail(op_id, traceback.format_exc(limit=3))
                continue
            self.record_compile(inst, parsed, target, comp, text, nice)
            made.append((inst, parsed, target, text))
            if inst.targets == "both" and not self.mso2dd.is_path_decomposition(nice):
                break  # the OBDD needs a join-free decomposition
        return made

    def record_compile(self, inst, parsed, target, comp, text, nice) -> None:
        m = self.mso2dd
        size = m.sdd_size(comp.root) if target == "sdd" else m.obdd_size(comp.obdd)
        self.diagram_size += size
        self.fingerprint[f"{inst.name}/{target}"] = [size, len(text)]
        if self.tracer is None:
            return
        tr = self.tracer
        _, phi, g, _ = parsed
        n, k, states = g.n_objects, nice.width() + m.formula_size(phi), comp.reachable.count
        if target == "sdd":
            from mso2dd.sdd import DECOMP, iter_sdd_nodes

            tr.count("sdd.size", size)
            tr.count("sdd.vtree_nodes", len(comp.vtree))
            tr.count("sdd.decomp_nodes", sum(1 for x in iter_sdd_nodes(comp.root) if x.kind == DECOMP))
            bound = n * (12 * states**3 + 2 * k) * 2 ** (k * k)  # README's SDD bound
        else:
            tr.count("obdd.size", size)
            tr.count("obdd.levels", len(comp.order))
            bound = n * 2 * k * states * 2 ** (k * k)  # README's OBDD bound
        tr.count("bound.log10_ratio", math.log10(size) - math.log10(bound))

    def query_rounds(self, diagrams) -> None:
        """Run every diagram's passes in rounds, each diagram's spread evenly
        over the rounds: a one-pass diagram runs in the middle round. So the
        many short passes of the small diagrams surround the long operations
        of the large ones, and their median spans the whole repetition
        rather than one moment of the machine's pace."""
        rounds = max((d[0].passes for d in diagrams), default=0)
        first: dict[str, dict] = {}
        for k in range(rounds):
            for inst, parsed, target, text in diagrams:
                p = inst.passes
                if k not in {(2 * j + 1) * rounds // (2 * p) for j in range(p)}:
                    continue
                answer = self.query_pass(inst, parsed, target, text)
                if target not in first.setdefault(inst.name, {}):
                    first[inst.name][target] = answer
                    self.fingerprint[f"{inst.name}/{target}"].append(answer)
        for name, per_target in first.items():
            counts = {t: a and a[0] for t, a in per_target.items()}
            if len(counts) == 2:
                self.check(len(set(counts.values())) == 1, f"{name}/both", f"targets disagree: {counts}")

    def query_pass(self, inst, parsed, target, text):
        """What separate `query` and `verify` calls do with the serialized
        diagram: load it afresh, answer, and check every answer. Returns
        (count, minimum), or None when the query failed."""
        op_id = f"{inst.name}/{target}"
        try:
            with self.op("query_s", op_id + "/query"):
                diagram, sat, count, min_card = self.query(text, inst)
        except Exception:
            self.fail(op_id + "/query", traceback.format_exc(limit=3))
            return None
        models = table = None
        if inst.enumerate_limit:
            try:
                with self.op("enumerate_s", op_id + "/enumerate"):
                    models = self.api.enumerate_models(diagram, inst.enumerate_limit)
            except Exception:
                self.fail(op_id + "/enumerate", traceback.format_exc(limit=3))
        if inst.verify:
            try:
                with self.op("verify_s", op_id + "/verify"):
                    dvars, table, equal = self.verify(diagram, parsed)
                self.check(equal, op_id + "/verify", "diagram differs from the oracle")
            except Exception:
                self.fail(op_id + "/verify", traceback.format_exc(limit=3))
        self.check_answers(inst, parsed, op_id, diagram, sat, count, min_card, models,
                           (dvars, table) if table is not None else None)
        return count, None if min_card is None else min_card[0]

    # -- reference checks -----------------------------------------------------

    def check_answers(self, inst, parsed, op_id, diagram, sat, count, min_card, models, oracle_table):
        raw, _, g, _ = parsed
        want_count, want_min = inst.count, inst.min_card
        ordered = None
        if oracle_table is not None:
            want_count, want_min, ordered = oracle_answers(inst, diagram.legend, *oracle_table)
        if want_count is None:
            self.fail(op_id, "no reference answer for this instance")
            return
        q = op_id + "/query"
        self.check(count == want_count, q, f"count {count} != {want_count}")
        self.check(sat == (want_count > 0), q, f"sat {sat} with {want_count} models")
        if min_card is None:
            self.check(want_min is None, q, f"min-card found no model, want {want_min}")
        else:
            cost, witness = min_card
            self.check(cost == want_min, q, f"min-card {cost} != {want_min}")
            self.check(self.mso2dd.oracle_eval(raw, g, witness), q, "min-card witness is no model")
            paid = sum(
                len(value) if isinstance(value, frozenset) else 1
                for var, value in witness.items()
                if var.name in inst.min_card_targets
            )
            self.check(paid == cost, q, f"witness pays {paid}, reported {cost}")
            self.check(
                all(not witness[var] for var in witness if var.name in inst.min_card_forced),
                q, "witness sets a pinned variable",
            )
        if models is not None:
            e = op_id + "/enumerate"
            bits = [legend_bits(diagram.legend, alpha) for alpha in models]
            self.check(len(models) == min(inst.enumerate_limit, want_count), e,
                       f"{len(models)} models enumerated")
            self.check(all(a < b for a, b in zip(bits, bits[1:])), e, "models out of legend order")
            self.check(all(self.mso2dd.oracle_eval(raw, g, alpha) for alpha in models), e,
                       "an enumerated model fails the oracle")
            if ordered is not None:
                self.check(bits == ordered[: inst.enumerate_limit], e, "not the first models in order")

    # -- reach set --------------------------------------------------------------

    def run_reach(self, reach) -> dict:
        """Compile and count; a RecursionError is the known depth limit and is
        tallied apart from failures, with its time kept out of every metric."""
        recursion = 0
        for inst in reach:
            op_id = f"reach/{inst.name}"
            try:
                parsed = self.parse(inst)
                _, comp, text, _ = self.compile(parsed, inst.targets)
                count = self.api.model_count(self.api.load_diagram(text))
            except RecursionError:
                recursion += 1
                continue
            except Exception:
                self.attempted += 1
                self.fail(op_id, traceback.format_exc(limit=3))
                continue
            if count != inst.count:
                self.attempted += 1
                self.fail(op_id, f"count {count} != {inst.count}")
        return {"reach.attempted": len(reach), "reach.recursion_errors": recursion}


def oracle_answers(inst, legend, dvars, table):
    """Count, min-card and models in legend order, read off the brute-force
    oracle's truth table (bit j of an index is dvars[j])."""
    position = {d: i for i, d in enumerate(dvars)}
    cols = [position[d] for d in legend]
    target_bits = [j for j, d in enumerate(dvars) if d.var.name in inst.min_card_targets]
    pinned = [j for j, d in enumerate(dvars) if d.var.name in inst.min_card_forced]
    count, best, keys = 0, None, []
    index = 0
    rest = table
    while rest:
        if rest & 1:
            count += 1
            keys.append(tuple(index >> c & 1 for c in cols))
            if not any(index >> j & 1 for j in pinned):
                cost = sum(index >> j & 1 for j in target_bits)
                best = cost if best is None else min(best, cost)
        rest >>= 1
        index += 1
    return count, best, sorted(keys)


def main() -> int:
    spec = json.loads(sys.argv[1])
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import mso2dd

    if Path(mso2dd.__file__).resolve().parent != (src / "mso2dd").resolve():
        print(f"error: mso2dd imported from {mso2dd.__file__}, not {src}", file=sys.stderr)
        return 2

    tracer = None
    if spec["trace"]:
        tracer = tracing.Tracer()
        tracer.op = "setup"
        tracing.install_inner(tracer)
    api = load_api(tracer)
    rep = Repetition(mso2dd, api, tracer)

    wl = workloads.build(spec["workload"], spec["seed"], spec["toy"])
    parsed = [rep.parse(inst) for inst in wl.instances]
    setup_s = time.monotonic() - spec["t0"]
    for _ in range(3):
        rep.sample_pace(force=True)
    setup_pace = rep.pace()

    diagrams = [d for inst, p in zip(wl.instances, parsed) for d in rep.compile_instance(inst, p)]
    rep.query_rounds(diagrams)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with tracer.paused() if tracer else contextlib.nullcontext():
        reach = rep.run_reach(wl.reach)

    result = {
        "setup_s": setup_s * PACE_REF_S / setup_pace,
        **rep.times(adjusted=True),
        "raw": {"setup_s": setup_s, **rep.times(adjusted=False)},
        "pace_s": rep.pace(),
        "diagram_size": rep.diagram_size,
        "peak_rss_mb": peak_rss_mb,
        "attempted": rep.attempted,
        "failed": len(rep.failed_ops),
        "errors": rep.errors,
        "fingerprint": rep.fingerprint,
        "reach": reach,
        "python": platform.python_version(),
        "recursion_limit": sys.getrecursionlimit(),
    }
    if tracer is not None:
        result["layers"] = {**tracing.layer_metrics(tracer), **reach}
        result["spans"] = tracer.spans
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
