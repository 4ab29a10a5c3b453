"""The mso2dd benchmark: run one workload for a fixed time and report.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Each repetition runs in a fresh interpreter (`bench/worker.py`), one after
another: a closed loop with a single caller and one operation at a time, the
way the command line is used. Repetitions start until the next one would end
after `--seconds`, with at least three (four with `--trace 1`, half of them
traced). End-to-end metrics are medians over untraced repetitions, with times
adjusted to a reference pace of the machine (see `worker.py`); the traced
run reports per-layer metrics instead, plus the tracing overhead.

The output is a human-readable table, then, as the last line, one JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`. Per-repetition
records, provenance and every recorded span go to `.bench_out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from tracing import PER_LAYER  # noqa: E402
from worker import PACE_REF_S  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = {
    "compile_s": "s",
    "query_s": "s",
    "enumerate_s": "s",
    "verify_s": "s",
    "diagram_size": "nodes",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
MIN_REPS = 3  # untraced; a traced run makes at least four, in the order U T T U
WALL_LIMIT_S = 170  # every run must finish well inside 180 s


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))


def run_worker(spec: dict, timeout: float) -> dict:
    spec = dict(spec, t0=time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), json.dumps(spec)],
            cwd=ROOT, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"worker exceeded {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    return json.loads(lines[-1])


def e2e_total(rec: dict) -> float:
    return sum(rec[k] for k in ("compile_s", "query_s", "enumerate_s", "verify_s"))


def summary(values) -> str:
    return f"median of {len(values)} (min {min(values):.6g}, max {max(values):.6g})"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="desk-size inputs, for the smoke test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "mso2dd" / "__init__.py").is_file():
        print(f"error: no mso2dd sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    spec = {"workload": args.workload, "seed": args.seed, "toy": args.toy}
    started = time.monotonic()
    plain: list[dict] = []
    traced: list[dict] = []
    crashes: list[str] = []
    durations: list[float] = []
    min_reps = 4 if args.trace else MIN_REPS
    while True:
        elapsed = time.monotonic() - started
        guess = statistics.mean(durations) if durations else 0.0
        done = len(plain) + len(traced) + len(crashes)
        if done >= min_reps and elapsed + guess > args.seconds:
            break
        if elapsed + guess > WALL_LIMIT_S or (crashes and done >= min_reps):
            break
        # untraced and traced repetitions alternate U T T U, so a steady drift
        # of the machine's pace cancels out of the tracing overhead
        trace = 1 if args.trace and done % 4 in (1, 2) else 0
        t = time.monotonic()
        rec = run_worker(dict(spec, trace=trace), WALL_LIMIT_S - elapsed)
        durations.append(time.monotonic() - t)
        if "error" in rec:
            crashes.append(rec["error"])
        else:
            (traced if trace else plain).append(rec)

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "toy": args.toy,
        "src_lines": src_lines(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "recursion_limit": plain[0]["recursion_limit"] if plain else None,
        "repetitions": {"untraced": len(plain), "traced": len(traced), "crashed": len(crashes)},
    }
    records = plain + traced
    attempted = sum(r["attempted"] for r in records) + len(crashes)
    failed = sum(r["failed"] for r in records) + len(crashes)
    errors = list(crashes)
    for r in records:
        errors.extend(r["errors"])
    if any(r["fingerprint"] != records[0]["fingerprint"] for r in records):
        errors.append("sizes, bytes or answers differ between repetitions")
    if any(r["reach"] != records[0]["reach"] for r in records):
        errors.append("reach-set outcome differs between repetitions")

    lines = [
        f"workload {args.workload}  seed {args.seed}  trace {args.trace}",
        "provenance " + " ".join(f"{k}={v}" for k, v in provenance.items()),
    ]
    metrics: dict[str, dict] = {}
    if plain:
        for name, unit in END_TO_END.items():
            values = [r[name] for r in plain]
            metrics[name] = {"value": statistics.median(values), "unit": unit}
            line = f"{name:<16} {metrics[name]['value']:<14.6g} {unit:<6} {summary(values)}"
            if name in plain[0]["raw"]:
                line += f"; wall time {statistics.median(r['raw'][name] for r in plain):.6g} s"
            lines.append(line)
        pace = statistics.median(r["pace_s"] for r in plain)
        lines.append(f"times above are at the reference pace; this run's pace slice took "
                     f"{pace * 1000:.4g} ms against {PACE_REF_S * 1000:.4g} ms")
    lines.append(f"{'fail_rate':<16} {failed / max(attempted, 1):<14.6g} {'ratio':<6} "
                 f"{failed} failed of {attempted} operations attempted")
    reach = records[0]["reach"] if records else {}
    if reach.get("reach.attempted"):
        lines.append(f"{'reach':<16} {reach['reach.recursion_errors']} of {reach['reach.attempted']} "
                     f"reach-set instances raised RecursionError (not counted in fail_rate)")

    if args.trace:
        metrics = {}
        if traced and plain:
            layer_names = [n for n in PER_LAYER if not n.startswith("trace.")]
            for name in layer_names:
                values = [r["layers"][name] for r in traced]
                value = statistics.median(values)
                if PER_LAYER[name] not in ("s", "1/s", "ratio"):  # counts repeat exactly
                    value = values[0]
                    if len(set(values)) > 1:
                        errors.append(f"count {name} differs between repetitions: {values}")
                metrics[name] = {"value": value, "unit": PER_LAYER[name]}
            overhead = statistics.median(map(e2e_total, traced)) - statistics.median(map(e2e_total, plain))
            metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
            metrics["trace.pace_s"] = {"value": statistics.median(r["pace_s"] for r in traced), "unit": "s"}
            lines.append(f"per-layer metrics, median of {len(traced)} traced repetitions:")
            lines.extend(f"  {n:<28} {m['value']:<14.6g} {m['unit']}" for n, m in metrics.items())
        else:
            errors.append("no traced repetition completed")

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps({
        "provenance": provenance,
        "metrics": metrics,
        "errors": errors,
        "repetitions": [{k: v for k, v in r.items() if k != "spans"} for r in records],
        "spans": [r["spans"] for r in traced],
    }))
    lines.append(f"records and spans written to {out_file.relative_to(ROOT)}")
    for e in errors[:20]:
        lines.append("error: " + e.strip().replace("\n", " | "))

    correct = not errors and failed == 0 and bool(metrics)
    print("\n".join(lines))
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
