#!/usr/bin/env python3
"""specrank benchmark: one workload per run, every output checked.

    python3 specbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 specbench/run.py --list

Run from the repository root; specrank is imported from ``src/``. BLAS is
pinned to one thread in this process. With ``--trace 0`` the run times ops
back to back for a third of ``--seconds``, times the same ops in two more
passes, and prints the end-to-end metrics from each op's least time: the
machine's speed swings by tens of percent within seconds, and the least of
three timings spread over the run is far steadier than any single one. With
``--trace 1`` it times ops untraced for half of ``--seconds``, then replays
the same ops with every layer wrapped (see ``tracing.py``) and prints the
per-layer metrics. Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. ``failed`` counts ops that gave no verified
answer: an exception, a typed numeric failure, or a wrong answer.
``correct`` is false when any op gave a wrong answer or the campaign's
per-trial reports do not merge to the whole-range bytes.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before anything imports numpy
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".specbench"

WORKLOADS = {
    "campaign_counting": (
        "nine non-contour properties in DEFAULT_TRIALS mix: rank certification, "
        "counting votes, spectrum/eig/cluster and Element churn; riesz_projection "
        "is never called"),
    "campaign_contour": (
        "the four properties that go through the Riesz contour, in DEFAULT_TRIALS "
        "mix; riesz_projection has the largest self-time share, the target of "
        "batched contour solves"),
    "check": (
        "one user checking one element: in-process cli check on socle elements of "
        "shapes (3,5,2,6), (6,6,6,6), (16,8); one op in 8 is a graded or "
        "near-coalescing element"),
}

# Ops whose exact counts give calls_per_op and the ratios in a traced run.
COUNT_OPS = {"campaign_counting": 400, "campaign_contour": 200, "check": 64}
SETUP_REPEATS = 5
# Timed passes over the same ops in an untraced run.
PASSES = 3

# name -> (unit, better, definition); an op's latency is the least of its
# PASSES timings
END_TO_END = {
    "ops_per_s": ("1/s", "higher", "ops / summed op latency"),
    "op_p50_ms": ("ms", "lower", "median op latency"),
    "op_p99_ms": ("ms", "lower",
                  "p99 op latency, or the highest percentile with 10 ops beyond it"),
    "setup_s": ("s", "lower", f"median of {SETUP_REPEATS} fresh processes: imports, "
                "workload build and warm-up"),
    "peak_rss_mb": ("MB", "lower", "peak resident set size of the benchmark process"),
}

# A fresh interpreter that imports, builds and warms up one workload; prints
# the seconds it took.
_SETUP_PROBE = """
import sys, tempfile, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import run
sys.path.insert(0, str(run.SRC))
with tempfile.TemporaryDirectory(dir=run.work_root()) as workdir:
    run.warm_up(run.open_workload(sys.argv[2], int(sys.argv[3]), workdir))
print(time.perf_counter() - t0)
"""


def per_layer_metrics() -> dict[str, tuple[str, str, str]]:
    from tracing import LAYERS, RATIOS, SPAN_NAMES

    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls_per_op"] = ("count", "lower", "calls per op")
        metrics[f"{name}.self_ms_per_op"] = ("ms", "lower", "self time per op")
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = ("ratio", "lower",
                                          "share of traced op time spent in the layer")
    for name, (num, den) in RATIOS.items():
        unit = "count" if name.endswith("_per_call") or name.endswith("_per_value") else "ratio"
        metrics[name] = (unit, "lower", f"{num} / {den}")
    metrics["trace.overhead_frac"] = ("ratio", "lower",
                                      "traced wall time / untraced wall time - 1, same ops")
    metrics["failed_frac"] = ("ratio", "lower", "failed ops / attempted ops")
    metrics["skipped_frac"] = ("ratio", "lower",
                               "trials skipped through generator exhaustion / attempted ops")
    return metrics


def print_list():
    print("workloads (closed loop, one client):")
    for name, why in WORKLOADS.items():
        print(f"  {name:18s} {why}")
    print(f"end-to-end metrics (--trace 0; an op's latency is the least of its "
          f"{PASSES} timed passes):")
    for name, (unit, better, what) in END_TO_END.items():
        print(f"  {name:18s} [{unit}, {better} is better] {what}")
    print("per-layer metrics (--trace 1):")
    for name, (unit, better, what) in per_layer_metrics().items():
        print(f"  {name:50s} [{unit}, {better} is better] {what}")


def work_root() -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    return OUT_DIR


def open_workload(name: str, seed: int, workdir: str, report_ops: int = 200):
    import workloads  # imports specrank, so only once src/ is on the path

    if name == "check":
        return workloads.Check(seed, workdir)
    properties = workloads.COUNTING if name == "campaign_counting" else workloads.CONTOUR
    return workloads.Campaign(properties, seed, report_ops)


def warm_up(workload):
    run_ops(workload, workload.ops(warmup=True))


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "threads": {var: os.environ.get(var) for var in THREAD_VARS},
            "cpu_count": os.cpu_count(),
            "cpu_affinity": len(os.sched_getaffinity(0))}


def measure_setup(workload_name: str, seed: int) -> list[float]:
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", _SETUP_PROBE, str(BENCH_DIR), workload_name, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.split()[-1]))
    return times


def run_ops(workload, ops, seconds=float("inf"), min_ops=0, tracer=None):
    """Run ops back to back until ``seconds`` have passed and at least
    ``min_ops`` are done. Returns ``(op, label, seconds, status)`` records,
    where status is None, ``"skipped"`` or a failure kind."""
    records = []
    deadline = perf_counter() + seconds
    for index, op in enumerate(ops):
        if len(records) >= min_ops and perf_counter() >= deadline:
            break
        label = workload.prepare(op)
        if tracer is not None:
            tracer.begin_op(index)
        start = perf_counter()
        try:
            result = workload.run(op)
        except Exception as exc:  # a failed op is counted, not fatal
            elapsed = perf_counter() - start
            if not any(r[3] not in (None, "skipped") for r in records):
                traceback.print_exc()
            records.append((op, label, elapsed, type(exc).__name__))
            continue
        elapsed = perf_counter() - start
        records.append((op, label, elapsed, workload.check(op, result)))
    return records


def timed_passes(workload, seconds: float) -> list:
    """Time the ops of the first pass (``seconds / PASSES`` long) again in
    each later pass; an op's latency is the least of its timings, and its
    status the first failure any pass saw."""
    passes = [run_ops(workload, workload.ops(), seconds / PASSES)]
    ops = [r[0] for r in passes[0]]
    passes += [run_ops(workload, ops) for _ in range(PASSES - 1)]
    records = []
    for timings in zip(*passes):
        op, label = timings[0][:2]
        failure = next((r[3] for r in timings if r[3] not in (None, "skipped")), None)
        records.append((op, label, min(r[2] for r in timings),
                        failure or timings[0][3]))
    return records


def tail_ms(latencies: list[float]) -> tuple[float, float]:
    """p99, or the highest percentile that keeps 10 samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    beyond = max(10, n // 100)
    if n <= beyond:
        return 1e3 * ordered[-1], 1.0
    return 1e3 * ordered[n - 1 - beyond], (n - beyond) / n


def outcome(records) -> tuple[int, Counter, int]:
    statuses = Counter(r[3] for r in records if r[3] is not None)
    skipped = statuses.pop("skipped", 0)
    return sum(statuses.values()), statuses, skipped


def summarize(records) -> dict:
    latencies = [r[2] for r in records]
    failed, kinds, skipped = outcome(records)
    p99, pct = tail_ms(latencies)
    n = len(records)
    print(f"ops={n} failed={failed} failed_frac={failed / n:.4f} "
          f"skipped={skipped} skipped_frac={skipped / n:.4f} "
          f"failures_by_type={json.dumps(dict(sorted(kinds.items())))}")
    per_label: dict[str, list[float]] = {}
    for r in records:
        per_label.setdefault(r[1], []).append(r[2])
    for label, times in sorted(per_label.items()):
        print(f"  {label:28s} ops={len(times):5d} mean_ms={1e3 * statistics.fmean(times):8.3f}")
    failures = [[r[1], r[0], r[3]] for r in records if r[3] not in (None, "skipped")]
    if failures:
        print(f"failed ops (label, op, kind), first 20: {json.dumps(failures[:20])}")
    print(f"tail percentile used for op_p99_ms: {100 * pct:.2f} ({n} ops)")
    return {"ops_per_s": n / sum(latencies),
            "op_p50_ms": 1e3 * statistics.median(latencies),
            "op_p99_ms": p99}


def verify(workload_name, workload) -> bool:
    """Workload-wide checks after the timed ops; True when they pass."""
    if workload_name == "check":
        probe = workload.probe()
        print(f"hard-family probe (not timed, not counted): {json.dumps(probe, sort_keys=True)}")
        return True
    result = workload.verify()
    print(f"campaign report: trials={result['report_trials']} "
          f"sha256={result['report_sha256']} "
          f"per-trial merge identical to whole range: {result['merge_identical']}")
    return result["merge_identical"]


def traced_metrics(workload_name, workload, seconds, count_ops, seed) -> tuple[list, dict]:
    from tracing import LAYERS, RATIOS, SPAN_NAMES, Tracer

    wall = perf_counter()
    records = run_ops(workload, workload.ops(), seconds / 2, min_ops=count_ops)
    untraced_wall = perf_counter() - wall
    ops = [r[0] for r in records]
    count_ops = min(count_ops, len(ops))

    tracer = Tracer()
    prefix = {}

    def ops_with_snapshot():
        for index, op in enumerate(ops):
            if index == count_ops:
                prefix.update(tracer.counts)
            yield op

    tracer.install()
    try:
        wall = perf_counter()
        traced = run_ops(workload, ops_with_snapshot(), tracer=tracer)
        traced_wall = perf_counter() - wall
    finally:
        tracer.uninstall()
    if not prefix:
        prefix.update(tracer.counts)

    n = len(traced)
    op_time = sum(r[2] for r in traced)
    metrics = {}
    for nid, name in enumerate(SPAN_NAMES):
        metrics[f"{name}.calls_per_op"] = prefix.get(name, 0) / count_ops
        metrics[f"{name}.self_ms_per_op"] = 1e3 * tracer.self_s[nid] / n
    for layer in LAYERS:
        layer_s = sum(s for name, s in zip(SPAN_NAMES, tracer.self_s)
                      if name.startswith(layer + "."))
        metrics[f"{layer}.self_share"] = layer_s / op_time
    for name, (num, den) in RATIOS.items():
        metrics[name] = prefix.get(num, 0) / prefix[den] if prefix.get(den) else 0.0
    metrics["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    failed, _, skipped = outcome(records)
    metrics["failed_frac"] = failed / len(records)
    metrics["skipped_frac"] = skipped / len(records)

    errors = {k: v for k, v in sorted(prefix.items()) if ":" in k}
    print(f"traced: {n} ops replayed, counts over the first {count_ops}, "
          f"untraced wall {untraced_wall:.3f} s, traced wall {traced_wall:.3f} s, "
          f"{len(tracer.span_start)} spans, exceptions by span {json.dumps(errors)}")
    op_table = [[workload_name, r[1], r[0]] for r in traced]
    path = work_root() / f"spans-{workload_name}-{seed}.npz"
    tracer.write_spans(path, op_table)
    print(f"spans written to {path.relative_to(ROOT)}")
    return records, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="specrank benchmark")
    parser.add_argument("--list", action="store_true",
                        help="name every workload and metric, then exit")
    parser.add_argument("--workload", choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "specrank" / "__init__.py").is_file():
        print(f"error: no specrank package under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.list:
        print_list()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"environment: {json.dumps(environment(), sort_keys=True)}")
    setup = None if args.trace else measure_setup(args.workload, args.seed)
    with tempfile.TemporaryDirectory(dir=work_root()) as workdir:
        workload = open_workload(args.workload, args.seed, workdir)
        warm_up(workload)
        if args.trace:
            records, metrics = traced_metrics(args.workload, workload, args.seconds,
                                              COUNT_OPS[args.workload], args.seed)
        else:
            records = timed_passes(workload, args.seconds)
            metrics = summarize(records)
            metrics["setup_s"] = statistics.median(setup)
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            print(f"setup samples (s): {[round(t, 4) for t in setup]}")
        consistent = verify(args.workload, workload)

    from workloads import WRONG_OUTPUT

    failed, kinds, _ = outcome(records)
    units = per_layer_metrics() if args.trace else END_TO_END
    wrong = any(kind in WRONG_OUTPUT for kind in kinds)
    result = {"correct": consistent and not wrong, "attempted": len(records),
              "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": units[name][0]}
                          for name in units}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
