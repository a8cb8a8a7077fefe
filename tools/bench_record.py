#!/usr/bin/env python3
"""Record benchmark runs of one or more checkouts into a BENCH file.

    python3 tools/bench_record.py --out BENCH.json \\
        --checkout parent=../parent --checkout change=. \\
        --workload campaign_counting --seed 41 --seconds 30 --pairs 10

For each workload, runs ``python3 specbench/run.py`` in every checkout:
``--pairs`` untraced runs (``--trace 0``) and ``--traced`` traced runs
(``--trace 1``). With several checkouts the untraced runs go in pairs whose
order alternates (A B, then B A), so a drift of the machine's speed favours
neither side. Each run's record holds the final JSON line the benchmark
prints, its environment record and, for the campaign workloads, the campaign
report SHA-256 and whether the per-trial reports merged to the same bytes.

Each checkout's default campaign (``specrank campaign --seed 20240``, BLAS on
one thread) is run once per ``source_sha256``: the SHA-256 of its report and
each property's wall time go under ``campaigns``, keyed by that digest. A
digest the ``--out`` file already holds is not run again.

An existing ``--out`` file is extended, not replaced, so the workloads can
be recorded one call at a time. The summary is recomputed from all runs:
per workload, end-to-end metric and checkout, the median and quartiles of
the untraced runs, and with two checkouts the pairs the second one won
(ties count for neither) under the direction ``BENCHMARK.json`` gives.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REPORT_LINE = re.compile(r"campaign report: trials=(\d+) sha256=([0-9a-f]{64}) "
                         r".*whole range: (True|False)")
BLAS_ONE_THREAD = {var: "1" for var in
                   ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
# ``specrank campaign --seed 20240 --out FILE`` in-process from ``src/``, with
# ``run_property`` timed per property; prints the file's SHA-256 and the times
CAMPAIGN_PROBE = """
import hashlib, json, os, sys, tempfile, time
sys.path.insert(0, "src")
from specrank import cli, propsuite
seconds, run_property = {}, propsuite.run_property
def timed(spec, seed, *args):
    start = time.perf_counter()
    report = run_property(spec, seed, *args)
    seconds[spec.name] = time.perf_counter() - start
    return report
propsuite.run_property = timed
with tempfile.TemporaryDirectory() as tmp:
    out = os.path.join(tmp, "campaign.json")
    code = cli.main(["campaign", "--seed", "20240", "--out", out])
    with open(out, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
print(json.dumps({"exit_code": code, "report_sha256": digest,
                  "property_seconds": seconds}))
"""


def source_sha256(checkout: Path) -> str:
    """Digest of every file under ``src/``, which is what the benchmark
    imports from a checkout."""
    digest = hashlib.sha256()
    for path in sorted((checkout / "src").rglob("*.py")):
        digest.update(str(path.relative_to(checkout)).encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def git_state(checkout: Path) -> dict:
    """The checkout's ``HEAD`` commit and whether its working tree differs
    from it. A dirty tree is not that commit, so its commit is recorded as
    None; outside a git repository both fields are None."""
    def git(*args):
        done = subprocess.run(["git", "-C", str(checkout), *args],
                              capture_output=True, text=True)
        return done.stdout if done.returncode == 0 else None

    head, status = git("rev-parse", "HEAD"), git("status", "--porcelain")
    if head is None or status is None:
        return {"commit": None, "dirty": None}
    dirty = bool(status.strip())
    return {"commit": None if dirty else head.strip(), "dirty": dirty}


def run_once(checkout: Path, workload: str, seed: int, seconds: float,
             trace: int) -> dict:
    cmd = [sys.executable, "specbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          check=True)
    lines = done.stdout.splitlines()
    record = {"trace": trace, "result": json.loads(lines[-1])}
    for line in lines:
        if line.startswith("environment: "):
            record["environment"] = json.loads(line[len("environment: "):])
        match = REPORT_LINE.search(line)
        if match:
            record["report_trials"] = int(match.group(1))
            record["report_sha256"] = match.group(2)
            record["merge_identical"] = match.group(3) == "True"
    return record


def default_campaign(checkout: Path) -> dict:
    """The checkout's default campaign: exit code, report SHA-256 and the
    wall time of each property."""
    done = subprocess.run([sys.executable, "-c", CAMPAIGN_PROBE], cwd=checkout,
                          env={**os.environ, **BLAS_ONE_THREAD},
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": len(values)}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def summarize(data: dict) -> dict:
    better = {m["name"]: m["better"]
              for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    labels = list(data["checkouts"])
    summary = {}
    for workload in sorted({r["workload"] for r in data["runs"]}):
        runs = [r for r in data["runs"] if r["workload"] == workload and r["trace"] == 0]
        by_label = {label: [r for r in runs if r["label"] == label] for label in labels}
        # the report covers the trials a run got through, so its hash is
        # comparable between runs of the same trial count only
        entry = {"report_sha256": {label: sorted({f"{r['report_trials']}:{r['report_sha256']}"
                                                  for r in rs if "report_sha256" in r})
                                   for label, rs in by_label.items()},
                 "merge_identical": all(r.get("merge_identical", True) for r in runs),
                 "failed": {label: [r["result"]["failed"] for r in rs]
                            for label, rs in by_label.items()},
                 "metrics": {}}
        for metric, direction in better.items():
            stats = {label: quartiles([r["result"]["metrics"][metric]["value"] for r in rs])
                     for label, rs in by_label.items() if rs}
            if len(labels) == 2 and all(by_label.values()):
                first, second = labels
                pairs = {}
                for r in runs:
                    pairs.setdefault(r["pair"], {})[r["label"]] = \
                        r["result"]["metrics"][metric]["value"]
                full = [p for p in pairs.values() if len(p) == 2]
                sign = 1.0 if direction == "higher" else -1.0
                stats["pairs"] = len(full)
                stats[f"{second}_won"] = sum(sign * (p[second] - p[first]) > 0 for p in full)
                stats[f"median_{second}_over_{first}"] = (
                    stats[second]["median"] / stats[first]["median"])
            entry["metrics"][metric] = stats
        summary[workload] = entry
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--checkout", action="append", required=True,
                        metavar="LABEL=PATH", help="a checkout to run, in pair order")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--pairs", type=int, default=10,
                        help="untraced runs per checkout and workload")
    parser.add_argument("--traced", type=int, default=1,
                        help="traced runs per checkout and workload")
    args = parser.parse_args(argv)

    checkouts = {}
    for item in args.checkout:
        label, sep, path = item.partition("=")
        if not sep or not label:
            parser.error(f"--checkout takes LABEL=PATH, got {item!r}")
        checkouts[label] = Path(path).resolve()

    data = (json.loads(args.out.read_text()) if args.out.exists()
            else {"command": "python3 specbench/run.py", "checkouts": {}, "runs": []})
    campaigns = data.setdefault("campaigns", {})
    for label, path in checkouts.items():
        digest = source_sha256(path)
        data["checkouts"][label] = {**git_state(path), "source_sha256": digest}
        if digest not in campaigns:
            campaigns[digest] = default_campaign(path)
            print(f"campaign {label} sha256={campaigns[digest]['report_sha256']}",
                  flush=True)
    args.out.write_text(json.dumps(data, indent=1) + "\n")

    def record(label, workload, trace, pair=None):
        run = run_once(checkouts[label], workload, args.seed, args.seconds, trace)
        run.update(label=label, workload=workload, seed=args.seed,
                   seconds=args.seconds, pair=pair)
        data["runs"].append(run)
        data["summary"] = summarize(data)
        args.out.write_text(json.dumps(data, indent=1) + "\n")
        metrics = run["result"]["metrics"]
        shown = metrics.get("ops_per_s") or metrics.get("numkernel.cluster.self_ms_per_op")
        print(f"{workload} {label} trace={trace} pair={pair} "
              f"{shown['value']:.4g} failed={run['result']['failed']}", flush=True)

    labels = list(checkouts)
    for workload in args.workload:
        first_pair = 1 + max((r["pair"] for r in data["runs"]
                              if r["workload"] == workload and r["pair"] is not None),
                             default=-1)
        for pair in range(first_pair, first_pair + args.pairs):
            for label in labels if pair % 2 == 0 else labels[::-1]:
                record(label, workload, 0, pair)
        for _ in range(args.traced):
            for label in labels:
                record(label, workload, 1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
