"""Fast test of the benchmark itself, at a handful of ops per workload.

    python3 -m pytest -q specbench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
import run  # noqa: E402

sys.path.insert(0, str(run.SRC))
import workloads  # noqa: E402
from tracing import RATIOS  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
CAMPAIGNS = ("campaign_counting", "campaign_contour")


@pytest.mark.parametrize("name", CAMPAIGNS)
def test_per_trial_reports_merge_to_whole_range_bytes(name, tmp_path):
    hashes = set()
    for _ in range(2):
        workload = run.open_workload(name, 7, str(tmp_path), report_ops=12)
        records = run.run_ops(workload, workload.ops(), seconds=0, min_ops=12)
        assert all(r[3] in (None, "skipped") for r in records)
        result = workload.verify()
        assert result["merge_identical"]
        assert result["report_trials"] == 12
        hashes.add(result["report_sha256"])
    assert len(hashes) == 1


@pytest.mark.parametrize("name", tuple(run.WORKLOADS))
def test_traced_counts_repeat_exactly(name, tmp_path):
    counts = []
    for _ in range(2):
        workload = run.open_workload(name, 3, str(tmp_path), report_ops=4)
        _, metrics = run.traced_metrics(name, workload, 1e-3, 4, 3)
        counts.append({k: v for k, v in metrics.items()
                       if k.endswith(".calls_per_op") or k in RATIOS})
    assert counts[0] == counts[1]
    riesz = counts[0]["numkernel.riesz_projection.calls_per_op"]
    assert (riesz == 0) == (name == "campaign_counting")


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("name", tuple(run.WORKLOADS))
def test_printed_metrics_match_benchmark_json(name, trace, monkeypatch, capsys):
    monkeypatch.setattr(run, "COUNT_OPS", dict.fromkeys(run.WORKLOADS, 4))
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    assert run.main(["--workload", name, "--seed", "5", "--seconds", "0.2",
                     "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_list_matches_benchmark_json(capsys):
    assert run.main(["--list"]) == 0
    listed = capsys.readouterr().out
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == run.WORKLOADS
    for m in SPEC["end_to_end"]:
        assert (m["unit"], m["better"]) == run.END_TO_END[m["name"]][:2]
        assert m["name"] in listed
    layer = run.per_layer_metrics()
    for m in SPEC["per_layer"]:
        assert (m["unit"], m["better"]) == layer[m["name"]][:2]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "specbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(SPEC["command"] + ["--workload", "check", "--seed", "1",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_check_inputs_are_deterministic():
    for index in (0, 7, 15):
        a = workloads.check_input(11, index)
        b = workloads.check_input(11, index)
        assert a[0] == b[0] and a[2] == b[2]
        assert all((x == y).all() for x, y in zip(a[1], b[1]))
