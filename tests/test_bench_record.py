"""``tools/bench_record.py`` labels a checkout with its commit only when the
working tree is that commit, and runs each source's default campaign once."""

import importlib.util
import json
import shutil
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"

pytestmark = pytest.mark.skipif(shutil.which("git") is None, reason="needs git")


def _load():
    spec = importlib.util.spec_from_file_location("bench_record", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _git(repo: Path, *args) -> str:
    return subprocess.run(
        ["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t",
         *args], check=True, capture_output=True, text=True).stdout.strip()


def test_git_state_of_clean_dirty_and_plain_directories(tmp_path):
    git_state = _load().git_state
    repo = tmp_path / "repo"
    repo.mkdir()
    _git(repo, "init", "-q")
    (repo / "a.py").write_text("x = 1\n")
    _git(repo, "add", "a.py")
    _git(repo, "commit", "-q", "-m", "one")
    head = _git(repo, "rev-parse", "HEAD")
    assert git_state(repo) == {"commit": head, "dirty": False}

    (repo / "a.py").write_text("x = 2\n")
    assert git_state(repo) == {"commit": None, "dirty": True}

    plain = tmp_path / "plain"
    plain.mkdir()
    subprocess.run(["git", "-C", str(repo), "archive", "HEAD", "-o",
                    str(tmp_path / "head.tar")], check=True)
    shutil.unpack_archive(tmp_path / "head.tar", plain)
    assert git_state(plain) == {"commit": None, "dirty": None}


def test_default_campaign_runs_once_per_source(tmp_path, monkeypatch):
    module = _load()
    runs = []

    def stub_campaign(checkout):
        runs.append(checkout)
        return {"report_sha256": f"run {len(runs)}"}

    def no_benchmark(*args):
        raise AssertionError("no benchmark run was asked for")

    monkeypatch.setattr(module, "default_campaign", stub_campaign)
    monkeypatch.setattr(module, "run_once", no_benchmark)
    same, copy, other = (tmp_path / name for name in ("same", "copy", "other"))
    for checkout, text in ((same, "x = 1\n"), (copy, "x = 1\n"), (other, "x = 2\n")):
        (checkout / "src").mkdir(parents=True)
        (checkout / "src" / "m.py").write_text(text)
    out = tmp_path / "bench.json"
    argv = ["--out", str(out), "--workload", "check", "--seed", "1",
            "--pairs", "0", "--traced", "0"]

    module.main(argv + ["--checkout", f"a={same}", "--checkout", f"b={copy}"])
    data = json.loads(out.read_text())
    digest = data["checkouts"]["a"]["source_sha256"]
    assert data["checkouts"]["b"]["source_sha256"] == digest
    assert runs == [same]
    assert data["campaigns"] == {digest: {"report_sha256": "run 1"}}

    # a source the file already holds is skipped; a new one is run
    module.main(argv + ["--checkout", f"b={copy}", "--checkout", f"c={other}"])
    data = json.loads(out.read_text())
    assert runs == [same, other]
    assert data["campaigns"] == {
        digest: {"report_sha256": "run 1"},
        data["checkouts"]["c"]["source_sha256"]: {"report_sha256": "run 2"}}
