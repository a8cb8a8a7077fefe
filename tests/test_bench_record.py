"""``tools/bench_record.py`` labels a checkout with its commit only when the
working tree is that commit."""

import importlib.util
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
