"""specrank runs on numpy alone: importing it, the ``check``, ``gen`` and
``demo`` commands, every campaign property and a corner view built directly
leave ``scipy`` out of ``sys.modules``."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

_SCRIPT = """
import contextlib, io, os, sys

import numpy as np

import specrank, specrank.cli
from specrank import AlgebraShape, Element, ProjectionElement, compressed_view
from specrank import cli
from specrank.propsuite import PROPERTY_NAMES, PropertySpec, run_property

element, workdir = sys.argv[1], sys.argv[2]
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["check", element, "--seed", "3"]) == 0
    assert cli.main(["gen", "--dims", "3,2", "--ranks", "2,1",
                     "--out", os.path.join(workdir, "gen.json")]) == 0
    for name in ("m3_example", "zero_example", "c3_naive_det", "ch_walkthrough"):
        assert cli.main(["demo", name]) == 0
print("after check/gen/demo:", "scipy" in sys.modules)

for name in PROPERTY_NAMES:
    report = run_property(PropertySpec(name=name, trials=2), 11)
    assert report.fail_count == 0, name
print("after every property:", "scipy" in sys.modules)

p = Element(AlgebraShape(dims=(2,)), (np.diag([1.0, 0.0]),))
assert compressed_view(ProjectionElement(p)).shape.dims == (1,)
print("after compressed_view:", "scipy" in sys.modules)
"""


def test_no_specrank_path_imports_scipy(tmp_path):
    element = tmp_path / "a.json"
    element.write_text(json.dumps({
        "dims": [2, 1], "ambient": "finite",
        "blocks": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [2.0, 0.0]]],
                   [[[3.0, 0.0]]]]}))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(element), str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "after check/gen/demo: False",
        "after every property: False",
        "after compressed_view: False",
    ]
