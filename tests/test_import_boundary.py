"""scipy is loaded only when a corner view is built: importing specrank and
running ``check``, ``gen``, ``demo`` or a non-compression property leave
``scipy.linalg`` out of ``sys.modules``."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

_SCRIPT = """
import contextlib, io, os, sys

import specrank, specrank.cli
from specrank import cli
from specrank.propsuite import PropertySpec, run_property

element, workdir = sys.argv[1], sys.argv[2]
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["check", element, "--seed", "3"]) == 0
    assert cli.main(["gen", "--dims", "3,2", "--ranks", "2,1",
                     "--out", os.path.join(workdir, "gen.json")]) == 0
    assert cli.main(["demo", "m3_example"]) == 0
report = run_property(PropertySpec(name="cayley_hamilton", trials=2), 11)
assert report.pass_count == 2
print("after check/gen/demo/cayley_hamilton:", "scipy.linalg" in sys.modules)

import numpy as np
from specrank import AlgebraShape, Element, ProjectionElement, compressed_view

p = Element(AlgebraShape(dims=(2,)), (np.diag([1.0, 0.0]),))
assert compressed_view(ProjectionElement(p)).shape.dims == (1,)
print("after compressed_view:", "scipy.linalg" in sys.modules)
"""


def test_scipy_is_imported_only_by_compressed_view(tmp_path):
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
        "after check/gen/demo/cayley_hamilton: False",
        "after compressed_view: True",
    ]
