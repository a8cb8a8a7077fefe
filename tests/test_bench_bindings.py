"""The names the benchmark in ``specbench/`` binds in specrank resolve.

The benchmark looks its traced functions up by name and reads property
names and tolerance fields from specrank, so a deletion here that breaks it
fails this test, not only a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

from specrank.propsuite import PROPERTY_NAMES

BENCH_DIR = Path(__file__).resolve().parent.parent / "specbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"specbench_{name}",
                                                  BENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    for module, attr in _load("tracing").WRAPPED:
        target = getattr(importlib.import_module(f"specrank.{module}"), attr, None)
        assert callable(target), f"specrank.{module}.{attr}"


def test_workload_properties_are_campaign_properties():
    workloads = _load("workloads")
    assert set(workloads.COUNTING + workloads.CONTOUR) <= set(PROPERTY_NAMES)


def test_reference_tolerances_exist():
    tols = _load("workloads").DEFAULT_TOLS
    for field in ("rank_rel", "identity_rel", "residual"):
        assert isinstance(getattr(tols, field, None), float), field
