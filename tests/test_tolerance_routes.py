"""Contour settings and sample counts have one source each: the contour's
node count and acceptance thresholds come from ``Tolerances``, the rank
sample count from ``config``."""

from dataclasses import replace

import numpy as np
import pytest

from specrank import config
from specrank.algebra import AlgebraShape, Element, riesz_element, zero
from specrank.config import DEFAULT_TOLS
from specrank.multiplicity import multiplicity_riesz
from specrank.numkernel import ContourError, SpecrankError
from specrank.rank import spectral_rank
from conftest import make_rng

M3 = AlgebraShape(dims=(3,))
# spectral gap 1, so multiplicity_riesz at 1 integrates over radius 0.5
A = Element(M3, (np.diag([1.0, 0.0, 0.0]),))


def _outcome(route) -> str:
    try:
        route()
    except (ValueError, SpecrankError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return "ok"


def _routes(radius, tols) -> tuple[str, str]:
    return (_outcome(lambda: riesz_element(A, 1.0, radius, tols)),
            _outcome(lambda: multiplicity_riesz(A, 1.0, tols)))


# at 32 nodes the projector at radius 0.5 misses idempotency and an integer
# trace by about 3e-10 and 5e-10, inside the defaults and outside 1e-12
@pytest.mark.parametrize("field, value, base", [
    ("contour_nodes", 16, {}),
    ("contour_clearance", 1.5, {}),
    ("projection_idem", 1e-12, {"contour_nodes": 32}),
    ("projection_trace", 1e-12, {"contour_nodes": 32}),
])
def test_contour_setting_reaches_both_routes(field, value, base):
    before = replace(DEFAULT_TOLS, **base)
    after = replace(before, **{field: value})
    assert _routes(0.5, before) == ("ok", "ok")
    element_route, count_route = _routes(0.5, after)
    assert element_route.startswith("ContourError")
    assert element_route == count_route


@pytest.mark.parametrize("nodes, error", [(8, ValueError), (16, ContourError)])
def test_too_few_nodes_fail_both_routes(nodes, error):
    tols = replace(DEFAULT_TOLS, contour_nodes=nodes)
    with pytest.raises(error):
        riesz_element(A, 1.0, 0.4, tols)
    with pytest.raises(error):
        multiplicity_riesz(A, 1.0, tols)


def test_rank_sample_count_read_from_config(monkeypatch):
    monkeypatch.setattr(config, "RANK_SAMPLES", 3)
    cert = spectral_rank(zero(M3), rng=make_rng(5))
    assert cert.certified and cert.samples_used == 3
