"""Contour settings and sample counts have one source each: a ``config``
constant, read at call time, so every route to a contour sees the same
value."""

from dataclasses import replace

import numpy as np
import pytest

from specrank import config
from specrank.algebra import AlgebraShape, Element, ProjectionElement, zero
from specrank.charpoly import diagonalize_maximal
from specrank.config import DEFAULT_TOLS
from specrank.multiplicity import multiplicity_riesz
from specrank.numkernel import ContourError, SpecrankError
from specrank.rank import spectral_rank
from conftest import make_rng

M3 = AlgebraShape(dims=(3,))
# spectral gap 1, so multiplicity_riesz and diagonalize_maximal at 1
# integrate over radius 0.5
A = Element(M3, (np.diag([1.0, 0.0, 0.0]),))
A_CERT = spectral_rank(A, rng=make_rng(0))


def _outcome(route) -> str:
    try:
        route()
    except (ValueError, SpecrankError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return "ok"


def _routes() -> tuple[str, str]:
    return (_outcome(lambda: diagonalize_maximal(A, A_CERT)),
            _outcome(lambda: multiplicity_riesz(A, 1.0)))


# with the sign iteration's step test at 1e-2, it stops one step early and
# the projector at radius 0.5 misses idempotency and an integer trace by
# about 3e-10 and 5e-10, inside the defaults and outside 1e-12
# (the ids keep the names these cases had when each setting was a field)
@pytest.mark.parametrize("name, value, step_rel", [
    ("CONTOUR_CLEARANCE", 1.5, config.SIGN_STEP_REL),
    ("PROJECTION_IDEM", 1e-12, 1e-2),
    ("PROJECTION_TRACE", 1e-12, 1e-2),
], ids=["contour_clearance-1.5-base1", "projection_idem-1e-12-base2",
        "projection_trace-1e-12-base3"])
def test_contour_setting_reaches_both_routes(monkeypatch, name, value, step_rel):
    monkeypatch.setattr(config, "SIGN_STEP_REL", step_rel)
    assert _routes() == ("ok", "ok")
    monkeypatch.setattr(config, name, value)
    element_route, count_route = _routes()
    assert element_route.startswith("ContourError")
    assert element_route == count_route


def test_projection_checked_under_the_tols_given(monkeypatch):
    # ||p^2 - p|| = 1e-5: a projection to 1e-3, not to the default 1e-8
    p = Element(M3, (np.diag([1.0, 1e-5, 0.0]),))
    with pytest.raises(ValueError, match="not a projection"):
        ProjectionElement(p)
    monkeypatch.setattr(config, "PROJECTION_IDEM", 1e-3)
    assert ProjectionElement(p).element is p


def test_contour_projectors_checked_under_their_tols(monkeypatch):
    # with the step test at 0.2 the sign iteration stops two steps early:
    # each projector misses idempotency by about 2e-5, so the blocks and the
    # projector element pass or fail together under one PROJECTION_IDEM
    monkeypatch.setattr(config, "SIGN_STEP_REL", 0.2)
    with pytest.raises(ContourError, match="p\\^2 - p"):
        diagonalize_maximal(A, A_CERT)
    monkeypatch.setattr(config, "PROJECTION_IDEM", 1e-3)
    monkeypatch.setattr(config, "PROJECTION_TRACE", 1e-3)
    assert multiplicity_riesz(A, 1.0) == 1
    # a projector off by 2e-5 has rank 1 only at a rank cutoff above that
    tols = replace(DEFAULT_TOLS, rank_rel=1e-3)
    ((_, p),) = diagonalize_maximal(A, spectral_rank(A, rng=make_rng(3), tols=tols), tols)
    assert p.element.blocks[0][0, 0] == pytest.approx(1.0)
    b = Element(M3, (np.diag([1.0, 2.0, 0.0]),))
    pairs = diagonalize_maximal(b, spectral_rank(b, rng=make_rng(3), tols=tols), tols)
    assert [v for v, _ in pairs] == [1.0, 2.0]


def test_rank_sample_count_read_from_config(monkeypatch):
    monkeypatch.setattr(config, "RANK_SAMPLES", 3)
    cert = spectral_rank(zero(M3), rng=make_rng(5))
    assert cert.certified and cert.samples_used == 3
