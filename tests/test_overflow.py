"""Valid elements whose arithmetic overflows: every such computation ends in
a typed ``NonFiniteError`` (or ``ContourError``), so ``specrank check``
exits 3 or reports only finite numbers, and never lets an exception escape."""

import json

import numpy as np
import pytest

from specrank.algebra import AlgebraShape, Element, norm, tau_of
from specrank.charpoly import (CharPoly, det_plus_one, residual_scale,
                               weighted_sum)
from specrank.cli import main
from specrank.jsonio import matrix_to_rows, pair_to_complex
from specrank.numkernel import (ContourError, NonFiniteError, cluster,
                                frobenius, frobenius_stack, riesz_projection)
from conftest import make_rng

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


def _big_block(n: int) -> np.ndarray:
    i = np.arange(n)
    return 1e200 * (np.add.outer(i, i) + 1.0)


OVERFLOW_ELEMENTS = {
    "diag_1.5e308_1": ([np.diag([1.5e308, 1.0])], "finite"),
    "infinite_3x3_1e200": ([_big_block(3)], "infinite"),
    "1e308_plus_1": ([np.array([[1e308]]), np.array([[1.0]])], "finite"),
    "diag_1e300_1": ([np.diag([1e300, 1.0])], "finite"),
    # spectral values whose distance, or cluster mean, overflows
    "diag_1.5e308_-1.5e308j": ([np.diag([1.5e308, -1.5e308j])], "finite"),
    "1e308_plus_1e308": ([np.array([[1e308]]), np.array([[1e308 * (1 + 1e-10)]])],
                         "finite"),
}


def _write(path, blocks, ambient):
    path.write_text(json.dumps({
        "dims": [b.shape[0] for b in blocks], "ambient": ambient,
        "blocks": [matrix_to_rows(np.asarray(b, dtype=np.complex128)) for b in blocks]}))
    return path


def _strict_json(text: str):
    def reject(constant):
        raise ValueError(f"non-finite number {constant} in the report")

    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("seed", range(1, 13))
@pytest.mark.parametrize("name", sorted(OVERFLOW_ELEMENTS))
def test_check_exits_numeric_or_reports_finite_numbers(tmp_path, capsys, name, seed):
    blocks, ambient = OVERFLOW_ELEMENTS[name]
    element_file = _write(tmp_path / "a.json", blocks, ambient)
    out = tmp_path / "report.json"
    code = main(["check", str(element_file), "--seed", str(seed), "--out", str(out)])
    assert code in (0, 3)
    if code == 0:
        report = _strict_json(out.read_text())
        assert report["cayley_hamilton_residual"] <= 1e-6
    else:
        assert capsys.readouterr().err.startswith("numeric failure: ")


@pytest.mark.parametrize("ambient", ["finite", "infinite"])
def test_check_on_diag_1e300_1_fails_or_is_exact(tmp_path, capsys, ambient):
    # rank 2 and det(a + 1) = 2e300 + 2 in both ambients: a certified rank 1
    # with det(a + 1) = 0 would be a silently wrong answer
    element_file = _write(tmp_path / "a.json", [np.diag([1e300, 1.0])], ambient)
    out = tmp_path / "report.json"
    for seed in range(1, 7):
        code = main(["check", str(element_file), "--seed", str(seed), "--out", str(out)])
        assert code in (0, 3)
        if code == 0:
            report = _strict_json(out.read_text())
            assert report["rank"]["rank"] == 2 and report["rank"]["certified"]
            det1 = pair_to_complex(report["det_plus_one"])
            assert abs(det1 - 2e300) <= 1e-6 * 2e300
        else:
            assert capsys.readouterr().err.startswith("numeric failure: ")


def test_nonfinite_input_entry_is_usage_error(tmp_path):
    # 1e400 parses to inf: the input is invalid, which is exit 2, not 3
    element_file = tmp_path / "a.json"
    element_file.write_text('{"dims": [1], "blocks": [[[[1e400, 0.0]]]]}')
    assert main(["check", str(element_file)]) == 2


def test_element_arithmetic_overflow():
    shape = AlgebraShape(dims=(2,))
    a = Element(shape, (np.diag([1e300, 1.0]),))
    with pytest.raises(NonFiniteError, match="element arithmetic"):
        a * a
    with pytest.raises(NonFiniteError, match="element arithmetic"):
        1e10 * a
    with pytest.raises(NonFiniteError, match="element arithmetic"):
        Element(shape, (np.diag([1.5e308, 1.0]),)) + Element(shape, (np.diag([1.5e308, 1.0]),))


def test_norm_overflow():
    # the norm itself, 2.1e308, is beyond the float range
    a = Element(AlgebraShape(dims=(2,)), (np.diag([1.5e308, 1.5e308]),))
    with pytest.raises(NonFiniteError, match="norm"):
        norm(a)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_norm_rescaled_only_when_its_sum_of_squares_overflows():
    assert norm(Element(AlgebraShape(dims=(2,)), (np.diag([1e300, 1.0]),))) == 1e300
    m = make_rng(3).standard_normal((4, 4)) + 1j
    assert frobenius(m) == float(np.linalg.norm(m, "fro"))


def test_stacked_norm_rescales_only_overflowed_matrices():
    m = make_rng(4).standard_normal((3, 2, 4, 4)) + 1j
    m[1, 0] = np.diag([1e300, 1e300, 1.0, 1.0])  # sum of squares overflows
    m[2, 1] = np.diag([1.5e308, 1.5e308, 1.0, 1.0])  # so does the norm
    norms = frobenius_stack(m)
    assert norms.shape == (3, 2)
    assert norms[1, 0] == frobenius(m[1, 0]) and 1e300 < norms[1, 0] < np.inf
    assert norms[2, 1] == np.inf
    plain = np.linalg.norm(m, axis=(-2, -1))
    assert all(norms[i, j] == plain[i, j] for i in range(3) for j in range(2)
               if (i, j) not in ((1, 0), (2, 1)))


def test_spectral_radius_overflow():
    a = Element(AlgebraShape(dims=(1,)), (np.array([[1.5e308 + 1.5e308j]]),))
    with pytest.raises(NonFiniteError, match="spectral radius"):
        tau_of(a)


def test_cluster_distance_overflow():
    # |1.5e308 + 1.5e308j| overflows although both components are finite
    with pytest.raises(NonFiniteError, match="distance"):
        cluster([1.5e308, -1.5e308j], 1e-9)


def test_cluster_mean_overflow():
    with pytest.raises(NonFiniteError, match="cluster mean"):
        cluster([1.5e308, 1.5e308 * (1 + 1e-12)], 1e300)


def test_nonfinite_projector_is_contour_error():
    m = np.diag([1.5e308, 1.0]).astype(np.complex128)
    with pytest.raises(ContourError, match="non-finite"):
        riesz_projection(m, 1.5e308, 7e307)


def test_residual_scale_overflow():
    poly = CharPoly(factors=((1e200, 2), (0.0, 1)), source_rank=1)
    with pytest.raises(NonFiniteError, match="residual scale"):
        residual_scale(poly, 1.0)
    poly = CharPoly(factors=((1e200, 1), (2e200, 1)), source_rank=2)
    with pytest.raises(NonFiniteError, match="residual scale"):
        residual_scale(poly, 1.0)


def test_det_plus_one_overflow():
    a = Element(AlgebraShape(dims=(2,)), (np.diag([1e200, 2e200]),))
    poly = CharPoly(factors=((1e200, 1), (2e200, 1)), source_rank=2)
    with pytest.raises(NonFiniteError, match=r"det\(a \+ 1\)"):
        det_plus_one(a, poly)


def test_trace_overflow():
    with pytest.raises(NonFiniteError, match="trace"):
        weighted_sum([(1.5e308, 1), (1.5e308, 1)])
    assert weighted_sum([(2.0, 3), (1j, 2)]) == 6.0 + 2j
