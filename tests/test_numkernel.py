import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specrank import config
from specrank.numkernel import (ClusteredSpectrum, ContourError,
                                ConvergenceError, as_matrix, classical_charpoly, cluster, eig, frobenius,
                                hausdorff, mat_rank, riesz_projection)
from specrank.jsonio import matrix_to_rows, rows_to_matrix
from conftest import make_rng


def test_as_matrix_rejects_nonsquare_and_nonfinite():
    with pytest.raises(ValueError):
        as_matrix(np.ones((2, 3)))
    with pytest.raises(ValueError):
        as_matrix(np.array([[np.nan, 0], [0, 1]]))
    with pytest.raises(ValueError):
        as_matrix(np.array([[np.inf, 0], [0, 1]]))
    # nan or inf in the real part, in the imaginary part, and in both
    for bad in (complex(np.nan, 0.0), complex(-np.inf, 1.0),
                complex(1.0, np.nan), complex(0.0, np.inf),
                complex(np.nan, np.nan), complex(np.inf, -np.inf)):
        m = np.eye(3, dtype=np.complex128)
        m[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            as_matrix(m)


class TestEig:
    def test_identity(self):
        values = sorted(eig(np.eye(2)).real)
        np.testing.assert_allclose(values, [1.0, 1.0], atol=1e-14)

    def test_nilpotent(self):
        values = eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
        np.testing.assert_allclose(np.abs(values), 0.0, atol=1e-14)

    def test_companion_of_quadratic(self):
        # x^2 - 3x + 2 has roots (3 +- 1)/2 = {1, 2} by the quadratic formula
        c = np.array([[0.0, -2.0], [1.0, 3.0]])
        values = sorted(eig(c).real)
        np.testing.assert_allclose(values, [1.0, 2.0], atol=1e-12)

    def test_transpose_invariance(self):
        rng = make_rng(42)
        for _ in range(200):
            n = int(rng.integers(1, 9))
            m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            rho = max(float(np.max(np.abs(eig(m)))), 1.0)
            assert hausdorff(eig(m), eig(m.T)) <= 1e-7 * rho

    @pytest.mark.parametrize("n", range(1, 9))
    def test_stack_rows_match_single_calls_bitwise(self, n):
        rng = make_rng(300 + n)
        stack = rng.standard_normal((5, n, n)) + 1j * rng.standard_normal((5, n, n))
        values = eig(stack)
        assert values.shape == (5, n)
        for row, m in zip(values, stack):
            assert row.tobytes() == eig(m).tobytes()

    def test_stack_validation(self):
        with pytest.raises(ValueError, match="square"):
            eig(np.ones((2, 2, 3)))
        with pytest.raises(ValueError, match="square"):
            eig(np.ones((1, 2, 2, 2)))
        stack = np.stack([np.eye(2, dtype=np.complex128)] * 3)
        stack[2, 0, 1] = complex(0.0, np.inf)
        with pytest.raises(ValueError, match="finite"):
            eig(stack)

    @pytest.mark.parametrize("shape", [(3, 3), (4, 3, 3)])
    def test_lapack_failure_is_convergence_error(self, monkeypatch, shape):
        def failing(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvals", failing)
        with pytest.raises(ConvergenceError, match="did not converge"):
            eig(np.ones(shape))


class TestCluster:
    def test_merges_below_tolerance(self):
        spec = cluster([1.0, 1.0 + 1e-12], 1e-8)
        assert len(spec.points) == 1
        assert spec.points[0][1] == 2

    def test_keeps_distinct(self):
        spec = cluster([0.0, 1.0], 1e-8)
        assert len(spec.points) == 2

    def test_from_eigenvalues_of_diagonal(self):
        values = eig(np.diag([1.0, 1.0 + 1e-4, 5.0]))
        spec = cluster(values, 1e-8)
        assert len(spec.points) == 3
        assert spec.total() == 3

    def test_rejects_nonpositive_tolerance(self):
        with pytest.raises(ValueError):
            cluster([1.0], 0.0)

    def test_chained_points_merge_into_one(self):
        spec = cluster([0.0, 0.9e-8, 1.8e-8], 1e-8)
        assert len(spec.points) == 1
        assert spec.points[0][1] == 3

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.complex_numbers(max_magnitude=10, allow_nan=False,
                                       allow_infinity=False), max_size=12),
           st.floats(min_value=1e-10, max_value=1.0))
    def test_counts_sum_and_separation(self, values, tol):
        spec = cluster(values, tol)
        assert spec.total() == len(values)
        reps = spec.values()
        for i in range(len(reps)):
            for j in range(i + 1, len(reps)):
                assert abs(reps[i] - reps[j]) > tol


class TestMatRank:
    def test_zero(self):
        assert mat_rank(np.zeros((3, 3)), 1e-8) == 0

    def test_rank_one_diagonal(self):
        assert mat_rank(np.diag([1.0, 0.0, 0.0]), 1e-8) == 1

    def test_nilpotent(self):
        assert mat_rank(np.array([[0.0, 1.0], [0.0, 0.0]]), 1e-8) == 1


class TestClassicalCharpoly:
    def test_rank_one_diagonal(self):
        # (-x)^2 (1 - x) = x^2 - x^3, descending: [-1, 1, 0, 0]
        coeffs = classical_charpoly(np.diag([1.0, 0.0, 0.0]))
        np.testing.assert_allclose(coeffs, [-1.0, 1.0, 0.0, 0.0], atol=1e-12)

    def test_scalar(self):
        coeffs = classical_charpoly(np.array([[2.5]]))
        np.testing.assert_allclose(coeffs, [-1.0, 2.5], atol=1e-14)

    def test_nilpotent(self):
        coeffs = classical_charpoly(np.array([[0.0, 1.0], [0.0, 0.0]]))
        np.testing.assert_allclose(coeffs, [1.0, 0.0, 0.0], atol=1e-14)

    def test_degree_and_leading_coefficient(self):
        rng = make_rng(3)
        for _ in range(20):
            n = int(rng.integers(1, 7))
            m = rng.standard_normal((n, n))
            coeffs = classical_charpoly(m)
            assert len(coeffs) == n + 1
            np.testing.assert_allclose(coeffs[0], (-1.0) ** n, atol=1e-12)


def _riesz_loop_reference(m, center, radius, nodes=64):
    """Trapezoid-rule projector with one resolvent solve per node."""
    a = np.asarray(m, dtype=np.complex128)
    eye = np.eye(a.shape[0], dtype=np.complex128)
    acc = np.zeros_like(a)
    for t in 2.0 * np.pi * np.arange(nodes) / nodes:
        w = radius * np.exp(1j * t)
        acc += w * np.linalg.solve((center + w) * eye - a, eye)
    return acc / nodes


def _contours(m):
    """A contour around the whole spectrum, a small one on an eigenvalue and
    one off-center near another."""
    values = eig(m)
    rho = float(np.max(np.abs(values)))
    return [(0.0, 2.0 * rho + 2.0), (complex(values[0]), 0.1),
            (complex(values[-1]) + 0.05j, 0.2)]


def _blocks(n, rng):
    """Dense blocks, and rank-deficient ones x y^T of rank about n/2, which
    are non-normal with a repeated eigenvalue 0."""
    for _ in range(4):
        yield rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        r = max(1, n // 2)
        yield ((rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r)))
               @ (rng.standard_normal((r, n)) + 1j * rng.standard_normal((r, n))))


class TestRieszProjection:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 16])
    def test_sign_iteration_matches_node_loop(self, n):
        rng = make_rng(100 + n)
        checked = 0
        for m in _blocks(n, rng):
            for center, radius in _contours(m):
                try:
                    p = riesz_projection(m, center=center, radius=radius)
                except ContourError:
                    continue
                ref = _riesz_loop_reference(m, center, radius)
                assert frobenius(p - ref) <= 1e-9 * (1.0 + frobenius(p))
                checked += 1
        assert checked >= 8

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 16])
    def test_stacked_values_equal_each_value_alone(self, n):
        rng = make_rng(200 + n)
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        values = eig(m)
        dist = np.abs(values[:, None] - values[None, :])
        radius = float(dist[dist > 0].min()) / 2 if n > 1 else 0.5
        # every eigenvalue, each stopping at its own step, the origin, and a
        # circle through an eigenvalue, rejected while the rest iterate
        centers = [complex(v) for v in values] + [0.0, complex(values[0]) + radius]
        assert riesz_projection(m, [], radius, values=values) == []
        stacked = riesz_projection(m, centers, radius, values=values)
        assert len(stacked) == len(centers)
        assert isinstance(stacked[-1], ContourError)
        for center, outcome in zip(centers, stacked):
            try:
                alone = riesz_projection(m, center, radius, values=values)
            except ContourError as exc:
                assert type(outcome) is ContourError and str(outcome) == str(exc)
                continue
            assert alone.tobytes() == outcome.tobytes()

    def test_every_rejection_in_one_stack(self, monkeypatch):
        # with the step cap at 8, the contours around 0, 3 and 6 stop after 6
        # steps, and the one around 3 + 0.88j, with 3 near its circle, needs 9
        monkeypatch.setattr(config, "SIGN_MAX_STEPS", 8)
        m = np.diag([1e308, 0.0, 6.0, 3.0])
        # 0 is left out of the clearance check, so the circles through it are
        # solved: at -1 + 1 the transform is singular, at 1 - 1 its inverse
        values = np.array([1e308, 6.0, 3.0])
        rejected = {5.0: "too close to spectrum", -8e307: "transform overflowed",
                    -1.0: "node on the spectrum", 1.0: "reached a singular matrix",
                    3.0 + 0.88j: "did not converge in 8 steps"}
        centers = [6.0, 5.0, -8e307, 0.0, -1.0, 1.0, 3.0 + 0.88j, 3.0]
        stacked = riesz_projection(m, centers, 1.0, values=values)
        for center, outcome in zip(centers, stacked):
            if center not in rejected:
                alone = riesz_projection(m, center, 1.0, values=values)
                assert alone.tobytes() == outcome.tobytes()
                continue
            assert type(outcome) is ContourError and rejected[center] in str(outcome)
            with pytest.raises(ContourError) as alone:
                riesz_projection(m, center, 1.0, values=values)
            assert str(alone.value) == str(outcome)

    def test_step_cap_is_contour_error(self, monkeypatch):
        monkeypatch.setattr(config, "SIGN_MAX_STEPS", 1)
        with pytest.raises(ContourError, match="did not converge in 1 steps"):
            riesz_projection(np.diag([1.0, 0.0, 0.0]), center=1.0, radius=0.5)
        assert isinstance(riesz_projection(np.eye(2), [1.0, 2.0], 0.5)[0], ContourError)

    def test_given_eigenvalues_drive_clearance_check(self):
        m = np.diag([1.0, 0.0, 0.0])
        with_values = riesz_projection(m, center=1.0, radius=0.4, values=eig(m))
        assert np.array_equal(with_values, riesz_projection(m, center=1.0, radius=0.4))
        with pytest.raises(ContourError):
            riesz_projection(m, center=1.0, radius=0.4, values=np.array([1.4]))

    def test_node_on_spectrum_is_contour_error(self):
        # the clearance check is told the eigenvalue is far away; node 0 sits
        # exactly on it, so that node's shifted matrix is singular
        with pytest.raises(ContourError, match="node on the spectrum"):
            riesz_projection(np.zeros((1, 1)), center=-1.0, radius=1.0,
                             values=np.array([5.0]))

    def test_isolated_eigenvalue(self):
        p = riesz_projection(np.diag([1.0, 0.0, 0.0]), center=1.0, radius=0.4)
        np.testing.assert_allclose(p, np.diag([1.0, 0.0, 0.0]), atol=1e-10)
        assert abs(np.trace(p) - 1.0) < 1e-10

    def test_empty_enclosure(self):
        p = riesz_projection(np.array([[5.0]]), center=0.0, radius=1.0)
        np.testing.assert_allclose(p, np.zeros((1, 1)), atol=1e-10)

    def test_jordan_block_full_enclosure(self):
        # whole spectrum enclosed: projection is the identity, trace 2
        p = riesz_projection(np.array([[2.0, 1.0], [0.0, 2.0]]),
                             center=2.0, radius=1.0)
        np.testing.assert_allclose(p, np.eye(2), atol=1e-10)
        assert abs(np.trace(p).real - 2.0) < 1e-8

    def test_enclosing_everything_gives_identity(self):
        rng = make_rng(11)
        for _ in range(20):
            n = int(rng.integers(1, 7))
            m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            rho = float(np.max(np.abs(eig(m))))
            p = riesz_projection(m, center=0.0, radius=2.0 * rho + 2.0)
            assert frobenius(p - np.eye(n)) <= 1e-8 * (1.0 + frobenius(p))

    def test_trace_rounds_to_rank_of_projection(self):
        rng = make_rng(12)
        for _ in range(20):
            m = np.diag([1.0, 1.0, 4.0]) + 0.01 * rng.standard_normal((3, 3))
            p = riesz_projection(m, center=1.0, radius=1.5)
            assert round(np.trace(p).real) == mat_rank(p, 1e-8)

    def test_rejects_contour_through_spectrum(self):
        with pytest.raises(ContourError):
            riesz_projection(np.diag([1.0, 0.0]), center=0.0, radius=1.0)


def test_hausdorff_basics():
    assert hausdorff([], []) == 0.0
    assert hausdorff([1.0], []) == float("inf")
    assert abs(hausdorff([0.0, 1.0], [0.0, 1.5]) - 0.5) < 1e-15


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=2 ** 31))
def test_matrix_json_round_trip(n, seed):
    rng = make_rng(seed)
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    again = rows_to_matrix(matrix_to_rows(m))
    assert np.array_equal(again, m.astype(np.complex128))


def test_clustered_spectrum_json_round_trip():
    spec = cluster([1.0, 1.0, 2.0 + 1.0j], 1e-8)
    again = ClusteredSpectrum.from_json(spec.to_json(), spec.tol)
    assert again.points == spec.points
