import itertools
import json
import struct

import numpy as np
import pytest

import specrank.charpoly as charpoly
from specrank import config
from specrank.algebra import (FINITE, INFINITE_SOCLE, AlgebraShape, Element,
                              ProjectionElement, compressed_view, identity,
                              nonzero_spectrum, norm, random_element,
                              random_socle_element, zero)
from specrank.config import DEFAULT_TOLS
from specrank.jsonio import pair_to_complex
from specrank.charpoly import (CharPoly, DiagonalizationError,
                               approximation_sequence,
                               cayley_hamilton_residual, char_poly,
                               char_poly_from_records, char_poly_maximal,
                               det_plus_one,
                               diagonalize_maximal, eval_element, eval_scalar,
                               naive_det_demo, residual_scale, trace)
from specrank.multiplicity import (MultiplicityRecord, UnstableMultiplicityError,
                                   spectral_gap)
from specrank.numkernel import (ContourError, NonFiniteError, classical_charpoly,
                                settle)
from specrank.rank import is_maximal, make_maximal, rank_oracle, spectral_rank
from conftest import make_rng

M2 = AlgebraShape(dims=(2,))
M3 = AlgebraShape(dims=(3,))
M3_M2 = AlgebraShape(dims=(3, 2))


def diag_element(shape, *block_diags):
    return Element(shape, tuple(np.diag(np.asarray(d, dtype=np.complex128))
                                for d in block_diags))


def nilpotent2():
    return Element(M2, (np.array([[0.0, 1.0], [0.0, 0.0]]),))


def certified_poly(a, rng):
    """``a``'s polynomial under a fresh rank certificate, drawn from ``rng``
    in that order."""
    return char_poly(a, rng, spectral_rank(a, rng=rng))


def random_socle(shape, rng):
    ranks = tuple(int(rng.integers(0, d + 1)) for d in shape.dims)
    return random_socle_element(shape, ranks, rng)


def eval_element_reference(p, x, e=None):
    """``eval_element`` as a loop of Element arithmetic, one Element per
    step: the reference its blockwise loop must match bit for bit."""
    if e is None:
        e = identity(x.shape)
    acc = e
    for root, m in p.factors:
        base = root * e - x
        for _ in range(m):
            acc = acc * base
    return acc


def assert_same_bits(a, b):
    assert a.shape == b.shape
    for x, y in zip(a.blocks, b.blocks):
        assert x.dtype == y.dtype and x.shape == y.shape
        assert x.tobytes() == y.tobytes()


class TestCharPolyConstruction:
    def test_rank_one_projection_matrix(self, rng):
        p = certified_poly(diag_element(M3, [1.0, 0.0, 0.0]), rng)
        assert p.degree == 2
        assert sorted((round(abs(r), 9), m) for r, m in p.factors) == [(0.0, 1), (1.0, 1)]
        # -x(1-x) = x^2 - x, descending coefficients [1, -1, 0]
        np.testing.assert_allclose(p.coefficients(), [1.0, -1.0, 0.0], atol=1e-12)

    def test_zero_element(self, rng):
        p = certified_poly(zero(M3), rng)
        assert p.factors == ((0.0 + 0.0j, 1),)
        np.testing.assert_allclose(p.coefficients(), [-1.0, 0.0], atol=1e-15)

    def test_invertible_maximal_matches_classical(self, rng):
        a = diag_element(M2, [1.0, 2.0])
        p = certified_poly(a, rng)
        np.testing.assert_allclose(p.coefficients(),
                                   classical_charpoly(a.blocks[0]), atol=1e-9)

    def test_nilpotent(self, rng):
        p = certified_poly(nilpotent2(), rng)
        assert p.factors == ((0.0 + 0.0j, 2),)

    def test_zero_counting_multiplicity_is_typed_error(self):
        records = [
            MultiplicityRecord(value=1.0 + 0j, m_counting=1, m_riesz=None,
                               disk_radius=0.3, samples=5, votes=((1, 5),)),
            MultiplicityRecord(value=2.0 + 0j, m_counting=0, m_riesz=None,
                               disk_radius=0.3, samples=5, votes=((0, 5),))]
        with pytest.raises(UnstableMultiplicityError) as info:
            char_poly_from_records(records, source_rank=2)
        assert info.value.histogram == ((0, 5),)
        assert char_poly_from_records(records[:1], 1).factors == ((1.0 + 0j, 1),)

    def test_direct_construction_still_validates(self):
        with pytest.raises(ValueError, match="positive"):
            CharPoly(factors=((1.0, 0),), source_rank=1)

    def test_degree_bounded_by_rank_plus_one(self):
        rng = make_rng(71)
        for _ in range(25):
            a = random_socle(M3_M2, rng)
            cert = spectral_rank(a, rng=rng)
            p = char_poly(a, rng, cert)
            assert p.degree <= cert.rank + 1

    def test_constant_term_law(self, rng):
        # p(0) = 0 exactly when 0 belongs to the spectrum
        singular = diag_element(M3, [1.0, 0.0, 0.0])
        p = certified_poly(singular, rng)
        assert eval_scalar(p, 0.0) == 0.0

        invertible = diag_element(M2, [1.0, 2.0])
        q = certified_poly(invertible, rng)
        assert eval_scalar(q, 0.0) != 0.0

        forced = diag_element(AlgebraShape(dims=(2,), ambient=INFINITE_SOCLE),
                              [1.0, 2.0])
        r = certified_poly(forced, rng)
        assert eval_scalar(r, 0.0) == 0.0

    def test_json_round_trip(self, rng):
        p = certified_poly(diag_element(M3, [1.0, 0.0, 0.0]), rng)
        data = json.loads(json.dumps(p.to_json()))
        again = tuple((pair_to_complex(f["root"]), f["mult"]) for f in data["factors"])
        assert again == p.factors
        assert data["source_rank"] == p.source_rank

    def test_maximal_fast_path_agrees(self, rng):
        a = diag_element(M3_M2, [1.0, 2.0, 0.0], [3.0, 0.0])
        fast = char_poly_maximal(a)
        full = certified_poly(a, rng)
        assert fast.degree == full.degree
        for (r1, m1), (r2, m2) in zip(fast.factors, full.factors):
            assert m1 == m2 and abs(r1 - r2) < 1e-9

    @pytest.mark.parametrize("ambient", [FINITE, INFINITE_SOCLE])
    def test_maximal_fast_path_has_root_zero_exactly_when_singular(self, ambient):
        # 0 is a root once, exactly when a block is rank-deficient or the
        # ambient adjoins 0: the rule by block ranks, apart from the spectrum
        rng = make_rng(31)
        shape = AlgebraShape(dims=(3, 2), ambient=ambient)
        elements = [diag_element(shape, [1.0, 2.0, 1e-12], [3.0, 4.0]),
                    diag_element(shape, [1.0, 2.0, 5.0], [3.0, 4.0])]
        for count in range(1, shape.total_dim + 1):
            eigs = [complex(k + 1, k % 2) for k in range(count)]
            elements.append(make_maximal(shape, eigs, rng))
        for a in elements:
            singular = ambient == INFINITE_SOCLE or rank_oracle(a) < shape.total_dim
            roots = [root for root, _ in char_poly_maximal(a).factors]
            assert roots.count(0) == int(singular)


class TestEvaluation:
    def test_scalar_value_frozen(self, rng):
        # (1 - 2)(0 - 2) = 2
        p = certified_poly(diag_element(M3, [1.0, 0.0, 0.0]), rng)
        assert abs(eval_scalar(p, 2.0) - 2.0) < 1e-12

    def test_element_classical_cayley_hamilton(self, rng):
        a = diag_element(M2, [1.0, 2.0])
        p = certified_poly(a, rng)
        assert norm(eval_element(p, a)) <= 1e-10

    def test_element_nilpotent_exact(self, rng):
        a = nilpotent2()
        p = certified_poly(a, rng)
        assert norm(eval_element(p, a)) == 0.0

    def test_element_at_zero_gives_constant_times_identity(self, rng):
        a = diag_element(M2, [1.0, 2.0])
        p = certified_poly(a, rng)
        value = eval_element(p, zero(M2))
        assert norm(value - 2.0 * identity(M2)) <= 1e-9

    def test_order_independence(self, rng):
        a = diag_element(M3_M2, [1.0, 2.0, 0.0], [3.0, -1.0])
        p = certified_poly(a, rng)
        reference = eval_element(p, a)
        scale = residual_scale(p, norm(a))
        for perm in itertools.permutations(p.factors):
            acc = identity(M3_M2)
            for root, m in perm:
                for _ in range(m):
                    acc = acc * (root * identity(M3_M2) - a)
            assert norm(acc - reference) <= 1e-9 * scale

    def test_compressed_evaluation_uses_view_identity(self, rng):
        # evaluate inside a corner: the compression of a maximal element is
        # annihilated by its polynomial built with the view identity
        a = diag_element(M3, [1.0, 2.0, 0.0])
        p = ProjectionElement(diag_element(M3, [1.0, 1.0, 0.0]))
        view = compressed_view(p)
        inside = view.compress(a)
        q = char_poly_maximal(inside)
        value = eval_element(q, inside, e=identity(view.shape))
        assert norm(value) <= 1e-9 * residual_scale(q, norm(inside))

    @pytest.mark.parametrize("ambient", [FINITE, INFINITE_SOCLE])
    def test_element_matches_elementwise_loop_bitwise(self, ambient):
        rng = make_rng(21)
        shape = AlgebraShape(dims=(3, 5, 2, 6), ambient=ambient)
        # 2 is a spectral value of multiplicity 3
        repeated = diag_element(shape, [2.0, 2.0, 1.0], [2.0, 0.0, 0.0, 0.0, 0.0],
                                [0.0, 0.0], [0.0] * 6)
        for a in [random_socle(shape, rng) for _ in range(6)] + [repeated]:
            p = certified_poly(a, rng)
            value = eval_element(p, a)
            assert_same_bits(value, eval_element_reference(p, a))
            for block in value.blocks:
                assert not block.flags.writeable
                assert not any(np.shares_memory(block, b) for b in a.blocks)
        assert (2.0, 3) in p.factors
        x = random_element(shape, rng)
        p = CharPoly(factors=((1.5 - 0.5j, 3), (0.25j, 2), (0.0, 1)), source_rank=2)
        assert_same_bits(eval_element(p, x), eval_element_reference(p, x))

    def test_element_matches_elementwise_loop_bitwise_in_a_corner(self):
        # an oblique projection p: e = p is the identity of the corner pAp
        # upstairs, and the view identity is that of its compression
        rng = make_rng(22)
        s = np.eye(3) + 0.5 * rng.standard_normal((3, 3))
        p = ProjectionElement(Element(M3, (s @ np.diag([1.0, 1.0, 0.0]) @ np.linalg.inv(s),)))
        a = random_socle(M3, rng)
        pap = p.element * a * p.element
        q = CharPoly(factors=((2.0 + 1j, 2), (-0.5, 1), (0.0, 2)), source_rank=2)
        assert_same_bits(eval_element(q, pap, e=p.element),
                         eval_element_reference(q, pap, e=p.element))
        view = compressed_view(p)
        inside = view.compress(a)
        assert_same_bits(eval_element(q, inside, e=identity(view.shape)),
                         eval_element_reference(q, inside, e=identity(view.shape)))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_element_overflow_is_nonfinite_error(self):
        a = diag_element(M2, [1e200, 1.0])
        # the product (-a)^2 overflows
        with pytest.raises(NonFiniteError, match="element arithmetic overflowed"):
            eval_element(CharPoly(factors=((0.0, 2),), source_rank=0), a)
        # the first base, 1e308 - (-1e308), overflows before any product
        b = diag_element(M2, [-1e308, 1.0])
        with pytest.raises(NonFiniteError, match="element arithmetic overflowed"):
            eval_element(CharPoly(factors=((1e308, 1),), source_rank=1), b)


class TestAnnihilationResidual:
    def test_golden_rank_one(self, rng):
        a = diag_element(M3, [1.0, 0.0, 0.0])
        assert cayley_hamilton_residual(a, certified_poly(a, rng)) <= 1e-10

    def test_zero_element(self, rng):
        a = zero(M3_M2)
        assert cayley_hamilton_residual(a, certified_poly(a, rng)) == 0.0

    def test_random_socle_campaign_small(self):
        rng = make_rng(72)
        worst = 0.0
        for _ in range(100):
            a = random_socle(M3_M2, rng)
            worst = max(worst, cayley_hamilton_residual(a, certified_poly(a, rng)))
        assert worst <= 1e-6


class TestTraceAndDeterminant:
    def test_trace_zero(self, rng):
        assert abs(trace(certified_poly(zero(M3), rng))) == 0.0

    def test_trace_golden(self, rng):
        p = certified_poly(diag_element(M3, [1.0, 0.0, 0.0]), rng)
        assert abs(trace(p) - 1.0) < 1e-9

    def test_trace_matches_classical_sum(self):
        rng = make_rng(73)
        for _ in range(30):
            a = random_socle(M3_M2, rng)
            classical = sum(np.trace(b) for b in a.blocks)
            got = trace(certified_poly(a, rng))
            assert abs(got - classical) <= 1e-8 * max(1.0, abs(classical))

    def test_det_of_identity_shift_of_zero(self, rng):
        a = zero(M3)
        assert det_plus_one(a, certified_poly(a, rng)) == 1.0

    def test_det_golden(self, rng):
        # (1+1)^1 (0+1)^1 = 2
        a = diag_element(M3, [1.0, 0.0, 0.0])
        got = det_plus_one(a, certified_poly(a, rng))
        assert abs(got - 2.0) < 1e-9

    def test_det_exactly_zero_when_minus_one_in_spectrum(self, rng):
        a = diag_element(M2, [-1.0, 3.0])
        got = det_plus_one(a, certified_poly(a, rng))
        assert got == 0.0

    def test_det_multiplicative_small(self):
        rng = make_rng(74)
        for _ in range(20):
            a = random_socle(M3_M2, rng)
            b = random_socle(M3_M2, rng)
            c = a + b + a * b
            lhs = det_plus_one(c, certified_poly(c, rng))
            rhs = (det_plus_one(a, certified_poly(a, rng))
                   * det_plus_one(b, certified_poly(b, rng)))
            assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs), abs(rhs))

    def test_sylvester_small(self):
        rng = make_rng(75)
        for _ in range(20):
            a = random_socle(M3_M2, rng)
            b = random_socle(M3_M2, rng)
            ab, ba = a * b, b * a
            lhs = det_plus_one(ab, certified_poly(ab, rng))
            rhs = det_plus_one(ba, certified_poly(ba, rng))
            assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs), abs(rhs))


class TestDiagonalization:
    def test_rank_one_projection_matrix(self, rng):
        a = diag_element(M3, [1.0, 0.0, 0.0])
        pairs = diagonalize_maximal(a, spectral_rank(a, rng=rng))
        assert len(pairs) == 1
        value, proj = pairs[0]
        assert abs(value - 1.0) < 1e-9
        assert norm(proj.element - a) <= 1e-9

    def test_two_distinct_values(self, rng):
        a = diag_element(M2, [1.0, 2.0])
        pairs = diagonalize_maximal(a, spectral_rank(a, rng=rng))
        assert len(pairs) == 2
        recon = zero(M2)
        for value, proj in pairs:
            recon = recon + value * proj.element
        assert norm(a - recon) <= 1e-8 * (1.0 + norm(a))

    def test_constructed_maximal_round_trip(self):
        rng = make_rng(76)
        for _ in range(10):
            a = make_maximal(M3_M2, [1.0, 2.0 + 1.0j, -1.5], rng)
            pairs = diagonalize_maximal(a, spectral_rank(a, rng=rng))
            recon = zero(M3_M2)
            for value, proj in pairs:
                recon = recon + value * proj.element
            assert norm(a - recon) <= 1e-8 * (1.0 + norm(a))

    def test_non_maximal_rejected(self, rng):
        with pytest.raises(DiagonalizationError):
            a = nilpotent2()
            diagonalize_maximal(a, spectral_rank(a, rng=rng))

    def test_zero_rejected(self, rng):
        with pytest.raises(DiagonalizationError):
            a = zero(M3)
            diagonalize_maximal(a, spectral_rank(a, rng=rng))


def reference_diagonalize(a, certificate, tols=DEFAULT_TOLS):
    """``diagonalize_maximal`` as the element-by-element loop its stacked
    checks replace: each projector's rank, then each of the k^2 products
    as element arithmetic."""
    if norm(a) == 0.0:
        raise DiagonalizationError("the zero element has no spectral resolution")
    if not is_maximal(a, certificate, tols):
        raise DiagonalizationError("element does not assume its rank at the identity")
    values = nonzero_spectrum(a, tols).values()
    radius = spectral_gap(a, tols) / config.RIESZ_RADIUS_DIV
    pairs = []
    for v, blocks in zip(values, charpoly.riesz_values(a, values, radius)):
        proj = ProjectionElement(Element(a.shape, settle(blocks)))
        r = rank_oracle(proj.element, tols)
        if r != 1:
            raise DiagonalizationError(f"projector at {v} has rank {r}, expected 1")
        pairs.append((v, proj))
    check_tol = config.PROJECTION_IDEM
    for i, (vi, pi) in enumerate(pairs):
        for j, (vj, pj) in enumerate(pairs):
            prod = pi.element * pj.element
            expect = pi.element if i == j else zero(a.shape)
            defect = norm(prod - expect)
            if defect > check_tol * (1.0 + norm(pi.element) * norm(pj.element)):
                raise DiagonalizationError(
                    f"projectors at {vi}, {vj} are not orthogonal idempotents")
    recon = zero(a.shape)
    for v, p in pairs:
        recon = recon + v * p.element
    defect = norm(a - recon)
    if defect > check_tol * (1.0 + norm(a)):
        raise DiagonalizationError(f"reconstruction defect {defect:.3e} too large")
    return pairs


def resolution_outcome(fn, a, certificate):
    """The ``(value, projector bytes)`` pairs, or the error's type and text."""
    try:
        pairs = fn(a, certificate)
    except Exception as exc:
        return type(exc), str(exc)
    return [(struct.pack("<dd", v.real, v.imag), [b.tobytes() for b in p.element.blocks])
            for v, p in pairs]


def assert_resolution_matches(a, certificate):
    got = resolution_outcome(diagonalize_maximal, a, certificate)
    # element arithmetic warns where it overflows; the stacked checks must not
    with np.errstate(over="ignore", invalid="ignore"):
        want = resolution_outcome(reference_diagonalize, a, certificate)
    assert got == want
    return got


class TestDiagonalizationAgainstElementLoop:
    @pytest.mark.parametrize("ambient", [FINITE, INFINITE_SOCLE])
    def test_constructed_maximal_elements(self, ambient):
        rng = make_rng(230)
        shapes = [(1,), (2,), (4,), (3, 2), (2, 2, 1), (6, 6, 6, 6), (4, 3)]
        for trial in range(25):
            dims = shapes[trial % len(shapes)]
            k = int(rng.integers(1, min(4, sum(dims)) + 1))
            values = [complex(m * np.cos(t), m * np.sin(t)) for m, t in
                      zip(rng.uniform(0.5, 3.0, k),
                          2 * np.pi * (np.arange(k) + rng.uniform(0, 0.5, k)) / k)]
            a = make_maximal(AlgebraShape(dims, ambient), values, rng)
            pairs = assert_resolution_matches(a, spectral_rank(a, rng=rng))
            assert len(pairs) == k

    def test_block_of_forty_values_crosses_the_product_budget(self):
        rng = make_rng(231)
        values = [complex(np.cos(t) * (1 + 0.3 * (t % 3)), np.sin(t) * (1 + 0.3 * (t % 3)))
                  for t in 2 * np.pi * np.arange(40) / 40]
        a = make_maximal(AlgebraShape((42,), INFINITE_SOCLE), values, rng)
        assert 40 * 40 * 42 ** 2 > 2 * charpoly._PRODUCT_BUDGET
        assert len(assert_resolution_matches(a, spectral_rank(a, rng=rng))) == 40

    def test_empty_resolution_of_a_tiny_element(self):
        for ambient in (FINITE, INFINITE_SOCLE):
            a = diag_element(AlgebraShape((3,), ambient), [1e-12, 2e-12, 0.0])
            assert assert_resolution_matches(a, spectral_rank(a, rng=make_rng(5))) == []

    @staticmethod
    def crafted(monkeypatch, diag, projectors):
        """``diag``'s element, certified, with ``riesz_values`` giving
        ``projectors`` (matrices or errors) for its values in order."""
        a = diag_element(AlgebraShape((len(diag),)), diag)
        certificate = spectral_rank(a, rng=make_rng(6))
        assert certificate.rank == len(projectors)

        def riesz_values(_a, values, _radius):
            assert len(values) == len(projectors)
            return [p if isinstance(p, Exception) else (np.asarray(p, dtype=complex),)
                    for p in projectors]
        monkeypatch.setattr(charpoly, "riesz_values", riesz_values)
        return a, certificate

    def assert_raises_as_reference(self, monkeypatch, diag, projectors, error, text):
        a, certificate = self.crafted(monkeypatch, diag, projectors)
        got = assert_resolution_matches(a, certificate)
        assert got[0] is error and text in got[1]

    def test_rank_two_projector(self, monkeypatch):
        self.assert_raises_as_reference(
            monkeypatch, [1.0, 2.0, 0.0], [np.diag([1, 0, 0]), np.diag([0, 1, 1])],
            DiagonalizationError, "projector at (2+0j) has rank 2")

    def test_rank_test_comes_before_a_later_contour_error(self, monkeypatch):
        self.assert_raises_as_reference(
            monkeypatch, [1.0, 2.0, 0.0], [np.diag([1, 1, 0]), ContourError("rejected")],
            DiagonalizationError, "projector at (1+0j) has rank 2")
        self.assert_raises_as_reference(
            monkeypatch, [1.0, 2.0, 0.0], [np.diag([1, 0, 0]), ContourError("rejected")],
            ContourError, "rejected")
        self.assert_raises_as_reference(
            monkeypatch, [1.0, 2.0, 0.0], [np.diag([1, 0, 0]), np.diag([0, 2, 0])],
            ValueError, "not a projection")

    def test_first_non_orthogonal_pair_in_row_order_is_named(self, monkeypatch):
        # p_i = u_i v_i^T; pairs (0, 2) and (1, 0) have v_i . u_j = 1, and
        # (0, 2) comes first row by row, (1, 0) column by column
        e = np.eye(4)
        p = [np.outer(e[0], e[0] + e[2]), np.outer(e[1], e[1] + e[0]), np.outer(e[2], e[2])]
        self.assert_raises_as_reference(
            monkeypatch, [1.0, 2.0, 3.0, 0.0], p,
            DiagonalizationError, "projectors at (1+0j), (3+0j) are not orthogonal")

    def test_overflowing_product(self, monkeypatch):
        # p_1 p_0 has the entry 1e200 * 1e200
        e = np.eye(3)
        p = [np.outer(e[0] + 1e200 * e[1], e[0]), np.outer(e[2], e[2] + 1e200 * e[1])]
        self.assert_raises_as_reference(
            monkeypatch, [1.0, 2.0, 0.0], p, NonFiniteError, "element arithmetic overflowed")

    def test_overflowing_defect_norm(self, monkeypatch):
        # p_0 p_1 is finite, with two entries 1.5e308: its norm overflows
        e = np.eye(4)
        p = [np.outer(e[0] + e[1], e[0] + 1e154 * e[3]), np.outer(e[2] + 1.5e154 * e[3], e[2])]
        self.assert_raises_as_reference(
            monkeypatch, [1.0, 2.0, 0.0, 0.0], p, NonFiniteError, "element norm overflowed")

    def test_reconstruction_defect(self, monkeypatch):
        self.assert_raises_as_reference(
            monkeypatch, [1.0, 2.0, 0.0], [np.diag([1, 0, 0]), np.diag([0, 0, 1])],
            DiagonalizationError, "reconstruction defect")


class TestApproximationSequence:
    def test_nilpotent_walk_converges(self, rng):
        a = nilpotent2()
        record = approximation_sequence(a, 6, 3.0, rng, spectral_rank(a, rng=rng))
        assert record.completed and len(record.steps) == 6
        dev2 = record.steps[1].deviation
        dev6 = record.steps[5].deviation
        assert dev6 <= dev2 / 2.0
        for step in record.steps:
            assert step.residual <= 1e-6

    def test_maximal_element_walk_stays_annihilating(self, rng):
        a = diag_element(M2, [1.0, 2.0])
        record = approximation_sequence(a, 6, 3.0, rng, spectral_rank(a, rng=rng))
        assert record.completed
        # already at the limit: deviations track the witness scale and the
        # step residuals never leave rounding level
        assert record.steps[5].deviation <= record.steps[0].deviation / 2.0
        assert all(s.residual <= 1e-10 for s in record.steps)

    def test_minimum_steps_enforced(self, rng):
        with pytest.raises(ValueError):
            a = nilpotent2()
            approximation_sequence(a, 2, 3.0, rng, spectral_rank(a, rng=rng))

    def test_record_json(self, rng):
        a = nilpotent2()
        record = approximation_sequence(a, 3, 3.0, rng, spectral_rank(a, rng=rng))
        data = record.to_json()
        assert data["completed"] is True
        assert len(data["steps"]) == 3


class TestNaiveDetDemo:
    def test_frozen_values(self):
        report = naive_det_demo(make_rng(0))
        assert {tuple(e["value"]): e["m"] for e in report["element_spectrum"]} \
            == {(0.0, 0.0): 1, (1.0, 0.0): 2}
        assert report["det_a_minus_2id"] == [-2.0, 0.0]
        assert report["det_half_a_minus_id"] == [-0.25, 0.0]
        assert report["det_2id_as_shifted_zero"] == [2.0, 0.0]
        assert report["det_2id_as_direct_value"] == [8.0, 0.0]
        assert report["multiplicative_shifted_zero"] is False
        assert report["multiplicative_direct_value"] is True
