import itertools

import numpy as np
import pytest

from specrank.algebra import (AlgebraShape, Element, INFINITE_SOCLE,
                              ProjectionElement, compressed_view, identity,
                              norm, random_socle_element, zero)
from specrank.charpoly import (CharPoly, DiagonalizationError,
                               approximation_sequence,
                               cayley_hamilton_residual, char_poly,
                               char_poly_from_records, char_poly_maximal,
                               det_plus_one,
                               diagonalize_maximal, eval_element, eval_scalar,
                               naive_det_demo, residual_scale, trace)
from specrank.multiplicity import MultiplicityRecord, UnstableMultiplicityError
from specrank.numkernel import classical_charpoly
from specrank.rank import make_maximal, spectral_rank
from conftest import make_rng

M2 = AlgebraShape(dims=(2,))
M3 = AlgebraShape(dims=(3,))
M3_M2 = AlgebraShape(dims=(3, 2))


def diag_element(shape, *block_diags):
    return Element(shape, tuple(np.diag(np.asarray(d, dtype=np.complex128))
                                for d in block_diags))


def nilpotent2():
    return Element(M2, (np.array([[0.0, 1.0], [0.0, 0.0]]),))


def random_socle(shape, rng):
    ranks = tuple(int(rng.integers(0, d + 1)) for d in shape.dims)
    return random_socle_element(shape, ranks, rng)


class TestCharPolyConstruction:
    def test_rank_one_projection_matrix(self, rng):
        p = char_poly(diag_element(M3, [1.0, 0.0, 0.0]), rng)
        assert p.degree == 2
        assert sorted((round(abs(r), 9), m) for r, m in p.factors) == [(0.0, 1), (1.0, 1)]
        # -x(1-x) = x^2 - x, descending coefficients [1, -1, 0]
        np.testing.assert_allclose(p.coefficients(), [1.0, -1.0, 0.0], atol=1e-12)

    def test_zero_element(self, rng):
        p = char_poly(zero(M3), rng)
        assert p.factors == ((0.0 + 0.0j, 1),)
        np.testing.assert_allclose(p.coefficients(), [-1.0, 0.0], atol=1e-15)

    def test_invertible_maximal_matches_classical(self, rng):
        a = diag_element(M2, [1.0, 2.0])
        p = char_poly(a, rng)
        np.testing.assert_allclose(p.coefficients(),
                                   classical_charpoly(a.blocks[0]), atol=1e-9)

    def test_nilpotent(self, rng):
        p = char_poly(nilpotent2(), rng)
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
        p = char_poly(singular, rng)
        assert eval_scalar(p, 0.0) == 0.0

        invertible = diag_element(M2, [1.0, 2.0])
        q = char_poly(invertible, rng)
        assert eval_scalar(q, 0.0) != 0.0

        forced = diag_element(AlgebraShape(dims=(2,), ambient=INFINITE_SOCLE),
                              [1.0, 2.0])
        r = char_poly(forced, rng)
        assert eval_scalar(r, 0.0) == 0.0

    def test_json_round_trip(self, rng):
        p = char_poly(diag_element(M3, [1.0, 0.0, 0.0]), rng)
        again = CharPoly.from_json(p.to_json())
        assert again.factors == p.factors
        assert again.source_rank == p.source_rank

    def test_maximal_fast_path_agrees(self, rng):
        a = diag_element(M3_M2, [1.0, 2.0, 0.0], [3.0, 0.0])
        fast = char_poly_maximal(a)
        full = char_poly(a, rng)
        assert fast.degree == full.degree
        for (r1, m1), (r2, m2) in zip(fast.factors, full.factors):
            assert m1 == m2 and abs(r1 - r2) < 1e-9


class TestEvaluation:
    def test_scalar_value_frozen(self, rng):
        # (1 - 2)(0 - 2) = 2
        p = char_poly(diag_element(M3, [1.0, 0.0, 0.0]), rng)
        assert abs(eval_scalar(p, 2.0) - 2.0) < 1e-12

    def test_element_classical_cayley_hamilton(self, rng):
        a = diag_element(M2, [1.0, 2.0])
        p = char_poly(a, rng)
        assert norm(eval_element(p, a)) <= 1e-10

    def test_element_nilpotent_exact(self, rng):
        a = nilpotent2()
        p = char_poly(a, rng)
        assert norm(eval_element(p, a)) == 0.0

    def test_element_at_zero_gives_constant_times_identity(self, rng):
        a = diag_element(M2, [1.0, 2.0])
        p = char_poly(a, rng)
        value = eval_element(p, zero(M2))
        assert norm(value - 2.0 * identity(M2)) <= 1e-9

    def test_order_independence(self, rng):
        a = diag_element(M3_M2, [1.0, 2.0, 0.0], [3.0, -1.0])
        p = char_poly(a, rng)
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
        value = eval_element(q, inside, e=view.identity())
        assert norm(value) <= 1e-9 * residual_scale(q, norm(inside))


class TestAnnihilationResidual:
    def test_golden_rank_one(self, rng):
        a = diag_element(M3, [1.0, 0.0, 0.0])
        assert cayley_hamilton_residual(a, rng) <= 1e-10

    def test_zero_element(self, rng):
        assert cayley_hamilton_residual(zero(M3_M2), rng) == 0.0

    def test_random_socle_campaign_small(self):
        rng = make_rng(72)
        worst = 0.0
        for _ in range(100):
            a = random_socle(M3_M2, rng)
            worst = max(worst, cayley_hamilton_residual(a, rng))
        assert worst <= 1e-6


class TestTraceAndDeterminant:
    def test_trace_zero(self, rng):
        assert abs(trace(zero(M3), rng)) == 0.0

    def test_trace_golden(self, rng):
        assert abs(trace(diag_element(M3, [1.0, 0.0, 0.0]), rng) - 1.0) < 1e-9

    def test_trace_matches_classical_sum(self):
        rng = make_rng(73)
        for _ in range(30):
            a = random_socle(M3_M2, rng)
            classical = sum(np.trace(b) for b in a.blocks)
            got = trace(a, rng)
            assert abs(got - classical) <= 1e-8 * max(1.0, abs(classical))

    def test_det_of_identity_shift_of_zero(self, rng):
        assert det_plus_one(zero(M3), rng) == 1.0

    def test_det_golden(self, rng):
        # (1+1)^1 (0+1)^1 = 2
        got = det_plus_one(diag_element(M3, [1.0, 0.0, 0.0]), rng)
        assert abs(got - 2.0) < 1e-9

    def test_det_exactly_zero_when_minus_one_in_spectrum(self, rng):
        got = det_plus_one(diag_element(M2, [-1.0, 3.0]), rng)
        assert got == 0.0

    def test_det_multiplicative_small(self):
        rng = make_rng(74)
        for _ in range(20):
            a = random_socle(M3_M2, rng)
            b = random_socle(M3_M2, rng)
            lhs = det_plus_one(a + b + a * b, rng)
            rhs = det_plus_one(a, rng) * det_plus_one(b, rng)
            assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs), abs(rhs))

    def test_sylvester_small(self):
        rng = make_rng(75)
        for _ in range(20):
            a = random_socle(M3_M2, rng)
            b = random_socle(M3_M2, rng)
            lhs = det_plus_one(a * b, rng)
            rhs = det_plus_one(b * a, rng)
            assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs), abs(rhs))


class TestDiagonalization:
    def test_rank_one_projection_matrix(self, rng):
        a = diag_element(M3, [1.0, 0.0, 0.0])
        pairs = diagonalize_maximal(a, rng)
        assert len(pairs) == 1
        value, proj = pairs[0]
        assert abs(value - 1.0) < 1e-9
        assert norm(proj.element - a) <= 1e-9

    def test_two_distinct_values(self, rng):
        a = diag_element(M2, [1.0, 2.0])
        pairs = diagonalize_maximal(a, rng)
        assert len(pairs) == 2
        recon = zero(M2)
        for value, proj in pairs:
            recon = recon + value * proj.element
        assert norm(a - recon) <= 1e-8 * (1.0 + norm(a))

    def test_constructed_maximal_round_trip(self):
        rng = make_rng(76)
        for _ in range(10):
            a = make_maximal(M3_M2, [1.0, 2.0 + 1.0j, -1.5], rng)
            pairs = diagonalize_maximal(a, rng)
            recon = zero(M3_M2)
            for value, proj in pairs:
                recon = recon + value * proj.element
            assert norm(a - recon) <= 1e-8 * (1.0 + norm(a))

    def test_non_maximal_rejected(self, rng):
        with pytest.raises(DiagonalizationError):
            diagonalize_maximal(nilpotent2(), rng)

    def test_zero_rejected(self, rng):
        with pytest.raises(DiagonalizationError):
            diagonalize_maximal(zero(M3), rng)


class TestApproximationSequence:
    def test_nilpotent_walk_converges(self, rng):
        record = approximation_sequence(nilpotent2(), 6, 3.0, rng)
        assert record.completed and len(record.steps) == 6
        dev2 = record.steps[1].deviation
        dev6 = record.steps[5].deviation
        assert dev6 <= dev2 / 2.0
        for step in record.steps:
            assert step.residual <= 1e-6

    def test_maximal_element_walk_stays_annihilating(self, rng):
        a = diag_element(M2, [1.0, 2.0])
        record = approximation_sequence(a, 6, 3.0, rng)
        assert record.completed
        # already at the limit: deviations track the witness scale and the
        # step residuals never leave rounding level
        assert record.steps[5].deviation <= record.steps[0].deviation / 2.0
        assert all(s.residual <= 1e-10 for s in record.steps)

    def test_minimum_steps_enforced(self, rng):
        with pytest.raises(ValueError):
            approximation_sequence(nilpotent2(), 2, 3.0, rng)

    def test_record_json(self, rng):
        record = approximation_sequence(nilpotent2(), 3, 3.0, rng)
        data = record.to_json()
        assert data["completed"] is True
        assert len(data["steps"]) == 3


class TestNaiveDetDemo:
    def test_frozen_values(self):
        report = naive_det_demo()
        assert {tuple(e["value"]): e["m"] for e in report["element_spectrum"]} \
            == {(0.0, 0.0): 1, (1.0, 0.0): 2}
        assert report["det_a_minus_2id"] == [-2.0, 0.0]
        assert report["det_half_a_minus_id"] == [-0.25, 0.0]
        assert report["det_2id_as_shifted_zero"] == [2.0, 0.0]
        assert report["det_2id_as_direct_value"] == [8.0, 0.0]
        assert report["multiplicative_shifted_zero"] is False
        assert report["multiplicative_direct_value"] is True
