import math

import numpy as np
import pytest

from specrank.algebra import (AlgebraShape, Element, INFINITE_SOCLE,
                              random_socle_element, spectrum)
from specrank.multiplicity import (SpectrumDomainError, _riesz_count,
                                   multiplicities, multiplicity,
                                   multiplicity_oracle, multiplicity_riesz,
                                   spectral_gap)
from specrank.numkernel import ContourError, riesz_projection
from specrank.rank import make_maximal, spectral_rank
from conftest import make_rng

M3 = AlgebraShape(dims=(3,))
M2 = AlgebraShape(dims=(2,))
C3 = AlgebraShape(dims=(1, 1, 1))


def diag_element(shape, *block_diags):
    return Element(shape, tuple(np.diag(np.asarray(d, dtype=np.complex128))
                                for d in block_diags))


def brute_force_count(a, lam, radius, rng, trials=40, eps=0.05):
    """Independent counting oracle: perturb the identity, list the distinct
    eigenvalues of the product, count those inside the disk; majority over
    raw trials without any rank conditioning."""
    votes = {}
    for _ in range(trials):
        blocks = []
        for block, d in zip(a.blocks, a.shape.dims):
            g = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
            blocks.append((np.eye(d) + eps * g / np.sqrt(2 * d)) @ block)
        values = np.concatenate([np.linalg.eigvals(b) for b in blocks])
        distinct = []
        for v in values:
            if all(abs(v - w) > 1e-9 for w in distinct):
                distinct.append(v)
        count = sum(1 for v in distinct if abs(v - lam) <= radius)
        votes[count] = votes.get(count, 0) + 1
    return max(votes.items(), key=lambda kv: kv[1])[0]


class TestSpectralGap:
    def test_two_point_spectrum(self):
        assert abs(spectral_gap(diag_element(M3, [1.0, 0.0, 0.0])) - 1.0) < 1e-12

    def test_close_pair(self):
        gap = spectral_gap(diag_element(M3, [1.0, 1.01, 0.0]))
        assert abs(gap - 0.01) < 1e-9

    def test_degenerate_spectrum_is_sentinel(self):
        a = Element(M2, (np.array([[0.0, 1.0], [0.0, 0.0]]),))
        assert math.isinf(spectral_gap(a))

    def test_zero_is_always_included(self):
        # spectrum is {2}; the gap measures the distance to 0 as well
        assert abs(spectral_gap(diag_element(M2, [2.0, 2.0])) - 2.0) < 1e-12


class TestCountingMultiplicity:
    def test_rank_one_projection_matrix(self, rng):
        a = diag_element(M3, [1.0, 0.0, 0.0])
        rec1 = multiplicity(a, 1.0, rng)
        rec0 = multiplicity(a, 0.0, rng)
        assert rec1.m_counting == 1 and rec1.m_riesz == 1
        assert rec0.m_counting == 1 and rec0.m_riesz is None

    def test_zero_element(self, rng):
        rec = multiplicity(zero_element := diag_element(M3, [0, 0, 0]), 0.0, rng)
        assert rec.m_counting == 1
        assert spectrum(zero_element).values() == [0.0]

    def test_nilpotent_counts_two_at_zero(self, rng):
        # independent oracle first: generic products have eigenvalues {t, 0}
        # with small nonzero t, both inside any moderate disk at 0
        a = Element(M2, (np.array([[0.0, 1.0], [0.0, 0.0]]),))
        oracle = brute_force_count(a, 0.0, radius=2.0, rng=make_rng(99))
        assert oracle == 2
        rec = multiplicity(a, 0.0, rng)
        assert rec.m_counting == 2

    def test_c3_example(self, rng):
        a = diag_element(C3, [1.0], [1.0], [0.0])
        assert multiplicity(a, 1.0, rng).m_counting == 2
        assert multiplicity(a, 0.0, rng).m_counting == 1

    def test_not_a_spectral_value(self, rng):
        with pytest.raises(SpectrumDomainError):
            multiplicity(diag_element(M3, [1.0, 0.0, 0.0]), 7.0, rng)

    def test_ambient_zero_is_counted(self, rng):
        shape = AlgebraShape(dims=(2,), ambient=INFINITE_SOCLE)
        a = diag_element(shape, [1.0, 2.0])
        rec = multiplicity(a, 0.0, rng)
        assert rec.m_counting == 1

    def test_votes_recorded(self, rng):
        rec = multiplicity(diag_element(M3, [1.0, 0.0, 0.0]), 1.0, rng)
        assert sum(n for _, n in rec.votes) == rec.samples
        assert rec.samples >= 5


class TestRieszMultiplicity:
    def test_rank_one_projection_matrix(self):
        assert multiplicity_riesz(diag_element(M3, [1.0, 0.0, 0.0]), 1.0) == 1

    def test_c3_example(self):
        assert multiplicity_riesz(diag_element(C3, [1.0], [1.0], [0.0]), 1.0) == 2

    def test_defective_eigenvalue(self):
        shape = AlgebraShape(dims=(2, 1))
        a = Element(shape, (np.array([[2.0, 1.0], [0.0, 2.0]]),
                            np.array([[3.0]])))
        assert multiplicity_riesz(a, 2.0) == 2

    def test_zero_is_rejected(self):
        with pytest.raises(SpectrumDomainError):
            multiplicity_riesz(diag_element(M3, [1.0, 0.0, 0.0]), 0.0)


class TestMultiplicityOracle:
    def test_rank_one_projection_matrix_at_zero(self):
        # rank 1 - one nonzero value + singular: 1 - 1 + 1 = 1
        assert multiplicity_oracle(diag_element(M3, [1.0, 0.0, 0.0]), 0.0) == 1

    def test_zero_element_at_zero(self):
        assert multiplicity_oracle(diag_element(M3, [0, 0, 0]), 0.0) == 1

    def test_c3_example_at_zero(self):
        assert multiplicity_oracle(diag_element(C3, [1.0], [1.0], [0.0]), 0.0) == 1

    def test_nilpotent_at_zero(self):
        a = Element(M2, (np.array([[0.0, 1.0], [0.0, 0.0]]),))
        assert multiplicity_oracle(a, 0.0) == 2

    def test_oracle_matches_counting_on_random_elements(self):
        # gate for trusting the zero formula in campaigns
        rng = make_rng(61)
        shape = AlgebraShape(dims=(3, 2))
        for _ in range(30):
            ranks = (int(rng.integers(0, 4)), int(rng.integers(0, 3)))
            a = random_socle_element(shape, ranks, rng)
            for rec in multiplicities(a, rng, with_riesz=False):
                assert rec.m_counting == multiplicity_oracle(a, rec.value)


class TestInvariants:
    def test_total_multiplicity_bounded_by_rank_plus_one(self):
        rng = make_rng(62)
        shape = AlgebraShape(dims=(3, 2))
        for _ in range(30):
            ranks = (int(rng.integers(0, 4)), int(rng.integers(0, 3)))
            a = random_socle_element(shape, ranks, rng)
            cert = spectral_rank(a, rng=rng)
            total = sum(rec.m_counting for rec in multiplicities(a, rng, cert))
            assert total <= cert.rank + 1

    def test_counting_equals_riesz_equals_algebraic(self):
        rng = make_rng(63)
        shape = AlgebraShape(dims=(3, 2))
        for _ in range(25):
            ranks = (int(rng.integers(1, 4)), int(rng.integers(0, 3)))
            a = random_socle_element(shape, ranks, rng)
            spec = spectrum(a)
            for rec in multiplicities(a, rng, with_riesz=True):
                if abs(rec.value) > spec.tol:
                    algebraic = spec.count_at(rec.value)
                    assert rec.m_counting == rec.m_riesz == algebraic

    def test_maximal_elements_have_multiplicity_one(self):
        rng = make_rng(64)
        shape = AlgebraShape(dims=(3, 2))
        for _ in range(20):
            n_values = int(rng.integers(1, 5))
            values = []
            while len(values) < n_values:
                z = (0.5 + rng.random()) * np.exp(2j * np.pi * rng.random())
                if all(abs(z - w) > 0.2 for w in values):
                    values.append(complex(z))
            a = make_maximal(shape, values, rng)
            for rec in multiplicities(a, rng, with_riesz=False):
                assert rec.m_counting == 1

    def test_similarity_invariance_within_block(self, rng):
        a = diag_element(M3, [1.0, 1.0, 0.0])
        s = np.eye(3) + 0.3 * (rng.standard_normal((3, 3))
                               + 1j * rng.standard_normal((3, 3)))
        b = Element(M3, (s @ a.blocks[0] @ np.linalg.inv(s),))
        ma = sorted((round(r.value.real, 6), r.m_counting)
                    for r in multiplicities(a, rng, with_riesz=False))
        mb = sorted((round(r.value.real, 6), r.m_counting)
                    for r in multiplicities(b, rng, with_riesz=False))
        assert ma == mb


def test_record_json_round_trip(rng):
    rec = multiplicity(diag_element(M3, [1.0, 0.0, 0.0]), 1.0, rng)
    data = rec.to_json()
    assert data["m_counting"] == 1
    assert data["m_riesz"] == 1
    assert isinstance(data["votes"], list)


def test_block_failures_raised_value_by_value():
    # block 0 rejects the contour around 5, whose circle passes through its
    # eigenvalue 6; block 1's transform overflows around -8e307. Walked value
    # by value, then block by block, the overflow comes first.
    a = Element(AlgebraShape(dims=(2, 1)),
                (np.diag([0.0, 6.0]), np.array([[1e308]])))
    centers = [-8e307, 5.0]
    first_errors = []
    for center in centers:  # one kernel call per value and block
        errors = []
        for block, values in zip(a.blocks, a.block_eigs()):
            try:
                riesz_projection(block, center, 1.0, values=values)
            except ContourError as exc:
                errors.append(f"{type(exc).__name__}: {exc}")
        first_errors.append(errors[0])
    assert "overflowed" in first_errors[0] and "too close" in first_errors[1]
    counts = _riesz_count(a, centers, 2.0)
    assert [f"{type(c).__name__}: {c}" for c in counts] == first_errors
