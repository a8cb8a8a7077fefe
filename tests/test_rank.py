import numpy as np
import pytest

from specrank import config
from specrank.algebra import (AlgebraShape, Element, ProjectionElement,
                              compressed_view, count_nonzero_spectrum, ginibre,
                              identity, norm, random_element,
                              random_socle_element, spectrum, zero)
from specrank.charpoly import diagonalize_maximal
from specrank.config import Tolerances
from specrank.numkernel import SpecrankError
from specrank.rank import (IllConditionedError, UncertifiedRankError,
                           _well_conditioned_similarity, assumes_rank_at,
                           is_maximal, make_maximal, rank_oracle,
                           require_certified, spectral_rank)
from conftest import make_rng

M3 = AlgebraShape(dims=(3,))
M3_M2 = AlgebraShape(dims=(3, 2))


def diag_element(shape, *block_diags):
    return Element(shape, tuple(np.diag(np.asarray(d, dtype=np.complex128))
                                for d in block_diags))


class TestRankOracle:
    def test_zero(self):
        assert rank_oracle(zero(M3_M2)) == 0

    def test_rank_one(self):
        assert rank_oracle(diag_element(M3, [1.0, 0.0, 0.0])) == 1

    def test_identity_full_rank(self):
        assert rank_oracle(identity(AlgebraShape(dims=(2, 3)))) == 5


class TestSpectralRank:
    def test_zero_element(self, rng):
        cert = spectral_rank(zero(M3), rng=rng)
        assert cert.rank == 0
        assert cert.certified

    def test_rank_one_projection_matrix(self, rng):
        cert = spectral_rank(diag_element(M3, [1.0, 0.0, 0.0]), rng=rng)
        assert cert.rank == 1
        assert cert.oracle_rank == 1
        assert cert.certified

    def test_block_factor_ranks(self, rng):
        a = random_socle_element(M3_M2, (2, 1), rng)
        cert = spectral_rank(a, rng=rng)
        assert cert.rank == 3
        assert cert.certified

    def test_sampled_counts_never_exceed_oracle(self):
        rng = make_rng(51)
        for _ in range(50):
            ranks = (int(rng.integers(0, 4)), int(rng.integers(0, 3)))
            a = random_socle_element(M3_M2, ranks, rng)
            oracle = rank_oracle(a)
            for _ in range(5):
                x = random_element(M3_M2, rng)
                assert count_nonzero_spectrum(x * a) <= oracle

    def test_certification_rate_small_campaign(self):
        rng = make_rng(52)
        certified = 0
        for _ in range(100):
            ranks = (int(rng.integers(0, 4)), int(rng.integers(0, 3)))
            a = random_socle_element(M3_M2, ranks, rng)
            cert = spectral_rank(a, rng=rng)
            certified += cert.certified
        assert certified == 100

    def test_scale_invariance(self):
        rng = make_rng(53)
        for lam in (2.0, -0.5, 1.0j, 3.0 - 4.0j):
            a = random_socle_element(M3_M2, (2, 1), rng)
            c1 = spectral_rank(a, rng=rng)
            c2 = spectral_rank(lam * a, rng=rng)
            assert c1.rank == c2.rank

    def test_requires_rng(self):
        with pytest.raises(ValueError):
            spectral_rank(zero(M3), rng=None)

    def test_certificate_json(self, rng):
        cert = spectral_rank(diag_element(M3, [1.0, 0.0, 0.0]), rng=rng)
        data = cert.to_json()
        assert data["rank"] == 1 and data["certified"] is True
        assert "witness" in data


class TestAssumesRankAt:
    def test_zero_witness_fails_for_nonzero_element(self, rng):
        a = diag_element(M3, [1.0, 0.0, 0.0])
        cert = spectral_rank(a, rng=rng)
        assert not assumes_rank_at(a, zero(M3), cert)

    def test_identity_attains_for_maximal(self, rng):
        a = diag_element(M3, [1.0, 0.0, 0.0])
        cert = spectral_rank(a, rng=rng)
        assert assumes_rank_at(a, identity(M3), cert)

    def test_random_witness_generically_attains(self):
        rng = make_rng(54)
        a = random_socle_element(M3_M2, (2, 1), rng)
        cert = spectral_rank(a, rng=rng)
        hits = sum(assumes_rank_at(a, random_element(M3_M2, rng), cert)
                   for _ in range(100))
        assert hits >= 99

    def test_uncertified_rank_is_rejected(self, rng):
        # a cluster floor above every sampled value classifies all spectral
        # points as zero, so the sampled count stays below the oracle
        coarse = Tolerances(cluster_floor=100.0)
        a = diag_element(AlgebraShape(dims=(2,)), [1.0, 1.4])
        cert = spectral_rank(a, rng=rng, tols=coarse)
        assert not cert.certified
        assert cert.samples_used == 32  # escalation exhausted
        with pytest.raises(UncertifiedRankError):
            assumes_rank_at(a, identity(a.shape), cert, coarse)
        with pytest.raises(UncertifiedRankError, match="rank 0 below oracle 2"):
            require_certified(cert)

    def test_graded_diagonal_samples_rank_above_oracle(self, rng):
        # 0.5 sits below the oracle's singular-value cutoff (1e-8 * 1e8) but
        # products x*a show it as a distinct nonzero value
        a = diag_element(AlgebraShape(dims=(2,)), [1e8, 0.5])
        cert = spectral_rank(a, rng=rng)
        assert (cert.rank, cert.oracle_rank, cert.certified) == (2, 1, False)
        with pytest.raises(UncertifiedRankError, match="rank 2 above oracle 1"):
            assumes_rank_at(a, identity(a.shape), cert)


class TestIsMaximal:
    def test_rank_one_projection_matrix(self, rng):
        a = diag_element(M3, [1.0, 0.0, 0.0])
        assert is_maximal(a, spectral_rank(a, rng=rng))

    def test_identity_in_m2_is_not(self, rng):
        # repeated eigenvalue: one distinct nonzero value but rank 2
        a = identity(AlgebraShape(dims=(2,)))
        assert not is_maximal(a, spectral_rank(a, rng=rng))

    def test_distinct_diagonal_blocks(self, rng):
        a = diag_element(AlgebraShape(dims=(2, 1)), [1.0, 2.0], [3.0])
        assert is_maximal(a, spectral_rank(a, rng=rng))


class TestWellConditionedSimilarity:
    def test_first_acceptable_draw_is_kept(self):
        s = _well_conditioned_similarity(make_rng(8), 4)
        first = np.eye(4, dtype=np.complex128) + ginibre(make_rng(8), 4)
        assert s.tobytes() == first.tobytes()

    def test_draws_are_bounded(self, monkeypatch):
        rng = make_rng(9)
        monkeypatch.setattr(config, "SIMILARITY_COND_CAP", 1.0)
        with pytest.raises(IllConditionedError, match="in 20 draws"):
            _well_conditioned_similarity(rng, 3)
        probe = make_rng(9)
        for _ in range(config.CONDITION_RETRIES):
            ginibre(probe, 3)
        assert rng.random() == probe.random()
        assert issubclass(IllConditionedError, SpecrankError)


class TestMakeMaximal:
    def test_single_eigenvalue_in_m3(self, rng):
        a = make_maximal(M3, [1.0], rng)
        values = spectrum(a).values()
        assert len(values) == 2
        assert values[0] == 0.0
        assert abs(values[1] - 1.0) < 1e-9
        assert rank_oracle(a) == 1
        assert is_maximal(a, spectral_rank(a, rng=rng))

    def test_no_eigenvalues_gives_zero(self, rng):
        assert norm(make_maximal(M3, [], rng)) == 0.0

    def test_split_across_blocks(self, rng):
        shape = AlgebraShape(dims=(2, 2))
        a = make_maximal(shape, [1.0, 2.0, 3.0], rng)
        cert = spectral_rank(a, rng=rng)
        assert cert.rank == 3
        assert is_maximal(a, cert)

    def test_explicit_assignment(self, rng):
        shape = AlgebraShape(dims=(2, 2))
        a = make_maximal(shape, [1.0, 2.0, 3.0], rng, assignment=[0, 0, 1])
        assert count_nonzero_spectrum(a) == 3
        assert rank_oracle(a) == 3

    def test_rejects_duplicate_or_zero_values(self, rng):
        with pytest.raises(ValueError):
            make_maximal(M3, [1.0, 1.0], rng)
        with pytest.raises(ValueError):
            make_maximal(M3, [0.0], rng)

    def test_rejects_overfull_block(self, rng):
        with pytest.raises(ValueError):
            make_maximal(M3, [1.0, 2.0, 3.0, 4.0], rng)


class TestCompressedRank:
    def test_rank_agrees_under_compression(self):
        rng = make_rng(55)
        shape = AlgebraShape(dims=(3, 2))
        for _ in range(20):
            m = make_maximal(shape, [1.0, 2.5, -1.0 + 1.0j], rng)
            pairs = diagonalize_maximal(m, spectral_rank(m, rng=rng))
            total = zero(shape)
            for _, proj in pairs[:2]:
                total = total + proj.element
            p = ProjectionElement(total)
            view = compressed_view(p)
            x = random_element(shape, rng)
            pxp = p.element * x * p.element
            cert_a = spectral_rank(pxp, rng=rng)
            cert_v = spectral_rank(view.compress(x), rng=rng)
            assert cert_a.certified and cert_v.certified
            assert cert_a.rank == cert_v.rank
