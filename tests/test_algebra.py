import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import specrank.algebra as algebra_module
from specrank.algebra import (FINITE, INFINITE_SOCLE, AlgebraShape, Element,
                              NotInvertibleError, ProjectionElement,
                              ShapeMismatchError, allclose, compressed_view,
                              count_nonzero_spectrum, ginibre, identity,
                              inverse, nonzero_spectrum, norm, random_element,
                              random_socle_element, riesz_element, spectrum,
                              tau_of, zero)
from specrank.config import DEFAULT_TOLS
from specrank.multiplicity import multiplicity_riesz, spectral_gap
from specrank.numkernel import NonFiniteError, eig, hausdorff, mat_rank
from conftest import make_rng

M3 = AlgebraShape(dims=(3,))
M2_M1 = AlgebraShape(dims=(2, 1))
C3 = AlgebraShape(dims=(1, 1, 1))


def diag_element(shape, *block_diags):
    return Element(shape, tuple(np.diag(np.asarray(d, dtype=np.complex128))
                                for d in block_diags))


class TestShapeAndElement:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            AlgebraShape(dims=())
        with pytest.raises(ValueError):
            AlgebraShape(dims=(0,))
        with pytest.raises(ValueError):
            AlgebraShape(dims=(2,), ambient="weird")

    def test_block_dim_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            Element(M3, (np.eye(2),))

    def test_blocks_are_immutable(self):
        a = identity(M3)
        with pytest.raises(ValueError):
            a.blocks[0][0, 0] = 5.0

    def test_mixed_shape_arithmetic_rejected(self):
        with pytest.raises(ShapeMismatchError):
            identity(M3) + identity(M2_M1)


class TestArithmetic:
    def test_identity_is_neutral(self, rng):
        a = random_element(M2_M1, rng)
        assert allclose(identity(M2_M1) * a, a)
        assert allclose(a * identity(M2_M1), a)

    def test_additive_inverse(self, rng):
        a = random_element(M2_M1, rng)
        assert norm(a + (-a)) == 0.0

    def test_associativity_on_random_triples(self):
        rng = make_rng(5)
        for _ in range(50):
            a, b, c = (random_element(M2_M1, rng) for _ in range(3))
            lhs = (a * b) * c
            rhs = a * (b * c)
            assert norm(lhs - rhs) <= 1e-12 * (1.0 + norm(lhs))

    def test_scalar_multiplication(self, rng):
        a = random_element(M3, rng)
        assert allclose(2.0 * a, a + a)
        assert allclose(a * 2.0, a + a)


class TestInverse:
    def test_identity(self):
        assert allclose(inverse(identity(M2_M1)), identity(M2_M1))

    def test_scalar_multiple(self):
        assert allclose(inverse(2.0 * identity(M3)), 0.5 * identity(M3))

    def test_diagonal_blocks(self):
        a = diag_element(M2_M1, [1.0, 2.0], [3.0])
        expected = diag_element(M2_M1, [1.0, 0.5], [1.0 / 3.0])
        assert allclose(inverse(a), expected)

    def test_singular_block_rejected(self):
        with pytest.raises(NotInvertibleError):
            inverse(diag_element(M2_M1, [1.0, 0.0], [3.0]))

    def test_infinite_ambient_never_invertible(self):
        shape = AlgebraShape(dims=(2,), ambient=INFINITE_SOCLE)
        with pytest.raises(NotInvertibleError):
            inverse(identity(shape))


class TestSpectrum:
    def test_rank_one_projection_matrix(self):
        spec = spectrum(diag_element(M3, [1.0, 0.0, 0.0]))
        assert spec.values() == [0.0, 1.0]
        assert spec.counts() == [2, 1]

    def test_c3_example(self):
        spec = spectrum(diag_element(C3, [1.0], [1.0], [0.0]))
        assert spec.values() == [0.0, 1.0]
        assert spec.counts() == [1, 2]

    def test_infinite_ambient_forces_zero(self, rng):
        shape = AlgebraShape(dims=(2, 2), ambient=INFINITE_SOCLE)
        a = identity(shape)  # invertible as matrices, but ambient says no
        spec = spectrum(a)
        assert 0.0 in spec.values()
        assert spec.count_at(0.0) == 0  # marker: forced by the ambient

    def test_zero_snapping_is_exact(self):
        spec = spectrum(diag_element(M3, [1.0, 1e-17, 0.0]))
        assert any(v == 0.0 for v in spec.values())

    def test_union_of_block_spectra(self, rng):
        a = random_element(M2_M1, rng)
        whole = spectrum(a)
        merged = np.concatenate([np.linalg.eigvals(b) for b in a.blocks])
        assert hausdorff(whole.values(), merged) <= 10 * whole.tol


class TestNonzeroSpectrum:
    def test_zero_element(self):
        assert nonzero_spectrum(zero(M3)).points == ()

    def test_rank_one(self):
        assert nonzero_spectrum(diag_element(M3, [1.0, 0.0, 0.0])).values() == [1.0]

    def test_jacobson_on_random_pairs(self):
        rng = make_rng(21)
        for _ in range(50):
            x = random_element(M2_M1, rng)
            a = random_element(M2_M1, rng)
            sx = nonzero_spectrum(x * a)
            sa = nonzero_spectrum(a * x)
            tol = 10.0 * max(sx.tol, sa.tol)
            assert hausdorff(sx.values(), sa.values()) <= tol


class TestCompression:
    def test_full_projection_is_identity_map(self, rng):
        view = compressed_view(ProjectionElement(identity(M2_M1)))
        x = random_element(M2_M1, rng)
        assert norm(view.compress(x) - x) == 0.0

    def test_coordinate_projection(self):
        p = ProjectionElement(diag_element(M3, [1.0, 0.0, 0.0]))
        view = compressed_view(p)
        compressed = view.compress(diag_element(M3, [1.0, 2.0, 3.0]))
        assert view.shape.dims == (1,)
        np.testing.assert_allclose(compressed.blocks[0], [[1.0]], atol=1e-12)

    def test_identity_of_view_is_compression_of_projection(self):
        p = ProjectionElement(diag_element(M2_M1, [1.0, 0.0], [1.0]))
        view = compressed_view(p)
        assert norm(view.compress(p.element) - view.identity()) <= 1e-10

    @pytest.mark.parametrize("r", [1, 3, 5])
    def test_oblique_projector_basis(self, r):
        # p = S diag(1, .., 1, 0, .., 0) S^-1 is idempotent but not normal
        rng = make_rng(40 + r)
        s = np.eye(6) + 0.5 * ginibre(rng, 6)
        block = s @ np.diag([1.0] * r + [0.0] * (6 - r)) @ np.linalg.inv(s)
        assert np.linalg.norm(block - block.conj().T) > 0.1
        p = ProjectionElement(Element(AlgebraShape(dims=(6,)), (block,)))
        view = compressed_view(p)
        (basis,) = view.bases
        assert view.shape.dims == (r,)
        np.testing.assert_allclose(basis.conj().T @ basis, np.eye(r), atol=1e-12)
        np.testing.assert_allclose(block @ basis, basis, atol=1e-12)
        assert norm(view.compress(p.element) - view.identity()) <= 1e-12

    def test_nonzero_spectrum_matches_ambient(self, rng):
        # projection from contours of a well-separated element
        a = diag_element(M2_M1, [1.0, 3.0], [5.0])
        p = riesz_element(a, center=1.0, radius=1.0)
        p = ProjectionElement(p.element + riesz_element(a, 5.0, 1.0).element)
        view = compressed_view(p)
        for _ in range(20):
            x = random_element(M2_M1, rng)
            pxp = p.element * x * p.element
            inside = view.compress(x)
            tol = 10.0 * max(spectrum(pxp).tol, spectrum(inside).tol)
            d = hausdorff(nonzero_spectrum(pxp).values(),
                          nonzero_spectrum(inside).values())
            assert d <= tol

    def test_homomorphism_on_corner(self, rng):
        p = ProjectionElement(diag_element(M2_M1, [1.0, 0.0], [1.0]))
        view = compressed_view(p)
        pe = p.element
        a = pe * random_element(M2_M1, rng) * pe
        b = pe * random_element(M2_M1, rng) * pe
        lhs = view.compress(a) * view.compress(b)
        rhs = view.compress(pe * (a * b) * pe)
        assert norm(lhs - rhs) <= 1e-10 * (1.0 + norm(lhs))


class TestRandomGeneration:
    def test_zero_target_ranks(self, rng):
        a = random_socle_element(M2_M1, (0, 0), rng)
        assert norm(a) == 0.0

    def test_target_ranks_are_achieved(self):
        rng = make_rng(31)
        shape = AlgebraShape(dims=(4, 3))
        for _ in range(100):
            ranks = (int(rng.integers(0, 5)), int(rng.integers(0, 4)))
            a = random_socle_element(shape, ranks, rng)
            got = tuple(mat_rank(b, 1e-8) for b in a.blocks)
            assert got == ranks

    def test_ginibre_scale(self):
        rng = make_rng(32)
        g = ginibre(rng, 50)
        # entries are standard complex Gaussians / sqrt(n): E|g_ij|^2 = 1/n
        second_moment = float(np.mean(np.abs(g) ** 2)) * 50
        assert 0.8 < second_moment < 1.2

    def test_rank_bounds_validated(self, rng):
        with pytest.raises(ValueError):
            random_socle_element(M3, (4,), rng)


class TestNorm:
    def test_identity_norm(self):
        assert abs(norm(identity(M2_M1)) - np.sqrt(2.0)) < 1e-14
        assert abs(norm(identity(AlgebraShape(dims=(4, 2)))) - 2.0) < 1e-14

    def test_zero_norm(self):
        assert norm(zero(M3)) == 0.0

    def test_submultiplicative(self):
        rng = make_rng(33)
        for _ in range(100):
            a = random_element(M2_M1, rng)
            b = random_element(M2_M1, rng)
            assert norm(a * b) <= norm(a) * norm(b) + 1e-12


class TestProjectionElement:
    def test_rejects_non_idempotent(self):
        with pytest.raises(ValueError):
            ProjectionElement(diag_element(M3, [2.0, 0.0, 0.0]))

    def test_orthogonal_sum_is_projection(self):
        p = ProjectionElement(diag_element(M3, [1.0, 0.0, 0.0]))
        q = ProjectionElement(diag_element(M3, [0.0, 1.0, 0.0]))
        total = p + q
        assert norm(total.element - diag_element(M3, [1.0, 1.0, 0.0])) == 0.0


class TestElementJson:
    def test_round_trip(self, rng):
        a = random_element(M2_M1, rng)
        again = Element.from_json(json.loads(json.dumps(a.to_json())))
        assert again.shape == a.shape
        assert norm(again - a) == 0.0

    def test_ambient_flag_round_trip(self, rng):
        shape = AlgebraShape(dims=(2,), ambient=INFINITE_SOCLE)
        a = random_element(shape, rng)
        again = Element.from_json(a.to_json())
        assert again.shape.ambient == INFINITE_SOCLE

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=3),
           st.sampled_from([FINITE, INFINITE_SOCLE]),
           st.integers(min_value=0, max_value=2 ** 31))
    def test_round_trip_any_shape(self, dims, ambient, seed):
        shape = AlgebraShape(dims=tuple(dims), ambient=ambient)
        a = random_element(shape, make_rng(seed))
        again = Element.from_json(a.to_json())
        assert again.shape == a.shape
        assert norm(again - a) == 0.0


class TestInfiniteAmbientRules:
    def test_count_nonzero_ignores_forced_zero(self, rng):
        shape = AlgebraShape(dims=(2,), ambient=INFINITE_SOCLE)
        a = diag_element(shape, [1.0, 2.0])
        assert count_nonzero_spectrum(a) == 2

    def test_compressed_view_is_finite(self):
        shape = AlgebraShape(dims=(3,), ambient=INFINITE_SOCLE)
        p = ProjectionElement(diag_element(shape, [1.0, 1.0, 0.0]))
        view = compressed_view(p)
        assert view.shape.ambient == FINITE


class TestSpectrumCache:
    def test_eig_runs_once_per_block(self, monkeypatch):
        calls = []

        def counting_eig(m):
            calls.append(m)
            return eig(m)

        monkeypatch.setattr(algebra_module, "eig", counting_eig)
        a = diag_element(M2_M1, [1.0, 3.0], [0.0])
        coarse = replace(DEFAULT_TOLS, cluster_rel=1e-6)
        for tols in (DEFAULT_TOLS, coarse):
            spectrum(a, tols)
            nonzero_spectrum(a, tols)
            tau_of(a, tols)
            spectral_gap(a, tols)
            assert multiplicity_riesz(a, 1.0, tols=tols) == 1
            assert multiplicity_riesz(a, 3.0, tols=tols) == 1
            riesz_element(a, 3.0, 1.0, tols=tols)
        assert len(calls) == len(a.blocks)

    def test_spectrum_cached_per_tolerances(self):
        a = diag_element(M3, [1.0, 1.0 + 1e-7, 0.0])
        fine = spectrum(a)
        assert spectrum(a) is fine
        coarse = spectrum(a, replace(DEFAULT_TOLS, cluster_rel=1e-6))
        assert coarse is not fine
        assert len(fine.points) == 3 and len(coarse.points) == 2

    @pytest.mark.parametrize("ambient", [FINITE, INFINITE_SOCLE])
    def test_witness_spectra_equal_spectra_of_products(self, ambient):
        rng = make_rng(61)
        shape = AlgebraShape(dims=(3, 1, 4), ambient=ambient)
        a = random_socle_element(shape, (2, 1, 0), rng)
        stacks = algebra_module.random_block_stacks(shape, rng, 6)
        spectra = algebra_module.witness_spectra(a, stacks)
        assert spectra == [spectrum(Element(shape, tuple(s[i] for s in stacks)) * a)
                           for i in range(6)]

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_witness_spectra_reject_nonfinite_products(self):
        shape = AlgebraShape(dims=(2,))
        a = diag_element(shape, [1e308, 1.0])
        stacks = (np.stack([np.eye(2), 10.0 * np.eye(2)]).astype(np.complex128),)
        # the products of valid blocks overflowed: a typed numeric failure,
        # not the ValueError that rejects a non-finite input
        with pytest.raises(NonFiniteError, match="witness product"):
            algebra_module.witness_spectra(a, stacks)

    def test_cached_eigenvalues_are_read_only(self):
        a = diag_element(M2_M1, [1.0, 2.0], [3.0])
        with pytest.raises(ValueError):
            a.block_eigs()[0][0] = 5.0
