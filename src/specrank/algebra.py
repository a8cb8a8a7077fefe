"""Finite direct sums of full complex matrix blocks: elements, arithmetic,
spectra, corner compressions, and random generation.

An algebra is ``M_{n_1}(C) + ... + M_{n_k}(C)`` (blockwise operations). The
``ambient`` flag distinguishes the genuinely finite-dimensional case from a
model of a corner inside an infinite-dimensional algebra: in the infinite
ambient no element is invertible and 0 always belongs to the spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import config
from .config import DEFAULT_TOLS, Tolerances
from .jsonio import matrix_to_rows, rows_to_matrix
from .numkernel import (ClusteredSpectrum, ContourError, NonFiniteError,
                        SpecrankError, as_matrix, cluster, eig, frobenius,
                        mat_rank, riesz_projection)

FINITE = "finite"
INFINITE_SOCLE = "infinite"
_AMBIENTS = (FINITE, INFINITE_SOCLE)


class ShapeMismatchError(ValueError):
    """Raised when two elements do not live in the same algebra."""


class ViewError(SpecrankError):
    """Raised when a corner compression cannot be constructed."""


@dataclass(frozen=True)
class AlgebraShape:
    """Block dimensions plus the ambient mode."""

    dims: tuple[int, ...]
    ambient: str = FINITE

    def __post_init__(self):
        dims = tuple(self.dims)
        if any(isinstance(d, bool) or not isinstance(d, (int, np.integer)) for d in dims):
            # a float is not truncated to a dimension, and bool is not a number
            raise ValueError(f"block dimensions must be integers, got {list(dims)!r}")
        object.__setattr__(self, "dims", tuple(int(d) for d in dims))
        if len(dims) < 1 or any(d < 1 for d in dims):
            raise ValueError("block dimensions must be positive, one or more blocks")
        if self.ambient not in _AMBIENTS:
            raise ValueError(f"ambient must be one of {_AMBIENTS}")

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    @property
    def is_infinite(self) -> bool:
        return self.ambient == INFINITE_SOCLE


@dataclass(frozen=True, eq=False)
class Element:
    """An element ``(a_1, ..., a_k)``, one dense complex matrix per block.

    Elements are immutable: the blocks are private read-only arrays, copies
    of the input or fresh results of arithmetic on other elements. So each
    block's eigenvalues are computed at most once, and the clustered
    spectrum once per ``Tolerances``, then cached on the element.
    """

    shape: AlgebraShape
    blocks: tuple[np.ndarray, ...]

    def __post_init__(self):
        blocks = tuple(as_matrix(b).copy() for b in self.blocks)
        if len(blocks) != len(self.shape.dims):
            raise ShapeMismatchError(
                f"expected {len(self.shape.dims)} blocks, got {len(blocks)}")
        for b, d in zip(blocks, self.shape.dims):
            if b.shape[0] != d:
                raise ShapeMismatchError(
                    f"block of dim {b.shape[0]} does not match shape dim {d}")
        self._adopt(blocks)

    def _adopt(self, blocks: tuple[np.ndarray, ...]):
        """Take ``blocks``, valid and held by no one else, as this element's
        own: read-only, with empty caches."""
        for b in blocks:
            b.flags.writeable = False
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "_block_eigs", None)
        object.__setattr__(self, "_spectra", {})

    def block_eigs(self) -> tuple[np.ndarray, ...]:
        """Eigenvalues of each block, computed on first use."""
        if self._block_eigs is None:
            values = tuple(eig(b) for b in self.blocks)
            for v in values:
                v.flags.writeable = False
            object.__setattr__(self, "_block_eigs", values)
        return self._block_eigs

    def _check_same(self, other: "Element"):
        if self.shape != other.shape:
            raise ShapeMismatchError(f"{self.shape} vs {other.shape}")

    def __add__(self, other: "Element") -> "Element":
        self._check_same(other)
        return _computed(self.shape, (a + b for a, b in zip(self.blocks, other.blocks)))

    def __sub__(self, other: "Element") -> "Element":
        self._check_same(other)
        return _computed(self.shape, (a - b for a, b in zip(self.blocks, other.blocks)))

    def __neg__(self) -> "Element":
        return _computed(self.shape, (-a for a in self.blocks))

    def __mul__(self, other):
        if isinstance(other, Element):
            self._check_same(other)
            return _computed(self.shape, (a @ b for a, b in zip(self.blocks, other.blocks)))
        return _computed(self.shape, (complex(other) * a for a in self.blocks))

    def __rmul__(self, scalar) -> "Element":
        return _computed(self.shape, (complex(scalar) * a for a in self.blocks))

    def to_json(self) -> dict:
        return {
            "dims": list(self.shape.dims),
            "ambient": self.shape.ambient,
            "blocks": [matrix_to_rows(b) for b in self.blocks],
        }

    @staticmethod
    def from_json(data: dict) -> "Element":
        shape = AlgebraShape(dims=data["dims"], ambient=data.get("ambient", FINITE))
        blocks = tuple(rows_to_matrix(rows) for rows in data["blocks"])
        return Element(shape, blocks)


def _computed(shape: AlgebraShape, blocks, what: str = "element arithmetic") -> Element:
    """Element of ``shape`` over blocks freshly computed from valid elements.

    The blocks are new complex arrays of the right shapes, so they are taken
    without a copy, and the only check they can fail is finiteness: the
    arithmetic overflowed, which is ``NonFiniteError``, not the
    ``ValueError`` of invalid input.
    """
    blocks = tuple(blocks)
    for b in blocks:
        if not np.isfinite(b).all():
            raise NonFiniteError(f"{what} overflowed: matrix entries must be finite")
    element = object.__new__(Element)
    object.__setattr__(element, "shape", shape)
    element._adopt(blocks)
    return element


def zero(shape: AlgebraShape) -> Element:
    return Element(shape, tuple(np.zeros((d, d), dtype=np.complex128) for d in shape.dims))


def identity(shape: AlgebraShape) -> Element:
    return Element(shape, tuple(np.eye(d, dtype=np.complex128) for d in shape.dims))


def norm(a: Element) -> float:
    """Max over blocks of the Frobenius norm; submultiplicative. A norm
    beyond the float range is ``NonFiniteError``."""
    value = max(frobenius(b) for b in a.blocks)
    if not math.isfinite(value):
        raise NonFiniteError("element norm overflowed to a non-finite value")
    return value


def tau_of(a: Element, tols: Tolerances = DEFAULT_TOLS) -> float:
    """Distinctness tolerance for ``a`` from its spectral radius estimate:
    the tolerance its cached ``spectrum`` was clustered at."""
    return spectrum(a, tols).tol


def spectrum(a: Element, tols: Tolerances = DEFAULT_TOLS) -> ClusteredSpectrum:
    """Spectrum of ``a`` relative to its algebra, as clustered distinct values.

    The union of block spectra is clustered at the element's tolerance tau;
    a representative within tau of 0 is snapped to exactly 0. In the infinite
    ambient, 0 is adjoined with count 0 when no block eigenvalue sits there
    (the count-0 convention marks the ambient-forced point). The result is
    cached on ``a`` per ``tols``.
    """
    spec = a._spectra.get(tols)
    if spec is None:
        values = np.concatenate(a.block_eigs())
        spec = a._spectra[tols] = _spectra_of(values[None], a.shape, tols)[0]
    return spec


def _spectra_of(rows: np.ndarray, shape: AlgebraShape,
                tols: Tolerances) -> list[ClusteredSpectrum]:
    """``spectrum`` of each element of ``shape`` whose block eigenvalues,
    concatenated, are a row of ``rows``, with one ``cluster`` call for all
    of them. A failing row raises the error it raises alone, and only after
    the rows before it succeed."""
    taus = []
    for rho in np.abs(rows).max(axis=1, initial=0.0).tolist():
        if not math.isfinite(rho):
            break
        taus.append(tols.tau(rho))
    good = len(taus)
    spectra = [_snap_zero(spec, shape) for spec in cluster(rows[:good], taus)]
    if good < len(rows):
        raise NonFiniteError("spectral radius overflowed to a non-finite value")
    return spectra


def _snap_zero(spec: ClusteredSpectrum, shape: AlgebraShape) -> ClusteredSpectrum:
    """Snap the representative nearest 0 to exactly 0 when within tau; in the
    infinite ambient, adjoin 0 with count 0 when no value sits there."""
    tau = spec.tol
    points = list(spec.points)
    near = [(abs(v), i) for i, (v, _) in enumerate(points) if abs(v) <= tau]
    if near:
        _, i = min(near)
        points[i] = (0.0 + 0.0j, points[i][1])
    elif shape.is_infinite:
        points.append((0.0 + 0.0j, 0))
    points.sort(key=lambda p: (p[0].real, p[0].imag))
    return ClusteredSpectrum(points=tuple(points), tol=tau)


def witness_spectra(a: Element, stacks,
                    tols: Tolerances = DEFAULT_TOLS) -> list[ClusteredSpectrum]:
    """``spectrum(x * a, tols)`` for each witness ``x`` of a round, given as
    one ``(k, d, d)`` stack of raw blocks per block of ``a``, without
    building the products as elements: block ``j`` of all products is one
    stacked matmul and one stacked ``eig`` call, which also validates the
    products, and all ``k`` spectra are one ``cluster`` call. Raises
    ``ConvergenceError`` when any product's eigenvalue iteration fails and
    ``NonFiniteError`` when a product overflows."""
    try:
        per_block = [eig(x @ b) for x, b in zip(stacks, a.blocks)]
    except ValueError as exc:  # square products of valid blocks: they overflowed
        raise NonFiniteError(f"witness product overflowed: {exc}") from exc
    return _spectra_of(np.concatenate(per_block, axis=1), a.shape, tols)


def nonzero_spectrum(a: Element, tols: Tolerances = DEFAULT_TOLS) -> ClusteredSpectrum:
    """Spectrum with values of modulus at most tau removed."""
    return spectrum(a, tols).nonzero()


def count_nonzero_spectrum(a: Element, tols: Tolerances = DEFAULT_TOLS) -> int:
    return len(nonzero_spectrum(a, tols).points)


@dataclass(frozen=True, eq=False)
class ProjectionElement:
    """An idempotent element, to ``config.PROJECTION_IDEM``, the threshold
    a contour projector's blocks pass; Hermitian-ness is not required."""

    element: Element

    def __post_init__(self):
        p = self.element
        defect = norm(p * p - p)
        if defect > config.PROJECTION_IDEM * (1.0 + norm(p)):
            raise ValueError(f"not a projection: ||p^2 - p|| = {defect:.3e}")


def riesz_values(a: Element, centers, radius: float) -> list:
    """Per-block spectral projectors of ``a`` for the disks of one radius
    around each of ``centers``: per center, its tuple of block projectors,
    or the ``ContourError`` of the first block that rejected it, unraised.
    Each block's contours are one ``riesz_projection`` call, whose clearance
    checks use the block's cached eigenvalues."""
    if not len(centers):
        return []
    per_block = [riesz_projection(b, centers, radius, values)
                 for b, values in zip(a.blocks, a.block_eigs())]
    return [next((p for p in blocks if isinstance(p, ContourError)), blocks)
            for blocks in zip(*per_block)]


@dataclass(frozen=True, eq=False)
class CompressedView:
    """Corner subalgebra ``pAp`` carried by per-block range bases of ``p``.

    The view algebra is the direct sum over blocks where ``p`` has positive
    rank; its identity is the compression of ``p`` itself. The compression of
    a finite-rank projection is always finite-dimensional, so the view is
    finite-ambient regardless of the ambient mode upstairs.
    """

    ambient_shape: AlgebraShape
    p: ProjectionElement
    bases: tuple[np.ndarray, ...]
    block_map: tuple[int, ...]

    @property
    def shape(self) -> AlgebraShape:
        return AlgebraShape(dims=tuple(self.bases[i].shape[1] for i in range(len(self.bases))),
                            ambient=FINITE)

    def compress(self, a: Element) -> Element:
        """Matrix of ``p a p`` restricted to range(p), in the stored bases."""
        if a.shape != self.ambient_shape:
            raise ShapeMismatchError("element does not live in the ambient algebra")
        pb = self.p.element.blocks
        out = []
        for basis, j in zip(self.bases, self.block_map):
            papj = pb[j] @ a.blocks[j] @ pb[j]
            out.append(basis.conj().T @ papj @ basis)
        return _computed(self.shape, out, "compression")


def compressed_view(p: ProjectionElement, tols: Tolerances = DEFAULT_TOLS) -> CompressedView:
    """Build the corner view for ``p`` from SVD range bases.

    The leading ``r`` left singular vectors of an idempotent block span its
    range: its nonzero singular values are at least 1 and the others sit at
    rounding level, so the split at the certified rank ``r`` is well
    conditioned.
    """
    shape = p.element.shape
    bases, block_map = [], []
    for j, block in enumerate(p.element.blocks):
        r = mat_rank(block, tols.rank_rel)
        if r == 0:
            continue
        basis = np.linalg.svd(block)[0][:, :r]
        # basis must span range(p): p acts as the identity on it
        defect = frobenius(block @ basis - basis)
        if defect > 1e-6 * (1.0 + frobenius(block)):
            raise ViewError(f"basis rank deficiency on block {j}: residual {defect:.3e}")
        bases.append(basis)
        block_map.append(j)
    if not bases:
        raise ViewError("projection has rank 0; the corner algebra is empty")
    return CompressedView(ambient_shape=shape, p=p,
                          bases=tuple(bases), block_map=tuple(block_map))


def ginibre(rng: np.random.Generator, n: int, m: int | None = None) -> np.ndarray:
    """i.i.d. standard complex Gaussian entries scaled by ``1/sqrt(n)``."""
    m = n if m is None else m
    return _ginibre_of(rng.standard_normal((n, m)), rng.standard_normal((n, m)), n)


def _ginibre_of(re: np.ndarray, im: np.ndarray, n: int) -> np.ndarray:
    return (re + 1j * im) / np.sqrt(2.0 * n)


def random_block_stacks(shape: AlgebraShape, rng: np.random.Generator,
                        count: int) -> tuple[np.ndarray, ...]:
    """``count`` successive ``random_blocks`` draws as one ``(count, d, d)``
    stack per block, from one ``standard_normal`` call: the same numbers,
    and the generator left where the draws one by one would leave it."""
    sizes = [d * d for d in shape.dims]
    z = rng.standard_normal((count, 2 * sum(sizes)))
    stacks, start = [], 0
    for d, size in zip(shape.dims, sizes):
        re = z[:, start:start + size].reshape(count, d, d)
        im = z[:, start + size:start + 2 * size].reshape(count, d, d)
        stacks.append(_ginibre_of(re, im, d))
        start += 2 * size
    return tuple(stacks)


def random_blocks(shape: AlgebraShape, rng: np.random.Generator) -> tuple[np.ndarray, ...]:
    """One Ginibre matrix per block, drawn in block order."""
    return tuple(s[0] for s in random_block_stacks(shape, rng, 1))


def random_element(shape: AlgebraShape, rng: np.random.Generator) -> Element:
    return Element(shape, random_blocks(shape, rng))


def random_socle_element(shape: AlgebraShape, target_ranks, rng: np.random.Generator) -> Element:
    """Random element with prescribed classical rank per block.

    Block ``j`` is a product of ``n_j x r_j`` and ``r_j x n_j`` Gaussian
    factors, which has rank ``r_j`` almost surely.
    """
    ranks = tuple(int(r) for r in target_ranks)
    if len(ranks) != len(shape.dims):
        raise ShapeMismatchError("one target rank per block required")
    blocks = []
    for d, r in zip(shape.dims, ranks):
        if r < 0 or r > d:
            raise ValueError(f"target rank {r} out of range for block dim {d}")
        if r == 0:
            blocks.append(np.zeros((d, d), dtype=np.complex128))
        else:
            blocks.append(ginibre(rng, d, r) @ ginibre(rng, r, d))
    return Element(shape, tuple(blocks))
