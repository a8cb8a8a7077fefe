"""Factored characteristic polynomials built from spectral multiplicities,
their evaluation at scalars and algebra elements, trace and determinant in
product form, diagonalization of rank-assuming elements, and annihilation
residuals.

The polynomial attached to an element ``a`` is ``prod (alpha - lambda)^m``
over the distinct spectral values ``alpha`` with their multiplicities ``m``.
It stays factored: evaluation multiplies factors and never expands to
coefficients except for display, which avoids catastrophic cancellation.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from . import config
from .algebra import (Element, ProjectionElement, _computed, identity,
                      is_singular, norm, nonzero_spectrum, random_element,
                      riesz_values, tau_of, zero)
from .config import DEFAULT_TOLS, Tolerances
from .jsonio import complex_to_pair, pair_to_complex
from .multiplicity import (MultiplicityRecord, UnstableMultiplicityError,
                           multiplicities, spectral_gap)
from .numkernel import (NonFiniteError, SpecrankError, frobenius_stack, mat_rank,
                        settle)
from .rank import RankCertificate, is_maximal, rank_oracle, spectral_rank


class DiagonalizationError(SpecrankError):
    """Raised when a spectral decomposition fails its verification checks."""

    def __init__(self, msg, diagnostics=None):
        super().__init__(msg)
        self.diagnostics = diagnostics or {}


def _factor_order(root_mult):
    root, _ = root_mult
    return (-abs(root), root.real, root.imag)


@dataclass(frozen=True)
class CharPoly:
    """Factored polynomial ``prod (root - lambda)^mult``.

    Roots are pairwise distinct; factors are stored by descending root
    modulus, which is also the evaluation order for element arguments.
    """

    factors: tuple[tuple[complex, int], ...]
    source_rank: int

    def __post_init__(self):
        factors = tuple(sorted(((complex(r), int(m)) for r, m in self.factors),
                               key=_factor_order))
        object.__setattr__(self, "factors", factors)
        if any(m < 1 for _, m in factors):
            raise ValueError("multiplicities must be positive")

    @property
    def degree(self) -> int:
        return sum(m for _, m in self.factors)

    def coefficients(self) -> np.ndarray:
        """Descending-power coefficient expansion (for display only)."""
        repeated = [r for r, m in self.factors for _ in range(m)]
        if not repeated:
            return np.array([1.0 + 0.0j])
        return ((-1.0) ** len(repeated)) * np.poly(repeated)

    def to_json(self) -> dict:
        return {"factors": [{"root": complex_to_pair(r), "mult": int(m)}
                            for r, m in self.factors],
                "source_rank": self.source_rank}

    @staticmethod
    def from_json(data: dict) -> "CharPoly":
        factors = tuple((pair_to_complex(f["root"]), int(f["mult"]))
                        for f in data["factors"])
        return CharPoly(factors=factors, source_rank=int(data["source_rank"]))


def char_poly(a: Element, rng: np.random.Generator, certificate: RankCertificate,
              tols: Tolerances = DEFAULT_TOLS) -> CharPoly:
    """One factor per distinct spectral value, multiplicities counted under
    ``a``'s rank ``certificate`` from ``spectral_rank``."""
    records = multiplicities(a, rng, certificate, with_riesz=False, tols=tols)
    return char_poly_from_records(records, certificate.rank)


def char_poly_from_records(records: list[MultiplicityRecord],
                           source_rank: int) -> CharPoly:
    """One factor per record; a counting multiplicity below 1 means the
    perturbed spectra never showed the value, so the count is unusable."""
    for rec in records:
        if rec.m_counting < 1:
            raise UnstableMultiplicityError(
                f"counting multiplicity {rec.m_counting} at {rec.value}",
                histogram=rec.votes)
    factors = tuple((rec.value, rec.m_counting) for rec in records)
    return CharPoly(factors=factors, source_rank=source_rank)


def char_poly_maximal(a: Element, tols: Tolerances = DEFAULT_TOLS) -> CharPoly:
    """Fast path for elements that assume their rank at the identity.

    Every nonzero spectral value then has multiplicity 1, and 0 enters with
    multiplicity 1 exactly when the element is singular or the ambient
    forces 0 into the spectrum.
    """
    values = nonzero_spectrum(a, tols).values()
    factors = [(v, 1) for v in values]
    if is_singular(a, tols):
        factors.append((0.0 + 0.0j, 1))
    return CharPoly(factors=tuple(factors), source_rank=len(values))


def _power_product(acc, pairs, what: str):
    """``acc * prod base ** m`` over ``(base, m)`` pairs, multiplied in
    order; ``NonFiniteError`` when it overflows (``**`` raises
    ``OverflowError`` where ``*`` gives inf)."""
    try:
        for base, m in pairs:
            acc *= base ** m
    except OverflowError as exc:
        raise NonFiniteError(f"{what} overflowed: {exc}") from exc
    if not cmath.isfinite(acc):
        raise NonFiniteError(f"{what} overflowed to a non-finite value")
    return acc


def weighted_sum(pairs) -> complex:
    """``sum value * mult`` over ``(value, mult)`` pairs, in order: the trace
    of a polynomial's factors or of multiplicity records."""
    total = sum(value * m for value, m in pairs)
    if not cmath.isfinite(total):
        raise NonFiniteError("trace overflowed to a non-finite value")
    return total


def eval_scalar(p: CharPoly, z: complex) -> complex:
    return _power_product(1.0 + 0.0j, ((root - z, m) for root, m in p.factors),
                          "polynomial value")


def eval_element(p: CharPoly, x: Element, e: Element | None = None) -> Element:
    """Evaluate ``prod (root*e - x)^mult`` left to right, largest root first.

    ``e`` is the identity to use: the ambient identity by default, or the
    identity of a corner view when evaluating inside a compression. Each
    block is evaluated on its own with the numpy operations that ``acc =
    acc * (root * e - x)`` on elements runs, in the same order, so the
    result matches that loop bit for bit. Overflow is checked once, on the
    result, and is ``NonFiniteError``.
    """
    if e is None:
        e = identity(x.shape)
    x._check_same(e)
    if not p.factors:
        return e
    blocks = []
    for e_j, x_j in zip(e.blocks, x.blocks):
        acc = e_j
        for root, m in p.factors:
            base = root * e_j - x_j
            for _ in range(m):
                acc = acc @ base
        blocks.append(acc)
    return _computed(x.shape, blocks)


def residual_scale(p: CharPoly, element_norm: float) -> float:
    """Normalization ``prod (|root| + |a|)^mult`` floored at 1."""
    scale = _power_product(1.0, ((abs(root) + element_norm, m) for root, m in p.factors),
                           "residual scale")
    return max(scale, 1.0)


def cayley_hamilton_residual(a: Element, p: CharPoly) -> float:
    """Normalized annihilation residual ``|p(a)| / scale``, ``p`` ``a``'s polynomial."""
    value = eval_element(p, a)
    return norm(value) / residual_scale(p, norm(a))


def trace(p: CharPoly) -> complex:
    """Sum of the roots of ``p`` weighted by multiplicity: its element's trace."""
    return weighted_sum(p.factors)


def det_plus_one(a: Element, p: CharPoly,
                 tols: Tolerances = DEFAULT_TOLS) -> complex:
    """Determinant of ``a + 1`` as ``prod (root + 1)^mult`` over ``a``'s
    polynomial ``p``, kept in product form. Exactly 0 when -1 is a spectral
    value: a root within tau of it, and never beyond 0.5, so that the root 0
    is not taken for -1."""
    tol = min(tau_of(a, tols), 0.5)
    if any(abs(root + 1.0) <= tol for root, _ in p.factors):
        return 0.0 + 0.0j
    return _power_product(1.0 + 0.0j, ((root + 1.0, m) for root, m in p.factors),
                          "det(a + 1)")


def diagonalize_maximal(a: Element, certificate: RankCertificate,
                        tols: Tolerances = DEFAULT_TOLS) -> list[tuple[complex, ProjectionElement]]:
    """Resolve a rank-assuming element into eigenvalue/projection pairs.

    ``certificate`` is ``a``'s rank. Each distinct nonzero spectral value
    gets its blockwise contour projector; the projectors must be rank one and
    mutually annihilating, and must reconstruct ``a`` as ``sum value_i * p_i``.

    The first two checks run on one ``(k, n, n)`` stack of the ``k``
    projectors per block: their ranks are one ``mat_rank`` call, and all
    products ``p_i p_j`` are broadcast matmuls over chunks of whole rows.
    A failure raises what checking value by value, then pair by pair in
    ``(i, j)`` order with element arithmetic, raises first.
    """
    if norm(a) == 0.0:
        raise DiagonalizationError("the zero element has no spectral resolution")
    if not is_maximal(a, certificate, tols):
        raise DiagonalizationError("element does not assume its rank at the identity")

    values = nonzero_spectrum(a, tols).values()
    gap = spectral_gap(a, tols)
    radius = gap / config.RIESZ_RADIUS_DIV
    pairs = []
    try:
        for v, blocks in zip(values, riesz_values(a, values, radius)):
            pairs.append((v, ProjectionElement(Element(a.shape, settle(blocks)))))
    except (SpecrankError, ValueError):
        # a projector before this value that fails the rank test fails first
        _check_ranks(pairs, _block_stacks(pairs), tols)
        raise
    if pairs:
        stacks = _block_stacks(pairs)
        _check_ranks(pairs, stacks, tols)
        _check_orthogonal(pairs, stacks)

    check_tol = config.PROJECTION_IDEM
    recon = zero(a.shape)
    for v, p in pairs:
        recon = recon + v * p.element
    defect = norm(a - recon)
    if defect > check_tol * (1.0 + norm(a)):
        raise DiagonalizationError(
            f"reconstruction defect {defect:.3e} too large",
            diagnostics={"defect": defect})
    return pairs


# the products p_i p_j of a block are computed in chunks of whole rows i of
# at most this many matrix entries (at least one row), which bounds them at
# a few MB while the k <= 4 projectors of a campaign element are one chunk
_PRODUCT_BUDGET = 1 << 18


def _block_stacks(pairs) -> list[np.ndarray]:
    """Per block, the ``(k, n, n)`` stack of the projectors' blocks."""
    return [np.array(blocks) for blocks in zip(*(p.element.blocks for _, p in pairs))]


def _check_ranks(pairs, stacks, tols: Tolerances):
    """Each projector's classical rank, summed over its blocks, must be 1."""
    if not pairs:
        return
    ranks = sum(mat_rank(stack, tols.rank_rel) for stack in stacks)
    for (v, _), r in zip(pairs, ranks.tolist()):
        if r != 1:
            raise DiagonalizationError(
                f"projector at {v} has rank {r}, expected 1",
                diagnostics={"value": v, "rank": r})


def _check_orthogonal(pairs, stacks):
    """``p_i p_j`` must be within ``PROJECTION_IDEM * (1 + |p_i| |p_j|)`` of
    ``p_i`` when ``i == j`` and of 0 otherwise, its defect measured as
    ``norm`` does: the largest Frobenius norm over the blocks. A pair whose
    product or difference overflows raises the ``NonFiniteError`` that
    element arithmetic raises, and one whose defect overflows that of
    ``norm``."""
    k = len(pairs)
    sizes = np.array([norm(p.element) for _, p in pairs])
    with np.errstate(over="ignore"):  # an infinite bound passes, as in floats
        bounds = config.PROJECTION_IDEM * (1.0 + sizes[:, None] * sizes[None, :])
    step = max(1, _PRODUCT_BUDGET // (k * sum(stack[0].size for stack in stacks)))
    for start in range(0, k, step):
        rows = slice(start, start + step)
        finite, defects = True, 0.0
        for stack in stacks:
            with np.errstate(over="ignore", invalid="ignore"):
                prods = stack[rows, None] @ stack[None]
                diag = np.arange(len(prods))
                prods[diag, diag + start] -= stack[rows]
            finite = finite & np.isfinite(prods).all(axis=(-2, -1))
            defects = np.maximum(defects, frobenius_stack(prods))
        bad = ~finite | ~(defects < np.inf) | (defects > bounds[rows])
        if not bad.any():
            continue
        row, j = divmod(int(bad.argmax()), k)
        if not finite[row, j]:
            raise NonFiniteError("element arithmetic overflowed: matrix entries must be finite")
        if not defects[row, j] < np.inf:
            raise NonFiniteError("element norm overflowed to a non-finite value")
        raise DiagonalizationError(
            f"projectors at {pairs[start + row][0]}, {pairs[j][0]} "
            "are not orthogonal idempotents",
            diagnostics={"defect": float(defects[row, j])})


@dataclass(frozen=True)
class ApproximationStep:
    step: int
    witness_scale: float
    deviation: float
    residual: float
    tries: int

    def to_json(self) -> dict:
        return {"step": self.step, "witness_scale": self.witness_scale,
                "deviation": self.deviation, "residual": self.residual,
                "tries": self.tries}


@dataclass(frozen=True)
class ConvergenceRecord:
    """Trace of the identity-approximation walk toward an element.

    Step ``m`` perturbs the identity at scale ``2^-m`` under rank-preserving
    acceptance; ``deviation`` tracks the polynomial value against the
    reference at ``lambda0`` and ``residual`` the normalized annihilation
    defect of the perturbed product.
    """

    lambda0: complex
    reference: complex
    steps: tuple[ApproximationStep, ...]
    completed: bool

    def to_json(self) -> dict:
        return {"lambda0": complex_to_pair(self.lambda0),
                "reference": complex_to_pair(self.reference),
                "completed": self.completed,
                "steps": [s.to_json() for s in self.steps]}


def approximation_sequence(a: Element, steps: int, lambda0: complex,
                           rng: np.random.Generator,
                           certificate: RankCertificate,
                           tols: Tolerances = DEFAULT_TOLS) -> ConvergenceRecord:
    """Walk witnesses ``x_m = 1 + 2^-m G_m`` toward the identity.

    ``certificate`` is ``a``'s rank, under which the reference polynomial is
    built. Each accepted ``x_m`` preserves both that rank and the classical
    rank of the product, which makes ``x_m * a`` assume its rank at the
    identity; its polynomial is then cheap to build. The perturbation
    direction is rescaled from the previous accepted step and redrawn only
    when acceptance fails, so the recorded deviations decay geometrically
    instead of fluctuating with fresh draws. Acceptance failing 20 times at
    a step aborts with the partial record.
    """
    if steps < 3:
        raise ValueError("need at least 3 steps")
    p_ref = char_poly(a, rng, certificate, tols)
    ref_val = eval_scalar(p_ref, lambda0)
    one = identity(a.shape)

    out = []
    completed = True
    direction = None
    for m in range(1, steps + 1):
        scale = 2.0 ** (-m)
        accepted = None
        tries = 0
        for tries in range(1, config.CONDITION_RETRIES + 1):
            g = direction if (direction is not None and tries == 1) \
                else random_element(a.shape, rng)
            x = one + scale * g
            xa = x * a
            if (rank_oracle(xa, tols) == certificate.oracle_rank
                    and len(nonzero_spectrum(xa, tols).points) == certificate.rank):
                accepted = xa
                direction = g
                break
        if accepted is None:
            completed = False
            break
        q = char_poly_maximal(accepted, tols)
        dev = abs(eval_scalar(q, lambda0) - ref_val)
        res = cayley_hamilton_residual(accepted, q)
        out.append(ApproximationStep(step=m, witness_scale=scale,
                                     deviation=dev, residual=res, tries=tries))
    return ConvergenceRecord(lambda0=complex(lambda0), reference=ref_val,
                             steps=tuple(out), completed=completed)


def naive_det_demo(rng: np.random.Generator | None = None,
                   tols: Tolerances = DEFAULT_TOLS) -> dict:
    """Show why exponentiating multiplicities at a shift is not a determinant.

    For the diagonal algebra C^3 and the element (1, 1, 0), the product
    ``prod (alpha - lambda)^m(alpha)`` evaluated as a would-be determinant
    fails multiplicativity under one reading of the scalar factor and
    satisfies it under the other; both readings are reported side by side,
    not asserted.
    """
    from .algebra import AlgebraShape, FINITE

    if rng is None:
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(0)))
    shape = AlgebraShape(dims=(1, 1, 1), ambient=FINITE)
    a = Element(shape, (np.array([[1.0]]), np.array([[1.0]]), np.array([[0.0]])))

    def counts(e: Element) -> list[tuple[complex, int]]:
        return [(rec.value, rec.m_counting)
                for rec in multiplicities(e, rng, spectral_rank(e, rng=rng, tols=tols),
                                          with_riesz=False, tols=tols)]

    def naive_det(e: Element, lam: complex) -> complex:
        acc = 1.0 + 0.0j
        for value, m in counts(e):
            acc *= (value - lam) ** m
        return acc

    lhs = naive_det(a, 2.0)                       # det(a - 2*1)
    factor_half = naive_det(0.5 * a, 1.0)         # det(a/2 - 1)
    # det(2*1), two readings: as the zero element shifted by -2, or as the
    # element 2*1 evaluated at 0
    shifted_zero = naive_det(zero(shape), -2.0)
    direct_value = naive_det(2.0 * identity(shape), 0.0)

    def close(x, y):
        return abs(x - y) <= 1e-9 * max(1.0, abs(x), abs(y))

    return {
        "element_spectrum": [{"value": complex_to_pair(v), "m": m} for v, m in counts(a)],
        "det_a_minus_2id": complex_to_pair(lhs),
        "det_half_a_minus_id": complex_to_pair(factor_half),
        "det_2id_as_shifted_zero": complex_to_pair(shifted_zero),
        "det_2id_as_direct_value": complex_to_pair(direct_value),
        "rhs_shifted_zero": complex_to_pair(factor_half * shifted_zero),
        "rhs_direct_value": complex_to_pair(factor_half * direct_value),
        "multiplicative_shifted_zero": close(lhs, factor_half * shifted_zero),
        "multiplicative_direct_value": close(lhs, factor_half * direct_value),
        "note": ("The factored expression equals det(a - 2*1) on the left; "
                 "whether it matches det(a/2 - 1) * det(2*1) depends on how "
                 "the multiplicity exponent of the scalar factor is read."),
    }
