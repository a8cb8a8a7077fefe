"""Dense complex matrix kernel: eigenvalues, clustering, rank, classical
characteristic polynomials, and spectral projectors for disks.

Matrices are plain ``numpy`` arrays of complex128; ``as_matrix`` is the single
validation gate (square, finite entries). Eigenvalues come from LAPACK's
Hessenberg + shifted-QR driver via ``numpy.linalg.eigvals``, which is
backward stable for general dense complex spectra.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import config
from .jsonio import complex_to_pair


class SpecrankError(Exception):
    """Base of the typed numeric failures: each one maps to CLI exit 3 and
    fails one campaign trial instead of aborting the campaign."""


class ConvergenceError(SpecrankError):
    """Raised when an eigenvalue iteration fails to converge."""


class NonFiniteError(SpecrankError):
    """Raised when a computation on finite input overflows to inf or nan."""


class ContourError(SpecrankError):
    """Raised when a spectral contour is invalid or too close to the spectrum.

    Carries the measured idempotency defect when the computed projector
    fails the projection check.
    """

    def __init__(self, msg, defect=None):
        super().__init__(msg)
        self.defect = defect


def as_matrix(m) -> np.ndarray:
    """Validate and normalize a square complex matrix with finite entries."""
    return _square(m, 2)


def _square(m, ndim: int) -> np.ndarray:
    """``as_matrix`` for ``ndim`` 2; ``ndim`` 3 applies the same checks to a
    ``(k, n, n)`` stack of matrices."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != ndim or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[-1] == 0:
        raise ValueError("empty matrices are not supported")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def frobenius(m) -> float:
    """Frobenius norm. When the plain sum of squares overflows, the entries
    are scaled by their largest component first, so only a norm beyond the
    float range is inf; every other input keeps the plain norm's bits."""
    a = np.asarray(m)
    with np.errstate(over="ignore"):
        plain = float(np.linalg.norm(a, "fro"))
    if plain < np.inf or not np.isfinite(a).all():
        return plain
    scale = float(max(np.abs(a.real).max(), np.abs(a.imag).max()))
    with np.errstate(over="ignore"):
        return scale * float(np.linalg.norm(a / scale, "fro"))


def frobenius_stack(m) -> np.ndarray:
    """``frobenius`` of each matrix of a ``(..., n, n)`` stack, as an array
    of the stack's leading shape: one stacked norm, with each entry whose
    plain sum of squares overflows taken again by ``frobenius``."""
    a = np.asarray(m)
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.linalg.norm(a, axis=(-2, -1))
    for index in zip(*np.nonzero(~(norms < np.inf))):
        norms[index] = frobenius(a[index])
    return norms


def eig(m) -> np.ndarray:
    """All eigenvalues of ``m``, repeated per algebraic multiplicity.

    A ``(k, n, n)`` stack gives a ``(k, n)`` array from one call that runs
    the same LAPACK driver on each matrix, so row ``i`` is bitwise the
    eigenvalues of matrix ``i`` alone. If any matrix fails to converge, the
    whole call raises.
    """
    a = _square(m, 3) if np.ndim(m) == 3 else as_matrix(m)
    try:
        return np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigenvalue iteration failed: {exc}") from exc


@dataclass(frozen=True)
class ClusteredSpectrum:
    """Distinct spectral values with algebraic counts.

    ``points`` holds ``(value, count)`` pairs; representatives of distinct
    clusters are more than ``tol`` apart, and the counts sum to the number of
    input eigenvalues. A count of 0 marks a value adjoined by an ambient rule
    rather than observed among matrix eigenvalues.
    """

    points: tuple[tuple[complex, int], ...]
    tol: float

    def values(self) -> list[complex]:
        return [v for v, _ in self.points]

    def nonzero(self) -> "ClusteredSpectrum":
        """The points of modulus above ``tol``."""
        return ClusteredSpectrum(
            points=tuple((v, c) for v, c in self.points if abs(v) > self.tol),
            tol=self.tol)

    def count_at(self, z: complex) -> int:
        """Count of the cluster within ``tol`` of ``z`` (0 if none)."""
        for v, c in self.points:
            if abs(v - z) <= self.tol:
                return c
        return 0

    def nearest(self, z: complex) -> tuple[complex, float]:
        best, dist = None, np.inf
        for v, _ in self.points:
            d = abs(v - z)
            if d < dist:
                best, dist = v, d
        return best, float(dist)

    def to_json(self) -> list[dict]:
        return [{"value": complex_to_pair(v), "count": int(c)} for v, c in self.points]


# rows are clustered in chunks of at most this many value pairs (at least one
# row each), which bounds the pair arrays at a few MB per row of a few
# hundred values while a whole round of a typical spectrum is one chunk
_PAIR_BUDGET = 1 << 16


def cluster(values, tols) -> list[ClusteredSpectrum]:
    """Single-linkage clustering of each row of a ``(k, N)`` stack of
    complex values, row ``i`` at tolerance ``tols[i]``: one
    ``ClusteredSpectrum`` per row.

    Each cluster is represented by its count-weighted mean. Representatives
    are re-merged until they are pairwise more than the tolerance apart, so
    the distinctness invariant holds even for chained clusters.

    The pair distances of a chunk of rows are one ``(rows, N, N)`` array.
    Clusters are numbered by their lowest index and the means summed in
    input order, so the result does not depend on how many rows share the
    call. A row whose pair distance or cluster mean overflows raises
    ``NonFiniteError``; with several such rows, the first one's error is
    raised.
    """
    rows, tols = np.asarray(values, dtype=np.complex128), list(tols)
    if rows.ndim != 2 or len(rows) != len(tols):
        raise ValueError(f"expected one tolerance per row, got {len(tols)} "
                         f"for values of shape {rows.shape}")
    if any(tol <= 0 for tol in tols):
        raise ValueError("cluster tolerance must be positive")
    k, n = rows.shape
    if n == 0:
        return [ClusteredSpectrum(points=(), tol=tol) for tol in tols]
    step = max(1, _PAIR_BUDGET // (n * n))
    return [spectrum for r in range(0, k, step)
            for spectrum in _cluster_chunk(rows[r:r + step], tols[r:r + step])]


def _cluster_chunk(rows: np.ndarray, tols: list) -> list[ClusteredSpectrum]:
    k, n = rows.shape
    # numpy's float hypot is the C hypot behind Python's complex abs, so each
    # pair is decided exactly as abs(u - v) <= tol decides it
    with np.errstate(over="ignore", invalid="ignore"):
        diff = rows[:, :, None] - rows[:, None, :]
        dist = np.hypot(diff.real, diff.imag)
    near = dist <= np.array(tols)[:, None, None]
    bad_row = k
    if not dist.max() < np.inf:
        # abs raises when a difference is finite but its modulus is not
        overflowed = (np.isinf(dist) & np.isfinite(diff)).any(axis=(1, 2))
        if overflowed.any():
            bad_row = int(overflowed.argmax())
    values = rows.tolist()

    spectra = []
    for r, labels in enumerate(_components(near)):
        if r == bad_row:
            raise NonFiniteError(
                "distance between spectral values: absolute value too large")
        groups: dict[int, list[complex]] = {}
        for label, v in zip(labels, values[r]):
            groups.setdefault(label, []).append(v)
        points = [(sum(g) / len(g), len(g)) for g in groups.values()]
        if len(points) < n:  # singleton means are the values, decided apart
            _merge_close(points, tols[r])
        if not all(cmath.isfinite(v) for v, _ in points):
            raise NonFiniteError("cluster mean overflowed to a non-finite value")
        points.sort(key=lambda p: (p[0].real, p[0].imag))
        spectra.append(ClusteredSpectrum(points=tuple(points), tol=tols[r]))
    return spectra


def _components(near: np.ndarray) -> list[list[int]]:
    """Single-linkage clusters of each row of a ``(k, N, N)`` adjacency with
    a true diagonal: per row, the lowest index in each value's cluster.

    Every value starts labelled by its least neighbour. A pass gives each
    value the least label among its neighbours, then that label's own label,
    and passes repeat until no label changes. Each pass costs ``O(k N**2)``;
    a clique, the usual shape of a cluster, is settled from the start.
    """
    k, n, _ = near.shape
    if np.count_nonzero(near) == k * n:  # no value near another
        return [list(range(n))] * k
    row = np.arange(k)[:, None]
    labels = near.argmax(axis=2)
    while True:
        least = np.where(near, labels[:, None, :], n).min(axis=2)
        least = least[row, least]
        if (least == labels).all():
            return labels.tolist()
        labels = least


def _merge_close(points: list, tol: float):
    """Merge cluster means within ``tol`` of each other, first pair first,
    until none are left."""
    merged = True
    while merged and len(points) > 1:
        merged = False
        for i in range(len(points)):
            for j in range(i + 1, len(points)):
                if abs(points[i][0] - points[j][0]) <= tol:
                    (vi, ci), (vj, cj) = points[i], points[j]
                    points[i] = ((vi * ci + vj * cj) / (ci + cj), ci + cj)
                    del points[j]
                    merged = True
                    break
            if merged:
                break


def mat_rank(m, tol: float):
    """Classical rank: singular values above ``tol * max(s_max, 1)``.

    A ``(k, n, n)`` stack gives a ``(k,)`` array of ranks from one ``svd``
    call, each cut at its own matrix's ``s_max``; the singular values of
    each row are bitwise those of the matrix alone, so each rank is the
    one its matrix gets alone. A matrix is the stack of one, and gives its
    rank as an ``int``.
    """
    if tol <= 0:
        raise ValueError("rank tolerance must be positive")
    stacked = np.ndim(m) == 3
    s = np.linalg.svd(_square(m, 3) if stacked else as_matrix(m)[None],
                      compute_uv=False)
    ranks = np.sum(s > tol * np.maximum(s[:, :1], 1.0), axis=1)
    return ranks if stacked else int(ranks[0])


def classical_charpoly(m) -> np.ndarray:
    """Coefficients of ``prod_i (lambda_i - lambda)`` in descending powers.

    Degree equals the matrix dimension and the leading coefficient is
    ``(-1)^dim``. Built from the computed eigenvalues rather than by
    expanding ``det(m - lambda I)`` symbolically.
    """
    values = eig(m)
    n = len(values)
    return ((-1.0) ** n) * np.poly(values)


# overflow is detected and rejected per contour, so it does not warn
@np.errstate(over="ignore", invalid="ignore")
def riesz_projection(m, centers, radius: float, values) -> list:
    """Spectral projectors of ``m`` for the disks ``|z - center| < radius``,
    one per center of ``centers``.

    With ``B = m - center`` and ``r = radius``, the transform ``T = (B -
    r)^-1 (B + r)`` maps the disk to the left half-plane, so the projector
    is ``(1 - sign(T)) / 2``. ``T`` takes one solve; Newton's iteration ``X
    <- (X + X^-1) / 2`` from ``X = T`` reaches ``sign(T)`` in a few
    inverses (Higham, *Functions of Matrices*, ch. 5), and needs no
    eigenvectors. An iterate stops once a step meets the
    ``config.SIGN_STEP_REL`` test, after one more step; one that has not met
    it in ``config.SIGN_MAX_STEPS`` steps is rejected.

    A contour with an eigenvalue within ``config.CONTOUR_CLEARANCE * radius``
    of the circle is rejected before solving; this also keeps the spectrum
    of ``T`` off the imaginary axis. The result must be finite, satisfy
    ``||p^2 - p|| <= config.PROJECTION_IDEM * (1 + ||p||)`` and have trace
    within ``config.PROJECTION_TRACE`` of an integer (the enclosed algebraic
    multiplicity); otherwise the contour is rejected as too close to the
    spectrum. Each setting is read when the call is made. ``values`` are the
    eigenvalues of ``m``, for the clearance check.

    The contours of ``k`` centers are one ``(k, n, n)`` stack: LAPACK and
    the elementwise steps treat each matrix on its own, and each stops on
    its own test, so a projector is bit for bit the one its center gets
    alone. The result is a list holding, per center, the projector or the
    ``ContourError`` it was rejected with, unraised, so that a caller
    walking the centers raises the error it meets first.
    """
    a = as_matrix(m)
    if radius <= 0:
        raise ValueError("contour radius must be positive")
    centers = list(centers)
    clearance = config.CONTOUR_CLEARANCE
    outcomes: list = [None] * len(centers)
    live = list(range(len(centers)))
    shifts = np.array(centers, dtype=np.complex128)
    if values.size and centers:
        dist_to_circle = np.abs(np.abs(values - shifts[:, None]) - radius).min(axis=1)
        near = (dist_to_circle < clearance * radius).tolist()
        live, shifts = _rejected(outcomes, live, near, "contour too close to spectrum: "
                                 f"eigenvalue within {clearance:g}*radius of the circle",
                                 shifts)
    if not live:
        return outcomes

    eye = np.eye(a.shape[0], dtype=np.complex128)
    shift = a - shifts[:, None, None] * eye
    lower, upper = shift - radius * eye, shift + radius * eye
    finite = np.isfinite(lower).all(axis=(1, 2)) & np.isfinite(upper).all(axis=(1, 2))
    live, lower, upper = _rejected(outcomes, live, (~finite).tolist(),
                                   "contour transform overflowed to a non-finite value",
                                   lower, upper)
    # T = (B - r)^-1 (B + r) for B = a - center; its pole, center +
    # radius, is a point of the circle
    x, singular = _each_matrix(np.linalg.solve, lower, upper)
    live, x = _rejected(outcomes, live, singular, "contour node on the spectrum: "
                        "center + radius is an eigenvalue", x)

    max_steps, step_rel = config.SIGN_MAX_STEPS, config.SIGN_STEP_REL
    last = [False] * len(live)  # met the step test: one more step
    for _ in range(max_steps):
        if not live:
            break
        inv, singular = _each_matrix(np.linalg.inv, x)
        step = x + inv
        step *= 0.5
        moved = np.abs(step - x).max(axis=(1, 2)).tolist()
        largest = np.abs(step).max(axis=(1, 2)).tolist()
        keep = []
        for j, i in enumerate(live):
            if singular[j]:
                outcomes[i] = ContourError("sign iteration reached a singular matrix")
            elif not math.isfinite(largest[j]):
                outcomes[i] = ContourError(
                    "contour projector overflowed to a non-finite value")
            elif last[j]:
                outcomes[i] = step[j]  # the sign of T
            else:
                keep.append(j)
                last[j] = moved[j] <= step_rel * largest[j]
        if len(keep) < len(live):
            live = [live[j] for j in keep]
            step, last = step[keep], [last[j] for j in keep]
        x = step
    for i in live:
        outcomes[i] = ContourError(f"sign iteration did not converge in {max_steps} steps")
    done = [i for i, o in enumerate(outcomes) if isinstance(o, np.ndarray)]
    if done:
        signs = np.array([outcomes[i] for i in done])
        for i, outcome in zip(done, _checked_projectors((eye - signs) * 0.5)):
            outcomes[i] = outcome
    return outcomes


def settle(outcome):
    """Raise ``outcome`` if it is an exception; return it otherwise."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _rejected(outcomes: list, live: list, flags: list, msg: str, *stacks) -> tuple:
    """Reject the ``live`` contours flagged with ``ContourError(msg)``: the
    rest of ``live`` and their rows of each of ``stacks``."""
    if not any(flags):
        return (live, *stacks)
    keep = [j for j, flag in enumerate(flags) if not flag]
    for i, flag in zip(live, flags):
        if flag:
            outcomes[i] = ContourError(msg)
    return ([live[j] for j in keep], *(stack[keep] for stack in stacks))


def _each_matrix(solver, *stacks) -> tuple[np.ndarray, list[bool]]:
    """``solver`` over ``(k, n, n)`` stacks in one call, and per matrix
    whether LAPACK found it singular. When it finds one, the stack is redone
    matrix by matrix and the singular ones give nan."""
    try:
        return solver(*stacks), [False] * len(stacks[0])
    except np.linalg.LinAlgError:
        out = np.full_like(stacks[-1], np.nan)
        singular = [False] * len(out)
        for j, items in enumerate(zip(*stacks)):
            try:
                out[j] = solver(*items)
            except np.linalg.LinAlgError:
                singular[j] = True
        return out, singular


def _checked_projectors(p: np.ndarray) -> list:
    """Per finite projector of the stack ``p``: itself, or the
    ``ContourError`` of the first check it fails, idempotency then a trace
    near an integer."""
    norms = zip(frobenius_stack(p @ p - p).tolist(), frobenius_stack(p).tolist(),
                np.trace(p, axis1=1, axis2=2).tolist())
    checked = []
    for pj, (defect, size, tr) in zip(p, norms):
        if defect > config.PROJECTION_IDEM * (1.0 + size):
            checked.append(ContourError(
                f"contour too close to spectrum: ||p^2 - p|| = {defect:.3e}",
                defect=defect))
        elif abs(tr - round(tr.real)) > config.PROJECTION_TRACE:
            checked.append(ContourError(
                f"projector trace {tr} is not near an integer", defect=defect))
        else:
            checked.append(pj)
    return checked


def hausdorff(points_a, points_b) -> float:
    """Hausdorff distance between two finite sets of complex points.

    Two empty sets are at distance 0; an empty set against a nonempty one is
    at infinite distance.
    """
    pa = [complex(z) for z in points_a]
    pb = [complex(z) for z in points_b]
    if not pa and not pb:
        return 0.0
    if not pa or not pb:
        return float("inf")
    d_ab = max(min(abs(x - y) for y in pb) for x in pa)
    d_ba = max(min(abs(x - y) for y in pa) for x in pb)
    return max(d_ab, d_ba)

