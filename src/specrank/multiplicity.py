"""Spectral multiplicity by perturbation counting, cross-checked by
contour-integral projector ranks.

The multiplicity of an element at a spectral value ``lambda`` is the number
of distinct points that the spectrum of ``x*a`` shows inside a small disk
around ``lambda``, for generic rank-preserving witnesses ``x`` near the
identity. That count is constant in exact arithmetic; here it is decided by
voting over several accepted perturbation samples. For nonzero ``lambda``
the count equals the rank (trace) of the spectral projector over a circle
separating ``lambda`` from the rest of the spectrum, which gives an
independent second route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import config
from .algebra import (Element, norm, random_block_stacks, riesz_values,
                      spectrum, witness_spectra)
from .config import DEFAULT_TOLS, Tolerances
from .jsonio import complex_to_pair
from .numkernel import SpecrankError, settle
from .rank import RankCertificate, rank_oracle, require_certified, spectral_rank


class SpectrumDomainError(SpecrankError):
    """Raised when a multiplicity is requested at a non-spectral point."""


class UnstableMultiplicityError(SpecrankError):
    """Raised when perturbation votes do not settle on a single count."""

    def __init__(self, msg, histogram=None):
        super().__init__(msg)
        self.histogram = histogram


@dataclass(frozen=True)
class MultiplicityRecord:
    """Multiplicity of one spectral value, with the vote that produced it.

    ``m_riesz`` is present for nonzero values only; when present it must
    agree with ``m_counting`` (campaigns verify this, the record does not
    enforce it). ``votes`` is a histogram mapping observed counts to how
    often they were observed.
    """

    value: complex
    m_counting: int
    m_riesz: int | None
    disk_radius: float
    samples: int
    votes: tuple[tuple[int, int], ...]

    def to_json(self) -> dict:
        return {
            "value": complex_to_pair(self.value),
            "m_counting": self.m_counting,
            "m_riesz": self.m_riesz,
            "disk_radius": self.disk_radius,
            "samples": self.samples,
            "votes": [[int(c), int(n)] for c, n in self.votes],
        }


def spectral_gap(a: Element, tols: Tolerances = DEFAULT_TOLS) -> float:
    """Minimum distance between distinct values of the spectrum joined with 0.

    Returns ``inf`` when 0 is the only spectral point; callers then fall back
    to a default disk radius covering the whole perturbed spectrum.
    """
    values = spectrum(a, tols).values()
    if not any(v == 0 for v in values):
        values.append(0.0 + 0.0j)
    if len(values) < 2:
        return math.inf
    return min(abs(values[i] - values[j])
               for i in range(len(values)) for j in range(i + 1, len(values)))


def default_disk_radius(a: Element) -> float:
    # covers the perturbed spectrum when 0 is the only spectral point
    return norm(a) + 1.0


def multiplicities(a: Element, rng: np.random.Generator,
                   certificate: RankCertificate | None = None,
                   with_riesz: bool = True,
                   tols: Tolerances = DEFAULT_TOLS) -> list[MultiplicityRecord]:
    """Multiplicity records for every distinct spectral value of ``a``.

    All disks are counted from the same accepted samples: each sample costs
    one spectrum computation and votes on every value at once. A witness
    ``x = 1 + eps*G`` is accepted when ``x*a`` assumes the certified rank;
    after ``CONDITION_RETRIES`` rejections in a row the vote is unstable.
    Five accepted samples decide when unanimous; otherwise sampling
    escalates to fifteen and the strict majority wins, or the vote is
    reported unstable.

    Witnesses are drawn in rounds of as many as accepted samples are still
    missing (never more than the rejections left before giving up), each
    round one ``random_block_stacks`` draw decomposed together by
    ``witness_spectra``; they never become elements.
    """
    cert = certificate or spectral_rank(a, rng=rng, tols=tols)
    require_certified(cert)

    spec = spectrum(a, tols)
    centers = spec.values()
    gap = spectral_gap(a, tols)
    radius = gap / config.COUNT_DISK_DIV if math.isfinite(gap) else default_disk_radius(a)
    eps = config.EPS_CAP if not math.isfinite(gap) else min(
        gap / (config.EPS_GAP_DIV * (norm(a) + 1.0)), config.EPS_CAP)

    votes: list[list[int]] = [[] for _ in centers]
    one = [np.eye(d, dtype=np.complex128) for d in a.shape.dims]
    scale = complex(eps)
    rejected = 0

    def collect(wanted: int):
        nonlocal rejected
        while wanted:
            size = min(wanted, config.CONDITION_RETRIES - rejected)
            stacks = tuple(e + scale * g for e, g in
                           zip(one, random_block_stacks(a.shape, rng, size)))
            for xa_spec in witness_spectra(a, stacks, tols):
                if len(xa_spec.nonzero().points) != cert.rank:
                    rejected += 1
                    if rejected == config.CONDITION_RETRIES:
                        raise UnstableMultiplicityError(
                            "no rank-preserving witness found in "
                            f"{config.CONDITION_RETRIES} draws")
                    continue
                rejected = 0
                wanted -= 1
                points = xa_spec.values()
                for i, c in enumerate(centers):
                    votes[i].append(sum(1 for p in points if abs(p - c) <= radius))

    collect(config.VOTE_SAMPLES)
    if not all(len(set(v)) == 1 for v in votes):
        collect(config.VOTE_SAMPLES_MAX - config.VOTE_SAMPLES)

    # every contour is computed here; each one's error is raised at its value
    riesz = iter(_riesz_count(a, [c for c in centers if abs(c) > spec.tol], gap)
                 if with_riesz else ())
    records = []
    for center, vote in zip(centers, votes):
        hist: dict[int, int] = {}
        for c in vote:
            hist[c] = hist.get(c, 0) + 1
        histogram = tuple(sorted(hist.items()))
        winner, count = max(hist.items(), key=lambda kv: kv[1])
        if len(hist) > 1 and count <= len(vote) // 2:
            raise UnstableMultiplicityError(
                f"multiplicity vote at {center} not settled after "
                f"{len(vote)} samples", histogram=histogram)
        m_riesz = None
        if with_riesz and abs(center) > spec.tol:
            m_riesz = settle(next(riesz))
        records.append(MultiplicityRecord(
            value=center, m_counting=int(winner), m_riesz=m_riesz,
            disk_radius=radius, samples=len(vote), votes=histogram))
    return records


def _spectral_value(a: Element, lam: complex, tols: Tolerances):
    """The spectrum of ``a`` and its value within tolerance of ``lam``."""
    spec = spectrum(a, tols)
    nearest, dist = spec.nearest(lam)
    if nearest is None or dist > spec.tol:
        raise SpectrumDomainError(f"{lam} is not a spectral value of the element")
    return spec, nearest


def multiplicity(a: Element, lam: complex, rng: np.random.Generator,
                 certificate: RankCertificate | None = None,
                 with_riesz: bool = True,
                 tols: Tolerances = DEFAULT_TOLS) -> MultiplicityRecord:
    """Multiplicity of ``a`` at the spectral value nearest ``lam``."""
    _, nearest = _spectral_value(a, lam, tols)
    for rec in multiplicities(a, rng, certificate, with_riesz, tols):
        if rec.value == nearest:
            return rec
    raise SpectrumDomainError(f"no record produced for {lam}")  # pragma: no cover


def multiplicity_riesz(a: Element, lam: complex,
                       tols: Tolerances = DEFAULT_TOLS) -> int:
    """Rank of the spectral projector around nonzero ``lam``: summed traces
    of blockwise contour integrals with radius half the spectral gap."""
    spec, nearest = _spectral_value(a, lam, tols)
    if abs(nearest) <= spec.tol:
        raise SpectrumDomainError("projector route applies to nonzero values only")
    return settle(_riesz_count(a, [nearest], spectral_gap(a, tols))[0])


def _riesz_count(a: Element, values: list, gap: float) -> list:
    """``multiplicity_riesz`` at each nonzero spectral value in ``values``,
    given the spectral gap of ``a``: per value, the count or the error that
    value raises, unraised."""
    counts = []
    for blocks in riesz_values(a, values, gap / config.RIESZ_RADIUS_DIV):
        if isinstance(blocks, SpecrankError):
            counts.append(blocks)
            continue
        total = 0.0 + 0.0j
        for p in blocks:
            total += np.trace(p)
        m = round(total.real)
        counts.append(int(m) if abs(total - m) <= config.PROJECTION_TRACE else
                      UnstableMultiplicityError(
                          f"summed projector trace {total} is not near an integer"))
    return counts


def multiplicity_oracle(a: Element, lam: complex,
                        tols: Tolerances = DEFAULT_TOLS) -> int:
    """Independent multiplicity oracle.

    Nonzero values: algebraic multiplicity summed over blocks (the cluster
    count in the element spectrum). At 0: ``rank - sum of the nonzero
    multiplicities + s`` where ``s`` is 1 when 0 belongs to the spectrum of
    the finite model or the ambient forces it, else 0. The 0 formula is
    validated against the counting procedure by the test suite before
    campaigns rely on it.
    """
    spec, nearest = _spectral_value(a, lam, tols)
    if abs(nearest) > spec.tol:
        return spec.count_at(nearest)
    nonzero_total = sum(c for v, c in spec.points if abs(v) > spec.tol)
    s = 1  # 0 in the spectrum: singular finite model or infinite ambient
    return rank_oracle(a, tols) - nonzero_total + s
