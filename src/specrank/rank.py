"""Spectral rank: randomized certification against the classical-rank oracle.

The rank of an element is the supremum over witnesses ``x`` of the number of
distinct nonzero spectral values of ``x*a``. The witnesses attaining the
supremum form a dense open set, so Gaussian sampling certifies the rank with
overwhelming probability; the classical blockwise matrix rank serves as an
independent upper oracle, and a certificate is accepted only when the two
agree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import config
from .algebra import (AlgebraShape, Element, count_nonzero_spectrum, ginibre,
                      random_block_stacks, witness_spectra, zero)
from .config import DEFAULT_TOLS, Tolerances
from .numkernel import ConvergenceError, SpecrankError, mat_rank


class UncertifiedRankError(SpecrankError):
    """Raised when an operation requires a certified rank but has none."""


class IllConditionedError(SpecrankError):
    """Raised when no well-conditioned random similarity is found."""


class IndistinctValuesError(ValueError):
    """Raised when ``make_maximal`` is given values that are not nonzero and
    pairwise distinct at the tolerance it is called with."""


@dataclass(frozen=True)
class RankCertificate:
    """Outcome of randomized rank certification.

    ``rank`` is the best sampled count of distinct nonzero spectral values of
    ``witness*a`` and ``oracle_rank`` the summed classical block ranks; the
    certificate is ``certified`` exactly when the two agree. In exact
    arithmetic ``rank`` never exceeds the oracle, but the two are decided by
    different cutoffs (spectral tau against relative singular values), so a
    graded element can land above it: ``diag(1e8, 0.5)`` samples rank 2
    against oracle 1. ``fragile`` flags a witness whose product has a
    nonzero spectral value within 10 tau of 0, where tolerance flicker could
    merge it away.
    """

    rank: int
    witness: Element
    samples_used: int
    oracle_rank: int
    certified: bool
    fragile: bool = False

    def to_json(self) -> dict:
        return {
            "rank": self.rank,
            "oracle_rank": self.oracle_rank,
            "samples_used": self.samples_used,
            "certified": self.certified,
            "fragile": self.fragile,
            "witness": self.witness.to_json(),
        }


def require_certified(cert: RankCertificate):
    """Raise ``UncertifiedRankError`` unless ``cert`` is certified."""
    if not cert.certified:
        side = "above" if cert.rank > cert.oracle_rank else "below"
        raise UncertifiedRankError(
            f"rank {cert.rank} {side} oracle {cert.oracle_rank}")


def _spectra_or_errors(a: Element, stacks, tols: Tolerances) -> list:
    """``witness_spectra``, with the ``ConvergenceError`` of a witness in
    place of its spectrum; a failing round is redone one witness at a time."""
    try:
        return witness_spectra(a, stacks, tols)
    except ConvergenceError as exc:
        count = len(stacks[0])
        if count == 1:
            return [exc]
        return [_spectra_or_errors(a, tuple(s[i:i + 1] for s in stacks), tols)[0]
                for i in range(count)]


def rank_oracle(a: Element, tols: Tolerances = DEFAULT_TOLS) -> int:
    """Classical rank: sum of blockwise matrix ranks."""
    return sum(mat_rank(b, tols.rank_rel) for b in a.blocks)


def spectral_rank(a: Element, rng: np.random.Generator,
                  tols: Tolerances = DEFAULT_TOLS) -> RankCertificate:
    """Certify the rank of ``a`` by sampling Gaussian witnesses.

    Draws ``config.RANK_SAMPLES`` witnesses, keeping the one maximizing the
    count of distinct nonzero spectral values of ``x*a``. If the best count
    falls short of the classical-rank oracle, sampling escalates to
    ``config.RANK_SAMPLES_ESCALATED`` witnesses before the certificate is
    flagged uncertified. A witness whose eigenvalue iteration fails is
    skipped and replaced by the next draw.

    The first ``RANK_SAMPLES`` draws always happen, so they are drawn as one
    round (``random_block_stacks``) and decomposed together
    (``witness_spectra``); each escalation draw can end the loop, so it is a
    round of its own. Only the best witness becomes an ``Element``.
    """
    if rng is None:
        raise ValueError("an explicit random generator is required")
    oracle = rank_oracle(a, tols)

    best = -1
    best_witness = best_spec = None
    drawn = failures = 0
    samples = config.RANK_SAMPLES
    budget = max(samples, config.RANK_SAMPLES_ESCALATED)
    while drawn < samples or (best < oracle and drawn < budget):
        stacks = random_block_stacks(a.shape, rng, max(samples - drawn, 1))
        for i, spec in enumerate(_spectra_or_errors(a, stacks, tols)):
            if isinstance(spec, ConvergenceError):
                failures += 1
                if failures > 2 * budget:
                    raise spec
                continue
            drawn += 1
            count = len(spec.nonzero().points)
            if count > best:
                best, best_witness, best_spec = count, tuple(s[i] for s in stacks), spec

    tau = best_spec.tol  # tau_of the best product
    fragile = any(abs(v) <= 10.0 * tau for v in best_spec.nonzero().values())
    return RankCertificate(rank=best, witness=Element(a.shape, best_witness),
                           samples_used=drawn, oracle_rank=oracle,
                           certified=(best == oracle),
                           fragile=fragile)


def is_maximal(a: Element, certificate: RankCertificate,
               tols: Tolerances = DEFAULT_TOLS) -> bool:
    """True when ``a`` assumes its rank at the identity: its own count of
    distinct nonzero spectral values equals the certified rank."""
    require_certified(certificate)
    return count_nonzero_spectrum(a, tols) == certificate.rank


def _well_conditioned_similarity(rng: np.random.Generator, n: int) -> np.ndarray:
    """First draw ``1 + G`` with condition number at most
    ``config.SIMILARITY_COND_CAP``."""
    for _ in range(config.CONDITION_RETRIES):
        s = np.eye(n, dtype=np.complex128) + ginibre(rng, n)
        if np.linalg.cond(s) <= config.SIMILARITY_COND_CAP:
            return s
    raise IllConditionedError(
        f"no similarity with condition number <= {config.SIMILARITY_COND_CAP:g} "
        f"in {config.CONDITION_RETRIES} draws")


def make_maximal(shape: AlgebraShape, nonzero_eigs,
                 rng: np.random.Generator,
                 assignment=None,
                 tols: Tolerances = DEFAULT_TOLS) -> Element:
    """Construct an element assuming its rank at the identity.

    Each block is ``S diag(assigned eigenvalues, 0, ..., 0) S^-1`` with a
    random well-conditioned ``S``. ``assignment`` gives the block index for
    each eigenvalue; by default eigenvalues fill blocks first-fit. With no
    eigenvalues at all the result is the zero element.
    """
    eigs = [complex(e) for e in nonzero_eigs]
    if not eigs:
        return zero(shape)
    sep_floor = tols.tau(max(abs(e) for e in eigs))
    for i in range(len(eigs)):
        if abs(eigs[i]) <= sep_floor:
            raise IndistinctValuesError("eigenvalues must be nonzero")
        for j in range(i + 1, len(eigs)):
            if abs(eigs[i] - eigs[j]) <= sep_floor:
                raise IndistinctValuesError("eigenvalues must be pairwise distinct")

    k = len(shape.dims)
    if assignment is None:
        placement, level = [], [0] * k
        for _ in eigs:
            j = int(np.argmin([level[i] / shape.dims[i] for i in range(k)]))
            if level[j] >= shape.dims[j]:
                raise ValueError("more eigenvalues than total dimension")
            placement.append(j)
            level[j] += 1
    else:
        placement = [int(j) for j in assignment]
        if len(placement) != len(eigs):
            raise ValueError("one block index per eigenvalue required")

    per_block: list[list[complex]] = [[] for _ in range(k)]
    for e, j in zip(eigs, placement):
        if not 0 <= j < k:
            raise ValueError(f"block index {j} out of range")
        per_block[j].append(e)
        if len(per_block[j]) > shape.dims[j]:
            raise ValueError(f"block {j} assigned more eigenvalues than its dimension")

    blocks = []
    for d, assigned in zip(shape.dims, per_block):
        if not assigned:
            blocks.append(np.zeros((d, d), dtype=np.complex128))
            continue
        diag = np.zeros(d, dtype=np.complex128)
        diag[:len(assigned)] = assigned
        s = _well_conditioned_similarity(rng, d)
        blocks.append(s @ np.diag(diag) @ np.linalg.inv(s))
    return Element(shape, tuple(blocks))
