"""Witness rounds against the one-witness-at-a-time loops they replace.

``spectral_rank`` and ``multiplicities`` decompose whole rounds of witnesses
with one stacked product and one stacked eigenvalue call per block. The
reference functions below are the sequential loops, one ``Element`` and one
spectrum per witness. Both must draw the same stream, pick the same witness
bit for bit and leave the generator at the same position.
"""

import math

import numpy as np
import pytest

import specrank.algebra as algebra
from specrank import config
from specrank.algebra import (AlgebraShape, Element, count_nonzero_spectrum,
                              identity, nonzero_spectrum, norm, random_element,
                              random_socle_element, spectrum, tau_of)
from specrank.config import DEFAULT_TOLS, Tolerances
from specrank.multiplicity import (MultiplicityRecord, UnstableMultiplicityError,
                                   default_disk_radius, multiplicities,
                                   spectral_gap)
from specrank.numkernel import ConvergenceError, SpecrankError
from specrank.rank import RankCertificate, rank_oracle, spectral_rank
from conftest import make_rng


def reference_spectral_rank(a, rng, samples=config.RANK_SAMPLES,
                            escalate_to=config.RANK_SAMPLES_ESCALATED,
                            tols=DEFAULT_TOLS):
    oracle = rank_oracle(a, tols)
    best = -1
    best_witness = best_product = None
    drawn = failures = 0
    budget = max(samples, escalate_to)
    while drawn < samples or (best < oracle and drawn < budget):
        x = random_element(a.shape, rng)
        xa = x * a
        try:
            count = count_nonzero_spectrum(xa, tols)
        except ConvergenceError:
            failures += 1
            if failures > 2 * budget:
                raise
            continue
        drawn += 1
        if count > best:
            best, best_witness, best_product = count, x, xa
        if best == oracle and drawn >= samples:
            break
    tau = tau_of(best_product, tols)
    fragile = any(abs(v) <= 10.0 * tau
                  for v in nonzero_spectrum(best_product, tols).values())
    return RankCertificate(rank=best, witness=best_witness, samples_used=drawn,
                           oracle_rank=oracle, certified=(best == oracle),
                           fragile=fragile)


def reference_multiplicities(a, rng, cert, tols=DEFAULT_TOLS):
    """Counting records without the Riesz cross-check."""
    spec = spectrum(a, tols)
    centers = spec.values()
    gap = spectral_gap(a, tols)
    radius = gap / config.COUNT_DISK_DIV if math.isfinite(gap) else default_disk_radius(a)
    eps = config.EPS_CAP if not math.isfinite(gap) else min(
        gap / (config.EPS_GAP_DIV * (norm(a) + 1.0)), config.EPS_CAP)
    one = identity(a.shape)
    votes = [[] for _ in centers]

    def draw():
        for _ in range(config.CONDITION_RETRIES):
            xa = (one + eps * random_element(a.shape, rng)) * a
            if count_nonzero_spectrum(xa, tols) == cert.rank:
                break
        else:
            raise UnstableMultiplicityError(
                f"no rank-preserving witness found in {config.CONDITION_RETRIES} draws")
        points = spectrum(xa, tols).values()
        for i, c in enumerate(centers):
            votes[i].append(sum(1 for p in points if abs(p - c) <= radius))

    for _ in range(config.VOTE_SAMPLES):
        draw()
    if not all(len(set(v)) == 1 for v in votes):
        for _ in range(config.VOTE_SAMPLES_MAX - config.VOTE_SAMPLES):
            draw()

    records = []
    for center, vote in zip(centers, votes):
        hist = {}
        for c in vote:
            hist[c] = hist.get(c, 0) + 1
        histogram = tuple(sorted(hist.items()))
        winner, count = max(hist.items(), key=lambda kv: kv[1])
        if len(hist) > 1 and count <= len(vote) // 2:
            raise UnstableMultiplicityError(
                f"multiplicity vote at {center} not settled after "
                f"{len(vote)} samples", histogram=histogram)
        records.append(MultiplicityRecord(
            value=center, m_counting=int(winner), m_riesz=None,
            disk_radius=radius, samples=len(vote), votes=histogram))
    return records


SHAPES = ((1,), (2,), (3, 2), (4, 4), (6, 1, 3), (3, 5, 2, 6))
# a coarse distinctness tolerance makes witnesses disagree, which exercises
# rank escalation and rejected vote witnesses
COARSE = Tolerances(cluster_rel=0.1)


def witness_cases():
    """(element, tols, seed): 50 socle elements over several shapes and both
    ambients, then Jordan blocks ``[[1, c], [0, 1]]`` whose perturbed points
    straddle the counting disk, so their votes escalate."""
    rng = make_rng(404)
    cases = []
    for i in range(50):
        dims = SHAPES[i % len(SHAPES)]
        ambient = ("finite", "infinite")[(i // len(SHAPES)) % 2]
        shape = AlgebraShape(dims=dims, ambient=ambient)
        ranks = tuple(int(rng.integers(0, d + 1)) for d in dims)
        tols = COARSE if i % 5 == 4 else DEFAULT_TOLS
        cases.append((random_socle_element(shape, ranks, rng), tols, 1000 + i))
    for i, (c, ambient) in enumerate([(5, "finite"), (10, "infinite")] * 4):
        block = np.array([[1, c, 0], [0, 1, 0], [0, 0, -1]], dtype=np.complex128)
        shape = AlgebraShape(dims=(3, 2), ambient=ambient)
        cases.append((Element(shape, (block, np.diag([0.5, 0.0]))), DEFAULT_TOLS, i))
    return cases


def outcome(fn):
    try:
        return fn(), None
    except SpecrankError as exc:
        return None, (type(exc).__name__, str(exc))


def assert_same_certificate(cert, ref):
    assert (cert.rank, cert.samples_used, cert.oracle_rank, cert.certified,
            cert.fragile) == (ref.rank, ref.samples_used, ref.oracle_rank,
                              ref.certified, ref.fragile)
    assert cert.witness.shape == ref.witness.shape
    for b, r in zip(cert.witness.blocks, ref.witness.blocks):
        assert b.tobytes() == r.tobytes()


CASES = witness_cases()


@pytest.mark.parametrize("a, tols, seed", CASES,
                         ids=[f"case{i}" for i in range(len(CASES))])
def test_rounds_match_sequential_loops(a, tols, seed):
    rng, ref_rng = make_rng(seed), make_rng(seed)
    cert = spectral_rank(a, rng=rng, tols=tols)
    ref = reference_spectral_rank(a, ref_rng, tols=tols)
    assert_same_certificate(cert, ref)
    assert rng.random() == ref_rng.random()

    records, error = outcome(
        lambda: multiplicities(a, rng, cert, with_riesz=False, tols=tols))
    ref_records, ref_error = outcome(
        lambda: reference_multiplicities(a, ref_rng, ref, tols=tols))
    assert error == ref_error
    assert records == ref_records
    assert rng.random() == ref_rng.random()


def test_cases_exercise_every_path():
    """The cases reach rank escalation, escalated votes and an unstable
    vote; otherwise the comparison above only covers full first rounds."""
    escalated = votes_escalated = unstable = 0
    for a, tols, seed in CASES:
        rng = make_rng(seed)
        cert = reference_spectral_rank(a, rng, tols=tols)
        escalated += cert.samples_used > config.RANK_SAMPLES
        records, error = outcome(lambda: reference_multiplicities(a, rng, cert, tols))
        votes_escalated += any(r.samples > config.VOTE_SAMPLES for r in records or ())
        unstable += error is not None
    assert escalated and votes_escalated and unstable


def test_failed_witness_in_first_round_is_replaced(monkeypatch):
    """A witness whose eig fails is skipped and the next draw takes its
    place, exactly as in the loop; the stacked call is redone one witness at
    a time."""
    shape = AlgebraShape(dims=(3, 2))
    a = random_socle_element(shape, (2, 1), make_rng(5))
    probe = make_rng(77)
    products = [(random_element(shape, probe) * a).blocks[0] for _ in range(3)]
    poisoned = products[2].tobytes()
    real_eig = algebra.eig

    def failing_eig(m):
        m = np.asarray(m)
        stack = m if m.ndim == 3 else m[None]
        if any(s.tobytes() == poisoned for s in stack):
            raise ConvergenceError("eigenvalue iteration failed: injected")
        return real_eig(m)

    monkeypatch.setattr(algebra, "eig", failing_eig)
    rng, ref_rng = make_rng(77), make_rng(77)
    cert = spectral_rank(a, rng=rng)
    ref = reference_spectral_rank(a, ref_rng)
    assert_same_certificate(cert, ref)
    assert cert.samples_used == config.RANK_SAMPLES
    assert rng.random() == ref_rng.random()


@pytest.mark.parametrize("dims", [(1,), (3, 2), (6, 1, 3), (3, 5, 2, 6)])
@pytest.mark.parametrize("count", [1, 2, 7])
def test_block_stacks_are_successive_draws(dims, count):
    """One ``standard_normal`` call per round gives the blocks of ``count``
    ``random_blocks`` calls bit for bit, which are the per-block Ginibre
    draws, and leaves the generator where they leave it."""
    shape = AlgebraShape(dims=dims)
    rng, ref_rng, ginibre_rng = make_rng(9), make_rng(9), make_rng(9)
    stacks = algebra.random_block_stacks(shape, rng, count)
    for i in range(count):
        ref = algebra.random_blocks(shape, ref_rng)
        old = [algebra.ginibre(ginibre_rng, d) for d in dims]
        for s, r, g in zip(stacks, ref, old):
            assert s.shape == (count,) + r.shape
            assert s[i].tobytes() == r.tobytes() == g.tobytes()
    assert rng.random() == ref_rng.random() == ginibre_rng.random()
