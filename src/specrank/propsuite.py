"""Named, seedable verification campaigns over random block-algebra elements.

Each property has one checker; a campaign runs every checker for a number of
trials, drawing fresh inputs per trial from a counter-based stream keyed on
(property, trial index). Reports are deterministic given the seed, merge
associatively over trial partitions, and carry enough serialized input to
replay any failure bit for bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import config
from .algebra import (FINITE, INFINITE_SOCLE, AlgebraShape, Element,
                      ProjectionElement, compressed_view, count_nonzero_spectrum,
                      nonzero_spectrum, norm, random_element,
                      random_socle_element, spectrum, tau_of, zero)
from .charpoly import (approximation_sequence, cayley_hamilton_residual,
                       char_poly, det_plus_one, diagonalize_maximal)
from .charpoly import naive_det_demo as _naive_det_demo
from .config import DEFAULT_TOLS, Tolerances
from .jsonio import dumps_canonical
from .multiplicity import multiplicities, multiplicity_oracle
from .numkernel import SpecrankError, classical_charpoly, hausdorff, mat_rank
from .rank import (IndistinctValuesError, _well_conditioned_similarity,
                   make_maximal, spectral_rank)


@dataclass(frozen=True)
class ShapePolicy:
    """How random algebra shapes are drawn for campaign trials."""

    max_blocks: int = 4
    max_dim: int = 6
    ambients: tuple[str, ...] = (FINITE, INFINITE_SOCLE)
    shapes: tuple[tuple[int, ...], ...] | None = None

    def to_json(self) -> dict:
        return {"max_blocks": self.max_blocks, "max_dim": self.max_dim,
                "ambients": list(self.ambients),
                "shapes": None if self.shapes is None else [list(s) for s in self.shapes]}


def random_shape(policy: ShapePolicy, rng: np.random.Generator,
                 min_blocks: int = 1, min_total: int = 1,
                 ambient: str | None = None) -> AlgebraShape | None:
    """A shape of at least ``min_blocks`` blocks and ``min_total`` total
    dimension, or None when the policy gives none in 50 draws."""
    amb = ambient or str(rng.choice(list(policy.ambients)))
    if not policy.shapes and policy.max_blocks < min_blocks:
        return None
    for _ in range(50):
        if policy.shapes:
            dims = tuple(policy.shapes[int(rng.integers(len(policy.shapes)))])
        else:
            k = int(rng.integers(min_blocks, policy.max_blocks + 1))
            dims = tuple(int(rng.integers(1, policy.max_dim + 1)) for _ in range(k))
        if len(dims) >= min_blocks and sum(dims) >= min_total:
            return AlgebraShape(dims=dims, ambient=amb)
    return None


@dataclass(frozen=True)
class PropertySpec:
    """One property campaign: which checker, how many trials, over what."""

    name: str
    trials: int
    policy: ShapePolicy = ShapePolicy()
    tols: Tolerances = DEFAULT_TOLS

    def __post_init__(self):
        if self.name not in CHECKERS:
            raise ValueError(f"unknown property {self.name!r}; "
                             f"known: {', '.join(CHECKERS)}")
        if self.trials < 0:
            raise ValueError("trials must be nonnegative")


@dataclass(frozen=True)
class TrialResult:
    passed: bool
    residual: float = 0.0
    skipped: bool = False
    failure: dict | None = None
    note: str | None = None
    counters: dict = field(default_factory=dict)


# Residual histogram bins: one bin for exact zero, then decades.
_BIN_MIN_EXP = -18
_BIN_MAX_EXP = 2

# Finite stand-in for "no measurable residual" (errors, infinite distances);
# keeps reports strictly JSON-serializable.
FAILURE_RESIDUAL = 1e300


def _clamp(x: float) -> float:
    x = float(x)
    if not math.isfinite(x):
        return FAILURE_RESIDUAL if x > 0 else -FAILURE_RESIDUAL
    return min(max(x, -FAILURE_RESIDUAL), FAILURE_RESIDUAL)


def _sanitize(obj):
    """Clamp non-finite floats anywhere inside a failure record."""
    if isinstance(obj, float):
        return _clamp(obj)
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    return obj


def _bin_low(residual: float) -> float:
    if residual <= 0.0:
        return 0.0
    e = int(math.floor(math.log10(residual)))
    return 10.0 ** min(max(e, _BIN_MIN_EXP), _BIN_MAX_EXP)


MAX_FAILURE_RECORDS = 25


@dataclass(frozen=True)
class PropertyReport:
    """Aggregated outcome of one property campaign; the defaults are the
    report over no trials, which ``merge`` leaves unchanged."""

    name: str
    seed: int
    trials: int = 0
    pass_count: int = 0
    fail_count: int = 0
    skip_count: int = 0
    worst_residual: float = 0.0
    histogram: tuple[tuple[float, int], ...] = ()
    failures: tuple[dict, ...] = ()
    counters: tuple[tuple[str, int], ...] = ()
    notes: tuple[str, ...] = ()
    failures_truncated: bool = False

    def merge(self, other: "PropertyReport") -> "PropertyReport":
        if self.name != other.name or self.seed != other.seed:
            raise ValueError("only reports of the same property and seed merge")
        hist: dict[float, int] = {}
        for low, count in self.histogram + other.histogram:
            hist[low] = hist.get(low, 0) + count
        counters: dict[str, int] = {}
        for key, count in self.counters + other.counters:
            counters[key] = counters.get(key, 0) + count
        failures = sorted(self.failures + other.failures, key=lambda f: f["trial"])
        truncated = (self.failures_truncated or other.failures_truncated
                     or len(failures) > MAX_FAILURE_RECORDS)
        return PropertyReport(
            name=self.name, seed=self.seed,
            trials=self.trials + other.trials,
            pass_count=self.pass_count + other.pass_count,
            fail_count=self.fail_count + other.fail_count,
            skip_count=self.skip_count + other.skip_count,
            worst_residual=max(self.worst_residual, other.worst_residual),
            histogram=tuple(sorted(hist.items())),
            failures=tuple(failures[:MAX_FAILURE_RECORDS]),
            counters=tuple(sorted(counters.items())),
            notes=tuple(sorted(set(self.notes) | set(other.notes))),
            failures_truncated=truncated)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "seed": self.seed,
            "trials": self.trials,
            "pass_count": self.pass_count,
            "fail_count": self.fail_count,
            "skip_count": self.skip_count,
            "worst_residual": self.worst_residual,
            "histogram": [[low, count] for low, count in self.histogram],
            "failures": list(self.failures),
            "failures_truncated": self.failures_truncated,
            "counters": {k: v for k, v in self.counters},
            "notes": list(self.notes),
        }


# ---------------------------------------------------------------------------
# trial input generators

def _random_distinct_values(rng: np.random.Generator, count: int) -> list[complex]:
    """Nonzero complex values in the annulus ``0.5 <= |z| < 2``, pairwise
    more than 0.12 apart."""
    out: list[complex] = []
    while len(out) < count:
        r = 0.5 + (2.0 - 0.5) * rng.random()
        z = r * np.exp(2j * np.pi * rng.random())
        if all(abs(z - w) > 0.12 for w in out):
            out.append(complex(z))
    return out


def _random_maximal_constructed(shape: AlgebraShape, rng: np.random.Generator,
                                tols: Tolerances,
                                spread_blocks: bool = False) -> Element | None:
    """A rank-assuming element built by ``make_maximal`` from up to four
    random values, or None when the values are not separable at the trial's
    tau (a coarse clustering tolerance)."""
    total = shape.total_dim
    k = len(shape.dims)
    n_values = int(rng.integers(1, min(total, 4) + 1))
    if spread_blocks and k >= 2:
        n_values = max(n_values, 2)
    values = _random_distinct_values(rng, n_values)
    assignment = None
    if spread_blocks and k >= 2:
        blocks = list(rng.permutation(k))[:2]
        assignment, level = [], [0] * k
        for i, _ in enumerate(values):
            j = blocks[i] if i < 2 else int(rng.integers(k))
            for probe in range(k):
                cand = (j + probe) % k
                if level[cand] < shape.dims[cand]:
                    j = cand
                    break
            assignment.append(j)
            level[j] += 1
    try:
        return make_maximal(shape, values, rng, assignment=assignment, tols=tols)
    except IndistinctValuesError:
        return None


def _random_ranks(shape: AlgebraShape, rng: np.random.Generator) -> list[int]:
    return [int(rng.integers(0, d + 1)) for d in shape.dims]


def _random_maximal_filtered(shape: AlgebraShape, rng: np.random.Generator,
                             tols: Tolerances) -> Element | None:
    """A random socle element that assumes its rank at the identity, or None
    when 8 draws give none."""
    for _ in range(8):
        ranks = _random_ranks(shape, rng)
        if sum(ranks) == 0:
            ranks[int(rng.integers(len(ranks)))] = 1
        a = random_socle_element(shape, ranks, rng)
        cert = spectral_rank(a, rng=rng, tols=tols)
        if cert.certified and count_nonzero_spectrum(a, tols) == cert.rank:
            return a
    return None


def _random_non_maximal(shape: AlgebraShape, rng: np.random.Generator,
                        tols: Tolerances) -> Element | None:
    """Diagonalizable element that does not assume its rank at the identity:
    one spectral value planted with total algebraic multiplicity two, either
    inside a block or across two blocks; None when 10 draws give none."""
    dims = shape.dims
    k = len(dims)
    for _ in range(10):
        values = _random_distinct_values(rng, int(rng.integers(1, 4)))
        dup = values[0]
        blocks = []
        extra = list(values[1:])
        wide = [j for j, d in enumerate(dims) if d >= 2]
        if k >= 2 and (not wide or rng.random() < 0.5):
            spots = list(rng.permutation(k))[:2]
        else:
            spots = [wide[int(rng.integers(len(wide)))]] if wide else None
        if spots is None:
            return None
        for j, d in enumerate(dims):
            diag = np.zeros(d, dtype=np.complex128)
            pos = 0
            copies = (2 if (len(spots) == 1 and j == spots[0])
                      else 1 if j in spots else 0)
            for _ in range(copies):
                diag[pos] = dup
                pos += 1
            while extra and pos < d and rng.random() < 0.5:
                diag[pos] = extra.pop()
                pos += 1
            s = _well_conditioned_similarity(rng, d)
            blocks.append(s @ np.diag(diag) @ np.linalg.inv(s))
        a = Element(shape, tuple(blocks))
        cert = spectral_rank(a, rng=rng, tols=tols)
        if cert.certified and count_nonzero_spectrum(a, tols) < cert.rank:
            return a
    return None


def _block_element(a: Element, j: int) -> Element:
    return Element(AlgebraShape(dims=(a.shape.dims[j],), ambient=FINITE),
                   (a.blocks[j],))


def _projection_from_maximal(shape: AlgebraShape, rng: np.random.Generator,
                             tols: Tolerances) -> ProjectionElement | None:
    """Sum of a random subset of the spectral projectors of a random
    rank-assuming element, or None when none could be built."""
    m = _random_maximal_constructed(shape, rng, tols)
    if m is None:
        return None
    pairs = diagonalize_maximal(m, rng, tols=tols)
    mask = rng.random(len(pairs)) < 0.6
    if not mask.any():
        mask[int(rng.integers(len(pairs)))] = True
    total = zero(shape)
    for keep, (_, proj) in zip(mask, pairs):
        if keep:
            total = total + proj.element
    return ProjectionElement(total)


# ---------------------------------------------------------------------------
# checkers

def _verdict(ok: bool, residual: float, inputs: dict, measured: dict,
             counters: dict | None = None) -> TrialResult:
    """Pass or fail with ``residual``; a failure records the measurements
    and the input elements, which are serialized only then."""
    failure = None if ok else {
        "inputs": {name: e.to_json() for name, e in inputs.items()},
        "measured": measured}
    return TrialResult(passed=ok, residual=residual, failure=failure,
                       counters=counters or {})


# Outcome of a trial whose input generator gave up: skipped, not decided.
_EXHAUSTED = TrialResult(passed=False, skipped=True, counters={"generator_exhausted": 1})


def _spectra_agree(u: Element, v: Element, inputs: dict,
                   spec: PropertySpec) -> TrialResult:
    """The nonzero spectra of ``u`` and ``v`` agree in Hausdorff distance."""
    tol = 10.0 * max(tau_of(u, spec.tols), tau_of(v, spec.tols))
    d = hausdorff(nonzero_spectrum(u, spec.tols).values(),
                  nonzero_spectrum(v, spec.tols).values())
    return _verdict(d <= tol, d, inputs, {"hausdorff": d, "tolerance": tol})


def _check_jacobson(rng, spec: PropertySpec) -> TrialResult:
    shape = random_shape(spec.policy, rng)
    x = random_element(shape, rng)
    a = random_element(shape, rng)
    return _spectra_agree(x * a, a * x, {"x": x, "a": a}, spec)


def _compression(rng, spec: PropertySpec):
    """``pxp`` in the ambient, ``x`` compressed to the corner of ``p``, and
    the inputs that reproduce both; None when ``p`` could not be built."""
    shape = random_shape(spec.policy, rng)
    p = _projection_from_maximal(shape, rng, spec.tols)
    if p is None:
        return None
    view = compressed_view(p, spec.tols)
    x = random_element(shape, rng)
    return p.element * x * p.element, view.compress(x), {"p": p.element, "x": x}


def _check_compression_spectrum(rng, spec: PropertySpec) -> TrialResult:
    compression = _compression(rng, spec)
    if compression is None:
        return _EXHAUSTED
    return _spectra_agree(*compression, spec)


def _check_compression_rank(rng, spec: PropertySpec) -> TrialResult:
    compression = _compression(rng, spec)
    if compression is None:
        return _EXHAUSTED
    pxp, compressed, inputs = compression
    ambient = spectral_rank(pxp, rng=rng, tols=spec.tols)
    corner = spectral_rank(compressed, rng=rng, tols=spec.tols)
    ok = ambient.certified and corner.certified and ambient.rank == corner.rank
    return _verdict(ok, float(abs(ambient.rank - corner.rank)), inputs, {
        "rank_ambient": ambient.rank, "rank_view": corner.rank,
        "certified_ambient": ambient.certified, "certified_view": corner.certified})


def _maximal_for_block_checks(rng, spec: PropertySpec):
    shape = random_shape(spec.policy, rng, min_blocks=2)
    if shape is None:
        return None, None
    if rng.random() < 0.5:
        return _random_maximal_constructed(shape, rng, spec.tols,
                                           spread_blocks=True), "constructed"
    a = _random_maximal_filtered(shape, rng, spec.tols)
    return a, "filtered"


def _check_block_spectra_disjoint(rng, spec: PropertySpec) -> TrialResult:
    a, path = _maximal_for_block_checks(rng, spec)
    if a is None:
        return _EXHAUSTED
    tau = tau_of(a, spec.tols)
    per_block = [nonzero_spectrum(_block_element(a, j), spec.tols).values()
                 for j in range(len(a.shape.dims))]
    min_sep = math.inf
    for i in range(len(per_block)):
        for j in range(i + 1, len(per_block)):
            for u in per_block[i]:
                for v in per_block[j]:
                    min_sep = min(min_sep, abs(u - v))
    disjoint = math.isinf(min_sep)
    return _verdict(disjoint or min_sep > tau, 0.0 if disjoint else tau / min_sep,
                    {"a": a}, {"min_separation": min_sep, "tau": tau},
                    {f"path_{path}": 1})


def _check_blockwise_maximality(rng, spec: PropertySpec) -> TrialResult:
    a, path = _maximal_for_block_checks(rng, spec)
    if a is None:
        return _EXHAUSTED
    mismatch = 0
    detail = []
    for j, block in enumerate(a.blocks):
        distinct = count_nonzero_spectrum(_block_element(a, j), spec.tols)
        classical = mat_rank(block, spec.tols.rank_rel)
        detail.append({"block": j, "distinct_nonzero": distinct, "rank": classical})
        mismatch = max(mismatch, abs(distinct - classical))
    return _verdict(mismatch == 0, float(mismatch), {"a": a}, {"blocks": detail},
                    {f"path_{path}": 1})


def _check_classical_charpoly_match(rng, spec: PropertySpec) -> TrialResult:
    shape = random_shape(spec.policy, rng, ambient=FINITE)
    values = _random_distinct_values(rng, shape.total_dim)
    assignment = [j for j, d in enumerate(shape.dims) for _ in range(d)]
    try:
        a = make_maximal(shape, values, rng, assignment=assignment, tols=spec.tols)
    except IndistinctValuesError:
        return _EXHAUSTED
    p = char_poly(a, rng, tols=spec.tols)
    product = np.array([1.0 + 0.0j])
    for block in a.blocks:
        product = np.polymul(product, classical_charpoly(block))
    ours = p.coefficients()
    if len(ours) != len(product):
        return _verdict(False, float("inf"), {"a": a}, {
            "degree_ours": len(ours) - 1, "degree_classical": len(product) - 1})
    scale = max(1.0, float(np.max(np.abs(product))))
    residual = float(np.max(np.abs(ours - product))) / scale
    return _verdict(residual <= spec.tols.identity_rel, residual, {"a": a},
                    {"coefficient_residual": residual})


def _check_cayley_hamilton(rng, spec: PropertySpec) -> TrialResult:
    shape = random_shape(spec.policy, rng)
    a = random_socle_element(shape, _random_ranks(shape, rng), rng)
    residual = cayley_hamilton_residual(a, rng, tols=spec.tols)
    return _verdict(residual <= spec.tols.residual, residual, {"a": a},
                    {"residual": residual})


def _det_identity(rng, spec: PropertySpec, sides) -> TrialResult:
    """A ``det(. + 1)`` identity on two random socle elements. ``sides(a, b,
    det)`` returns its two sides; ``det`` draws from ``rng``, so the order of
    its calls is part of the trial."""
    shape = random_shape(spec.policy, rng)
    a = random_socle_element(shape, _random_ranks(shape, rng), rng)
    b = random_socle_element(shape, _random_ranks(shape, rng), rng)
    lhs, rhs = sides(a, b, lambda x: det_plus_one(x, rng, tols=spec.tols))
    residual = abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))
    return _verdict(residual <= spec.tols.identity_rel, residual, {"a": a, "b": b}, {
        "lhs": [lhs.real, lhs.imag], "rhs": [rhs.real, rhs.imag],
        "relative_error": residual})


def _check_det_multiplicative(rng, spec: PropertySpec) -> TrialResult:
    # (a+1)(b+1) = c+1 with c = a + b + ab
    return _det_identity(rng, spec,
                         lambda a, b, det: (det(a + b + a * b), det(a) * det(b)))


def _check_sylvester(rng, spec: PropertySpec) -> TrialResult:
    return _det_identity(rng, spec, lambda a, b, det: (det(a * b), det(b * a)))


def _check_charpoly_continuity(rng, spec: PropertySpec) -> TrialResult:
    shape = random_shape(spec.policy, rng, min_total=2)
    a = None if shape is None else _random_non_maximal(shape, rng, spec.tols)
    if a is None:
        return _EXHAUSTED
    lambda0 = complex((2.0 + rng.random()) * np.exp(2j * np.pi * rng.random()))
    record = approximation_sequence(a, 6, lambda0, rng, tols=spec.tols)
    if not record.completed or len(record.steps) < 6:
        return _verdict(False, float("inf"), {"a": a},
                        {"record": record.to_json(), "reason": "aborted"})
    dev2 = record.steps[1].deviation
    dev6 = record.steps[5].deviation
    worst_res = max(s.residual for s in record.steps)
    floor = 1e-12 * (1.0 + abs(record.reference))
    ok = dev6 <= dev2 / 2.0 + floor and worst_res <= spec.tols.residual
    return _verdict(ok, worst_res if ok else max(worst_res, dev6), {"a": a}, {
        "record": record.to_json(), "dev_step2": dev2, "dev_step6": dev6,
        "worst_step_residual": worst_res})


def _check_multiplicity_consistency(rng, spec: PropertySpec) -> TrialResult:
    shape = random_shape(spec.policy, rng)
    a = random_socle_element(shape, _random_ranks(shape, rng), rng)
    cert = spectral_rank(a, rng=rng, tols=spec.tols)
    if not cert.certified:
        return _verdict(False, float("inf"), {"a": a}, {
            "reason": "rank not certified", "rank": cert.rank,
            "oracle": cert.oracle_rank})
    records = multiplicities(a, rng, cert, with_riesz=True, tols=spec.tols)
    spec_a = spectrum(a, spec.tols)
    worst = 0
    detail = []
    total = 0
    for rec in records:
        total += rec.m_counting
        if abs(rec.value) > spec_a.tol:
            algebraic = spec_a.count_at(rec.value)
            worst = max(worst, abs(rec.m_counting - algebraic),
                        abs((rec.m_riesz or 0) - algebraic))
            detail.append({"value": [rec.value.real, rec.value.imag],
                           "m_counting": rec.m_counting, "m_riesz": rec.m_riesz,
                           "algebraic": algebraic})
        else:
            oracle0 = multiplicity_oracle(a, 0.0, spec.tols)
            worst = max(worst, abs(rec.m_counting - oracle0))
            detail.append({"value": [0.0, 0.0], "m_counting": rec.m_counting,
                           "oracle": oracle0})
    ok = worst == 0 and total <= cert.rank + 1
    return _verdict(ok, 0.0 if ok else float(worst if worst else 1), {"a": a},
                    {"records": detail, "degree": total, "rank": cert.rank})


def _check_diagonalization(rng, spec: PropertySpec) -> TrialResult:
    shape = random_shape(spec.policy, rng)
    a = _random_maximal_constructed(shape, rng, spec.tols)
    if a is None:
        return _EXHAUSTED
    pairs = diagonalize_maximal(a, rng, tols=spec.tols)
    recon = zero(shape)
    for value, proj in pairs:
        recon = recon + value * proj.element
    residual = norm(a - recon) / (1.0 + norm(a))
    records = multiplicities(a, rng, with_riesz=False, tols=spec.tols)
    ok = (all(rec.m_counting == 1 for rec in records)
          and residual <= config.PROJECTION_IDEM)
    return _verdict(ok, residual, {"a": a}, {
        "reconstruction_residual": residual,
        "multiplicities": [rec.m_counting for rec in records]})


def _check_naive_det_demo(rng, spec: PropertySpec) -> TrialResult:
    report = _naive_det_demo(rng, spec.tols)
    return TrialResult(passed=True, residual=0.0,
                       note=dumps_canonical(report))


CHECKERS = {
    "jacobson": _check_jacobson,
    "compression_spectrum": _check_compression_spectrum,
    "compression_rank": _check_compression_rank,
    "block_spectra_disjoint": _check_block_spectra_disjoint,
    "blockwise_maximality": _check_blockwise_maximality,
    "classical_charpoly_match": _check_classical_charpoly_match,
    "cayley_hamilton": _check_cayley_hamilton,
    "det_multiplicative": _check_det_multiplicative,
    "sylvester": _check_sylvester,
    "charpoly_continuity": _check_charpoly_continuity,
    "multiplicity_consistency": _check_multiplicity_consistency,
    "diagonalization": _check_diagonalization,
    "naive_det_demo": _check_naive_det_demo,
}

PROPERTY_NAMES = tuple(CHECKERS)
_PROPERTY_INDEX = {name: i for i, name in enumerate(PROPERTY_NAMES)}

DEFAULT_TRIALS = {
    "jacobson": 500,
    "compression_spectrum": 200,
    "compression_rank": 200,
    "block_spectra_disjoint": 200,
    "blockwise_maximality": 200,
    "classical_charpoly_match": 100,
    "cayley_hamilton": 1000,
    "det_multiplicative": 300,
    "sylvester": 300,
    "charpoly_continuity": 50,
    "multiplicity_consistency": 500,
    "diagonalization": 200,
    "naive_det_demo": 1,
}


def trial_rng(seed: int, name: str, index: int) -> np.random.Generator:
    """Counter-based stream for one trial, independent of execution order."""
    ss = np.random.SeedSequence(entropy=seed,
                                spawn_key=(_PROPERTY_INDEX[name], index))
    return np.random.Generator(np.random.Philox(ss))


def run_trial(spec: PropertySpec, seed: int, index: int) -> TrialResult:
    rng = trial_rng(seed, spec.name, index)
    try:
        return CHECKERS[spec.name](rng, spec)
    except SpecrankError as exc:
        return _verdict(False, FAILURE_RESIDUAL, {},
                        {"error": f"{type(exc).__name__}: {exc}"})


def _trial_report(spec: PropertySpec, seed: int, index: int) -> PropertyReport:
    """The report of trial ``index`` alone: a skipped trial adds no residual."""
    result = run_trial(spec, seed, index)
    counters = tuple(sorted(result.counters.items()))
    notes = (result.note,) if result.note else ()
    if result.skipped:
        return PropertyReport(name=spec.name, seed=seed, trials=1, skip_count=1,
                              counters=counters, notes=notes)
    residual = _clamp(result.residual)
    failures = ()
    if not result.passed and result.failure is not None:
        failures = ({**_sanitize(result.failure), "trial": index},)
    return PropertyReport(
        name=spec.name, seed=seed, trials=1, pass_count=int(result.passed),
        fail_count=int(not result.passed), worst_residual=residual,
        histogram=((_bin_low(residual), 1),), failures=failures,
        counters=counters, notes=notes)


def run_property(spec: PropertySpec, seed: int,
                 start: int = 0, stop: int | None = None) -> PropertyReport:
    """Run trials ``start..stop`` of one property: the ``merge`` of their
    one-trial reports, so reports over disjoint ranges merge to the
    full-range report."""
    stop = spec.trials if stop is None else stop
    return functools.reduce(
        PropertyReport.merge,
        (_trial_report(spec, seed, index) for index in range(start, stop)),
        PropertyReport(name=spec.name, seed=seed))


@dataclass(frozen=True)
class CampaignSettings:
    seed: int = 20240
    policy: ShapePolicy = ShapePolicy()
    tols: Tolerances = DEFAULT_TOLS
    trials: tuple[tuple[str, int], ...] = ()

    def trials_for(self, name: str) -> int:
        for key, value in self.trials:
            if key == name:
                return value
        return DEFAULT_TRIALS[name]


@dataclass(frozen=True)
class CampaignReport:
    seed: int
    policy: ShapePolicy
    properties: tuple[PropertyReport, ...]

    @property
    def total_failures(self) -> int:
        return sum(p.fail_count for p in self.properties)

    @property
    def total_skipped(self) -> int:
        return sum(p.skip_count for p in self.properties)

    def to_json(self) -> dict:
        return {"seed": self.seed,
                "policy": self.policy.to_json(),
                "total_failures": self.total_failures,
                "total_skipped": self.total_skipped,
                "properties": [p.to_json() for p in self.properties]}

    def to_json_str(self) -> str:
        return dumps_canonical(self.to_json())

    def to_csv(self) -> str:
        """Residual histograms, one row per (property, bin)."""
        lines = ["property,bin_low,bin_high,count"]
        for prop in self.properties:
            for low, count in prop.histogram:
                high = 10.0 ** _BIN_MIN_EXP if low == 0.0 else low * 10.0
                lines.append(f"{prop.name},{low!r},{high!r},{count}")
        return "\n".join(lines) + "\n"


def run_campaign(settings: CampaignSettings) -> CampaignReport:
    reports = []
    for name in PROPERTY_NAMES:
        spec = PropertySpec(name=name, trials=settings.trials_for(name),
                            policy=settings.policy, tols=settings.tols)
        reports.append(run_property(spec, settings.seed))
    return CampaignReport(seed=settings.seed, policy=settings.policy,
                          properties=tuple(reports))
