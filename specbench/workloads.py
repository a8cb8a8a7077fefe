"""The benchmark's workloads: inputs made from the seed, one op at a time,
and a check of every op's output.

Every workload is a closed loop with one client: the next op starts when the
previous one returns. ``ops()`` yields ops in a fixed order for a seed;
``prepare(op)`` makes the op's input outside the timed region and returns
its label; ``run(op)`` is the timed call into specrank; ``check(op, result)``
verifies the output outside the timed region and returns ``None``,
``"skipped"`` or a failure kind.
"""

from __future__ import annotations

import contextlib
import hashlib
import heapq
import importlib
import io
import itertools
import json
import os
from functools import reduce

import numpy as np

propsuite = importlib.import_module("specrank.propsuite")
cli = importlib.import_module("specrank.cli")
jsonio = importlib.import_module("specrank.jsonio")
DEFAULT_TOLS = importlib.import_module("specrank.config").DEFAULT_TOLS

# Warm-up ops draw from indices this far out, so timed ops never repeat them.
WARMUP_OFFSET = 1_000_000

# Failure kinds that mean a wrong answer; every other kind is an op that
# raised or reported a numeric failure instead of answering.
WRONG_OUTPUT = frozenset({"property_failure", "wrong_rank", "wrong_trace",
                          "wrong_det_plus_one", "cayley_hamilton_residual"})

COUNTING = ("cayley_hamilton", "det_multiplicative", "sylvester", "jacobson",
            "block_spectra_disjoint", "blockwise_maximality",
            "classical_charpoly_match", "charpoly_continuity", "naive_det_demo")
CONTOUR = ("multiplicity_consistency", "diagonalization",
           "compression_spectrum", "compression_rank")


def interleave(weights: dict[str, int]):
    """Yield ``(property, trial)`` forever, each property in proportion to its
    weight and spread evenly, so every stretch of the run has the campaign's
    mix. Trial indices of a property count up from 0."""
    heap = [(0.5 / w, order, name) for order, (name, w) in enumerate(weights.items())]
    heapq.heapify(heap)
    drawn = dict.fromkeys(weights, 0)
    while True:
        _, order, name = heapq.heappop(heap)
        trial = drawn[name]
        drawn[name] += 1
        yield name, trial
        heapq.heappush(heap, ((trial + 1.5) / weights[name], order, name))


class Campaign:
    """One op is one trial, run as ``run_property(spec, seed, i, i + 1)``.

    The per-trial reports of the first ``report_ops`` ops are merged per
    property; ``verify`` checks that the merge is byte-identical to one
    whole-range ``run_property`` and hashes the merged campaign report.
    """

    def __init__(self, properties: tuple[str, ...], seed: int, report_ops: int = 200):
        self.seed = seed
        self.weights = {name: propsuite.DEFAULT_TRIALS[name] for name in properties}
        self.specs = {name: propsuite.PropertySpec(name=name, trials=trials)
                      for name, trials in self.weights.items()}
        self.report_ops = report_ops
        self.reports: dict[str, list] = {name: [] for name in properties}
        self._kept = 0

    def ops(self, warmup: bool = False):
        if warmup:
            return [(name, WARMUP_OFFSET) for name in self.weights]
        return interleave(self.weights)

    def prepare(self, op) -> str:
        return op[0]

    def run(self, op):
        name, trial = op
        return propsuite.run_property(self.specs[name], self.seed, trial, trial + 1)

    def check(self, op, report) -> str | None:
        name, trial = op
        kept = self.reports[name]
        if trial == len(kept) and self._kept < self.report_ops:
            kept.append(report)
            self._kept += 1
        if report.fail_count:
            # a numeric error caught by run_trial is recorded as "Type: message"
            error = report.failures[0]["measured"].get("error") if report.failures else None
            return error.split(":", 1)[0] if error else "property_failure"
        return "skipped" if report.skip_count else None

    def verify(self) -> dict:
        """Merged per-trial reports against whole-range runs, plus the hash."""
        merged, identical = [], True
        for name, parts in self.reports.items():
            if not parts:
                continue
            report = reduce(propsuite.PropertyReport.merge, parts)
            whole = propsuite.run_property(self.specs[name], self.seed, 0, len(parts))
            identical &= (jsonio.dumps_canonical(report.to_json())
                          == jsonio.dumps_canonical(whole.to_json()))
            merged.append(report)
        campaign = propsuite.CampaignReport(seed=self.seed, policy=propsuite.ShapePolicy(),
                                            properties=tuple(merged))
        body = campaign.to_json_str().encode()
        return {"report_trials": sum(p.trials for p in merged),
                "report_sha256": hashlib.sha256(body).hexdigest(),
                "merge_identical": identical}


# --------------------------------------------------------------------------
# check: one user checking one element

CHECK_SHAPES = ((3, 5, 2, 6), (6, 6, 6, 6), (16, 8))
AMBIENTS = ("finite", "infinite")
# One op in HARD_EVERY draws a hard family that the program certifies today.
HARD_EVERY = 8
COALESCE_GAPS = (1e-3, 1e-4, 1e-5)
GRADED_SCALES = (1e2, 1e3, 1e4)


def _ginibre(rng, n: int, m: int) -> np.ndarray:
    g = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    return g / np.sqrt(2.0 * n)


def _similarity(rng, n: int) -> np.ndarray:
    while True:
        s = np.eye(n) + _ginibre(rng, n, n)
        if np.linalg.cond(s) < 1e3:
            return s


def _conjugate(rng, diag) -> np.ndarray:
    s = _similarity(rng, len(diag))
    return s @ np.diag(np.asarray(diag, dtype=np.complex128)) @ np.linalg.inv(s)


def socle_element(rng) -> tuple[str, list[np.ndarray], str]:
    """Random socle element: block j is a product of n_j x r_j and r_j x n_j
    Gaussian factors, with r_j uniform in 0..n_j."""
    shape = CHECK_SHAPES[int(rng.integers(len(CHECK_SHAPES)))]
    ambient = AMBIENTS[int(rng.integers(2))]
    blocks = []
    for n in shape:
        r = int(rng.integers(0, n + 1))
        blocks.append(_ginibre(rng, n, r) @ _ginibre(rng, r, n) if r
                      else np.zeros((n, n), dtype=np.complex128))
    return "socle", blocks, ambient


def hard_element(rng, kind: str, param: float) -> tuple[str, list[np.ndarray], str]:
    """A random full element with one block replaced by a hard family member:
    ``coalesce`` conjugates diag(l, l(1 + param), ...), ``graded`` is
    diag(param, 0.5, 0, ...)."""
    shape = CHECK_SHAPES[int(rng.integers(len(CHECK_SHAPES)))]
    ambient = AMBIENTS[int(rng.integers(2))]
    blocks = [_ginibre(rng, n, n) for n in shape]
    j = int(rng.integers(len(shape)))
    diag = np.zeros(shape[j], dtype=np.complex128)
    if kind == "coalesce":
        lam = np.exp(2j * np.pi * rng.random())
        diag[0], diag[1] = lam, lam * (1.0 + param)
        blocks[j] = _conjugate(rng, diag)
    else:
        diag[0], diag[1] = param, 0.5
        blocks[j] = np.diag(diag)
    return f"{kind}_{param:g}", blocks, ambient


def jordan_element(rng, k: int) -> tuple[str, list[np.ndarray], str]:
    """Conjugated nilpotent Jordan block ``S J_k S^-1`` alone in its algebra."""
    s = _similarity(rng, k)
    block = s @ np.diag(np.ones(k - 1, dtype=np.complex128), 1) @ np.linalg.inv(s)
    return f"jordan_{k}", [block], "finite"


def check_input(seed: int, index: int) -> tuple[str, list[np.ndarray], str]:
    """Family, blocks and ambient of check op ``index``."""
    rng = np.random.default_rng([seed, index])
    if index % HARD_EVERY != HARD_EVERY - 1:
        return socle_element(rng)
    if rng.random() < 0.5:
        return hard_element(rng, "coalesce", COALESCE_GAPS[int(rng.integers(3))])
    return hard_element(rng, "graded", GRADED_SCALES[int(rng.integers(3))])


def probe_inputs(seed: int) -> list[tuple[str, list[np.ndarray], str]]:
    """Hard inputs beyond what the timed ops draw, most of which the program
    fails on: conjugated nilpotent Jordan blocks, the graded diag(1e8, 0.5),
    and the graded and near-coalescing families past the timed ranges."""
    rng = np.random.default_rng([seed, 0xBAD])
    out = [jordan_element(rng, k) for k in (2, 3, 4, 5) for _ in range(2)]
    out.append(("graded_1e+08", [np.diag([1e8, 0.5]).astype(np.complex128)], "finite"))
    out += [hard_element(rng, "graded", 1e6) for _ in range(2)]
    out += [hard_element(rng, "coalesce", 1e-7) for _ in range(2)]
    return out


def reference(blocks: list[np.ndarray], tols=DEFAULT_TOLS) -> dict:
    """Classical values the report must match, computed with numpy alone."""
    rank = 0
    for b in blocks:
        s = np.linalg.svd(b, compute_uv=False)
        rank += int(np.sum(s > tols.rank_rel * max(float(s[0]), 1.0)))
    det1 = 1.0 + 0.0j
    for b in blocks:
        det1 *= complex(np.linalg.det(b + np.eye(b.shape[0])))
    return {"rank": rank, "trace": complex(sum(np.trace(b) for b in blocks)),
            "det_plus_one": det1}


def _rel_error(x: complex, y: complex) -> float:
    return abs(x - y) / max(1.0, abs(x), abs(y))


class Check:
    """One op is ``specrank check`` on one generated element file, run
    in-process through ``cli.main`` with the report written to a file."""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.element_path = os.path.join(workdir, "element.json")
        self.out_path = os.path.join(workdir, "report.json")
        self._expected = None

    def ops(self, warmup: bool = False):
        if warmup:
            return range(WARMUP_OFFSET, WARMUP_OFFSET + HARD_EVERY)
        return itertools.count()

    def prepare(self, op):
        family, blocks, ambient = check_input(self.seed, op)
        self.load(blocks, ambient)
        return family

    def load(self, blocks, ambient):
        """Write the element file and keep its reference values."""
        self._expected = reference(blocks)
        data = {"dims": [b.shape[0] for b in blocks], "ambient": ambient,
                "blocks": [jsonio.matrix_to_rows(b) for b in blocks]}
        with open(self.element_path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.out_path)

    def run(self, op):
        """Exit code and stderr of one check; exceptions propagate."""
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(["check", self.element_path, "--seed", str(op),
                             "--out", self.out_path])
        return code, err.getvalue()

    def check(self, op, result) -> str | None:
        code, err = result
        if code != 0:
            prefix = "numeric failure: "  # followed by "<ErrorType>: <message>"
            if err.startswith(prefix):
                return err[len(prefix):].split(":", 1)[0]
            return f"exit_{code}"
        with open(self.out_path, encoding="utf-8") as fh:
            report = json.load(fh)
        expected, tols = self._expected, DEFAULT_TOLS
        rank = report["rank"]
        if not rank["certified"] or rank["rank"] != expected["rank"]:
            return "wrong_rank"
        if _rel_error(jsonio.pair_to_complex(report["trace"]),
                      expected["trace"]) > tols.identity_rel:
            return "wrong_trace"
        if _rel_error(jsonio.pair_to_complex(report["det_plus_one"]),
                      expected["det_plus_one"]) > tols.identity_rel:
            return "wrong_det_plus_one"
        if not report["cayley_hamilton_residual"] <= tols.residual:
            return "cayley_hamilton_residual"
        return None

    def probe(self) -> dict[str, dict[str, int]]:
        """Outcome of every probe input, by family: ``ok``, an error type
        reported with exit 3, or an exception type that escaped ``main``."""
        outcomes: dict[str, dict[str, int]] = {}
        for family, blocks, ambient in probe_inputs(self.seed):
            self.load(blocks, ambient)
            try:
                kind = self.check(self.seed, self.run(self.seed)) or "ok"
            except Exception as exc:  # an escaped exception is the finding
                kind = f"uncaught_{type(exc).__name__}"
            per = outcomes.setdefault(family, {})
            per[kind] = per.get(kind, 0) + 1
        return outcomes
