"""Span tracer that measures specrank's layers from outside the package.

``Tracer.install`` replaces each public function in ``WRAPPED`` with a timing
wrapper, rebinding the name in every ``specrank`` module that holds it (the
modules import by value, so patching the defining module alone would miss
most callers). ``algebra.Element`` is traced through its ``__post_init__``,
which every construction runs. ``uninstall`` restores the originals.

Each wrapped call records a span (name, start, end, parent span, op index)
into column arrays kept in memory; ``write_spans`` saves them at the end.
Self time is a span's duration minus the durations of its child spans, which
on one thread are nested and disjoint.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

WRAPPED = (
    ("numkernel", "as_matrix"),
    ("numkernel", "eig"),
    ("numkernel", "cluster"),
    ("numkernel", "riesz_projection"),
    ("algebra", "Element"),
    ("algebra", "spectrum"),
    ("algebra", "tau_of"),
    ("rank", "spectral_rank"),
    ("rank", "rank_oracle"),
    ("rank", "make_maximal"),
    ("multiplicity", "multiplicities"),
    ("multiplicity", "multiplicity_riesz"),
    ("multiplicity", "spectral_gap"),
    ("charpoly", "char_poly"),
    ("charpoly", "eval_element"),
    ("charpoly", "det_plus_one"),
    ("charpoly", "diagonalize_maximal"),
    ("charpoly", "approximation_sequence"),
    ("propsuite", "run_property"),
    ("cli", "main"),
    ("jsonio", "dumps_canonical"),
)

LAYERS = ("numkernel", "algebra", "rank", "multiplicity", "charpoly",
          "propsuite", "cli", "jsonio")

SPAN_NAMES = tuple(f"{module}.{fn}" for module, fn in WRAPPED)

# Ratios read from call results; each maps to (numerator, denominator) counter
# keys, both counted over the same ops as calls_per_op.
RATIOS = {
    "numkernel.riesz_projection.reject_frac":
        ("numkernel.riesz_projection:ContourError", "numkernel.riesz_projection"),
    "numkernel.eig.repeat_frac": ("numkernel.eig.repeat", "numkernel.eig"),
    "rank.spectral_rank.witnesses_per_call":
        ("rank.spectral_rank.witnesses", "rank.spectral_rank"),
    "rank.spectral_rank.escalated_frac":
        ("rank.spectral_rank.escalated", "rank.spectral_rank"),
    "multiplicity.multiplicities.votes_per_value":
        ("multiplicity.multiplicities.votes", "multiplicity.multiplicities.values"),
    "multiplicity.multiplicities.escalated_frac":
        ("multiplicity.multiplicities.escalated", "multiplicity.multiplicities"),
}


class Tracer:
    """Counts and times every call to the functions in ``WRAPPED``.

    ``counts`` holds exact event counts: calls under the span name,
    exceptions under ``name:ErrorType``, and the events behind ``RATIOS``.
    ``self_s`` holds self time per span name.
    ``begin_op`` tags the spans that follow with an op index and resets the
    per-op set of eigen-decomposed matrices.
    """

    def __init__(self):
        self.counts: Counter = Counter()
        self.self_s = [0.0] * len(SPAN_NAMES)
        self.op = -1
        self._seen_eig: set = set()
        self._stack: list[list] = []
        self._installed: list[tuple] = []
        config = importlib.import_module("specrank.config")
        self._rank_samples = config.RANK_SAMPLES
        self._vote_samples = config.VOTE_SAMPLES
        self.span_name = array("h")
        self.span_parent = array("q")
        self.span_op = array("q")
        self.span_start = array("d")
        self.span_end = array("d")

    def begin_op(self, index: int):
        self.op = index
        self._seen_eig.clear()

    # -- observers: derive ratio counts from a call's arguments or result --

    def _observe_eig(self, args, kwargs, result):
        m = np.asarray(args[0] if args else kwargs["m"], dtype=np.complex128)
        key = (m.shape, m.tobytes())
        if key in self._seen_eig:
            self.counts["numkernel.eig.repeat"] += 1
        else:
            self._seen_eig.add(key)

    def _observe_spectral_rank(self, args, kwargs, cert):
        self.counts["rank.spectral_rank.witnesses"] += cert.samples_used
        if cert.samples_used > self._rank_samples:
            self.counts["rank.spectral_rank.escalated"] += 1

    def _observe_multiplicities(self, args, kwargs, records):
        self.counts["multiplicity.multiplicities.values"] += len(records)
        self.counts["multiplicity.multiplicities.votes"] += sum(r.samples for r in records)
        if any(r.samples > self._vote_samples for r in records):
            self.counts["multiplicity.multiplicities.escalated"] += 1

    def _wrap(self, nid: int, fn):
        name = SPAN_NAMES[nid]
        observe = {"numkernel.eig": self._observe_eig,
                   "rank.spectral_rank": self._observe_spectral_rank,
                   "multiplicity.multiplicities": self._observe_multiplicities}.get(name)
        counts, self_s, stack = self.counts, self.self_s, self._stack
        span_start, span_end = self.span_start, self.span_end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(span_start)
            self.span_name.append(nid)
            self.span_parent.append(stack[-1][0] if stack else -1)
            self.span_op.append(self.op)
            frame = [index, 0.0]
            stack.append(frame)
            start = perf_counter()
            span_start.append(start)
            span_end.append(start)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                counts[f"{name}:{type(exc).__name__}"] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                span_end[index] = end
                self_s[nid] += (end - start) - frame[1]
                if stack:
                    stack[-1][1] += end - start
                counts[name] += 1
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    def install(self):
        """Wrap every function in ``WRAPPED`` wherever specrank binds it."""
        importlib.import_module("specrank.cli")  # loads every module
        modules = [m for key, m in sys.modules.items()
                   if key == "specrank" or key.startswith("specrank.")]
        for nid, (module_name, attr) in enumerate(WRAPPED):
            # ``specrank.multiplicity`` as an attribute is the re-exported
            # function, so modules come from the import system
            original = getattr(importlib.import_module(f"specrank.{module_name}"), attr)
            if isinstance(original, type):
                # a class is traced through the hook its constructor runs
                hook = original.__post_init__
                original.__post_init__ = self._wrap(nid, hook)
                self._installed.append((original, "__post_init__", hook))
                continue
            wrapper = self._wrap(nid, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._installed.append((module, key, original))

    def uninstall(self):
        for owner, key, original in reversed(self._installed):
            setattr(owner, key, original)
        self._installed.clear()

    def write_spans(self, path, ops: list):
        """Save the spans and the op table (index -> op label) to ``path``."""
        np.savez_compressed(
            path, names=np.array(SPAN_NAMES),
            name=np.frombuffer(self.span_name, dtype=np.int16),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            op=np.frombuffer(self.span_op, dtype=np.int64),
            start_s=np.frombuffer(self.span_start, dtype=np.float64),
            end_s=np.frombuffer(self.span_end, dtype=np.float64),
            ops=np.array(json.dumps(ops)))
