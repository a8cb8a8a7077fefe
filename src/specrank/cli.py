"""Command-line front end: generate elements, analyze one element, run
verification campaigns, and print worked examples.

Exit codes: 0 success, 1 property failure, 2 usage or config error,
3 numeric non-convergence.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .algebra import (FINITE, INFINITE_SOCLE, AlgebraShape, Element,
                      count_nonzero_spectrum, norm, random_element,
                      random_socle_element, spectrum, zero)
from .charpoly import (approximation_sequence, cayley_hamilton_residual,
                       char_poly, char_poly_from_records, det_plus_one,
                       eval_element, naive_det_demo, weighted_sum)
from .config import DEFAULT_TOLS, Tolerances
from .jsonio import complex_to_pair
from .multiplicity import multiplicities
from .numkernel import SpecrankError, classical_charpoly
from .propsuite import (PROPERTY_NAMES, CampaignSettings, ShapePolicy,
                        run_campaign)
from .rank import make_maximal, spectral_rank

EXIT_OK = 0
EXIT_PROPERTY_FAILURE = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3

DEMO_NAMES = ("m3_example", "zero_example", "c3_naive_det", "ch_walkthrough")


class UsageError(Exception):
    pass


@dataclass
class Config:
    """Campaign configuration; flags override the file, the file overrides
    these defaults."""

    seed: int = 20240
    shapes: list[list[int]] | None = None
    ambient: str = "both"  # finite | infinite | both
    trials: dict = field(default_factory=dict)
    tol_cluster: float | None = None
    tol_residual: float | None = None
    out: str | None = None
    format: str = "json"

    def validate(self):
        # JSON gives exact int and float types; bool is rejected as a number
        if type(self.seed) is not int or self.seed < 0:
            raise UsageError(f"seed must be a nonnegative integer, got {self.seed!r}")
        if self.ambient not in ("finite", "infinite", "both"):
            raise UsageError(f"invalid ambient {self.ambient!r}")
        if self.format not in ("json", "csv"):
            raise UsageError(f"invalid format {self.format!r}")
        if self.out is not None and not isinstance(self.out, str):
            raise UsageError(f"out must be a path, got {self.out!r}")
        if self.shapes is not None:
            if not isinstance(self.shapes, list) or not self.shapes:
                raise UsageError("shapes must be a nonempty list when given")
            for dims in self.shapes:
                if (not isinstance(dims, list) or not dims
                        or any(type(d) is not int or d < 1 for d in dims)):
                    raise UsageError(f"invalid shape {dims!r}")
        for name, count in self.trials.items():
            if name not in PROPERTY_NAMES:
                raise UsageError(f"unknown property {name!r} in trials")
            if type(count) is not int or count < 0:
                raise UsageError("trial counts must be nonnegative integers")
        for label, value in (("tol-cluster", self.tol_cluster),
                             ("tol-residual", self.tol_residual)):
            if value is not None and (type(value) not in (int, float) or not value > 0):
                raise UsageError(f"--{label} must be a positive number, got {value!r}")

    def tolerances(self) -> Tolerances:
        overrides = {}
        if self.tol_cluster is not None:
            overrides["cluster_rel"] = self.tol_cluster
        if self.tol_residual is not None:
            overrides["residual"] = self.tol_residual
        return replace(DEFAULT_TOLS, **overrides) if overrides else DEFAULT_TOLS

    def settings(self) -> CampaignSettings:
        ambients = {"finite": (FINITE,), "infinite": (INFINITE_SOCLE,),
                    "both": (FINITE, INFINITE_SOCLE)}[self.ambient]
        shapes = None if self.shapes is None else tuple(map(tuple, self.shapes))
        policy = ShapePolicy(ambients=ambients, shapes=shapes)
        trials = tuple(sorted(self.trials.items()))
        return CampaignSettings(seed=self.seed, policy=policy,
                                tols=self.tolerances(), trials=trials)


def load_config(path: str | None, args: argparse.Namespace) -> Config:
    cfg = Config()
    if path:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise UsageError("config file must hold a JSON object")
        for key in ("seed", "shapes", "ambient", "tol_cluster", "tol_residual",
                    "out", "format"):
            if key in data:
                setattr(cfg, key, data[key])
        if "trials" in data:
            trials = data["trials"]
            if isinstance(trials, int):
                cfg.trials = {name: trials for name in PROPERTY_NAMES}
            elif isinstance(trials, dict):
                cfg.trials = dict(trials)
            else:
                raise UsageError("trials must be an integer or an object")
    # flags override the file
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    if getattr(args, "trials", None) is not None:
        cfg.trials = {name: args.trials for name in PROPERTY_NAMES}
    if getattr(args, "tol_cluster", None) is not None:
        cfg.tol_cluster = args.tol_cluster
    if getattr(args, "tol_residual", None) is not None:
        cfg.tol_residual = args.tol_residual
    if getattr(args, "out", None) is not None:
        cfg.out = args.out
    if getattr(args, "fmt", None) is not None:
        cfg.format = args.fmt
    cfg.validate()
    return cfg


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def _seed(text: str) -> int:
    """argparse type of every ``--seed``: a nonnegative integer."""
    if not text.isdigit():
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {text!r}")
    return int(text)


def _parse_ints(text: str, what: str, least: int) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise UsageError(f"cannot parse {what} {text!r}") from exc
    if any(v < least for v in values):
        raise UsageError(f"{what} must be integers >= {least}")
    return values


def _parse_complex_list(text: str) -> list[complex]:
    try:
        return [complex(part.replace(" ", "")) for part in text.split(",")]
    except ValueError as exc:
        raise UsageError(f"cannot parse complex list {text!r}") from exc


def _write_output(payload: str, out: str | None):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload if payload.endswith("\n") else payload + "\n")


def _poly_str(factors) -> str:
    def c(z: complex) -> str:
        if z == 0:
            return "0"
        if z.imag == 0:
            return f"{z.real:g}"
        return f"({z.real:g}{z.imag:+g}i)"

    parts = []
    for root, mult in factors:
        term = f"({c(root)} - x)" if root != 0 else "(-x)"
        parts.append(term if mult == 1 else f"{term}^{mult}")
    return " * ".join(parts) if parts else "1"


def cmd_gen(args) -> int:
    dims = _parse_ints(args.dims, "dims", 1)
    ambient = {"finite": FINITE, "infinite": INFINITE_SOCLE}[args.ambient]
    shape = AlgebraShape(dims=dims, ambient=ambient)
    rng = _rng(args.seed)
    if args.ranks is not None and args.maximal_eigs is not None:
        raise UsageError("choose one of --ranks / --maximal-eigs")
    if args.ranks is not None:
        ranks = _parse_ints(args.ranks, "ranks", 0)
        if len(ranks) != len(dims):
            raise UsageError("one rank per block required")
        if any(r > d for r, d in zip(ranks, dims)):
            raise UsageError("ranks must satisfy 0 <= rank <= block dim")
        element = (zero(shape) if sum(ranks) == 0
                   else random_socle_element(shape, ranks, rng))
    elif args.maximal_eigs is not None:
        eigs = _parse_complex_list(args.maximal_eigs)
        try:
            element = make_maximal(shape, eigs, rng)
        except ValueError as exc:
            raise UsageError(f"invalid --maximal-eigs: {exc}") from exc
    else:
        element = random_element(shape, rng)
    _write_output(json.dumps(element.to_json(), indent=2), args.out)
    return EXIT_OK


def _analyze(element: Element, rng: np.random.Generator, tols: Tolerances) -> dict:
    cert = spectral_rank(element, rng=rng, tols=tols)
    spec = spectrum(element, tols)
    # raises UncertifiedRankError unless the rank is certified
    records = multiplicities(element, rng, cert, with_riesz=True, tols=tols)
    poly = char_poly_from_records(records, cert.rank)
    residual = cayley_hamilton_residual(element, rng, cert, poly, tols)
    tr = weighted_sum((r.value, r.m_counting) for r in records)
    det1 = det_plus_one(element, rng, cert, poly, tols)
    return {
        "rank": cert.to_json(),
        "spectrum": spec.to_json(),
        "multiplicities": [r.to_json() for r in records],
        "char_poly": poly.to_json(),
        "char_poly_str": _poly_str(poly.factors),
        "cayley_hamilton_residual": residual,
        "trace": complex_to_pair(tr),
        "det_plus_one": complex_to_pair(det1),
    }


def cmd_check(args) -> int:
    try:
        with open(args.element, "r", encoding="utf-8") as fh:
            element = Element.from_json(json.load(fh))
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        # TypeError: a JSON value of the wrong kind, such as a top-level list
        # or a plain number where a [re, im] pair belongs
        raise UsageError(f"cannot read element file: {exc}") from exc
    rng = _rng(args.seed)
    report = _analyze(element, rng, DEFAULT_TOLS)
    _write_output(_report_lines(report), args.out)
    return EXIT_OK


def _report_lines(report: dict) -> str:
    """``report`` as JSON with one top-level key per line and each value
    compact. Unlike ``indent``, which makes ``json`` fall back to its
    pure-Python encoder, this encodes every value with the C encoder."""
    lines = ",\n".join(f"  {json.dumps(key)}: {json.dumps(value)}"
                        for key, value in report.items())
    return "{\n" + lines + "\n}"


def cmd_campaign(args) -> int:
    cfg = load_config(args.config, args)
    report = run_campaign(cfg.settings())
    payload = report.to_json_str() if cfg.format == "json" else report.to_csv()
    _write_output(payload, cfg.out)
    summary = "; ".join(f"{p.name}: {p.pass_count}/{p.trials} pass"
                        for p in report.properties)
    print(f"campaign seed={report.seed} failures={report.total_failures} "
          f"skipped={report.total_skipped} [{summary}]", file=sys.stderr)
    return EXIT_OK if report.total_failures == 0 else EXIT_PROPERTY_FAILURE


def _poly_summary(poly) -> dict:
    return {"factors": poly.to_json()["factors"],
            "display": _poly_str(poly.factors), "degree": poly.degree}


def _demo_m3(rng, tols) -> dict:
    shape = AlgebraShape(dims=(3,), ambient=FINITE)
    a = Element(shape, (np.diag([1.0, 0.0, 0.0]),))
    poly = char_poly(a, rng, tols=tols)
    classical = classical_charpoly(a.blocks[0])
    return {
        "element": "diag(1, 0, 0) in the 3x3 matrix block",
        "generalized": {**_poly_summary(poly),
                        "coefficients_desc": [complex_to_pair(z)
                                              for z in poly.coefficients()]},
        "classical": {"display": "(-x)^2 * (1 - x)",
                      "degree": len(classical) - 1,
                      "coefficients_desc": [complex_to_pair(z) for z in classical]},
        "degree_difference": int(len(classical) - 1 - poly.degree),
    }


def _demo_zero(rng, tols) -> dict:
    shape = AlgebraShape(dims=(3,), ambient=FINITE)
    a = zero(shape)
    poly = char_poly(a, rng, tols=tols)
    value = eval_element(poly, a)
    return {
        "element": "0 in the 3x3 matrix block",
        "char_poly": _poly_summary(poly),
        "annihilation_norm": norm(value),
        "exact_zero": norm(value) == 0.0,
    }


def _demo_ch_walkthrough(rng, tols) -> dict:
    shape = AlgebraShape(dims=(2,), ambient=FINITE)
    a = Element(shape, (np.array([[0.0, 1.0], [0.0, 0.0]]),))
    cert = spectral_rank(a, rng=rng, tols=tols)
    poly = char_poly(a, rng, cert, tols)
    residual = cayley_hamilton_residual(a, rng, cert, poly, tols)
    record = approximation_sequence(a, 6, 3.0 + 0.0j, rng, cert, tols)
    return {
        "element": "nilpotent [[0,1],[0,0]] in the 2x2 matrix block",
        "rank": cert.rank,
        "distinct_nonzero_values": count_nonzero_spectrum(a, tols),
        "char_poly": _poly_summary(poly),
        "cayley_hamilton_residual": residual,
        "identity_walk": record.to_json(),
    }


def _render_demo_text(name: str, data: dict) -> str:
    lines = [f"demo: {name}"]

    def walk(prefix, obj):
        if isinstance(obj, dict):
            for key, val in obj.items():
                walk(f"{prefix}{key}.", val) if isinstance(val, (dict, list)) \
                    else lines.append(f"  {prefix}{key} = {val}")
        elif isinstance(obj, list):
            lines.append(f"  {prefix[:-1]} = {json.dumps(obj)}")

    walk("", data)
    return "\n".join(lines)


def cmd_demo(args) -> int:
    builders = {
        "m3_example": _demo_m3,
        "zero_example": _demo_zero,
        "c3_naive_det": naive_det_demo,
        "ch_walkthrough": _demo_ch_walkthrough,
    }
    data = builders[args.name](_rng(args.seed), DEFAULT_TOLS)
    if args.fmt == "json":
        _write_output(json.dumps(data, indent=2), args.out)
    else:
        _write_output(_render_demo_text(args.name, data), args.out)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="specrank",
        description="spectral rank, multiplicities, and factored "
                    "characteristic polynomials for block matrix algebras")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="write a random element file")
    p_gen.add_argument("--dims", required=True, help="block dims, e.g. 3,2")
    p_gen.add_argument("--ambient", choices=("finite", "infinite"), default="finite")
    p_gen.add_argument("--ranks", help="per-block target ranks, e.g. 2,1")
    p_gen.add_argument("--maximal-eigs", dest="maximal_eigs",
                       help="distinct nonzero values, e.g. 1,2,3 or 1+2j")
    p_gen.add_argument("--seed", type=_seed, default=20240)
    p_gen.add_argument("--out")
    p_gen.set_defaults(func=cmd_gen)

    p_check = sub.add_parser("check", help="full report for one element file")
    p_check.add_argument("element")
    p_check.add_argument("--seed", type=_seed, default=20240)
    p_check.add_argument("--out")
    p_check.set_defaults(func=cmd_check)

    p_camp = sub.add_parser("campaign", help="run the verification campaigns")
    p_camp.add_argument("--config", help="JSON config file")
    p_camp.add_argument("--seed", type=_seed)
    p_camp.add_argument("--trials", type=int, help="trial count for every property")
    p_camp.add_argument("--out")
    p_camp.add_argument("--format", dest="fmt", choices=("json", "csv"))
    p_camp.add_argument("--tol-cluster", dest="tol_cluster", type=float)
    p_camp.add_argument("--tol-residual", dest="tol_residual", type=float)
    p_camp.set_defaults(func=cmd_campaign)

    p_demo = sub.add_parser("demo", help="print a worked example")
    p_demo.add_argument("name", choices=DEMO_NAMES)
    p_demo.add_argument("--seed", type=_seed, default=20240)
    p_demo.add_argument("--out")
    p_demo.add_argument("--format", dest="fmt", choices=("text", "json"),
                        default="text")
    p_demo.set_defaults(func=cmd_demo)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SpecrankError as exc:
        print(f"numeric failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
