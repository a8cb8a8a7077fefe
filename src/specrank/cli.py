"""Command-line front end: generate elements, analyze one element, run
verification campaigns, and print worked examples.

Exit codes: 0 success, 1 property failure, 2 usage or config error,
3 numeric non-convergence.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import sys
from dataclasses import replace

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


# Every campaign setting with its default: the config file's values are laid
# over these, then the flags over the file.
CAMPAIGN_DEFAULTS = {
    "seed": 20240,
    "shapes": None,
    "ambient": "both",  # finite | infinite | both
    "trials": {},
    "tol_cluster": None,
    "tol_residual": None,
    "out": None,
    "format": "json",
}

# the ``Tolerances`` field each tolerance setting replaces
_TOL_FIELDS = {"tol_cluster": "cluster_rel", "tol_residual": "residual"}


def _read_config(path: str) -> dict:
    """The campaign settings a config file gives, with ``trials`` as a
    mapping from property name to count."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageError("config file must hold a JSON object")
    values = {key: data[key] for key in CAMPAIGN_DEFAULTS if key in data}
    if "trials" in values:
        trials = values["trials"]
        if isinstance(trials, int):
            values["trials"] = dict.fromkeys(PROPERTY_NAMES, trials)
        elif isinstance(trials, dict):
            values["trials"] = dict(trials)
        else:
            raise UsageError("trials must be an integer or an object")
    return values


def _validate_campaign(cfg: dict):
    # JSON gives exact int and float types; bool is rejected as a number
    seed = cfg["seed"]
    if type(seed) is not int or seed < 0:
        raise UsageError(f"seed must be a nonnegative integer, got {seed!r}")
    if cfg["ambient"] not in (FINITE, INFINITE_SOCLE, "both"):
        raise UsageError(f"invalid ambient {cfg['ambient']!r}")
    if cfg["format"] not in ("json", "csv"):
        raise UsageError(f"invalid format {cfg['format']!r}")
    if cfg["out"] is not None and not isinstance(cfg["out"], str):
        raise UsageError(f"out must be a path, got {cfg['out']!r}")
    shapes = cfg["shapes"]
    if shapes is not None:
        if not isinstance(shapes, list) or not shapes:
            raise UsageError("shapes must be a nonempty list when given")
        for dims in shapes:
            if (not isinstance(dims, list) or not dims
                    or any(type(d) is not int or d < 1 for d in dims)):
                raise UsageError(f"invalid shape {dims!r}")
    for name, count in cfg["trials"].items():
        if name not in PROPERTY_NAMES:
            raise UsageError(f"unknown property {name!r} in trials")
        if type(count) is not int or count < 0:
            raise UsageError("trial counts must be nonnegative integers")
    for key in _TOL_FIELDS:
        value = cfg[key]
        if value is not None and (type(value) not in (int, float)
                                  or not 0 < value <= sys.float_info.max):
            raise UsageError(f"--{key.replace('_', '-')} must be a finite "
                             f"positive number, got {value!r}")


def load_config(path: str | None,
                args: argparse.Namespace) -> tuple[CampaignSettings, str | None, str]:
    """The campaign to run, the report path (None for stdout) and the report
    format: flags override the file, the file overrides
    ``CAMPAIGN_DEFAULTS``."""
    cfg = dict(CAMPAIGN_DEFAULTS)
    if path:
        cfg.update(_read_config(path))
    flags = {key: getattr(args, key, None) for key in CAMPAIGN_DEFAULTS}
    if flags["trials"] is not None:
        flags["trials"] = dict.fromkeys(PROPERTY_NAMES, flags["trials"])
    cfg.update((key, value) for key, value in flags.items() if value is not None)
    _validate_campaign(cfg)
    overrides = {field: cfg[key] for key, field in _TOL_FIELDS.items()
                 if cfg[key] is not None}
    tols = replace(DEFAULT_TOLS, **overrides) if overrides else DEFAULT_TOLS
    ambient = cfg["ambient"]
    ambients = (FINITE, INFINITE_SOCLE) if ambient == "both" else (ambient,)
    shapes = None if cfg["shapes"] is None else tuple(map(tuple, cfg["shapes"]))
    settings = CampaignSettings(
        seed=cfg["seed"], policy=ShapePolicy(ambients=ambients, shapes=shapes),
        tols=tols, trials=tuple(sorted(cfg["trials"].items())))
    return settings, cfg["out"], cfg["format"]


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def _seed(text: str) -> int:
    """argparse type of every ``--seed``: a nonnegative integer."""
    if not text.isdigit():
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {text!r}")
    return int(text)


def _parse_ints(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise UsageError(f"cannot parse {what} {text!r}") from exc


def _parse_complex_list(text: str) -> list[complex]:
    try:
        values = [complex(part.replace(" ", "")) for part in text.split(",")]
    except ValueError as exc:
        raise UsageError(f"cannot parse complex list {text!r}") from exc
    if not all(cmath.isfinite(v) for v in values):
        raise UsageError(f"complex list {text!r} must hold finite values")
    return values


def _write_output(payload: str, out: str | None):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload if payload.endswith("\n") else payload + "\n")


def _poly_str(factors) -> str:
    def c(z: complex) -> str:
        if z.imag == 0:
            return f"{z.real:g}"
        return f"({z.real:g}{z.imag:+g}i)"

    parts = []
    for root, mult in factors:
        term = f"({c(root)} - x)" if root != 0 else "(-x)"
        parts.append(term if mult == 1 else f"{term}^{mult}")
    return " * ".join(parts) if parts else "1"


def cmd_gen(args) -> int:
    """The constructors check every value; a ``ValueError`` from one is a
    usage error with its message."""
    dims = _parse_ints(args.dims, "dims")
    rng = _rng(args.seed)
    if args.ranks is not None and args.maximal_eigs is not None:
        raise UsageError("choose one of --ranks / --maximal-eigs")
    try:
        shape = AlgebraShape(dims=dims, ambient=args.ambient)
        if args.ranks is not None:
            element = random_socle_element(shape, _parse_ints(args.ranks, "ranks"), rng)
        elif args.maximal_eigs is not None:
            element = make_maximal(shape, _parse_complex_list(args.maximal_eigs), rng)
        else:
            element = random_element(shape, rng)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    _write_output(json.dumps(element.to_json(), indent=2), args.out)
    return EXIT_OK


def _analyze(element: Element, rng: np.random.Generator, tols: Tolerances) -> dict:
    cert = spectral_rank(element, rng=rng, tols=tols)
    spec = spectrum(element, tols)
    # raises UncertifiedRankError unless the rank is certified
    records = multiplicities(element, rng, cert, with_riesz=True, tols=tols)
    poly = char_poly_from_records(records, cert.rank)
    residual = cayley_hamilton_residual(element, poly)
    tr = weighted_sum((r.value, r.m_counting) for r in records)
    det1 = det_plus_one(element, poly, tols)
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
    except (OSError, json.JSONDecodeError, KeyError, OverflowError, TypeError,
            ValueError) as exc:
        # TypeError: a JSON value of the wrong kind, such as a top-level list
        # or a plain number where a [re, im] pair belongs; OverflowError: an
        # integer entry beyond the float range
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
    settings, out, fmt = load_config(args.config, args)
    report = run_campaign(settings)
    payload = report.to_json_str() if fmt == "json" else report.to_csv()
    _write_output(payload, out)
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
    poly = char_poly(a, rng, spectral_rank(a, rng=rng, tols=tols), tols)
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
    poly = char_poly(a, rng, spectral_rank(a, rng=rng, tols=tols), tols)
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
    residual = cayley_hamilton_residual(a, poly)
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
    p_camp.add_argument("--format", choices=("json", "csv"))
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
