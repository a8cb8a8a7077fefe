import json

import jsonschema
import numpy as np
import pytest

import specrank.cli as cli
from specrank.algebra import AlgebraShape, Element, INFINITE_SOCLE, ViewError
from specrank.charpoly import DiagonalizationError
from specrank.config import DEFAULT_TOLS
from specrank.cli import main
from specrank.jsonio import pair_to_complex
from specrank.numkernel import SpecrankError
from specrank.rank import IllConditionedError
from specrank.propsuite import PROPERTY_NAMES
from conftest import make_rng

PROPERTY_REPORT_SCHEMA = {
    "type": "object",
    "required": ["name", "seed", "trials", "pass_count", "fail_count",
                 "skip_count", "worst_residual", "histogram", "failures",
                 "counters", "notes"],
    "properties": {
        "name": {"enum": list(PROPERTY_NAMES)},
        "seed": {"type": "integer"},
        "trials": {"type": "integer", "minimum": 0},
        "pass_count": {"type": "integer", "minimum": 0},
        "fail_count": {"type": "integer", "minimum": 0},
        "skip_count": {"type": "integer", "minimum": 0},
        "worst_residual": {"type": "number"},
        "histogram": {"type": "array",
                      "items": {"type": "array", "minItems": 2, "maxItems": 2}},
        "failures": {"type": "array", "items": {"type": "object",
                                                "required": ["trial"]}},
        "counters": {"type": "object"},
        "notes": {"type": "array", "items": {"type": "string"}},
    },
}

CAMPAIGN_REPORT_SCHEMA = {
    "type": "object",
    "required": ["seed", "policy", "total_failures", "total_skipped", "properties"],
    "properties": {
        "seed": {"type": "integer"},
        "policy": {"type": "object"},
        "total_failures": {"type": "integer", "minimum": 0},
        "total_skipped": {"type": "integer", "minimum": 0},
        "properties": {"type": "array", "items": PROPERTY_REPORT_SCHEMA},
    },
}


JORDAN_3_ROWS = [
    [[-1.0386219782471777, 0.3112200438604756], [0.1208501235269798, -0.2281653407204283],
     [0.26134802633804183, -1.3270206756350977]],
    [[1.8535035918990581, -0.3843826915945844], [0.5150922982014399, 1.2348053204768097],
     [-0.5660438928906252, 0.8762385353644204]],
    [[-0.9943540703999671, 0.8803453336195021], [-0.549124570642094, 0.18106618868141633],
     [0.5235296800457376, -1.5460253643372852]],
]


def write_element_file(path, diag_values, ambient="finite"):
    n = len(diag_values)
    blocks = [[[[0.0, 0.0] for _ in range(n)] for _ in range(n)]]
    for i in range(n):
        blocks[0][i][i] = [float(diag_values[i]), 0.0]
    path.write_text(json.dumps(
        {"dims": [n], "ambient": ambient, "blocks": blocks}))
    return path


class TestGen:
    def test_zero_element(self, tmp_path):
        out = tmp_path / "zero.json"
        code = main(["gen", "--dims", "3,2", "--ranks", "0,0",
                     "--seed", "5", "--out", str(out)])
        assert code == 0
        element = Element.from_json(json.loads(out.read_text()))
        assert all(np.all(b == 0) for b in element.blocks)

    def test_maximal_eigs(self, tmp_path):
        out = tmp_path / "max.json"
        code = main(["gen", "--dims", "2,2", "--maximal-eigs", "1,2,3",
                     "--seed", "5", "--out", str(out)])
        assert code == 0
        element = Element.from_json(json.loads(out.read_text()))
        from specrank.rank import is_maximal, spectral_rank
        assert is_maximal(element, spectral_rank(element, rng=make_rng(0)))

    def test_infinite_ambient_round_trip(self, tmp_path):
        out = tmp_path / "inf.json"
        code = main(["gen", "--dims", "2", "--ambient", "infinite",
                     "--seed", "5", "--out", str(out)])
        assert code == 0
        element = Element.from_json(json.loads(out.read_text()))
        assert element.shape.ambient == INFINITE_SOCLE

    def test_ranks_validation(self, tmp_path):
        code = main(["gen", "--dims", "2", "--ranks", "5",
                     "--out", str(tmp_path / "x.json")])
        assert code == 2

    def test_conflicting_modes_rejected(self, tmp_path):
        code = main(["gen", "--dims", "2", "--ranks", "1",
                     "--maximal-eigs", "1", "--out", str(tmp_path / "x.json")])
        assert code == 2


class TestCheck:
    def test_golden_report(self, tmp_path):
        element_file = write_element_file(tmp_path / "a.json", [1.0, 0.0, 0.0])
        out = tmp_path / "report.json"
        code = main(["check", str(element_file), "--seed", "7", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["rank"]["rank"] == 1
        assert report["rank"]["certified"] is True
        factors = {(f["root"][0], f["root"][1]): f["mult"]
                   for f in report["char_poly"]["factors"]}
        assert factors == {(1.0, 0.0): 1, (0.0, 0.0): 1}
        assert report["cayley_hamilton_residual"] <= 1e-10
        assert report["trace"] == [1.0, 0.0]
        assert report["det_plus_one"] == [2.0, 0.0]

    # at spectral radius 1e8 and beyond, tau is 1 or more, so the root 0 sits
    # within tau of -1; it must not be taken for -1
    @pytest.mark.parametrize("diag_values, ambient, expected", [
        ([1e8, 2.0], "infinite", 3e8 + 3),
        ([1e8, 0.0], "finite", 1e8 + 1),
        ([2e8, 0.0], "finite", 2e8 + 1),
        ([3.0, -1.0], "finite", 0.0),
    ])
    def test_det_plus_one_near_minus_one(self, tmp_path, diag_values, ambient, expected):
        element_file = write_element_file(tmp_path / "a.json", diag_values, ambient)
        out = tmp_path / "report.json"
        assert main(["check", str(element_file), "--out", str(out)]) == 0
        got = complex(*json.loads(out.read_text())["det_plus_one"])
        if expected == 0.0:
            assert got == 0.0
        else:
            assert abs(got - expected) <= DEFAULT_TOLS.identity_rel * expected

    def test_nilpotent_report(self, tmp_path):
        data = {"dims": [2], "ambient": "finite",
                "blocks": [[[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]]}
        element_file = tmp_path / "nilp.json"
        element_file.write_text(json.dumps(data))
        out = tmp_path / "report.json"
        assert main(["check", str(element_file), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["rank"]["rank"] == 1
        assert report["char_poly"]["factors"] == [{"root": [0.0, 0.0], "mult": 2}]
        assert report["cayley_hamilton_residual"] == 0.0

    def test_missing_file(self, tmp_path):
        assert main(["check", str(tmp_path / "absent.json")]) == 2

    @pytest.mark.parametrize("payload", [
        {"dims": [2], "blocks": [[[1, 2], [3, 4]]]},  # numbers, not pairs
        [1, 2],
        "element",
        None,
        {"dims": 2, "blocks": []},
        {"dims": [2], "blocks": 5},
    ])
    def test_malformed_element_file_is_usage_error(self, tmp_path, capsys, payload):
        element_file = tmp_path / "bad.json"
        element_file.write_text(json.dumps(payload))
        assert main(["check", str(element_file)]) == 2
        assert "cannot read element file" in capsys.readouterr().err

    def test_contour_node_on_spectrum_exits_numeric(self, tmp_path, capsys):
        # S J_3 S^-1 for a nilpotent Jordan block J_3: roundoff splits the
        # eigenvalue 0 into three points, and a contour node lands exactly on
        # the spectrum of the block (a singular shifted matrix)
        data = {"dims": [3], "ambient": "finite", "blocks": [JORDAN_3_ROWS]}
        element_file = tmp_path / "jordan3.json"
        element_file.write_text(json.dumps(data))
        code = main(["check", str(element_file), "--seed", "7",
                     "--out", str(tmp_path / "report.json")])
        assert code == 3
        assert "ContourError" in capsys.readouterr().err


    def test_rank_above_oracle_exits_numeric(self, tmp_path, capsys):
        element_file = write_element_file(tmp_path / "graded.json", [1e8, 0.5])
        code = main(["check", str(element_file), "--seed", "7",
                     "--out", str(tmp_path / "report.json")])
        assert code == 3
        err = capsys.readouterr().err
        assert "UncertifiedRankError: rank 2 above oracle 1" in err

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 1: the graded diag(1e10, 0.5) "
                       "certifies the wrong rank 1 with det(a + 1) = 1e10 + 1")
    def test_graded_diag_1e10_fails_or_is_exact(self):
        # the exact rank is 2 and det(a + 1) = 1.5 (1e10 + 1); a typed error
        # is an honest outcome, a certified rank 1 is a silently wrong one
        a = Element(AlgebraShape(dims=(2,)), (np.diag([1e10, 0.5]),))
        exact = 1.5e10 + 1.5
        for seed in range(5):
            try:
                report = cli._analyze(a, cli._rng(seed), DEFAULT_TOLS)
            except SpecrankError:
                continue
            assert report["rank"]["rank"] == 2
            det1 = pair_to_complex(report["det_plus_one"])
            assert abs(det1 - exact) <= DEFAULT_TOLS.identity_rel * exact

    def test_every_typed_error_exits_numeric(self, tmp_path, monkeypatch, capsys):
        element_file = write_element_file(tmp_path / "a.json", [1.0, 0.0])
        for error in (DiagonalizationError("no resolution"),
                      ViewError("empty corner"),
                      IllConditionedError("no similarity")):
            def failing(*args, exc=error):
                raise exc

            monkeypatch.setattr(cli, "_analyze", failing)
            assert main(["check", str(element_file)]) == 3
            assert type(error).__name__ in capsys.readouterr().err


class TestCampaign:
    def test_small_campaign_exit_zero_and_schema(self, tmp_path):
        config = {"seed": 11, "trials": 2, "shapes": [[2, 2], [3]],
                  "ambient": "both"}
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps(config))
        out = tmp_path / "report.json"
        code = main(["campaign", "--config", str(config_file), "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        jsonschema.validate(report, CAMPAIGN_REPORT_SCHEMA)
        assert report["total_failures"] == 0

    def test_seed_reproducibility(self, tmp_path):
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps({"trials": 2}))
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(["campaign", "--config", str(config_file), "--seed", "3",
                     "--out", str(out1)]) == 0
        assert main(["campaign", "--config", str(config_file), "--seed", "3",
                     "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_coarse_tolerance_counts_skips(self, tmp_path):
        # make_maximal rejects inputs drawn 0.12 apart at tau = 0.5 rho; the
        # properties built on it skip those trials instead of aborting
        maximal = ("compression_spectrum", "compression_rank",
                   "block_spectra_disjoint", "blockwise_maximality",
                   "classical_charpoly_match", "diagonalization")
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps(
            {"trials": {name: 2 if name in maximal else 0 for name in PROPERTY_NAMES}}))
        out = tmp_path / "report.json"
        assert main(["campaign", "--config", str(config_file), "--tol-cluster", "0.5",
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["total_skipped"] > 0

    def test_single_block_shapes_count_skips(self, tmp_path):
        # no shape of two blocks to draw: the block properties skip their
        # trials and the campaign reports instead of raising
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps({"shapes": [[3]], "trials": 1}))
        out = tmp_path / "report.json"
        assert main(["campaign", "--config", str(config_file),
                     "--out", str(out)]) in (0, 1)
        skips = {p["name"]: p["skip_count"]
                 for p in json.loads(out.read_text())["properties"]}
        assert skips["block_spectra_disjoint"] == skips["blockwise_maximality"] == 1

    def test_invalid_tolerance_is_usage_error(self, tmp_path):
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps({"tol_cluster": 0.0, "trials": 1}))
        assert main(["campaign", "--config", str(config_file)]) == 2

    def test_flag_overrides_config(self, tmp_path):
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps({"seed": 1, "trials": 1}))
        out = tmp_path / "report.json"
        assert main(["campaign", "--config", str(config_file), "--seed", "999",
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["seed"] == 999

    def test_failures_exit_one(self, tmp_path):
        trials = {name: 0 for name in PROPERTY_NAMES}
        trials["cayley_hamilton"] = 3
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps(
            {"seed": 5, "trials": trials, "tol_residual": 1e-300}))
        out = tmp_path / "report.json"
        code = main(["campaign", "--config", str(config_file), "--out", str(out)])
        assert code == 1
        assert json.loads(out.read_text())["total_failures"] > 0

    def test_csv_format(self, tmp_path):
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps({"trials": 1}))
        out = tmp_path / "report.csv"
        assert main(["campaign", "--config", str(config_file), "--seed", "2",
                     "--format", "csv", "--out", str(out)]) == 0
        assert out.read_text().startswith("property,bin_low,bin_high,count")

    def test_unknown_property_in_config(self, tmp_path):
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps({"trials": {"bogus": 4}}))
        assert main(["campaign", "--config", str(config_file)]) == 2


class TestDemo:
    def test_m3_example_json(self, tmp_path):
        out = tmp_path / "demo.json"
        assert main(["demo", "m3_example", "--format", "json",
                     "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["generalized"]["degree"] == 2
        assert data["classical"]["degree"] == 3
        assert data["degree_difference"] == 1

    def test_zero_example(self, tmp_path):
        out = tmp_path / "demo.json"
        assert main(["demo", "zero_example", "--format", "json",
                     "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["exact_zero"] is True
        assert data["char_poly"]["degree"] == 1

    def test_c3_naive_det(self, tmp_path):
        out = tmp_path / "demo.json"
        assert main(["demo", "c3_naive_det", "--format", "json",
                     "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["multiplicative_shifted_zero"] is False
        assert data["multiplicative_direct_value"] is True

    def test_ch_walkthrough_text(self, capsys):
        assert main(["demo", "ch_walkthrough", "--seed", "6"]) == 0
        shown = capsys.readouterr().out
        assert "identity_walk" in shown

    def test_unknown_demo_name(self):
        assert main(["demo", "not_a_demo"]) == 2


BAD_INPUTS = {
    "gen_seed": ["gen", "--dims", "2", "--seed", "-1"],
    "check_seed": ["check", "{element}", "--seed", "-1"],
    "demo_seed": ["demo", "m3_example", "--seed", "-1"],
    "campaign_seed": ["campaign", "--trials", "1", "--seed", "-1"],
    "config_seed_negative": {"seed": -3, "trials": 1},
    "config_seed_string": {"seed": "x", "trials": 1},
    "gen_ranks_not_int": ["gen", "--dims", "2", "--ranks", "a"],
    "gen_maximal_eig_zero": ["gen", "--dims", "2", "--maximal-eigs", "0"],
    "config_shapes_not_list": {"shapes": 3, "trials": 1},
    "config_shape_entry_not_int": {"shapes": [[2, "a"]], "trials": 1},
    "config_tol_not_number": {"tol_cluster": "x", "trials": 1},
    "config_trial_count_not_int": {"trials": {"jacobson": "x"}},
    "config_out_not_path": {"out": ["report.json"], "trials": 1},
    "campaign_tol_cluster_inf": ["campaign", "--trials", "1", "--tol-cluster", "inf"],
    "campaign_tol_residual_overflow": ["campaign", "--trials", "1",
                                       "--tol-residual", "1e400"],
    "config_tol_cluster_infinity": {"tol_cluster": float("inf"), "trials": 1},
    "gen_maximal_eig_inf": ["gen", "--dims", "2", "--maximal-eigs", "inf"],
    "config_not_object": "[1, 2]",
    "config_not_json": '{"seed": ',
    "config_ambient_unknown": {"ambient": "sideways", "trials": 1},
    "config_ambient_not_string": {"ambient": ["finite"], "trials": 1},
    "config_format_unknown": {"format": "xml", "trials": 1},
    "config_trials_not_count": {"trials": "many"},
    "config_trials_not_count_under_flag": ["campaign", "--config", {"trials": "many"},
                                           "--trials", "1"],
    "gen_dims_zero": ["gen", "--dims", "0"],
    "gen_dims_negative": ["gen", "--dims", "2,-1"],
    "gen_ranks_wrong_count": ["gen", "--dims", "2,2", "--ranks", "1"],
    "gen_rank_above_dim": ["gen", "--dims", "3,2", "--ranks", "1,3"],
    "gen_rank_negative": ["gen", "--dims", "2", "--ranks", "-1"],
    "gen_maximal_eigs_not_complex": ["gen", "--dims", "2", "--maximal-eigs", "1,x"],
    "check_block_not_square": ["check", {"dims": [2], "blocks": [
        [[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]]]}],
    # a fractional dimension is not truncated: 2.7 is not a 2x2 block
    "check_dims_fractional": ["check", {"dims": [2.7], "blocks": [
        [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [2.0, 0.0]]]]}],
    "check_dims_bool": ["check", {"dims": [True], "blocks": [[[[1.0, 0.0]]]]}],
    # a string or a bool is not a number: ["2", true] is not 2+1i
    "check_entry_string_and_bool": ["check", {"dims": [1], "blocks": [[[["2", True]]]]}],
    "check_entry_beyond_float_range": ["check", {"dims": [1], "blocks": [[[[10 ** 400, 0]]]]}],
}


@pytest.mark.parametrize("case", BAD_INPUTS)
def test_bad_seeds_and_values_are_usage_errors(tmp_path, capsys, case):
    """Bad seeds, list entries, config values and element files exit 2 with
    an error line instead of escaping ``main`` as a ValueError or TypeError.

    A dict is a config file's JSON and a string its raw text; in an argument
    list, a dict is written to a file and its path passed.
    """
    spec = BAD_INPUTS[case]
    if isinstance(spec, (dict, str)):
        config_file = tmp_path / "config.json"
        config_file.write_text(spec if isinstance(spec, str) else json.dumps(spec))
        argv = ["campaign", "--config", str(config_file)]
    else:
        element = write_element_file(tmp_path / "a.json", [1.0, 0.0])
        argv = []
        for i, arg in enumerate(spec):
            if isinstance(arg, dict):
                path = tmp_path / f"arg{i}.json"
                path.write_text(json.dumps(arg))
                arg = str(path)
            argv.append(str(element) if arg == "{element}" else arg)
        argv += ["--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err


def test_non_finite_maximal_eig_names_the_reason(tmp_path, capsys):
    assert main(["gen", "--dims", "2", "--maximal-eigs", "1,inf",
                 "--out", str(tmp_path / "out")]) == 2
    assert "must hold finite values" in capsys.readouterr().err


def test_no_command_is_usage_error():
    assert main([]) == 2


def test_cached_parser_matches_fresh_parsers(capsys):
    seeded = ["gen", "--dims", "3,2", "--ranks", "2,1", "--seed", "9"]
    unseeded = ["gen", "--dims", "3,2", "--ranks", "2,1"]
    fresh = {}
    for argv in (seeded, unseeded):
        cli.build_parser.cache_clear()
        assert main(argv) == 0
        fresh[tuple(argv)] = capsys.readouterr().out
    assert cli.build_parser() is cli.build_parser()
    # a usage error, then gen calls through the same cached parser: no
    # value from an earlier call leaks into the next one
    assert main(["gen", "--dims"]) == 2
    capsys.readouterr()
    for argv in (seeded, unseeded, seeded):
        assert main(argv) == 0
        assert capsys.readouterr().out == fresh[tuple(argv)]
