import pytest

import specrank.propsuite as propsuite
from specrank.algebra import ViewError
from specrank.charpoly import DiagonalizationError
from specrank.config import DEFAULT_TOLS, Tolerances
from specrank.multiplicity import SpectrumDomainError, UnstableMultiplicityError
from specrank.numkernel import ContourError, ConvergenceError, SpecrankError
from specrank.propsuite import (DEFAULT_TRIALS, PROPERTY_NAMES, CampaignSettings,
                                PropertySpec, ShapePolicy,
                                run_campaign, run_property, run_trial)
from specrank.rank import IllConditionedError, UncertifiedRankError

SMALL_POLICY = ShapePolicy(max_blocks=3, max_dim=4)


def small_spec(name, trials=4):
    return PropertySpec(name=name, trials=trials, policy=SMALL_POLICY)


@pytest.mark.parametrize("name", PROPERTY_NAMES)
def test_every_property_passes_small_run(name):
    report = run_property(small_spec(name), seed=314)
    assert report.fail_count == 0
    assert report.pass_count + report.fail_count + report.skip_count == report.trials


def test_default_trial_counts_cover_all_properties():
    assert set(DEFAULT_TRIALS) == set(PROPERTY_NAMES)
    assert all(t >= 1 for t in DEFAULT_TRIALS.values())


def test_unknown_property_rejected():
    with pytest.raises(ValueError):
        PropertySpec(name="no_such_property", trials=1)


def test_determinism_byte_identical():
    settings = CampaignSettings(seed=777, policy=SMALL_POLICY,
                                trials=tuple((n, 3) for n in PROPERTY_NAMES))
    first = run_campaign(settings)
    second = run_campaign(settings)
    assert first.to_json_str() == second.to_json_str()
    assert first.to_csv() == second.to_csv()


def test_different_seeds_differ():
    trials = tuple((n, 0) for n in PROPERTY_NAMES if n != "jacobson")
    a = run_campaign(CampaignSettings(seed=1, policy=SMALL_POLICY,
                                      trials=trials + (("jacobson", 5),)))
    b = run_campaign(CampaignSettings(seed=2, policy=SMALL_POLICY,
                                      trials=trials + (("jacobson", 5),)))
    assert a.to_json_str() != b.to_json_str()


def test_zero_trial_campaign_is_empty():
    settings = CampaignSettings(seed=5, policy=SMALL_POLICY,
                                trials=tuple((n, 0) for n in PROPERTY_NAMES))
    report = run_campaign(settings)
    assert report.total_failures == 0
    assert all(p.trials == 0 and p.pass_count == 0 for p in report.properties)


def test_report_merge_matches_single_run():
    spec = small_spec("cayley_hamilton", trials=6)
    whole = run_property(spec, seed=99)
    left = run_property(spec, seed=99, start=0, stop=3)
    right = run_property(spec, seed=99, start=3, stop=6)
    merged = left.merge(right)
    assert merged.to_json() == whole.to_json()
    # commutativity of the merge
    assert right.merge(left).to_json() == whole.to_json()


def test_report_merge_associative():
    spec = small_spec("jacobson", trials=9)
    parts = [run_property(spec, seed=42, start=i, stop=i + 3) for i in (0, 3, 6)]
    ab_c = parts[0].merge(parts[1]).merge(parts[2])
    a_bc = parts[0].merge(parts[1].merge(parts[2]))
    assert ab_c.to_json() == a_bc.to_json()


def test_merge_rejects_mismatched_reports():
    a = run_property(small_spec("jacobson", 2), seed=1)
    b = run_property(small_spec("sylvester", 2), seed=1)
    with pytest.raises(ValueError):
        a.merge(b)


def test_forced_failures_record_and_replay():
    # an impossible residual tolerance makes annihilation checks fail; the
    # recorded trial coordinates replay to the identical measured residual
    tight = DEFAULT_TOLS.with_overrides(residual=1e-300)
    spec = PropertySpec(name="cayley_hamilton", trials=10,
                        policy=SMALL_POLICY, tols=tight)
    report = run_property(spec, seed=2718)
    assert report.fail_count > 0
    failure = report.failures[0]
    again = run_trial(spec, seed=2718, index=failure["trial"])
    assert not again.passed
    assert again.failure["measured"]["residual"] == failure["measured"]["residual"]


def test_histogram_counts_match_decided_trials():
    report = run_property(small_spec("cayley_hamilton", trials=8), seed=12)
    assert sum(c for _, c in report.histogram) == report.pass_count + report.fail_count


def test_generation_paths_are_recorded():
    report = run_property(small_spec("block_spectra_disjoint", trials=12), seed=4)
    counters = dict(report.counters)
    assert sum(counters.get(k, 0) for k in ("path_constructed", "path_filtered")) == 12


def test_campaign_csv_layout():
    settings = CampaignSettings(seed=8, policy=SMALL_POLICY,
                                trials=tuple((n, 2) for n in PROPERTY_NAMES))
    csv = run_campaign(settings).to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "property,bin_low,bin_high,count"
    assert len(lines) > len(PROPERTY_NAMES) // 2
    for line in lines[1:]:
        name, low, high, count = line.split(",")
        assert name in PROPERTY_NAMES
        assert float(high) > float(low)
        assert int(count) >= 1


@pytest.mark.parametrize("name", ["compression_rank", "compression_spectrum"])
def test_view_error_fails_trial_without_raising(monkeypatch, name):
    def failing_view(p, tols=DEFAULT_TOLS):
        raise ViewError("projection has rank 0; the corner algebra is empty")

    monkeypatch.setattr(propsuite, "compressed_view", failing_view)
    result = run_trial(PropertySpec(name=name, trials=1), 20240, 0)
    assert not result.passed
    assert result.failure["measured"]["error"].startswith("ViewError")


def test_every_typed_error_shares_one_base():
    for error in (ConvergenceError, ContourError, UnstableMultiplicityError,
                  UncertifiedRankError, SpectrumDomainError,
                  DiagonalizationError, ViewError, IllConditionedError):
        assert issubclass(error, SpecrankError)


def test_zero_counting_multiplicity_fails_trial_without_raising():
    # seed 110, trial 386 draws an element whose counting vote gives a
    # spectral value multiplicity 0; the trial must fail, not abort the run
    spec = PropertySpec(name="cayley_hamilton", trials=DEFAULT_TRIALS["cayley_hamilton"])
    result = run_trial(spec, 110, 386)
    assert not result.passed
    assert result.failure["measured"]["error"].startswith("UnstableMultiplicityError")


# the properties whose inputs come from ``make_maximal``
MAKE_MAXIMAL_PROPERTIES = ("compression_spectrum", "compression_rank",
                           "block_spectra_disjoint", "blockwise_maximality",
                           "classical_charpoly_match", "diagonalization")


@pytest.mark.parametrize("name", MAKE_MAXIMAL_PROPERTIES)
def test_coarse_tolerance_skips_inseparable_inputs(name):
    """At tau = 0.5 rho the generators draw values 0.12 apart that
    ``make_maximal`` rejects; the trial is a generator skip, not an abort."""
    spec = PropertySpec(name=name, trials=6, tols=Tolerances(cluster_rel=0.5))
    report = run_property(spec, 5)
    assert report.skip_count > 0
    assert dict(report.counters)["generator_exhausted"] == report.skip_count
    assert report.pass_count + report.fail_count + report.skip_count == 6
