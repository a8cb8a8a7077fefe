"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line. Run with ``pytest tests/test_acceptance.py -v -s``."""

import time

import numpy as np

from specrank.algebra import (AlgebraShape, Element, norm,
                              random_socle_element, zero)
from specrank.charpoly import char_poly, eval_element
from specrank.multiplicity import multiplicities
from specrank.numkernel import classical_charpoly
from specrank.propsuite import (CampaignSettings, PROPERTY_NAMES, PropertySpec,
                                ShapePolicy, random_shape, run_campaign,
                                run_property)
from specrank.rank import spectral_rank
from conftest import make_rng

ACCEPT_SEED = 20240811
POLICY = ShapePolicy(max_blocks=4, max_dim=6)


def _report(number: int, label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} [{label}]: {status}{suffix}")
    assert ok, f"criterion {number} ({label}) failed: {detail}"


def test_criterion_1_golden_rank_one_projection():
    started = time.perf_counter()
    rng = make_rng(ACCEPT_SEED)
    a = Element(AlgebraShape(dims=(3,)), (np.diag([1.0 + 0j, 0.0, 0.0]),))

    cert = spectral_rank(a, rng=rng)
    records = {round(abs(r.value), 6): r.m_counting
               for r in multiplicities(a, rng, cert, True)}
    poly = char_poly(a, rng, cert)
    # -x(1 - x) = x^2 - x: descending coefficients [1, -1, 0]
    coeff_err = float(np.max(np.abs(poly.coefficients()
                                    - np.array([1.0, -1.0, 0.0]))))
    classical = classical_charpoly(a.blocks[0])
    elapsed = time.perf_counter() - started

    ok = (cert.rank == 1 and records == {0.0: 1, 1.0: 1}
          and coeff_err <= 1e-9
          and poly.degree == 2 and len(classical) - 1 == 3
          and elapsed < 1.0)
    _report(1, "golden diag(1,0,0)", ok,
            f"rank={cert.rank} m={records} coeff_err={coeff_err:.1e} "
            f"degrees {poly.degree} vs {len(classical) - 1} in {elapsed:.2f}s")


def test_criterion_2_golden_zero_element():
    rng = make_rng(ACCEPT_SEED + 1)
    a = zero(AlgebraShape(dims=(3,)))
    poly = char_poly(a, rng, spectral_rank(a, rng=rng))
    annihilated = norm(eval_element(poly, a))
    ok = poly.factors == ((0.0 + 0.0j, 1),) and annihilated == 0.0
    _report(2, "golden zero element", ok,
            f"factors={poly.factors} |p(a)|={annihilated}")


def test_criterion_3_annihilation_campaign():
    started = time.perf_counter()
    spec = PropertySpec(name="cayley_hamilton", trials=1000, policy=POLICY)
    report = run_property(spec, seed=ACCEPT_SEED)
    elapsed = time.perf_counter() - started
    ok = (report.fail_count == 0 and report.skip_count == 0
          and report.worst_residual <= 1e-6 and elapsed < 60.0)
    _report(3, "annihilation x1000", ok,
            f"worst={report.worst_residual:.2e} fails={report.fail_count} "
            f"in {elapsed:.1f}s")


def test_criterion_4_rank_oracle_equivalence():
    rng = make_rng(ACCEPT_SEED + 2)
    immediate = 0
    escalated_resolved = 0
    escalated = 0
    for _ in range(1000):
        shape = random_shape(POLICY, rng)
        ranks = [int(rng.integers(0, d + 1)) for d in shape.dims]
        a = random_socle_element(shape, ranks, rng)
        cert = spectral_rank(a, rng=rng)
        if cert.samples_used == 8:
            immediate += cert.certified
        else:
            escalated += 1
            escalated_resolved += cert.certified
    ok = immediate >= 999 - escalated and escalated_resolved == escalated \
        and immediate + escalated_resolved == 1000
    _report(4, "rank oracle equivalence x1000", ok,
            f"certified_at_8={immediate} escalated={escalated} "
            f"resolved={escalated_resolved}")


def test_criterion_5_multiplicity_consistency():
    spec = PropertySpec(name="multiplicity_consistency", trials=500, policy=POLICY)
    report = run_property(spec, seed=ACCEPT_SEED)
    ok = report.fail_count == 0 and report.skip_count == 0
    _report(5, "multiplicity consistency x500", ok,
            f"fails={report.fail_count} worst={report.worst_residual:.2e}")


def test_criterion_6_compression_invariance():
    spec_s = PropertySpec(name="compression_spectrum", trials=200, policy=POLICY)
    spec_r = PropertySpec(name="compression_rank", trials=200, policy=POLICY)
    rep_s = run_property(spec_s, seed=ACCEPT_SEED)
    rep_r = run_property(spec_r, seed=ACCEPT_SEED)
    ok = (rep_s.fail_count == 0 and rep_s.skip_count == 0
          and rep_r.fail_count == 0 and rep_r.skip_count == 0)
    _report(6, "compression spectrum+rank x200", ok,
            f"spectrum worst={rep_s.worst_residual:.2e} "
            f"rank fails={rep_r.fail_count}")


def test_criterion_7_blockwise_structure():
    rep_d = run_property(PropertySpec(name="block_spectra_disjoint",
                                      trials=200, policy=POLICY), seed=ACCEPT_SEED)
    rep_m = run_property(PropertySpec(name="blockwise_maximality",
                                      trials=200, policy=POLICY), seed=ACCEPT_SEED)
    rep_c = run_property(PropertySpec(name="classical_charpoly_match",
                                      trials=100, policy=POLICY), seed=ACCEPT_SEED)
    ok = all(r.fail_count == 0 and r.skip_count == 0
             for r in (rep_d, rep_m, rep_c))
    _report(7, "block disjointness/maximality/classical match", ok,
            f"fails=({rep_d.fail_count},{rep_m.fail_count},{rep_c.fail_count}) "
            f"classical worst={rep_c.worst_residual:.2e}")


def test_criterion_8_determinant_identities():
    rep_mul = run_property(PropertySpec(name="det_multiplicative",
                                        trials=300, policy=POLICY), seed=ACCEPT_SEED)
    rep_syl = run_property(PropertySpec(name="sylvester",
                                        trials=300, policy=POLICY), seed=ACCEPT_SEED)
    ok = rep_mul.fail_count == 0 and rep_syl.fail_count == 0
    _report(8, "det multiplicativity + sylvester x300", ok,
            f"worst=({rep_mul.worst_residual:.2e},{rep_syl.worst_residual:.2e})")


def test_criterion_9_continuity_walks():
    spec = PropertySpec(name="charpoly_continuity", trials=50, policy=POLICY)
    report = run_property(spec, seed=ACCEPT_SEED)
    ok = report.fail_count == 0 and report.skip_count == 0
    _report(9, "identity-walk continuity x50", ok,
            f"fails={report.fail_count} worst={report.worst_residual:.2e}")


def test_criterion_10_deterministic_reports():
    settings = CampaignSettings(seed=ACCEPT_SEED, policy=POLICY,
                                trials=tuple((n, 3) for n in PROPERTY_NAMES))
    first = run_campaign(settings)
    second = run_campaign(settings)
    ok = (first.to_json_str() == second.to_json_str()
          and first.to_csv() == second.to_csv())
    _report(10, "byte-identical reruns", ok,
            f"report bytes={len(first.to_json_str())}")
