"""Byte-identity guard for campaign reports.

Performance work must not change what a campaign reports. This pins the
SHA-256 of a short campaign over every property; a change that alters the
report bytes must say why and re-pin the hash.
"""

import hashlib

from specrank.propsuite import PROPERTY_NAMES, CampaignSettings, run_campaign

GOLDEN_SEED = 20240
GOLDEN_TRIALS = 8
GOLDEN_SHA256 = "31516a57d399de90ceb0a0c44dc1a09e2af8a62c8970fe91856f7fc75d1d3f32"


def test_campaign_report_bytes_are_pinned():
    settings = CampaignSettings(
        seed=GOLDEN_SEED,
        trials=tuple((name, GOLDEN_TRIALS) for name in PROPERTY_NAMES))
    report = run_campaign(settings)
    digest = hashlib.sha256(report.to_json_str().encode("utf-8")).hexdigest()
    assert digest == GOLDEN_SHA256
