"""Byte-identity guard for campaign reports.

Performance work must not change what a campaign reports. This pins the
SHA-256 of a short campaign over every property; a change that alters the
report bytes must say why and re-pin the hash.
"""

import hashlib

from specrank.propsuite import PROPERTY_NAMES, CampaignSettings, run_campaign

GOLDEN_SEED = 20240
GOLDEN_TRIALS = 8
GOLDEN_SHA256 = "a19654c0fd05167a48bba502febd8ec2aa32462200c7f2d0e8d8e056ab6ee80a"


def test_campaign_report_bytes_are_pinned():
    settings = CampaignSettings(
        seed=GOLDEN_SEED,
        trials=tuple((name, GOLDEN_TRIALS) for name in PROPERTY_NAMES))
    report = run_campaign(settings)
    digest = hashlib.sha256(report.to_json_str().encode("utf-8")).hexdigest()
    assert digest == GOLDEN_SHA256
