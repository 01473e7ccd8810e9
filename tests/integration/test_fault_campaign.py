"""Integration tests for the fault campaign's named-site sweep.

One run of the standing five-scheme campaign (shared across the module
via a fixture; about a second) must satisfy the subsystem's acceptance
bar: enough distinct crash sites fire, cc-NVM comes back clean from
every reachable micro-step including crashes injected into recovery
itself, the known SC replay-vs-crash window is exhibited, and the media
phase behaves per contract.  Its exported document is pinned byte for
byte by a golden digest.
"""

import hashlib
import json

import pytest

from repro.analysis.export import campaign_to_csv, campaign_to_json
from repro.faults.campaign import CampaignConfig, run_campaign
from repro.faults.plan import RECOVERY_SITES

#: sha256 of ``campaign_to_json(run_campaign(CampaignConfig()))``.  It
#: pins every outcome, retry count, ``nwb`` and note of the standing
#: campaign; the sweep's recovery checks moved into
#: ``repro.crashsim.oracle`` without changing this digest.
GOLDEN_SHA256 = "9b7b3e06f3081d571940ef8698415e45c8fd7a2e91e6abbbcdf3c26e9a45b32a"


@pytest.fixture(scope="module")
def smoke():
    return run_campaign(CampaignConfig())


class TestSmokeCampaign:
    def test_every_outcome_matches_its_contract(self, smoke):
        assert smoke.passed, "\n".join(smoke.failures())

    def test_sweeps_enough_distinct_sites(self, smoke):
        fired = smoke.sites_fired()
        assert len(fired) >= 8
        # At least one crash landed inside recovery itself.
        assert fired & RECOVERY_SITES

    def test_ccnvm_recovers_everywhere(self, smoke):
        ccnvm = [r for r in smoke.injections if r.scheme == "ccnvm"]
        assert len(ccnvm) == 15  # every registered site is reachable
        assert all(r.fired and r.outcome == "RECOVERED" for r in ccnvm)

    def test_retries_stay_bounded(self, smoke):
        limit = 16  # the default update-times limit N
        for r in smoke.injections:
            if r.fired:
                assert r.total_retries <= limit * 8  # 8 hot blocks

    def test_sc_false_alarms_only_in_the_replay_window(self, smoke):
        sc = {r.site: r for r in smoke.injections if r.scheme == "sc"}
        assert sc["writeback.after_data"].outcome == "FALSE_ALARM"
        others = [r for site, r in sc.items() if site != "writeback.after_data"]
        assert all(r.outcome in ("RECOVERED", "NOT_REACHED") for r in others)

    def test_media_phase_contracts(self, smoke):
        outcomes = {(m.scheme, m.kind): m.outcome for m in smoke.media}
        for scheme in smoke.schemes:
            assert outcomes[(scheme, "transient")] == "absorbed"
            assert outcomes[(scheme, "permanent")] == "degraded_located"
            assert outcomes[(scheme, "silent")] == "detected_by_hmac"

    def test_double_crash_runs_are_marked(self, smoke):
        doubles = [
            r for r in smoke.injections
            if r.scheme == "ccnvm" and r.site in RECOVERY_SITES
        ]
        assert len(doubles) == len(RECOVERY_SITES)
        for r in doubles:
            assert any("double crash" in n for n in r.notes)
            assert any("resumed" in n for n in r.notes)


class TestGolden:
    def test_campaign_document_digest(self, smoke):
        document = campaign_to_json(smoke)
        assert hashlib.sha256(document.encode()).hexdigest() == GOLDEN_SHA256


class TestExport:
    def test_json_round_trip(self, smoke):
        doc = json.loads(campaign_to_json(smoke))
        assert doc["passed"] is True
        assert len(doc["injections"]) == len(smoke.injections)
        assert {m["kind"] for m in doc["media"]} == {
            "transient", "permanent", "silent"
        }

    def test_csv_has_one_row_per_experiment(self, smoke):
        lines = campaign_to_csv(smoke).strip().splitlines()
        assert lines[0].startswith("phase,scheme,site")
        assert len(lines) == 1 + len(smoke.injections) + len(smoke.media)


class TestConfigKnobs:
    def test_site_restriction(self):
        cfg = CampaignConfig(
            schemes=("ccnvm",),
            sites=("writeback.after_data", "recovery.mid_rebuild"),
            steps=32,
            media=False,
        )
        result = run_campaign(cfg)
        assert result.passed
        assert {r.site for r in result.injections} == set(cfg.sites)

    def test_summary_mentions_pass(self):
        cfg = CampaignConfig(
            schemes=("sc",), sites=("writeback.before_data",),
            steps=32, media=False,
        )
        assert "PASS" in run_campaign(cfg).summary()
