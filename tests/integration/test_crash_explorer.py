"""Integration tests for the crash driver's exploration guarantees.

The acceptance surface of the subsystem, run as crash campaigns: the
smoke-budget campaign on ccnvm's hot set clears 200+ distinct states
with zero violations and a nested schedule per recovery site; a
deliberately protocol-violating variant (torn batches) is caught *and*
minimized to a handful of ops; and the whole thing is deterministic
through the orchestrator — serial, pooled and fully-cached runs
summarize byte-identically.
"""

import json
from pathlib import Path

import pytest

from repro.analysis.export import campaign_summary_to_json, reproducer_from_json
from repro.crashsim import (
    CrashCampaignConfig,
    campaign_problems,
    campaign_specs,
    replay,
    run_campaign,
)
from repro.faults.plan import RECOVERY_SITES

FIXTURE = Path(__file__).parent.parent / "fixtures" / "crash_reproducer_torn_batch.json"

SMOKE = CrashCampaignConfig(schemes=("ccnvm",), profiles=("hotset",), nested_depth=2)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    root = tmp_path_factory.mktemp("crash-cache")
    summary, report = run_campaign(SMOKE, cache_root=root)
    return summary, report, root


class TestSmokeExploration:
    def test_acceptance_floor(self, smoke):
        summary, _, _ = smoke
        cell = summary["grid"]["ccnvm"]["hotset"]
        assert cell["distinct_states"] >= 200
        assert cell["violations"] == []
        assert summary["totals"]["violations"] == 0
        assert set(cell["outcomes"]) == {"RECOVERED"}
        assert campaign_problems(summary) == []

    def test_nested_schedule_per_recovery_site(self, smoke):
        summary, _, _ = smoke
        cell = summary["grid"]["ccnvm"]["hotset"]
        assert set(cell["nested"]) == set(RECOVERY_SITES)
        for site, runs in cell["nested"].items():
            assert [r["depth"] for r in runs] == [1, 2]
            for r in runs:
                assert len(r["fired_sites"]) == r["depth"]
                assert r["problems"] == []
        assert cell["nested_ok"]
        assert summary["totals"]["nested_runs"] == 2 * len(RECOVERY_SITES)
        assert summary["totals"]["nested_problems"] == 0
        assert summary["config"]["nested_depth"] == 2

    def test_warm_rerun_is_fully_cached_and_identical(self, smoke):
        summary, report, root = smoke
        assert report.executed == len(campaign_specs(SMOKE))
        warm_summary, warm_report = run_campaign(SMOKE, cache_root=root)
        assert warm_report.executed == 0
        assert warm_report.cache_hits == len(campaign_specs(SMOKE))
        assert campaign_summary_to_json(warm_summary) == campaign_summary_to_json(
            summary
        )

    @pytest.mark.slow
    def test_serial_and_pooled_summaries_byte_identical(self, smoke, tmp_path):
        summary, _, _ = smoke
        pooled, report = run_campaign(SMOKE, jobs=2, cache_root=tmp_path)
        assert report.executed == len(campaign_specs(SMOKE))
        assert campaign_summary_to_json(pooled) == campaign_summary_to_json(summary)


class TestTornBatchDetection:
    """The oracle must catch (and minimize) a deliberate ordering bug."""

    @pytest.fixture(scope="class")
    def torn(self, tmp_path_factory):
        cfg = CrashCampaignConfig(
            schemes=("ccnvm",), profiles=("hotset",), steps=48, torn_batches=True
        )
        summary, _ = run_campaign(
            cfg, cache_root=tmp_path_factory.mktemp("torn-cache")
        )
        return summary

    def test_violations_found_and_minimized(self, torn):
        cell = torn["grid"]["ccnvm"]["hotset"]
        assert cell["violations"], "torn batches must violate the contract"
        assert torn["config"]["torn_batches"] is True
        assert "violation(s)" in " ".join(campaign_problems(torn))
        minimized = [v for v in cell["violations"] if "reproducer" in v]
        assert minimized
        for violation in minimized:
            assert violation["torn"] is not None
            assert len(violation["reproducer"]["ops"]) <= 10

    def test_minimized_reproducer_replays(self, torn):
        cell = torn["grid"]["ccnvm"]["hotset"]
        violation = next(v for v in cell["violations"] if "reproducer" in v)
        artifact = reproducer_from_json(
            json.dumps(violation["reproducer"])
        )
        expected = {p.split(":", 1)[0] for p in artifact.problems}
        verdict = replay(artifact)
        assert expected <= set(verdict.signature())


class TestCommittedFixture:
    """Regression: the committed minimized reproducer must keep failing
    (it encodes a state ADR cannot produce — a partially-applied batch —
    so a future change making it *pass* means the oracle went blind)."""

    def test_fixture_replays_to_the_recorded_failure(self):
        artifact = reproducer_from_json(FIXTURE.read_text())
        assert artifact.scheme == "ccnvm"
        assert len(artifact.ops) <= 10
        verdict = replay(artifact)
        expected = {p.split(":", 1)[0] for p in artifact.problems}
        assert expected <= set(verdict.signature())
        assert verdict.outcome == "FAILED"
