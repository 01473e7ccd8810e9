"""Integration tests for the standing exhaustive crash campaign.

The acceptance surface: a scheme x workload grid of reduce-mode cells
completes with exhaustive coverage (zero sampling fallbacks), a real
class-level saving, no violations and no class mismatches; the summary
is byte-identical across serial, pooled and warm-cache runs; and a
failing shard is isolated instead of poisoning the rest of the grid;
and the ACE k=3 enumeration runs exhaustively on all six schemes with
zero violations.
"""

import hashlib

import pytest

from repro.analysis.export import campaign_summary_to_json
from repro.crashsim import (
    CrashCampaignConfig,
    campaign_problems,
    campaign_specs,
    run_campaign,
)
from repro.crashsim.ace import ace_campaign_config, dedup_ratio

SMOKE = CrashCampaignConfig(
    schemes=("ccnvm", "sc"),
    profiles=("hotset", "lbm"),
    steps=48,
    shards=2,
)

#: sha256 of ``campaign_summary_to_json(run_campaign(SMOKE))``, recorded
#: before the explorer and the named-site sweep were folded into this
#: driver: grid, class tables, totals and config keys must not move.
SMOKE_SHA256 = "019b8ad2dc5f8881eb5575a8ab8d7f59231965ea6913ce014294571d3fec431c"


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    root = tmp_path_factory.mktemp("campaign-cache")
    summary, report = run_campaign(SMOKE, cache_root=root)
    return summary, report, root


class TestCampaignSmoke:
    def test_grid_is_complete(self, smoke):
        summary, _, _ = smoke
        assert sorted(summary["grid"]) == ["ccnvm", "sc"]
        for scheme in summary["grid"]:
            assert sorted(summary["grid"][scheme]) == ["hotset", "lbm"]
        assert summary["failures"] == []
        assert summary["totals"]["cells"] == 4

    def test_exhaustive_coverage_no_fallbacks(self, smoke):
        summary, _, _ = smoke
        assert summary["totals"]["sampling_fallbacks"] == 0
        for scheme, row in summary["grid"].items():
            for profile, cell in row.items():
                assert cell["sampling_fallbacks"] == 0, (scheme, profile)
                # Every materialized state was attributed to a class.
                assert cell["states_covered"] >= cell["states_materialized"]

    def test_classes_reduce_oracle_work(self, smoke):
        summary, _, _ = smoke
        totals = summary["totals"]
        assert totals["classes"] > 0
        assert totals["oracle_calls"] < totals["covered"]
        assert totals["reduction_ratio"] > 1
        for row in summary["grid"].values():
            for cell in row.values():
                assert cell["classes"] == len(cell["class_table"])
                assert sum(
                    c["weight"] for c in cell["class_table"]
                ) == cell["states_covered"]
                for record in cell["class_table"]:
                    assert set(record) == {
                        "fingerprint", "representative", "k", "outcome",
                        "ok", "witnesses", "weight", "evaluated",
                        "spot_checked",
                    }

    def test_no_violations_no_mismatches(self, smoke):
        summary, _, _ = smoke
        assert summary["totals"]["violations"] == 0
        assert summary["totals"]["class_mismatches"] == 0
        for row in summary["grid"].values():
            for cell in row.values():
                assert cell["violations"] == []
                assert cell["class_mismatches"] == []
                assert all(c["ok"] for c in cell["class_table"])

    def test_summary_document_digest(self, smoke):
        summary, _, _ = smoke
        document = campaign_summary_to_json(summary)
        assert hashlib.sha256(document.encode()).hexdigest() == SMOKE_SHA256

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
        assert campaign_summary_to_json(pooled) == campaign_summary_to_json(
            summary
        )


class TestShardFailureIsolation:
    def test_failed_shard_reported_healthy_cells_merge(self, tmp_path, monkeypatch):
        """One poisoned shard lands in ``failures``; the other cells of
        the grid still merge their results."""
        import repro.crashsim.explore as explore_mod

        real = explore_mod.run_enumerate_cell

        def poisoned(spec):
            if spec.scheme == "sc" and spec.params["shard"] == 0:
                raise RuntimeError("injected shard failure")
            return real(spec)

        monkeypatch.setattr(explore_mod, "run_enumerate_cell", poisoned)
        cfg = CrashCampaignConfig(
            schemes=("ccnvm", "sc"), profiles=("hotset",), steps=24, shards=2
        )
        summary, _ = run_campaign(cfg, cache_root=tmp_path, cache=False)
        assert len(summary["failures"]) == 1
        failure = summary["failures"][0]
        assert (failure["scheme"], failure["profile"], failure["shard"]) == (
            "sc", "hotset", 0,
        )
        assert "injected shard failure" in failure["error"]
        # ccnvm is untouched; sc still carries its surviving shard.
        assert summary["grid"]["ccnvm"]["hotset"]["states_covered"] > 0
        assert summary["grid"]["sc"]["hotset"]["states_covered"] > 0


class TestDefaults:
    def test_default_grid_spans_every_scheme_and_profile(self):
        from repro.crashsim.oracle import ALLOWED_OUTCOMES
        from repro.crashsim.workload import workload_profiles

        cfg = CrashCampaignConfig()
        assert cfg.resolved_schemes() == tuple(sorted(ALLOWED_OUTCOMES))
        assert cfg.resolved_profiles() == tuple(workload_profiles())
        specs = campaign_specs(cfg)
        assert len(specs) == (
            len(cfg.resolved_schemes())
            * len(cfg.resolved_profiles())
            * cfg.shards
        )
        assert all(s.kind == "crash" for s in specs)
        assert all(s.params["mode"] == "enumerate" for s in specs)
        assert cfg.nested_depth == 0 and not cfg.torn_batches

    def test_nested_depth_adds_schedules_per_grid_cell(self):
        from repro.faults.plan import RECOVERY_SITES

        cfg = CrashCampaignConfig(
            schemes=("ccnvm",), profiles=("hotset", "lbm"), nested_depth=2
        )
        nested = [s for s in campaign_specs(cfg) if s.params["mode"] == "nested"]
        assert len(nested) == 2 * len(RECOVERY_SITES) * 2
        assert {s.params.get("profile", "hotset") for s in nested} == {
            "hotset", "lbm",
        }

    @pytest.mark.parametrize(
        "knobs",
        [
            {"shards": 0},
            {"shards": -1},
            {"nested_depth": -1},
            {"nested_depth": 3},
            {"window": -1},
            {"spot": -1},
            {"profiles": ("nosuch",)},
            {"profiles": ("hotset", "ace-k2-00-2")},
            {"profiles": ("ace-k2-11-00",)},
            {"profiles": ("ace-k9-000000000-000000000",)},
        ],
    )
    def test_invalid_shape_is_rejected(self, knobs):
        with pytest.raises(ValueError):
            CrashCampaignConfig(**knobs)


class TestGate:
    def test_empty_campaign_fails(self, tmp_path, monkeypatch):
        """A campaign whose every cell failed merges zero grid cells: it
        must not pass as "exhaustive coverage, no violations"."""
        import repro.crashsim.explore as explore_mod

        def poisoned(spec):
            raise RuntimeError("injected shard failure")

        monkeypatch.setattr(explore_mod, "run_enumerate_cell", poisoned)
        cfg = CrashCampaignConfig(
            schemes=("ccnvm",), profiles=("hotset",), steps=24, shards=1
        )
        summary, _ = run_campaign(cfg, cache_root=tmp_path, cache=False)
        assert summary["totals"]["cells"] == 0
        problems = campaign_problems(summary)
        assert "no grid cells ran" in problems


class TestAceCampaign:
    def test_k3_exhaustive_on_all_six_schemes_zero_violations(
        self, tmp_path
    ):
        """The standing-campaign gate the CLI (`repro crash ace
        --campaign`) and CI enforce, at the acceptance bar: every
        canonical 3-write workload on every scheme, exhaustively
        enumerated, zero violations."""
        summary, report = run_campaign(
            ace_campaign_config(3), cache_root=tmp_path / "cache"
        )
        report.raise_on_failure()
        totals = summary["totals"]
        assert summary["failures"] == []
        assert totals["cells"] == 40 * 6  # Bell(3)*2^3 profiles x schemes
        assert totals["violations"] == 0
        assert totals["class_mismatches"] == 0
        assert totals["sampling_fallbacks"] == 0
        assert dedup_ratio(3) >= 5
