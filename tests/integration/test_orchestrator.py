"""Integration tests for the run-orchestration subsystem.

The determinism contract is the load-bearing one: a spec executed
serially in-process and a spec executed by a spawn worker must produce
byte-identical serialized results, or the cache would make figures
depend on *how* they were computed.
"""

import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

import repro
from repro.faults.campaign import CampaignConfig, run_campaign
from repro.runs import (
    ResultCache,
    canonical_json,
    code_fingerprint,
    run_specs,
    simulation_spec,
)

FP = "f" * 16

SPECS = [
    simulation_spec(scheme, "hmmer", 300, 2)
    for scheme in ("no_cc", "sc", "osiris_plus", "ccnvm_no_ds", "ccnvm")
]


class TestDeterminism:
    @pytest.mark.slow
    def test_serial_and_pooled_results_are_byte_identical(self):
        serial = run_specs(SPECS, jobs=1)
        pooled = run_specs(SPECS, jobs=2)
        assert pooled.executed == len(SPECS)
        for spec in SPECS:
            assert canonical_json(serial.payload(spec)) == canonical_json(
                pooled.payload(spec)
            ), f"pooled result diverged for {spec.describe()}"

    def test_distinct_seeds_give_distinct_hashes_and_results(self):
        a = simulation_spec("ccnvm", "milc", 300, 1)
        b = simulation_spec("ccnvm", "milc", 300, 2)
        assert a.spec_hash() != b.spec_hash()
        report = run_specs([a, b])
        assert canonical_json(report.payload(a)) != canonical_json(report.payload(b))


class TestCacheIntegration:
    def test_second_pass_executes_nothing(self, tmp_path):
        cache = ResultCache(tmp_path, fingerprint=FP)
        cold = run_specs(SPECS, cache=cache)
        assert (cold.executed, cold.cache_hits) == (len(SPECS), 0)
        warm = run_specs(SPECS, cache=cache)
        assert (warm.executed, warm.cache_hits) == (0, len(SPECS))
        for spec in SPECS:
            assert canonical_json(cold.payload(spec)) == canonical_json(
                warm.payload(spec)
            )

    def test_duplicate_submissions_cost_one_execution(self, tmp_path):
        cache = ResultCache(tmp_path, fingerprint=FP)
        report = run_specs([SPECS[0], SPECS[0], SPECS[0]], cache=cache)
        assert report.executed == 1
        assert len(report.outcomes) == 1


#: The sweep the kill-and-resume test interrupts; the child script
#: builds the same list, so both sides address the same cache entries.
RESUME_SWEEP = [simulation_spec("ccnvm", "lbm", 40, seed) for seed in range(1, 7)]

_SWEEP_SCRIPT = textwrap.dedent(
    """
    import time
    from repro.runs import orchestrate, simulation_spec

    specs = [simulation_spec("ccnvm", "lbm", 40, seed) for seed in range(1, 7)]
    # Pace the sweep so the parent can kill it between two results.
    orchestrate(specs, progress=lambda *_: time.sleep(0.3))
    """
)


class TestKillAndResume:
    def test_killed_sweep_resumes_from_the_cache(self, tmp_path):
        root = tmp_path / "cache"
        env = dict(
            os.environ,
            CCNVM_CACHE_DIR=str(root),
            PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]),
        )
        entries = root / "results" / code_fingerprint()
        child = subprocess.Popen([sys.executable, "-c", _SWEEP_SCRIPT], env=env)
        try:
            deadline = time.monotonic() + 60
            while not list(entries.glob("*.json")):
                assert child.poll() is None, "sweep exited before any result"
                assert time.monotonic() < deadline, "no cache entry within 60 s"
                time.sleep(0.01)
        finally:
            child.send_signal(signal.SIGKILL)
            child.wait()
        done = {path.stem for path in entries.glob("*.json")}
        assert 1 <= len(done) < len(RESUME_SWEEP)

        resumed = run_specs(RESUME_SWEEP, cache=ResultCache(root))
        assert resumed.failed == 0
        assert resumed.cache_hits == len(done)
        executed = {
            h for h, outcome in resumed.outcomes.items() if outcome.source == "run"
        }
        assert executed == {s.spec_hash() for s in RESUME_SWEEP} - done
        assert resumed.executed == len(executed)

        uninterrupted = run_specs(RESUME_SWEEP)
        for spec in RESUME_SWEEP:
            assert canonical_json(resumed.payload(spec)) == canonical_json(
                uninterrupted.payload(spec)
            ), f"resumed result diverged for {spec.describe()}"


class TestFailureIsolation:
    def test_one_bad_spec_fails_one_spec(self):
        bad = simulation_spec("ccnvm", "no_such_benchmark", 300, 1)
        report = run_specs([SPECS[0], bad, SPECS[1]], jobs=2, chunk=1)
        assert report.failed == 1
        outcome = report.outcomes[bad.spec_hash()]
        assert outcome.status == "failed"
        assert "no_such_benchmark" in outcome.error
        assert report.outcomes[SPECS[0].spec_hash()].ok
        assert report.outcomes[SPECS[1].spec_hash()].ok
        with pytest.raises(RuntimeError, match="1 of 3 runs failed"):
            report.raise_on_failure()

    def test_failures_are_not_cached_or_resumed(self, tmp_path):
        bad = simulation_spec("ccnvm", "no_such_benchmark", 300, 1)
        cache = ResultCache(tmp_path, fingerprint=FP)
        run_specs([bad], cache=cache)
        assert cache.get(bad) is None
        report = run_specs([bad], cache=cache)
        assert report.executed == 1  # re-attempted, not replayed


class TestCampaignOrchestration:
    @pytest.mark.slow
    def test_parallel_campaign_matches_serial(self, tmp_path):
        cfg = CampaignConfig(
            schemes=("ccnvm",),
            sites=("wpq.before_end", "writeback.after_data"),
            steps=48,
        )
        serial = run_campaign(cfg)
        pooled = run_campaign(cfg, jobs=2)
        assert serial.to_dict() == pooled.to_dict()
        assert pooled.passed

    @pytest.mark.slow
    def test_campaign_cache_replays(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CCNVM_CACHE_DIR", str(tmp_path / "cache"))
        cfg = CampaignConfig(
            schemes=("ccnvm", "sc"), sites=("wpq.before_end",), steps=48
        )
        cold = run_campaign(cfg, cache=True)
        sources = []
        warm = run_campaign(
            cfg, cache=True,
            progress=lambda outcome, done, total: sources.append(outcome.source),
        )
        assert cold.to_dict() == warm.to_dict()
        # One crash cell per scheme, each replayed whole from the cache.
        assert sources == ["cache"] * len(cfg.schemes)
        stats = ResultCache(tmp_path / "cache").cumulative
        assert stats["hits"] == len(cfg.schemes)
