"""Supervision tests: the pool and ``run_specs`` recover from worker
crashes, hangs and torn IPC without losing or duplicating cells.

The failures are real: pooled tests fork their workers
(``start_method="fork"``) after swapping in a misbehaving executor, so
a worker genuinely exits, sleeps past its deadline or returns a payload
that changes in transit.  Each forked process starts with the parent's
visit counter (zero), which is what lets a failure scheduled at "the
second spec a process runs" spare the pristine retry processes.
"""

import functools
import importlib
import os
import time

import pytest

from repro.runs.orchestrate import run_specs
from repro.runs.pool import RunOutcome, WorkerPool, _raw_outcome, payload_digest
from repro.runs.spec import simulation_spec

orchestrate_mod = importlib.import_module("repro.runs.orchestrate")
pool_mod = importlib.import_module("repro.runs.pool")

LENGTH = 40

#: Specs this process has executed (forked workers inherit the value).
_visits = {"count": 0}


@pytest.fixture(autouse=True)
def reset_visits(monkeypatch):
    monkeypatch.setitem(_visits, "count", 0)


def specs(n, length=LENGTH):
    return [simulation_spec("ccnvm", "lbm", length, seed) for seed in range(1, n + 1)]


def fake_result(spec):
    return {"seed": spec.seed, "length": spec.length}


def install_executor(monkeypatch, on_second_visit):
    """Run specs as :func:`fake_result`; a process's second spec first
    calls *on_second_visit*."""

    def execute(spec):
        _visits["count"] += 1
        if _visits["count"] == 2:
            on_second_visit()
        return fake_result(spec)

    monkeypatch.setitem(pool_mod._EXECUTORS, "simulation", execute)


class _TornInTransit(dict):
    """A payload whose pickled form differs from what was digested."""

    def __reduce__(self):
        return (dict, ({"torn": True},))


class TestRawOutcome:
    def test_digest_mismatch_demoted_to_retryable_corrupt(self):
        spec = specs(1)[0]
        payload = {"value": 1}
        raw = {
            "status": "done",
            "payload": {"value": 2},  # mutated after the digest was taken
            "digest": payload_digest(payload),
            "duration": 0.1,
        }
        outcome = _raw_outcome(spec, raw)
        assert outcome.status == "corrupt"
        assert outcome.retryable
        assert outcome.payload is None
        assert "integrity digest" in outcome.error

    def test_matching_digest_passes_through(self):
        spec = specs(1)[0]
        payload = {"value": 1}
        raw = {
            "status": "done",
            "payload": payload,
            "digest": payload_digest(payload),
            "duration": 0.1,
        }
        outcome = _raw_outcome(spec, raw)
        assert outcome.ok and outcome.payload == payload


def tear_first_digest(monkeypatch):
    """The first digest taken (the executing side's) comes out wrong."""
    calls = {"count": 0}

    def digest(payload):
        calls["count"] += 1
        if calls["count"] == 1:
            return "0" * 64
        return payload_digest(payload)

    monkeypatch.setattr(pool_mod, "payload_digest", digest)


class TestInline:
    def test_result_corrupt_retried_to_identical_payload(self, monkeypatch):
        baseline = run_specs(specs(1), jobs=1)
        spec = specs(1)[0]

        tear_first_digest(monkeypatch)
        report = run_specs([spec], jobs=1, retries=2)
        assert report.failed == 0
        assert report.retried == 1
        # Retried-to-success output is byte-identical to fault-free.
        assert report.payload(spec) == baseline.payload(spec)

    def test_result_corrupt_with_no_budget_is_reported(self, monkeypatch):
        tear_first_digest(monkeypatch)
        report = run_specs(specs(1), jobs=1, retries=0)
        assert report.failed == 1
        outcome = next(iter(report.outcomes.values()))
        assert outcome.status == "corrupt" and outcome.retryable


class TestPooled:
    def test_chunk_timeout_redispatch_rescues_chunkmates(self, monkeypatch):
        # The second spec of the two-spec chunk hangs; the whole chunk
        # times out, then both specs are re-dispatched at chunk=1 in
        # fresh processes (each on its first visit) and both succeed.
        install_executor(monkeypatch, lambda: time.sleep(30.0))
        pool = WorkerPool(
            jobs=2, timeout=1.0, chunk=2, grace=1.5, start_method="fork"
        )
        outcomes = pool.run(specs(2))
        assert [o.ok for o in outcomes] == [True, True]
        assert [o.payload for o in outcomes] == [fake_result(s) for s in specs(2)]
        assert pool.redispatched == 2

    def test_run_specs_supervision_recovers_from_worker_crash(
        self, monkeypatch
    ):
        # Three one-spec chunks over two workers: some worker's second
        # spec exits hard.  The lost chunk surfaces as a retryable
        # timeout; the supervision round re-runs it in a pristine
        # process and the sweep still completes every cell.
        install_executor(monkeypatch, lambda: os._exit(70))
        monkeypatch.setattr(
            orchestrate_mod,
            "WorkerPool",
            functools.partial(WorkerPool, grace=1.5, start_method="fork"),
        )
        batch = specs(3)
        report = run_specs(batch, jobs=2, timeout=1.0, chunk=1, retries=2)
        assert report.failed == 0
        assert report.executed == 3
        assert report.retried >= 1
        assert set(report.outcomes) == {s.spec_hash() for s in batch}
        assert all(isinstance(o, RunOutcome) and o.ok for o in report.outcomes.values())

    def test_torn_ipc_is_demoted_and_retried(self, monkeypatch, tmp_path):
        # The first result ever sent changes between the worker's digest
        # and the parent's check; it comes back as a retryable "corrupt"
        # outcome, and the retry round delivers the honest payload.
        marker = tmp_path / "torn-once"

        def execute(spec):
            if not marker.exists():
                marker.touch()
                return _TornInTransit(fake_result(spec))
            return fake_result(spec)

        monkeypatch.setitem(pool_mod._EXECUTORS, "simulation", execute)
        seen = []
        monkeypatch.setattr(
            orchestrate_mod,
            "WorkerPool",
            functools.partial(WorkerPool, start_method="fork"),
        )
        spec = specs(1)[0]
        report = run_specs(
            [spec], jobs=2, retries=1,
            progress=lambda outcome, done, total: seen.append(outcome.status),
        )
        assert report.failed == 0 and report.retried == 1
        assert report.payload(spec) == fake_result(spec)
        assert seen == ["done"]  # the corrupt attempt is never reported
