"""Failure tests for the pool: a worker that dies or hangs costs its own
chunk a ``failed`` or ``timeout`` outcome, never the sweep.

The failures are real: pooled tests fork their workers
(``start_method="fork"``) after swapping in a misbehaving executor, so
a worker genuinely exits or sleeps past its deadline.  Each run is
driven from a daemon thread with a join deadline, so a regression that
hangs the pool fails the test instead of stalling the suite.
"""

import functools
import importlib
import multiprocessing
import os
import threading
import time

import pytest

from repro.runs.cache import ResultCache
from repro.runs.orchestrate import run_specs
from repro.runs.pool import WorkerPool
from repro.runs.spec import simulation_spec

orchestrate_mod = importlib.import_module("repro.runs.orchestrate")
pool_mod = importlib.import_module("repro.runs.pool")

#: The seed of the one spec that misbehaves.
BAD_SEED = 2


def specs(n):
    return [simulation_spec("ccnvm", "lbm", 40, seed) for seed in range(1, n + 1)]


def fake_result(spec):
    return {"seed": spec.seed, "length": spec.length}


def install_executor(monkeypatch, misbehave):
    """Run specs as :func:`fake_result`; the :data:`BAD_SEED` spec first
    calls *misbehave*."""

    def execute(spec):
        if spec.seed == BAD_SEED:
            misbehave()
        return fake_result(spec)

    monkeypatch.setitem(pool_mod._EXECUTORS, "simulation", execute)


def within(seconds, fn):
    """``fn()``'s value, or a test failure if it has not returned in time."""
    box = {}
    worker = threading.Thread(target=lambda: box.update(value=fn()), daemon=True)
    started = time.monotonic()
    worker.start()
    worker.join(seconds)
    assert not worker.is_alive(), f"still running after {seconds} s"
    return box["value"], time.monotonic() - started


class TestPooled:
    def test_worker_death_without_timeout_fails_fast(self, monkeypatch):
        install_executor(monkeypatch, lambda: os._exit(1))
        pool = WorkerPool(jobs=2, chunk=1, start_method="fork")
        assert pool.timeout is None
        batch = specs(3)
        outcomes, elapsed = within(20, lambda: pool.run(batch))
        assert elapsed < 10
        assert [o.spec for o in outcomes] == batch
        bad = outcomes[BAD_SEED - 1]
        assert bad.status == "failed"
        assert "BrokenProcessPool" in bad.error
        # Chunks the broken pool never finished fail too; none is lost.
        assert {o.status for o in outcomes} <= {"done", "failed"}
        assert multiprocessing.active_children() == []

    def test_hung_chunk_times_out_and_its_worker_is_terminated(
        self, monkeypatch
    ):
        install_executor(monkeypatch, lambda: time.sleep(60.0))
        pool = WorkerPool(
            jobs=2, timeout=1.0, chunk=1, grace=0.5, start_method="fork"
        )
        batch = specs(3)
        outcomes, elapsed = within(20, lambda: pool.run(batch))
        assert elapsed < 10
        assert [o.status for o in outcomes] == ["done", "timeout", "done"]
        assert [o.payload for o in outcomes] == [
            fake_result(batch[0]), None, fake_result(batch[2])
        ]
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("chunk", [1, 3])
    def test_run_specs_fails_dead_specs_and_reruns_only_them(
        self, monkeypatch, tmp_path, chunk
    ):
        monkeypatch.setattr(
            orchestrate_mod,
            "WorkerPool",
            functools.partial(WorkerPool, start_method="fork"),
        )
        cache = ResultCache(tmp_path, fingerprint="f" * 16)
        batch = specs(3)
        with monkeypatch.context() as patch:
            install_executor(patch, lambda: os._exit(70))
            report, _ = within(
                20, lambda: run_specs(batch, jobs=2, cache=cache, chunk=chunk)
            )
        assert report.executed == 3
        assert report.outcomes[batch[BAD_SEED - 1].spec_hash()].status == "failed"
        survivors = {h for h, o in report.outcomes.items() if o.ok}
        assert report.failed == 3 - len(survivors)

        # The executor behaves again: completed specs are cache hits and
        # only the failed ones execute.
        install_executor(monkeypatch, lambda: None)
        rerun, _ = within(20, lambda: run_specs(batch, jobs=2, cache=cache))
        assert rerun.failed == 0
        assert rerun.cache_hits == len(survivors)
        assert rerun.executed == 3 - len(survivors)
        assert [rerun.payload(s) for s in batch] == [fake_result(s) for s in batch]
