"""Spawn-safe worker pool executing :class:`~repro.runs.spec.RunSpec`s.

Workers receive plain spec dicts (picklable under any start method),
rebuild the experiment from scratch — trace generation, scheme
construction, simulation — and return plain JSON-able payloads.  The
``spawn`` start context is used deliberately: it is the only method that
works everywhere, and it guarantees workers never inherit warmed-up
interpreter state from the parent, which is what makes the determinism
test (serial result == pooled result, byte for byte) meaningful.

Failure isolation is per spec and per chunk:

* an exception inside a spec is caught *in the worker* and comes back as
  a ``failed`` outcome carrying the traceback — the sweep continues;
* a worker process dying outright breaks the pool: its chunk and every
  chunk not yet finished come back as ``failed`` outcomes at once
  (``BrokenProcessPool``), so a death never hangs the sweep;
* a hung worker is bounded by the per-chunk deadline derived from
  ``timeout``; its chunk comes back as ``timeout`` outcomes and the
  pool's workers are terminated afterwards rather than joined.

Nothing is retried here: a failed spec is not cached, so the next run of
the sweep executes it again while every completed spec is a cache hit.

Dispatch is chunked (several specs per task) to amortize process startup
and IPC; ``chunk=1`` gives the finest isolation, larger chunks less
overhead.  With ``jobs <= 1`` everything runs inline in the parent —
same code path through :func:`execute_spec`, no processes at all.
"""

from __future__ import annotations

import multiprocessing
import time
import traceback
from dataclasses import dataclass

from repro.runs.spec import RunSpec

#: Grace seconds added on top of a chunk's nominal deadline.
_TIMEOUT_GRACE = 5.0


# ---------------------------------------------------------------------------
# what a worker actually runs (module level: picklable under spawn)
# ---------------------------------------------------------------------------


def _execute_simulation(spec: RunSpec):
    from repro.analysis.export import result_to_dict
    from repro.sim.runner import run_simulation
    from repro.workloads.spec import spec_trace

    obs_params = spec.params.get("obs")
    session = None
    if obs_params:
        from repro.obs import DEFAULT_CAPACITY, ObsSession

        session = ObsSession(
            capacity=obs_params.get("capacity", DEFAULT_CAPACITY),
            sample_every=obs_params.get("sample_every", 0),
        )

    trace = spec_trace(spec.workload, spec.length, spec.seed)
    result = run_simulation(
        spec.scheme,
        trace,
        spec.system_config(),
        data_capacity=spec.params.get("data_capacity"),
        seed=spec.scheme_seed,
        warmup_fraction=spec.warmup,
        obs=session,
    )
    payload = result_to_dict(result)
    if session is not None:
        # Folded worker-side: the event stream is large and per-process,
        # the timeline summary is small and JSON-able — only the latter
        # travels back (and into the cache).  Consumers must pop "obs"
        # before result_from_dict.
        payload["obs"] = {"timeline": session.timeline(result).as_dict()}
        if obs_params.get("sample_every"):
            from repro.obs.export import series_to_json

            payload["obs"]["series"] = series_to_json(
                session.samples(), every=obs_params["sample_every"]
            )
    return payload


def _execute_crash(spec: RunSpec):
    from repro.crashsim.explore import execute_cell

    return execute_cell(spec)


_EXECUTORS = {
    "simulation": _execute_simulation,
    "crash": _execute_crash,
}


def execute_spec(spec_dict: dict):
    """Execute one spec dict and return its JSON-able result payload."""
    spec = RunSpec.from_dict(spec_dict)
    return _EXECUTORS[spec.kind](spec)


def _run_chunk(spec_dicts: list[dict]) -> list[dict]:
    """Worker task: run a chunk of specs, isolating per-spec failures."""
    out = []
    for spec_dict in spec_dicts:
        started = time.perf_counter()
        try:
            payload = execute_spec(spec_dict)
            out.append(
                {
                    "status": "done",
                    "payload": payload,
                    "duration": time.perf_counter() - started,
                }
            )
        except Exception:
            out.append(
                {
                    "status": "failed",
                    "payload": None,
                    "duration": time.perf_counter() - started,
                    "error": traceback.format_exc(),
                }
            )
    return out


# ---------------------------------------------------------------------------
# outcomes and the pool
# ---------------------------------------------------------------------------


@dataclass
class RunOutcome:
    """One spec's fate after orchestration."""

    spec: RunSpec
    status: str  # 'done' | 'failed' | 'timeout'
    payload: object = None
    error: str = ""
    duration: float = 0.0
    #: Where the payload came from: 'run' | 'cache'.
    source: str = "run"

    @property
    def ok(self) -> bool:
        return self.status == "done"


def _raw_outcome(spec: RunSpec, raw: dict) -> RunOutcome:
    """Build one outcome from a worker's raw result dict."""
    return RunOutcome(
        spec,
        raw["status"],
        payload=raw.get("payload"),
        error=raw.get("error", ""),
        duration=raw.get("duration", 0.0),
    )


@dataclass
class WorkerPool:
    """Chunked, timeout-bounded executor over a spawn process pool."""

    jobs: int = 1
    #: Per-spec wall-clock budget in seconds (None = unbounded).
    timeout: float | None = None
    #: Specs per worker task (None = auto: ~4 tasks per worker).
    chunk: int | None = None
    start_method: str = "spawn"
    #: Grace seconds on top of each chunk's nominal deadline.
    grace: float = _TIMEOUT_GRACE

    def run(self, specs: list[RunSpec], on_result=None) -> list[RunOutcome]:
        """Execute every spec; one outcome per spec, in submission order."""
        if not specs:
            return []
        if self.jobs <= 1:
            return self._run_inline(specs, on_result)
        return self._run_pooled(specs, on_result)

    def _run_inline(self, specs, on_result) -> list[RunOutcome]:
        outcomes = []
        for spec in specs:
            raw = _run_chunk([spec.to_dict()])[0]
            outcome = _raw_outcome(spec, raw)
            outcomes.append(outcome)
            if on_result is not None:
                on_result(outcome)
        return outcomes

    def _chunk_size(self, total: int) -> int:
        if self.chunk is not None:
            return max(1, self.chunk)
        return max(1, -(-total // (self.jobs * 4)))

    def _run_pooled(self, specs, on_result) -> list[RunOutcome]:
        # Imported here, so inline runs (jobs <= 1) never load it.
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures import TimeoutError as FutureTimeout

        size = self._chunk_size(len(specs))
        chunks = [specs[i:i + size] for i in range(0, len(specs), size)]
        outcomes: list[RunOutcome] = []
        timed_out = False
        executor = ProcessPoolExecutor(
            max_workers=min(self.jobs, len(chunks)),
            mp_context=multiprocessing.get_context(self.start_method),
        )
        try:
            pending = [
                executor.submit(_run_chunk, [s.to_dict() for s in chunk])
                for chunk in chunks
            ]
            for chunk, future in zip(chunks, pending):
                deadline = (
                    None
                    if self.timeout is None
                    else self.timeout * len(chunk) + self.grace
                )
                try:
                    raws = future.result(deadline)
                except FutureTimeout:
                    timed_out = True
                    raws = [
                        {
                            "status": "timeout",
                            "duration": deadline,
                            "error": f"no result within {deadline:.0f}s "
                            "(worker hung)",
                        }
                    ] * len(chunk)
                except Exception:
                    # A worker process died (BrokenProcessPool): a hard
                    # crash the in-worker try/except cannot catch.
                    raws = [
                        {"status": "failed", "error": traceback.format_exc()}
                    ] * len(chunk)
                for spec, raw in zip(chunk, raws):
                    outcome = _raw_outcome(spec, raw)
                    outcomes.append(outcome)
                    if on_result is not None:
                        on_result(outcome)
        finally:
            # A hung worker would block shutdown forever; terminate it.
            # The executor then marks itself broken and reaps every worker.
            if timed_out:
                for process in list(executor._processes.values()):
                    process.terminate()
            executor.shutdown(wait=True, cancel_futures=True)
        return outcomes
