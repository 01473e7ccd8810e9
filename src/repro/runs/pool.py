"""Spawn-safe worker pool executing :class:`~repro.runs.spec.RunSpec`s.

Workers receive plain spec dicts (picklable under any start method),
rebuild the experiment from scratch — trace generation, scheme
construction, simulation — and return plain JSON-able payloads.  The
``spawn`` start context is used deliberately: it is the only method that
works everywhere, and it guarantees workers never inherit warmed-up
interpreter state from the parent, which is what makes the determinism
test (serial result == pooled result, byte for byte) meaningful.

Failure isolation is layered:

* an exception inside a spec is caught *in the worker* and comes back as
  a ``failed`` outcome carrying the traceback — the sweep continues;
* a worker process dying outright (or hanging) is bounded by the
  per-chunk deadline derived from ``timeout``; the affected specs come
  back as ``timeout`` outcomes and the pool is torn down afterwards
  rather than joined.

Dispatch is chunked (several specs per task) to amortize process startup
and IPC; ``chunk=1`` gives the finest isolation, larger chunks less
overhead.  With ``jobs <= 1`` everything runs inline in the parent —
same code path through :func:`execute_spec`, no processes at all.

When a chunk of several specs times out, only one of them is typically
at fault; by default the pool re-dispatches the whole chunk once at
``chunk=1`` in a fresh pool (one process per spec), so the innocent
chunk-mates complete and only the genuinely hung/crashed spec comes
back as ``timeout``.  Results additionally carry an integrity digest
taken in the worker before IPC; a payload that does not match its
digest in the parent is demoted to a retryable ``corrupt`` outcome
rather than silently trusted.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import time
import traceback
from dataclasses import dataclass, field

from repro.runs.spec import RunSpec

#: Grace seconds added on top of a chunk's nominal deadline.
_TIMEOUT_GRACE = 5.0


def payload_digest(payload) -> str:
    """Content digest of a result payload (canonical JSON, sha256)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


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
            digest = payload_digest(payload)
            out.append(
                {
                    "status": "done",
                    "payload": payload,
                    "digest": digest,
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
    status: str  # 'done' | 'failed' | 'timeout' | 'corrupt'
    payload: object = None
    error: str = ""
    duration: float = 0.0
    #: Where the payload came from: 'run' | 'cache' | 'journal'.
    source: str = "run"
    #: Whether a supervisor should re-run this spec: True for
    #: infrastructure failures (worker death, hang, torn IPC), False
    #: for errors raised inside the spec itself (deterministic).
    retryable: bool = False

    @property
    def ok(self) -> bool:
        return self.status == "done"


def _raw_outcome(spec: RunSpec, raw: dict) -> RunOutcome:
    """Build one outcome from a worker's raw result dict.

    A ``done`` payload whose content no longer matches the integrity
    digest taken in the worker is demoted to a retryable ``corrupt``
    outcome — torn IPC must never masquerade as a result.
    """
    status = raw["status"]
    payload = raw.get("payload")
    error = raw.get("error", "")
    retryable = bool(raw.get("retryable", False))
    if (
        status == "done"
        and "digest" in raw
        and payload_digest(payload) != raw["digest"]
    ):
        status = "corrupt"
        payload = None
        error = "result payload failed its integrity digest (torn in transit)"
        retryable = True
    return RunOutcome(
        spec,
        status,
        payload=payload,
        error=error,
        duration=raw.get("duration", 0.0),
        retryable=retryable,
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
    #: Re-dispatch a timed-out multi-spec chunk once at chunk=1 so one
    #: hung spec does not condemn its chunk-mates.
    redispatch: bool = True
    #: Worker recycling (``maxtasksperchild``); 1 gives every chunk a
    #: pristine process.
    max_tasks_per_child: int | None = None
    #: Outcomes of the last :meth:`run`, in submission order.
    last_outcomes: list[RunOutcome] = field(default_factory=list)
    #: Specs re-dispatched at chunk=1 after a chunk timeout (cumulative).
    redispatched: int = 0

    def run(self, specs: list[RunSpec], on_result=None) -> list[RunOutcome]:
        """Execute every spec; one outcome per spec, in submission order."""
        if not specs:
            self.last_outcomes = []
            return []
        if self.jobs <= 1:
            outcomes = self._run_inline(specs, on_result)
        else:
            outcomes = self._run_pooled(specs, on_result)
        self.last_outcomes = outcomes
        return outcomes

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
        size = self._chunk_size(len(specs))
        chunks = [specs[i:i + size] for i in range(0, len(specs), size)]
        context = multiprocessing.get_context(self.start_method)
        #: (submission index, outcome); sorted back before returning.
        indexed: list[tuple[int, RunOutcome]] = []
        #: (submission index, spec) of timed-out multi-spec chunk members
        #: held back for the chunk=1 re-dispatch (not yet reported).
        suspects: list[tuple[int, RunSpec]] = []
        timed_out = False
        pool = context.Pool(
            processes=min(self.jobs, len(chunks)),
            maxtasksperchild=self.max_tasks_per_child,
        )
        try:
            pending = [
                pool.apply_async(_run_chunk, ([s.to_dict() for s in chunk],))
                for chunk in chunks
            ]
            base = 0
            for chunk, handle in zip(chunks, pending):
                deadline = (
                    None
                    if self.timeout is None
                    else self.timeout * len(chunk) + self.grace
                )
                try:
                    raws = handle.get(deadline)
                except multiprocessing.TimeoutError:
                    timed_out = True
                    raws = [
                        {
                            "status": "timeout",
                            "payload": None,
                            "duration": deadline or 0.0,
                            "error": f"no result within {deadline:.0f}s "
                            "(worker hung or died)",
                            "retryable": True,
                        }
                    ] * len(chunk)
                except Exception:
                    # The worker process died before returning (e.g. a
                    # hard crash the in-worker try/except cannot catch).
                    raws = [
                        {
                            "status": "failed",
                            "payload": None,
                            "duration": 0.0,
                            "error": traceback.format_exc(),
                            "retryable": True,
                        }
                    ] * len(chunk)
                for offset, (spec, raw) in enumerate(zip(chunk, raws)):
                    if (
                        raw["status"] == "timeout"
                        and self.redispatch
                        and len(chunk) > 1
                    ):
                        suspects.append((base + offset, spec))
                        continue
                    outcome = _raw_outcome(spec, raw)
                    indexed.append((base + offset, outcome))
                    if on_result is not None:
                        on_result(outcome)
                base += len(chunk)
        finally:
            # A hung worker would block join() forever; terminate instead.
            if timed_out:
                pool.terminate()
            else:
                pool.close()
            pool.join()
        if suspects:
            # Isolate the offender: one fresh process per surviving spec.
            self.redispatched += len(suspects)
            retry_pool = WorkerPool(
                jobs=min(self.jobs, len(suspects)),
                timeout=self.timeout,
                chunk=1,
                start_method=self.start_method,
                grace=self.grace,
                redispatch=False,
                max_tasks_per_child=1,
            )
            retried = retry_pool.run([spec for _, spec in suspects])
            for (index, _spec), outcome in zip(suspects, retried):
                indexed.append((index, outcome))
                if on_result is not None:
                    on_result(outcome)
        return [outcome for _, outcome in sorted(indexed, key=lambda p: p[0])]
