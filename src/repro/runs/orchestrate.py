"""The orchestrator: result cache, then the worker pool.

:func:`run_specs` is the single entry point every experiment driver
(Figure 5/6, the fault campaign, the crash campaigns) submits through.
For each requested spec it consults, in order:

1. the content-addressed **result cache** (same spec hash + same code
   fingerprint ⇒ the simulation is provably redundant);
2. the **worker pool**, which actually executes the remainder.

Fresh results are cached as they arrive, each through one atomic
rename, so an interrupt at any point loses at most the in-flight specs:
the rerun finds every completed spec as a cache hit.  Deduplication
happens up front: submitting the same spec twice (e.g. the shared
``no_cc`` baseline of two figures) costs one execution.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.runs.cache import ResultCache, code_fingerprint
from repro.runs.pool import RunOutcome, WorkerPool
from repro.runs.spec import RunSpec


@dataclass
class RunReport:
    """Accounting for one orchestrated batch."""

    #: spec_hash -> outcome, covering every submitted spec.
    outcomes: dict[str, RunOutcome] = field(default_factory=dict)
    executed: int = 0
    cache_hits: int = 0
    failed: int = 0
    #: Cache puts that failed; the result is still returned, and the
    #: next run of the sweep executes that spec again.
    cache_put_errors: int = 0
    wall_seconds: float = 0.0

    @property
    def journal_hits(self) -> int:
        """Always 0; still read by ``hostbench/workloads.py``."""
        return 0

    def payload(self, spec: RunSpec):
        """The payload of one submitted spec; raises if that spec failed."""
        outcome = self.outcomes[spec.spec_hash()]
        if not outcome.ok:
            raise RuntimeError(
                f"run {spec.describe()} {outcome.status}: {outcome.error}"
            )
        return outcome.payload

    def errors(self) -> list[str]:
        return [
            f"{o.spec.describe()}: {o.status} ({o.error.strip().splitlines()[-1]})"
            if o.error
            else f"{o.spec.describe()}: {o.status}"
            for o in self.outcomes.values()
            if not o.ok
        ]

    def raise_on_failure(self) -> None:
        """Fail loudly when any spec did not complete."""
        problems = self.errors()
        if problems:
            raise RuntimeError(
                f"{len(problems)} of {len(self.outcomes)} runs failed:\n  "
                + "\n  ".join(problems)
            )

    def summary(self) -> str:
        return (
            f"{len(self.outcomes)} specs: {self.executed} executed, "
            f"{self.cache_hits} from cache, "
            f"{self.failed} failed in {self.wall_seconds:.2f}s"
        )


def run_specs(
    specs: list[RunSpec],
    jobs: int = 1,
    cache: ResultCache | None = None,
    timeout: float | None = None,
    chunk: int | None = None,
    progress=None,
) -> RunReport:
    """Resolve every spec through the cache, then the worker pool.

    *progress*, when given, is called as ``progress(outcome, done, total)``
    for every resolved spec (cache hits included).

    A failed cache put is counted in ``cache_put_errors`` rather than
    fatal: the result is still returned, it is only not durable.
    """
    started = time.perf_counter()
    report = RunReport()

    ordered: list[RunSpec] = []
    seen: set[str] = set()
    for spec in specs:
        if spec.spec_hash() not in seen:
            seen.add(spec.spec_hash())
            ordered.append(spec)

    total = len(ordered)

    def emit(outcome: RunOutcome) -> None:
        report.outcomes[outcome.spec.spec_hash()] = outcome
        if not outcome.ok:
            report.failed += 1
        if progress is not None:
            progress(outcome, len(report.outcomes), total)

    pending: list[RunSpec] = []
    for spec in ordered:
        if cache is not None:
            payload = cache.get(spec)
            if payload is not None:
                report.cache_hits += 1
                emit(RunOutcome(spec, "done", payload=payload, source="cache"))
                continue
        pending.append(spec)

    def finalize(outcome: RunOutcome) -> None:
        report.executed += 1
        if cache is not None and outcome.ok:
            try:
                cache.put(outcome.spec, outcome.payload)
            except OSError:
                report.cache_put_errors += 1
        emit(outcome)

    WorkerPool(jobs=jobs, timeout=timeout, chunk=chunk).run(
        pending, on_result=finalize
    )

    if cache is not None:
        cache.flush_stats()
    report.wall_seconds = time.perf_counter() - started
    return report


def orchestrate(
    specs: list[RunSpec],
    jobs: int = 1,
    use_cache: bool = True,
    cache_root=None,
    timeout: float | None = None,
    progress=None,
) -> RunReport:
    """The common CLI/driver wrapper around :func:`run_specs`.

    Builds the default cache (unless disabled) and runs the batch.  With
    the cache disabled nothing is durable, so an interrupted
    ``--no-cache`` sweep restarts from scratch — by design:
    ``--no-cache`` promises pristine re-execution.
    """
    cache = (
        ResultCache(cache_root, fingerprint=code_fingerprint())
        if use_cache
        else None
    )
    return run_specs(
        specs, jobs=jobs, cache=cache, timeout=timeout, progress=progress
    )
