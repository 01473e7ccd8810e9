"""Run orchestration: declarative specs, content-addressed caching and
parallel execution.

The subsystem turns every experiment in the repo — a Figure 5 cell, a
sensitivity point, a crash-campaign cell — into data (:class:`RunSpec`),
which makes three things cheap at once:

* **parallelism** — specs are picklable, so a spawn-safe worker pool
  (:class:`WorkerPool`) fans a sweep out across processes;
* **reuse** — a spec's content hash plus a fingerprint of the simulator
  sources addresses an on-disk result store (:class:`ResultCache`), so
  unchanged experiments are never executed twice, across processes and
  sessions;
* **resumability** — each completed spec lands in that cache as it
  finishes, through one atomic rename, so a rerun of an interrupted
  sweep finds every completed spec as a cache hit and executes only the
  rest.  The cache is the only durable store: no journal beside it.

:func:`run_specs` / :func:`orchestrate` chain the cache and the pool.
"""

from repro.runs.cache import ResultCache, code_fingerprint, default_cache_root
from repro.runs.orchestrate import RunReport, orchestrate, run_specs
from repro.runs.pool import RunOutcome, WorkerPool, execute_spec
from repro.runs.spec import (
    RunSpec,
    Sweep,
    canonical_json,
    config_from_dict,
    config_to_dict,
    simulation_spec,
)

__all__ = [
    "ResultCache",
    "RunOutcome",
    "RunReport",
    "RunSpec",
    "Sweep",
    "WorkerPool",
    "canonical_json",
    "code_fingerprint",
    "config_from_dict",
    "config_to_dict",
    "default_cache_root",
    "execute_spec",
    "orchestrate",
    "run_specs",
    "simulation_spec",
]
