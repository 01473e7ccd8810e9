"""The benchmark's workloads: what one operation is and how its result is checked.

Every workload is a fixed list of *operations* built from ``--seed``:

* the three simulation workloads run one SPEC surrogate trace through
  :func:`repro.sim.runner.run_simulation` once per Figure-5 design, so one
  operation is one design run (``cache`` and orchestrator are never
  involved, so nothing can be replayed from ``.repro-cache/``);
* ``crash-campaign`` runs a slice of the standing crash campaign, one
  ``run_campaign(..., jobs=1, cache=False)`` call per scheme x profile
  cell; one operation is one campaign shard.

Operations look their entry points up on the module at call time, so the
traced run (:mod:`hostbench.tracing`) sees the wrapped functions.

Each operation's result is reduced to digests of every simulated field
(:func:`digests`).  A result that differs from ``reference.json`` (the
seeds recorded there), from the same operation earlier in the run, or
that breaks an invariant that holds on every seed (:func:`problems`) is
a failed operation.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import Callable

#: The five designs of Figure 5, in the paper's bar order.
DESIGNS = ("no_cc", "sc", "osiris_plus", "ccnvm_no_ds", "ccnvm")


def digest(value) -> str:
    """Short content hash of a JSON-able value (key order is irrelevant)."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:20]


@dataclass(frozen=True)
class Op:
    """One timed call: *run* returns a result the workload can check."""

    name: str
    run: Callable[[], object]
    #: Operations this call counts as in ``attempted`` (campaign shards).
    units: int = 1


@dataclass(frozen=True)
class SimWorkload:
    """One surrogate trace on the five Figure-5 designs."""

    name: str
    profile: str
    length: int
    kind = "sim"
    #: Unit of ``work_per_s``: trace records simulated, summed over designs.
    work_unit = "refs"

    def prepare(self, seed: int) -> list[Op]:
        from repro.sim import runner
        from repro.workloads.spec import spec_trace

        trace = spec_trace(self.profile, self.length, seed)

        def op(design):
            return lambda: runner.run_simulation(design, trace)

        return [Op(design, op(design)) for design in DESIGNS]

    def work(self, result) -> int:
        return self.length

    def digests(self, op: Op, result) -> dict[str, str]:
        return {op.name: digest(dataclasses.asdict(result))}

    def problems(self, op: Op, result) -> list[str]:
        """Invariants of any correct run, whatever the seed."""
        found = []
        if result.scheme != op.name or result.workload != self.profile:
            found.append(f"ran {result.scheme}/{result.workload}")
        if result.nvm_writes != sum(result.writes_by_region.values()):
            found.append("nvm_writes != sum of writes_by_region")
        if result.cycles <= 0 or result.instructions < self.length:
            found.append("empty run")
        return found


@dataclass(frozen=True)
class CampaignWorkload:
    """A slice of the standing crash campaign: every scheme x *profiles*."""

    name: str
    profiles: tuple[str, ...]
    kind = "campaign"
    #: Unit of ``work_per_s``: crash states covered by the oracle.
    work_unit = "states"

    def cells(self) -> list[tuple[str, str]]:
        from repro.crashsim.oracle import ALLOWED_OUTCOMES

        return [(s, p) for s in sorted(ALLOWED_OUTCOMES) for p in self.profiles]

    def prepare(self, seed: int) -> list[Op]:
        from repro.crashsim import explore

        def op(cfg):
            return lambda: explore.run_campaign(cfg, jobs=1, cache=False)

        return [
            Op(
                f"{scheme}/{profile}",
                op(explore.CrashCampaignConfig(
                    schemes=(scheme,), profiles=(profile,), seed=seed
                )),
                units=explore.DEFAULT_SHARDS,
            )
            for scheme, profile in self.cells()
        ]

    def work(self, result) -> int:
        summary, _report = result
        return summary["totals"]["covered"]

    def digests(self, op: Op, result) -> dict[str, str]:
        """One digest per shard payload, plus the merged cell summary."""
        summary, report = result
        out = {op.name: digest(summary)}
        for outcome in report.outcomes.values():
            out[f"{op.name}/{outcome.spec.params['shard']}"] = digest(
                outcome.payload
            )
        return out

    def problems(self, op: Op, result) -> list[str]:
        summary, report = result
        totals = summary["totals"]
        found = [
            f"{key} = {totals[key]}"
            for key in ("violations", "class_mismatches", "sampling_fallbacks")
            if totals[key]
        ]
        if summary["failures"]:
            found.append(f"{len(summary['failures'])} failed shards")
        # Every shard must really have run: no cache or journal replay.
        if report.executed != op.units or report.cache_hits or report.journal_hits:
            found.append(
                f"executed {report.executed} of {op.units} shards "
                f"({report.cache_hits} cache, {report.journal_hits} journal hits)"
            )
        if any(o.source != "run" for o in report.outcomes.values()):
            found.append("a shard was not executed")
        return found


#: Why each workload is here is recorded in BENCHMARK.json; which layer
#: metric each should move is in README.md.  Lengths keep one design run
#: near a second, so a 20 s run samples every operation several times;
#: namd runs four times longer, so its hot set is resident after the cold
#: misses.  The campaign uses only the hot-set profile: its crash-state
#: classes do not depend on the seed, while the lbm profile's oracle
#: calls vary by up to 30% from seed to seed.
WORKLOADS = {
    w.name: w
    for w in (
        SimWorkload("lbm-stream", "lbm", 4000),
        SimWorkload("milc-scatter", "milc", 3000),
        SimWorkload("namd-resident", "namd", 16000),
        CampaignWorkload("crash-campaign", ("hotset",)),
    )
}
