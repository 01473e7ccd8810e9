"""The crash driver: every crash experiment runs as a ``crash`` cell.

A crash campaign is embarrassingly parallel but far too big for one
cacheable unit, so it is cut into **cells**, each a
:class:`~repro.runs.spec.RunSpec` of the ``crash`` kind dispatched by
:func:`execute_cell` on its ``mode``:

* ``enumerate`` cells shard one (scheme, workload) trace's crash points
  by residue class (``k % shards == shard``).  Every worker regenerates
  the identical deterministic trace — specs stay tiny, exactly like the
  simulation specs that ship workload recipes instead of traces —
  expands its own points through the equivalence-class reducer
  (exhaustive drop-sets, one oracle run per class), and returns
  distinct image hashes, an outcome histogram, the class table and
  (minimized) violations;
* ``nested`` cells take the full-trace state and crash *recovery
  itself* at one scheduled recovery site (depth 1) or two in sequence
  (depth 2), exercising the restartable ``recovery_pending`` path;
* ``sites`` cells run one scheme's named-site sweep of
  :mod:`repro.faults.campaign` (discover pass, armed injections and
  media phase, all in one worker).

Because cells run through :func:`repro.runs.orchestrate`, campaigns
are content-cached (a warm re-run executes nothing), resumable and
parallel.  The merged summary is deliberately free of timings and
orchestration counts, so a serial run and a ``--jobs 2`` run of the
same campaign produce byte-identical JSON.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.faults.plan import RECOVERY_SITES

#: Smoke-budget defaults: small enough for CI, large enough that every
#: scheme clears over 200 distinct states (measured floor at 96 steps:
#: 255, for the schemes whose epochs dedupe most aggressively).
DEFAULT_STEPS = 96
DEFAULT_SHARDS = 4
#: Violations minimized per cell; the rest ship unminimized (a cell
#: drowning in violations is already actionable from the first few).
MAX_MINIMIZE = 3


def record_trace(spec):
    """Deterministically rebuild the persist trace one crash cell judges."""
    from repro.core.schemes import create_scheme
    from repro.crashsim.workload import record_workload

    p = spec.params
    scheme = create_scheme(
        spec.scheme, data_capacity=p["data_capacity"], seed=spec.seed
    )
    return record_workload(
        scheme, p["steps"], spec.seed, profile=p.get("profile", "hotset")
    )


def _violation_entry(state, verdict, reproducer=None) -> dict:
    entry = {
        "state": state.describe(),
        "k": state.k,
        "dropped": list(state.dropped),
        "torn": state.torn,
        "verdict": verdict.to_dict(),
    }
    if reproducer is not None:
        entry["reproducer"] = reproducer.to_dict()
    return entry


def _minimize_violation(spec, trace, oracle, state, verdict):
    from repro.crashsim.enumerate import applied_ops, build_state
    from repro.crashsim.minimize import from_state, minimize

    ops = applied_ops(trace, state)
    minimal = minimize(trace, ops, oracle, verdict.signature())
    final = oracle.evaluate(build_state(trace, minimal))
    return from_state(
        trace,
        minimal,
        final,
        description=(
            f"{spec.scheme} crash state {state.describe()} minimized "
            f"from {len(ops)} to {len(minimal)} persist micro-ops"
        ),
        data_capacity=spec.params["data_capacity"],
    )


def run_enumerate_cell(spec) -> dict:
    """Execute one ``enumerate`` shard; returns a JSON-able payload.

    The shard routes every state through the equivalence-class
    machinery: drop-sets are expanded exhaustively (never sampled), one
    oracle run covers each class, violating classes fall back to
    per-witness evaluation and pinned-drop variants of violating states
    are materialized — violation findings stay byte-identical to a
    brute-force run's, verdict for verdict.
    """
    from repro.crashsim.oracle import ClassOracle, RecoveryOracle
    from repro.crashsim.reduce import (
        CrashStateReducer,
        ReducedEnumerator,
        materialize,
        pin_variants,
    )

    p = spec.params
    shard, shards = p["shard"], p["shards"]
    trace = record_trace(spec)
    oracle = RecoveryOracle(
        spec.scheme, data_capacity=p["data_capacity"], seed=spec.seed
    )
    reducer = CrashStateReducer(trace, spec.scheme, p["data_capacity"], spec.seed)
    enumerator = ReducedEnumerator(
        trace,
        reducer,
        window=p["window"],
        seed=spec.seed,
        torn_batches=p.get("torn", False),
    )
    class_oracle = ClassOracle(oracle, reducer, spot=p["spot"])
    hashes: set[str] = set()
    outcomes: Counter[str] = Counter()
    violations: list[dict] = []
    evaluated = 0
    minimized = 0
    for state in enumerator.states(points=lambda k: k % shards == shard):
        evaluated += 1
        hashes.add(state.image_hash())
        weight = 1 if state.torn is not None else enumerator.weight(state.k)
        verdict, _role = class_oracle.submit(state, weight=weight)
        if verdict.ok:
            outcomes[verdict.outcome] += weight
            continue
        outcomes[verdict.outcome] += 1
        reproducer = None
        if minimized < MAX_MINIMIZE:
            minimized += 1
            reproducer = _minimize_violation(spec, trace, oracle, state, verdict)
        violations.append(_violation_entry(state, verdict, reproducer))
        if state.torn is None:
            # A violating state forfeits its pin weight: every pinned
            # variant it stood for is materialized and judged for real.
            for vdrop in pin_variants(state, enumerator.pins.get(state.k, ())):
                vstate = materialize(trace, state.k, vdrop)
                hashes.add(vstate.image_hash())
                vverdict = class_oracle.evaluate_raw(vstate)
                outcomes[vverdict.outcome] += 1
                if not vverdict.ok:
                    violations.append(_violation_entry(vstate, vverdict))
    return {
        "mode": "enumerate",
        "scheme": spec.scheme,
        "profile": p.get("profile", "hotset"),
        "shard": shard,
        "shards": shards,
        "trace_units": len(trace.units),
        "trace_ops": trace.op_count,
        "evaluated": evaluated,
        "states": sorted(hashes),
        "outcomes": dict(sorted(outcomes.items())),
        "violations": violations,
        "sampling": dict(enumerator.sample_stats),
        "reduce": True,
        "covered": sum(outcomes.values()),
        "oracle_calls": class_oracle.calls,
        "classes": class_oracle.class_table(),
        "class_mismatches": list(class_oracle.mismatches),
    }


def _nested_schedule(site: str, depth: int) -> list[tuple[str, int]]:
    """Depth-1 crashes once at *site*; depth-2 adds a second crash at
    the next recovery site (cyclic), landing inside the *restarted* run."""
    sites = sorted(RECOVERY_SITES)
    schedule = [(site, 1)]
    if depth >= 2:
        schedule.append((sites[(sites.index(site) + 1) % len(sites)], 1))
    return schedule


def run_nested_cell(spec) -> dict:
    """Execute one nested crash-during-recovery schedule."""
    from repro.crashsim.enumerate import applied_ops, build_state
    from repro.crashsim.oracle import RecoveryOracle

    site = spec.params["site"]
    depth = spec.params["depth"]
    trace = record_trace(spec)
    state = build_state(trace, applied_ops(trace, (len(trace.units), (), None)))
    oracle = RecoveryOracle(
        spec.scheme, data_capacity=spec.params["data_capacity"], seed=spec.seed
    )
    schedule = _nested_schedule(site, depth)
    verdict = oracle.evaluate(state, schedule)
    return {
        "mode": "nested",
        "scheme": spec.scheme,
        "site": site,
        "depth": depth,
        "schedule": [[s, h] for s, h in schedule],
        "verdict": verdict.to_dict(),
    }


def execute_cell(spec) -> dict:
    """Worker entry point for ``crash``-kind specs (see ``runs.pool``)."""
    mode = spec.params.get("mode")
    if mode == "enumerate":
        return run_enumerate_cell(spec)
    if mode == "nested":
        return run_nested_cell(spec)
    if mode == "sites":
        from repro.faults.campaign import run_sites_cell

        return run_sites_cell(spec)
    raise ValueError(f"unknown crash cell mode {mode!r}")


# ---------------------------------------------------------------------------
# The campaign: scheme x workload exhaustive exploration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CrashCampaignConfig:
    """One exhaustive crash campaign: every scheme x every workload.

    Each grid cell runs the *reduced* enumerator (exhaustive drop-sets,
    class-representative verification), sharded per crash point through
    the orchestrator — so a campaign is content-cached by spec hash,
    resumable from that cache, and one failing shard never poisons the
    rest of the grid.
    """

    schemes: tuple[str, ...] = ()
    #: Workload profiles; empty = the hot set plus every Figure-5
    #: surrogate (see :func:`repro.crashsim.workload.workload_profiles`).
    profiles: tuple[str, ...] = ()
    steps: int = DEFAULT_STEPS
    window: int = 4
    seed: int = 7
    shards: int = DEFAULT_SHARDS
    data_capacity: int = 1 << 16
    #: Passing-class witnesses spot-checked against the representative.
    spot: int = 1
    #: Crash-during-recovery schedules per recovery site and grid cell:
    #: 0 = none, 1 = one crash inside recovery, 2 = also a second crash
    #: inside the restarted recovery.
    nested_depth: int = 0
    #: Emit partially-applied batch states (protocol-violating; used to
    #: demonstrate the oracle catches ordering bugs).
    torn_batches: bool = False

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError(f"shards must be at least 1, got {self.shards}")
        if not 0 <= self.nested_depth <= 2:
            raise ValueError(
                f"nested_depth must be 0, 1 or 2, got {self.nested_depth}"
            )
        if self.window < 0:
            raise ValueError(f"window must be >= 0, got {self.window}")
        if self.spot < 0:
            raise ValueError(f"spot must be >= 0, got {self.spot}")
        from repro.crashsim.ace import is_ace_profile, parse_profile
        from repro.crashsim.workload import workload_profiles

        known = workload_profiles()
        for profile in self.profiles:
            if is_ace_profile(profile):
                parse_profile(profile)
            elif profile not in known:
                raise ValueError(
                    f"unknown profile {profile!r}; choose from {known} or "
                    "ace-k<k>-<rgs>-<fences>"
                )

    def resolved_schemes(self) -> tuple[str, ...]:
        from repro.crashsim.oracle import ALLOWED_OUTCOMES

        return self.schemes or tuple(sorted(ALLOWED_OUTCOMES))

    def resolved_profiles(self) -> tuple[str, ...]:
        from repro.crashsim.workload import workload_profiles

        return self.profiles or tuple(workload_profiles())


def campaign_specs(cfg: CrashCampaignConfig) -> list:
    """The campaign's cell decomposition: per grid cell, its enumerate
    shards, then its nested schedules (``nested_depth`` per site)."""
    from repro.runs import RunSpec

    specs = []
    for scheme in cfg.resolved_schemes():
        for profile in cfg.resolved_profiles():
            base = {"steps": cfg.steps, "data_capacity": cfg.data_capacity}
            if profile != "hotset":
                base["profile"] = profile
            for shard in range(cfg.shards):
                params = dict(
                    base,
                    mode="enumerate",
                    window=cfg.window,
                    shard=shard,
                    shards=cfg.shards,
                    spot=cfg.spot,
                )
                if cfg.torn_batches:
                    params["torn"] = True
                specs.append(
                    RunSpec(kind="crash", scheme=scheme, seed=cfg.seed, params=params)
                )
            for site in sorted(RECOVERY_SITES):
                for depth in range(1, cfg.nested_depth + 1):
                    params = dict(base, mode="nested", site=site, depth=depth)
                    specs.append(
                        RunSpec(kind="crash", scheme=scheme, seed=cfg.seed, params=params)
                    )
    return specs


def _merge_class_tables(tables: list[list[dict]]) -> tuple[list[dict], list[dict]]:
    """Merge per-shard class tables by fingerprint.

    Witness/weight/evaluation counts sum; the representative with the
    smallest ``(k, describe)`` wins, deterministically.  Shards that
    disagree on a fingerprint's outcome expose a reducer bug and are
    returned as mismatches rather than silently merged.
    """
    merged: dict[str, dict] = {}
    mismatches: list[dict] = []
    for table in tables:
        for record in table:
            fp = record["fingerprint"]
            seen = merged.get(fp)
            if seen is None:
                merged[fp] = dict(record)
                continue
            if (record["outcome"], record["ok"]) != (seen["outcome"], seen["ok"]):
                mismatches.append(
                    {
                        "fingerprint": fp,
                        "outcomes": sorted({record["outcome"], seen["outcome"]}),
                    }
                )
            for key in ("witnesses", "weight", "evaluated", "spot_checked"):
                seen[key] += record[key]
            if (record["k"], record["representative"]) < (
                seen["k"],
                seen["representative"],
            ):
                seen["k"] = record["k"]
                seen["representative"] = record["representative"]
    table = [merged[fp] for fp in sorted(merged)]
    return table, mismatches


def _new_cell() -> dict:
    return {
        "trace_units": 0,
        "evaluated": 0,
        "covered": 0,
        "oracle_calls": 0,
        "distinct_states": set(),
        "outcomes": Counter(),
        "violations": [],
        "class_tables": [],
        "mismatches": [],
        "sampling_points": 0,
        "nested": {},
    }


def _failure_key(failure: dict) -> tuple:
    return (
        failure["scheme"],
        failure["profile"],
        failure.get("shard", -1),
        failure.get("site", ""),
        failure.get("depth", 0),
    )


def run_campaign(
    cfg: CrashCampaignConfig | None = None,
    jobs: int = 1,
    cache: bool = True,
    cache_root=None,
    timeout: float | None = None,
    progress=None,
):
    """Run one campaign; returns ``(summary, RunReport)``.

    The summary is pure content (no timings, no cache counters): a
    serial run, a pooled run and a warm-cache run of the same campaign
    summarize byte-identically.  Orchestration accounting lives in the
    returned :class:`~repro.runs.orchestrate.RunReport`.  Failed cells
    are isolated: they are reported under ``failures`` while every
    healthy cell still merges.
    """
    from repro.runs import orchestrate

    cfg = cfg or CrashCampaignConfig()
    specs = campaign_specs(cfg)
    report = orchestrate(
        specs,
        jobs=jobs,
        use_cache=cache,
        cache_root=cache_root,
        timeout=timeout,
        progress=progress,
    )

    grid: dict[str, dict[str, dict]] = {}
    failures: list[dict] = []
    for spec in specs:
        p = spec.params
        profile = p.get("profile", "hotset")
        outcome = report.outcomes[spec.spec_hash()]
        if not outcome.ok:
            where = (
                {"shard": p["shard"]}
                if p["mode"] == "enumerate"
                else {"site": p["site"], "depth": p["depth"]}
            )
            failures.append(
                {
                    "scheme": spec.scheme,
                    "profile": profile,
                    **where,
                    "error": outcome.error or outcome.status,
                }
            )
            continue
        payload = outcome.payload
        cell = grid.setdefault(spec.scheme, {}).setdefault(profile, _new_cell())
        if payload["mode"] == "nested":
            verdict = payload["verdict"]
            cell["nested"].setdefault(payload["site"], []).append(
                {
                    "depth": payload["depth"],
                    "schedule": payload["schedule"],
                    "outcome": verdict["outcome"],
                    "fired_sites": verdict["fired_sites"],
                    "problems": verdict["problems"],
                }
            )
            continue
        cell["trace_units"] = payload["trace_units"]
        cell["evaluated"] += payload["evaluated"]
        cell["covered"] += payload["covered"]
        cell["oracle_calls"] += payload["oracle_calls"]
        cell["distinct_states"].update(payload["states"])
        cell["outcomes"].update(payload["outcomes"])
        cell["violations"].extend(payload["violations"])
        cell["class_tables"].append(payload["classes"])
        cell["mismatches"].extend(payload["class_mismatches"])
        cell["sampling_points"] += payload["sampling"]["points"]

    config = {
        "schemes": list(cfg.resolved_schemes()),
        "profiles": list(cfg.resolved_profiles()),
        "steps": cfg.steps,
        "window": cfg.window,
        "seed": cfg.seed,
        "shards": cfg.shards,
        "data_capacity": cfg.data_capacity,
        "spot": cfg.spot,
    }
    # Non-default knobs only, so a default campaign's document is unchanged.
    if cfg.nested_depth:
        config["nested_depth"] = cfg.nested_depth
    if cfg.torn_batches:
        config["torn_batches"] = True
    summary = {
        "config": config,
        "grid": {},
        "failures": sorted(failures, key=_failure_key),
    }
    totals = {
        "cells": 0,
        "evaluated": 0,
        "covered": 0,
        "oracle_calls": 0,
        "classes": 0,
        "violations": 0,
        "class_mismatches": 0,
        "sampling_fallbacks": 0,
    }
    if cfg.nested_depth:
        totals["nested_runs"] = totals["nested_problems"] = 0
    for scheme in sorted(grid):
        for profile in sorted(grid[scheme]):
            cell = grid[scheme][profile]
            table, merge_mismatches = _merge_class_tables(cell["class_tables"])
            mismatches = cell["mismatches"] + merge_mismatches
            violations = sorted(
                cell["violations"], key=lambda v: (v["k"], v["state"])
            )
            totals["cells"] += 1
            totals["evaluated"] += cell["evaluated"]
            totals["covered"] += cell["covered"]
            totals["oracle_calls"] += cell["oracle_calls"]
            totals["classes"] += len(table)
            totals["violations"] += len(violations)
            totals["class_mismatches"] += len(mismatches)
            totals["sampling_fallbacks"] += cell["sampling_points"]
            entry = summary["grid"].setdefault(scheme, {})[profile] = {
                "trace_units": cell["trace_units"],
                "states_materialized": cell["evaluated"],
                "states_covered": cell["covered"],
                "distinct_states": len(cell["distinct_states"]),
                "oracle_calls": cell["oracle_calls"],
                "classes": len(table),
                "reduction_ratio": (
                    round(cell["covered"] / cell["oracle_calls"], 3)
                    if cell["oracle_calls"]
                    else None
                ),
                "outcomes": dict(sorted(cell["outcomes"].items())),
                "violations": violations,
                "class_table": table,
                "class_mismatches": mismatches,
                "sampling_fallbacks": cell["sampling_points"],
            }
            if cfg.nested_depth:
                nested = {
                    site: sorted(runs, key=lambda r: r["depth"])
                    for site, runs in sorted(cell["nested"].items())
                }
                runs = [r for site_runs in nested.values() for r in site_runs]
                bad = sum(1 for r in runs if r["problems"])
                entry["nested"] = nested
                entry["nested_ok"] = not bad
                totals["nested_runs"] += len(runs)
                totals["nested_problems"] += bad
    totals["reduction_ratio"] = (
        round(totals["covered"] / totals["oracle_calls"], 3)
        if totals["oracle_calls"]
        else None
    )
    summary["totals"] = totals
    return summary, report


def campaign_problems(summary: dict, min_classes: int = 0) -> list[str]:
    """Why a campaign summary fails its gate; empty when it passes.

    The bar: at least one grid cell ran, no violation, class mismatch,
    sampling fallback (coverage would no longer be exhaustive), failed
    nested schedule or failed cell, and at least *min_classes* classes.
    """
    totals = summary["totals"]
    problems = []
    if not totals["cells"]:
        problems.append("no grid cells ran")
    if totals["violations"]:
        problems.append(f"{totals['violations']} violation(s)")
    if totals["class_mismatches"]:
        problems.append(f"{totals['class_mismatches']} class mismatch(es)")
    if totals["sampling_fallbacks"]:
        problems.append(
            f"{totals['sampling_fallbacks']} sampling fallback(s) "
            "(coverage not exhaustive)"
        )
    if totals.get("nested_problems"):
        problems.append(f"{totals['nested_problems']} failed nested schedule(s)")
    if summary["failures"]:
        problems.append(f"{len(summary['failures'])} failed cell(s)")
    if min_classes and totals["classes"] < min_classes:
        problems.append(
            f"only {totals['classes']} classes (< --min-classes {min_classes})"
        )
    return problems
