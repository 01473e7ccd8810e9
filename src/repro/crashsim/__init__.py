"""Systematic crash-state exploration for the secure-NVM designs.

The fault campaign (:mod:`repro.faults`) crashes at 16 hand-named
micro-steps; this package turns the recovery oracle into a *falsifier*:

1. :mod:`~repro.crashsim.trace` records the ordered stream of persist
   micro-ops a workload produces (WPQ writes, atomic batches, TCB
   register updates) through plain ``trace_hook`` callbacks;
2. :mod:`~repro.crashsim.enumerate` expands the trace into every
   durable state ADR semantics permit — prefixes, bounded in-flight
   window drops, batches all-or-nothing;
3. :mod:`~repro.crashsim.oracle` runs the design's own recovery on each
   state and checks the documented contract, including nested
   crash-during-recovery schedules;
4. :mod:`~repro.crashsim.reduce` partitions the states into
   recovery-relevant equivalence classes so one oracle run covers a
   whole class (and exhaustive coverage needs no sampling);
5. :mod:`~repro.crashsim.minimize` delta-debugs any violation to a
   minimal replayable reproducer;
6. :mod:`~repro.crashsim.explore` is the one crash driver: every crash
   experiment — enumerate shards, nested crash-during-recovery
   schedules and the fault campaign's named-site sweep — is a ``crash``
   cell fanned out through the run orchestrator (cached, resumable,
   parallel); :func:`run_campaign` runs the scheme x workload grid;
7. :mod:`~repro.crashsim.ace` enumerates every bounded k-write workload
   (address-overlap pattern x fence placement, canonical-form deduped)
   as campaign profiles — :func:`ace_campaign_config` is the grid
   ``repro crash ace --campaign`` runs.
"""

from repro.crashsim.ace import ace_campaign_config, enumerate_ace
from repro.crashsim.enumerate import (
    CrashEnumerator,
    CrashState,
    applied_ops,
    build_state,
)
from repro.crashsim.explore import (
    CrashCampaignConfig,
    campaign_problems,
    campaign_specs,
    record_trace,
    run_campaign,
)
from repro.crashsim.minimize import (
    Reproducer,
    from_state,
    minimize,
    rebuild_trace,
    replay,
)
from repro.crashsim.oracle import (
    ALLOWED_OUTCOMES,
    ClassOracle,
    CrashClass,
    RecoveryOracle,
    Verdict,
)
from repro.crashsim.reduce import (
    RECOVERY_VIEWS,
    CrashStateReducer,
    RecoveryView,
    ReducedEnumerator,
    recovery_view,
)
from repro.crashsim.trace import (
    PersistOp,
    PersistTrace,
    PersistTraceRecorder,
    TraceUnit,
)
from repro.crashsim.workload import record_workload

__all__ = [
    "ALLOWED_OUTCOMES",
    "CrashCampaignConfig",
    "ClassOracle",
    "CrashClass",
    "CrashEnumerator",
    "CrashState",
    "CrashStateReducer",
    "PersistOp",
    "PersistTrace",
    "PersistTraceRecorder",
    "RECOVERY_VIEWS",
    "RecoveryOracle",
    "RecoveryView",
    "ReducedEnumerator",
    "Reproducer",
    "TraceUnit",
    "Verdict",
    "ace_campaign_config",
    "applied_ops",
    "build_state",
    "campaign_problems",
    "campaign_specs",
    "enumerate_ace",
    "from_state",
    "minimize",
    "rebuild_trace",
    "record_trace",
    "record_workload",
    "recovery_view",
    "replay",
    "run_campaign",
]
