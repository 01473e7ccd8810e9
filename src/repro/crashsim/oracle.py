"""The invariant oracle: recovery must hold its contract on every state.

This module is the one home of the post-crash recovery contract: the
outcome taxonomy (:func:`classify`) and the invariant checks
(:func:`check_recovered`, :func:`check_data`, :func:`check_probe`).  Both
crash drivers judge recovery through them — :class:`RecoveryOracle`
over enumerated crash states, and the named-site sweep of
:mod:`repro.faults.campaign`.

For each crash state the oracle rewinds one long-lived scheme instance
(crash → restore NVM image → restore TCB registers), runs the design's
own :class:`~repro.core.recovery.RecoveryManager`, classifies the
outcome, and checks the scheme-aware invariants:

* the outcome lies in the design's *allowed* set — cc-NVM variants must
  come back ``RECOVERED`` from every reachable state (the paper's
  claim); SC / Osiris Plus may honestly ``FALSE_ALARM`` (their
  freshness check cannot tell a crash window from a replay); w/o CC may
  ``DEGRADED`` (no staleness bound) — anything else is a violation;
* both TCB roots agree and the rebuilt tree matches them;
* ``recovery_pending`` is cleared — recovery is restartable, never
  stuck;
* retry totals stay within N × blocks;
* **exact data contents**: the enumerator knows precisely which
  annotated write-backs survived, so every hot block must read back the
  plaintext the surviving stream implies — byte for byte, with
  ``IntegrityError`` accepted only for blocks recovery itself reported
  unrecoverable;
* the machine stays usable (a fresh write-back on an untouched page
  round-trips).

With a *schedule* of (site, hit) pairs the oracle also drives nested
crashes: recovery is crashed at each scheduled point via
:meth:`~repro.faults.injector.FaultInjector.arm_schedule` and restarted,
exercising the persistent ``recovery_pending`` resume path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.schemes import create_scheme
from repro.crashsim.enumerate import CrashState
from repro.crashsim.workload import PROBE_ADDR, payload
from repro.faults.injector import FaultInjector
from repro.faults.plan import PowerFailure
from repro.metadata.metacache import IntegrityError

#: What each design's documented contract permits on a pure crash.
ALLOWED_OUTCOMES: dict[str, frozenset[str]] = {
    "ccnvm": frozenset({"RECOVERED"}),
    "ccnvm_no_ds": frozenset({"RECOVERED"}),
    "ccnvm_locate": frozenset({"RECOVERED"}),
    "sc": frozenset({"RECOVERED", "FALSE_ALARM"}),
    "osiris_plus": frozenset({"RECOVERED", "FALSE_ALARM"}),
    "no_cc": frozenset({"RECOVERED", "DEGRADED"}),
}


def classify(report) -> str:
    """The outcome taxonomy of a recovery report over a pure crash.

    ``RECOVERED`` — recovery succeeded; ``DEGRADED`` — unrecoverable
    blocks were reported (and located); ``FALSE_ALARM`` — a replay was
    reported, which over a pure crash (no attacker exists) is by
    definition false; ``FAILED`` — anything else, including any tree
    tampering finding.
    """
    if any(f.kind == "tree_tampering" for f in report.findings):
        return "FAILED"
    if report.unrecoverable_blocks:
        return "DEGRADED"
    if report.potential_replay_detected:
        return "FALSE_ALARM"
    return "RECOVERED" if report.success else "FAILED"


# -- the invariant checks ------------------------------------------------------
#
# Each appends ``category: detail`` strings to *problems*; the category
# is what :meth:`Verdict.signature` keys on.


def check_recovered(scheme, report, blocks: int, problems: list[str]) -> None:
    """Roots, tree, restart and retry-bound checks after recovery.

    The retry bound is the update-times limit N times *blocks*, which
    the caller counts: the blocks its workload can have left stale.
    """
    if scheme.tcb.root_old != scheme.tcb.root_new:
        problems.append("roots: TCB roots disagree after recovery")
    if not scheme.merkle.verify_consistent(scheme.tcb.root_old):
        problems.append("tree: rebuilt tree does not match the TCB root")
    if scheme.tcb.recovery_pending:
        problems.append("restart: recovery_pending still set after recovery")
    bound = scheme.config.epoch.update_limit * max(1, blocks)
    if report.total_retries > bound:
        problems.append(
            f"retries: total {report.total_retries} exceeds N x blocks = {bound}"
        )


def check_data(
    scheme, now: int, expected: dict[int, bytes], report, problems: list[str],
    inflight: tuple[int, bytes | None, bytes] | None = None,
) -> None:
    """Every block in *expected* reads back exactly its expected value.

    *inflight* names the one write-back a crash interrupted, as
    ``(addr, old value, attempted value)``: that block may read back
    either value.  ``IntegrityError`` is accepted only for blocks
    recovery itself reported unrecoverable, and such a block must not
    read back cleanly.
    """
    unrecoverable = set(report.unrecoverable_blocks)
    for addr in sorted(expected):
        try:
            got, _ = scheme.read(now, addr)
        except IntegrityError:
            if addr not in unrecoverable:
                problems.append(
                    f"data: block {addr:#x} unreadable but not reported "
                    "unrecoverable"
                )
            continue
        if addr in unrecoverable:
            problems.append(
                f"data: unrecoverable block {addr:#x} read back cleanly"
            )
            continue
        if inflight is not None and addr == inflight[0]:
            allowed = inflight[1:]
        else:
            allowed = (expected[addr],)
        if got not in allowed:
            problems.append(
                f"data: block {addr:#x} read back a value the surviving "
                "write stream never implied"
            )


def check_probe(
    scheme, seed: int, write_at: int, read_at: int, problems: list[str]
) -> None:
    """The machine stays usable: a fresh write-back on an untouched page
    round-trips."""
    probe = payload(seed, 1_000_000)
    try:
        scheme.writeback(write_at, PROBE_ADDR, probe)
        got, _ = scheme.read(read_at, PROBE_ADDR)
    except Exception as exc:  # any crash here is itself the finding
        problems.append(f"probe: post-recovery write-back raised {exc!r}")
        return
    if got != probe:
        problems.append("probe: post-recovery write-back did not round-trip")


@dataclass
class Verdict:
    """One oracle evaluation: outcome, problems, recovery accounting."""

    outcome: str
    allowed: tuple[str, ...]
    #: ``category: detail`` strings; empty means the state passed.
    problems: list[str] = field(default_factory=list)
    fired_sites: tuple[str, ...] = ()
    total_retries: int = 0
    unrecoverable: int = 0
    notes: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.problems

    def signature(self) -> frozenset[str]:
        """The failure's stable identity: the set of problem categories.

        A minimized reproducer must preserve (at least) this set.
        """
        return frozenset(p.split(":", 1)[0] for p in self.problems)

    def to_dict(self) -> dict:
        return {
            "outcome": self.outcome,
            "allowed": sorted(self.allowed),
            "problems": list(self.problems),
            "fired_sites": list(self.fired_sites),
            "total_retries": self.total_retries,
            "unrecoverable": self.unrecoverable,
            "notes": list(self.notes),
        }


@dataclass
class CrashClass:
    """One equivalence class of crash states (see ``crashsim.reduce``)."""

    fingerprint: str
    #: ``describe()`` of the first member seen — the evaluated one.
    representative: str
    k: int
    verdict: "Verdict"
    #: Materialized states that mapped to this class.
    witnesses: int = 0
    #: Brute-force states covered (witnesses plus their pinned variants).
    weight: int = 0
    #: Oracle invocations attributed to this class.
    evaluated: int = 0
    spot_checked: int = 0

    def to_dict(self) -> dict:
        return {
            "fingerprint": self.fingerprint,
            "representative": self.representative,
            "k": self.k,
            "outcome": self.verdict.outcome,
            "ok": self.verdict.ok,
            "witnesses": self.witnesses,
            "weight": self.weight,
            "evaluated": self.evaluated,
            "spot_checked": self.spot_checked,
        }


class ClassOracle:
    """Class-aware front end to a :class:`RecoveryOracle`.

    The first state of each fingerprint is evaluated for real and
    becomes the class *representative*; later witnesses inherit its
    verdict.  Two guard rails keep the reduction honest:

    * a **violating** class is never trusted — every witness is
      evaluated individually (role ``expanded``), so violation findings
      are byte-identical to a brute-force run;
    * the first ``spot`` witnesses of each *passing* class are evaluated
      anyway (role ``spot``); an (outcome, signature) mismatch against
      the representative is a reducer bug and is recorded loudly in
      :attr:`mismatches`.
    """

    def __init__(self, oracle: "RecoveryOracle", reducer, spot: int = 1) -> None:
        self.oracle = oracle
        self.reducer = reducer
        self.spot = spot
        self.calls = 0
        self.classes: dict[str, CrashClass] = {}
        self.mismatches: list[dict] = []

    def evaluate_raw(self, state: CrashState, schedule=None) -> Verdict:
        """A counted pass-through evaluation (pin-variant expansion)."""
        self.calls += 1
        return self.oracle.evaluate(state, schedule)

    def submit(self, state: CrashState, weight: int = 1) -> tuple[Verdict, str]:
        """Attribute *state* to its class; returns ``(verdict, role)``.

        *weight* is the number of brute-force states this materialized
        state stands for (1 plus its pinned-drop variants).
        """
        fingerprint = self.reducer.fingerprint(state)
        cls = self.classes.get(fingerprint)
        if cls is None:
            verdict = self.evaluate_raw(state)
            cls = CrashClass(
                fingerprint,
                state.describe(),
                state.k,
                verdict,
                witnesses=1,
                weight=weight,
                evaluated=1,
            )
            self.classes[fingerprint] = cls
            return verdict, "representative"
        cls.witnesses += 1
        cls.weight += weight
        if not cls.verdict.ok:
            verdict = self.evaluate_raw(state)
            cls.evaluated += 1
            return verdict, "expanded"
        if cls.spot_checked < self.spot:
            verdict = self.evaluate_raw(state)
            cls.evaluated += 1
            cls.spot_checked += 1
            if (verdict.outcome, verdict.signature()) != (
                cls.verdict.outcome,
                cls.verdict.signature(),
            ):
                self.mismatches.append(
                    {
                        "fingerprint": fingerprint,
                        "representative": cls.representative,
                        "witness": state.describe(),
                        "representative_outcome": cls.verdict.outcome,
                        "witness_outcome": verdict.outcome,
                    }
                )
            return verdict, "spot"
        return cls.verdict, "witness"

    def class_table(self) -> list[dict]:
        """JSON-able class records, sorted by fingerprint."""
        return [
            self.classes[fp].to_dict() for fp in sorted(self.classes)
        ]


class RecoveryOracle:
    """Evaluates crash states against one scheme's recovery contract.

    One scheme instance is built per oracle and rewound per state
    (``crash()`` + image/register restore) — construction dominates the
    cost of a single recovery by an order of magnitude.
    """

    def __init__(self, scheme_name: str, data_capacity: int, seed: int) -> None:
        if scheme_name not in ALLOWED_OUTCOMES:
            raise ValueError(f"no recovery contract known for {scheme_name!r}")
        self.scheme_name = scheme_name
        self.seed = seed
        self.scheme = create_scheme(scheme_name, data_capacity=data_capacity, seed=seed)
        self.injector = FaultInjector()
        self.injector.attach(self.scheme)
        self._now = 10_000_000

    # -- one state -------------------------------------------------------------

    def evaluate(self, state: CrashState, schedule=None) -> Verdict:
        """Rewind to *state*, run recovery (crashing it per *schedule*),
        and judge the result."""
        scheme = self.scheme
        self.injector.disarm()
        scheme.crash()
        scheme.nvm.restore(state.lines)
        scheme.tcb.restore_registers(state.registers)

        fired: list[str] = []
        schedule = list(schedule or ())
        if schedule:
            self.injector.arm_schedule(schedule)
        report = None
        for _ in range(len(schedule) + 2):
            try:
                report = scheme.recover()
                break
            except PowerFailure as failure:
                fired.append(failure.site)
                scheme.crash()
        allowed = ALLOWED_OUTCOMES[self.scheme_name]
        if report is None:
            return Verdict(
                "FAILED",
                tuple(sorted(allowed)),
                [f"nested: recovery never completed under schedule {schedule}"],
                tuple(fired),
            )

        problems: list[str] = []
        if schedule and len(fired) != len(schedule):
            problems.append(
                f"nested: only {len(fired)}/{len(schedule)} scheduled "
                f"crashes fired (sites hit: {fired})"
            )

        outcome = classify(report)
        if outcome not in allowed:
            problems.append(
                f"outcome: {outcome} not allowed for {self.scheme_name} "
                f"(allowed: {sorted(allowed)})"
            )
        check_recovered(
            scheme, report, len(scheme.nvm.touched_lines()), problems
        )
        check_data(scheme, self._advance(), state.expected, report, problems)
        check_probe(scheme, self.seed, self._advance(), self._advance(), problems)
        if problems and outcome in allowed:
            outcome = "FAILED"
        return Verdict(
            outcome,
            tuple(sorted(allowed)),
            problems,
            tuple(fired),
            total_retries=report.total_retries,
            unrecoverable=len(report.unrecoverable_blocks),
            notes=tuple(report.notes),
        )

    def _advance(self) -> int:
        self._now += 1_000_000
        return self._now
