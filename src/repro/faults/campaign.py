"""The named-site sweep: schemes x crash sites x fault models.

For every (scheme, site) pair the campaign runs the deterministic hot-set
workload of :mod:`repro.crashsim.workload`, arms a power failure at a
chosen visit of the site, crashes the machine there, recovers, and
checks the design's *documented* post-crash contract with the checks of
:mod:`repro.crashsim.oracle` — not merely "recovery did not throw":

* the rebuilt tree is internally consistent and both TCB roots agree;
* per-campaign retry totals stay within the design's bound (N);
* every write-back that completed before the crash reads back exactly;
  the one in-flight block reads back as either its pre- or post-crash
  value; nothing else is acceptable;
* the machine is usable afterwards (a fresh write-back round-trips).

Outcomes are classified by :func:`repro.crashsim.oracle.classify` and
compared against an exact per-site expected matrix derived from each
design's guarantees (differential part):

=================  =========================================================
``RECOVERED``      recovery succeeded and every invariant held
``FALSE_ALARM``    data fully intact, but the design's freshness check
                   cannot distinguish the crash from a replay (honest
                   limitation of SC / Osiris Plus at one micro-step)
``DEGRADED``       unrecoverable blocks were reported *and located*; all
                   other data intact (w/o CC's expected post-crash state)
``NOT_REACHED``    the scheme's execution never visits this site
``FAILED``         anything else — a protocol bug
=================  =========================================================

Crash sites inside ``recovery.*`` are exercised as *double crashes*: run
the workload, crash, start recovery, crash it mid-run at the armed site,
then recover again — asserting recovery is restartable/idempotent.

The media phase schedules NVM read faults per scheme: a transient fault
must be absorbed by the controller's bounded retry, a permanent fault
must degrade gracefully into a located :class:`MediaResult` report, and a
silent bit flip must be caught by the data-HMAC layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.schemes import create_scheme
from repro.crashsim.oracle import check_data, check_probe, check_recovered, classify
from repro.crashsim.workload import hot_addrs, hotset_writes
from repro.faults.injector import FaultInjector
from repro.faults.media import MediaFaultModel
from repro.faults.plan import RECOVERY_SITES, PowerFailure, sites_for_scheme
from repro.mem.nvm import PermanentMediaError
from repro.metadata.metacache import IntegrityError

#: Default scheme sweep (the four consistent designs plus the baseline).
DEFAULT_SCHEMES = ("no_cc", "sc", "osiris_plus", "ccnvm_no_ds", "ccnvm")


@dataclass(frozen=True)
class CampaignConfig:
    """Shape of one campaign run."""

    schemes: tuple[str, ...] = DEFAULT_SCHEMES
    #: Restrict the sweep to these sites (None = every reachable site).
    sites: tuple[str, ...] | None = None
    #: Write-backs in the main workload loop (after an 8-step warm-up
    #: round).  The default drives every hot block past the update-times
    #: limit N, so w/o CC's unbounded staleness actually shows.
    steps: int = 160
    seed: int = 0
    #: Data-region bytes of the modeled device (small = fast rebuilds).
    data_capacity: int = 1 << 16


@dataclass
class InjectionResult:
    """One (scheme, crash site) experiment."""

    scheme: str
    site: str
    #: Which visit of the site the crash was armed at (0 = not armed).
    hit: int
    fired: bool
    outcome: str
    expected: str
    ok: bool
    total_retries: int = 0
    nwb: int = 0
    unrecoverable: int = 0
    problems: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "scheme": self.scheme,
            "site": self.site,
            "hit": self.hit,
            "fired": self.fired,
            "outcome": self.outcome,
            "expected": self.expected,
            "ok": self.ok,
            "total_retries": self.total_retries,
            "nwb": self.nwb,
            "unrecoverable": self.unrecoverable,
            "problems": list(self.problems),
            "notes": list(self.notes),
        }

    @staticmethod
    def from_dict(data: dict) -> "InjectionResult":
        """Inverse of :meth:`to_dict` (used by the run cache)."""
        return InjectionResult(**data)


@dataclass
class MediaResult:
    """One media-fault experiment."""

    scheme: str
    kind: str  # 'transient' | 'permanent' | 'silent'
    addr: int
    outcome: str  # 'absorbed' | 'degraded_located' | 'detected_by_hmac' | ...
    expected: str
    ok: bool
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "scheme": self.scheme,
            "kind": self.kind,
            "addr": self.addr,
            "outcome": self.outcome,
            "expected": self.expected,
            "ok": self.ok,
            "detail": self.detail,
        }

    @staticmethod
    def from_dict(data: dict) -> "MediaResult":
        """Inverse of :meth:`to_dict` (used by the run cache)."""
        return MediaResult(**data)


@dataclass
class CampaignResult:
    """Everything one campaign run produced."""

    injections: list[InjectionResult] = field(default_factory=list)
    media: list[MediaResult] = field(default_factory=list)
    schemes: tuple[str, ...] = ()
    steps: int = 0
    seed: int = 0

    @property
    def passed(self) -> bool:
        """Every experiment matched its expected outcome."""
        return all(r.ok for r in self.injections) and all(r.ok for r in self.media)

    def failures(self) -> list[str]:
        """Human-readable lines for every mismatching experiment."""
        out = []
        for r in self.injections:
            if not r.ok:
                out.append(
                    f"{r.scheme} @ {r.site}: got {r.outcome}, expected "
                    f"{r.expected} ({'; '.join(r.problems) or 'no detail'})"
                )
        for m in self.media:
            if not m.ok:
                out.append(
                    f"{m.scheme} media/{m.kind} @ {m.addr:#x}: got "
                    f"{m.outcome}, expected {m.expected} ({m.detail})"
                )
        return out

    def sites_fired(self) -> set[str]:
        """Distinct crash sites at which an injection actually fired."""
        return {r.site for r in self.injections if r.fired}

    def to_dict(self) -> dict:
        return {
            "schemes": list(self.schemes),
            "steps": self.steps,
            "seed": self.seed,
            "passed": self.passed,
            "injections": [r.to_dict() for r in self.injections],
            "media": [m.to_dict() for m in self.media],
        }

    def summary(self) -> str:
        """A compact per-scheme outcome table."""
        lines = [
            f"fault campaign: {len(self.injections)} injections over "
            f"{len(self.schemes)} scheme(s), {len(self.sites_fired())} "
            f"distinct sites fired, {len(self.media)} media experiments",
        ]
        for r in self.injections:
            mark = "ok " if r.ok else "FAIL"
            lines.append(
                f"  [{mark}] {r.scheme:12s} {r.site:26s} -> {r.outcome}"
                + ("" if r.outcome == r.expected else f" (expected {r.expected})")
            )
        for m in self.media:
            mark = "ok " if m.ok else "FAIL"
            lines.append(
                f"  [{mark}] {m.scheme:12s} media.{m.kind:10s}"
                f"{'':11s}-> {m.outcome}"
            )
        lines.append("PASS" if self.passed else "FAIL: " + "; ".join(self.failures()))
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# the sweep
# ---------------------------------------------------------------------------


@dataclass
class _Progress:
    """How far the hot-set stream got on one scheme instance."""

    #: addr -> plaintext of the last *completed* write-back.
    expected: dict[int, bytes] = field(default_factory=dict)
    #: (addr, old value, attempted value) of the write-back a crash
    #: interrupted, or None.
    inflight: tuple[int, bytes | None, bytes] | None = None
    now: int = 0

    def run(self, scheme, writes) -> None:
        """Write back *writes* in order; a PowerFailure leaves ``inflight`` set."""
        for addr, data in writes:
            self.inflight = (addr, self.expected.get(addr), data)
            scheme.writeback(self.now, addr, data)
            self.expected[addr] = data
            self.inflight = None
            self.now += 500


def _expected_outcome(scheme_name: str, site: str) -> str:
    """The differential matrix: what each design's contract promises.

    cc-NVM (both variants) must come back clean from *every* reachable
    micro-step — that is the paper's claim.  SC and Osiris Plus write
    the data block before their metadata reaches the root, so a crash
    exactly inside that window false-alarms their root-freshness check
    (data intact, replay reported).  w/o CC enforces no staleness bound,
    so once the hot loop has pushed per-block staleness past N a crash
    strands unrecoverable blocks (the campaign crashes it at the *last*
    site visit, where the accumulated staleness is maximal).
    """
    if scheme_name.startswith("ccnvm"):
        return "RECOVERED"
    if scheme_name in ("sc", "osiris_plus"):
        return "FALSE_ALARM" if site == "writeback.after_data" else "RECOVERED"
    if scheme_name == "no_cc":
        return "DEGRADED"
    raise ValueError(f"no expected outcome for scheme {scheme_name!r}")


def _discover(scheme_name: str, cfg: CampaignConfig) -> dict[str, int]:
    """Record how often the workload (and one recovery) visits each site."""
    scheme = create_scheme(scheme_name, data_capacity=cfg.data_capacity, seed=cfg.seed)
    injector = FaultInjector()
    injector.attach(scheme)
    warmup, stream = hotset_writes(cfg.steps, cfg.seed)
    progress = _Progress()
    progress.run(scheme, warmup)
    injector.reset_counts()
    progress.run(scheme, stream)
    scheme.crash()
    scheme.recover()
    return dict(injector.hits)


def _inject(scheme_name: str, site: str, hit: int, cfg: CampaignConfig) -> InjectionResult:
    """Run one crash experiment end to end."""
    scheme = create_scheme(scheme_name, data_capacity=cfg.data_capacity, seed=cfg.seed)
    injector = FaultInjector()
    injector.attach(scheme)
    warmup, stream = hotset_writes(cfg.steps, cfg.seed)
    progress = _Progress()
    progress.run(scheme, warmup)

    fired = False
    double_crash = site in RECOVERY_SITES
    if double_crash:
        # Crash *recovery*: full workload, power failure, then a second
        # power failure at the armed site inside the first recovery run.
        progress.run(scheme, stream)
        scheme.crash()
        injector.arm(site, hit)
        try:
            scheme.recover()
        except PowerFailure:
            fired = True
            scheme.crash()
        if not fired:
            return InjectionResult(
                scheme_name, site, hit, False, "NOT_REACHED",
                _expected_outcome(scheme_name, site), False,
                problems=["armed recovery site never fired"],
            )
        report = scheme.recover()
    else:
        injector.arm(site, hit)
        try:
            progress.run(scheme, stream)
        except PowerFailure:
            fired = True
        if not fired:
            return InjectionResult(
                scheme_name, site, hit, False, "NOT_REACHED",
                "NOT_REACHED", True,
                notes=["site not reached by this scheme/workload"],
            )
        scheme.crash()
        report = scheme.recover()

    problems: list[str] = []
    check_recovered(scheme, report, len(progress.expected), problems)
    t = progress.now + 100_000
    check_data(
        scheme, t, progress.expected, report, problems, inflight=progress.inflight
    )
    check_probe(scheme, cfg.seed, t, t + 10_000, problems)
    outcome = classify(report)
    if problems:
        outcome = "FAILED"
    expected = _expected_outcome(scheme_name, site)
    notes = list(report.notes)
    if double_crash:
        notes.append("double crash: recovery was interrupted and restarted")
    return InjectionResult(
        scheme_name,
        site,
        hit,
        fired,
        outcome,
        expected,
        outcome == expected and not problems,
        total_retries=report.total_retries,
        nwb=report.nwb,
        unrecoverable=len(report.unrecoverable_blocks),
        problems=problems,
        notes=notes,
    )


# ---------------------------------------------------------------------------
# media phase
# ---------------------------------------------------------------------------


def _media_phase(scheme_name: str, cfg: CampaignConfig) -> list[MediaResult]:
    scheme = create_scheme(scheme_name, data_capacity=cfg.data_capacity, seed=cfg.seed)
    warmup, _ = hotset_writes(0, cfg.seed)
    progress = _Progress()
    progress.run(scheme, warmup)
    model = MediaFaultModel()
    scheme.nvm.set_media_model(model)
    limit = scheme.config.controller.read_retry_limit
    t = progress.now + 1000
    addrs = hot_addrs()
    results: list[MediaResult] = []

    # Transient fault: absorbed by the controller's bounded retry.
    addr = addrs[0]
    model.inject_transient(addr, count=2)
    try:
        got, _ = scheme.read(t, addr)
        if got != progress.expected[addr]:
            outcome, detail = "wrong_data", "read returned a value never written"
        elif model.delivered["transient"] != 2:
            outcome, detail = "not_delivered", "fault schedule never consulted"
        else:
            outcome, detail = "absorbed", f"{2} faulty reads retried away"
    except (PermanentMediaError, IntegrityError) as exc:
        outcome, detail = "escalated", str(exc)
    results.append(
        MediaResult(scheme_name, "transient", addr, outcome, "absorbed",
                    outcome == "absorbed", detail)
    )

    # Permanent fault: retry budget exhausts into a located report.
    addr = addrs[1]
    model.inject_permanent(addr)
    try:
        scheme.read(t + 1000, addr)
        outcome, detail = "undetected", "stuck line read back without error"
    except PermanentMediaError as exc:
        located = (
            exc.addr == addr
            and exc.region == "data"
            and exc.attempts == limit + 1
        )
        outcome = "degraded_located" if located else "mislocated"
        detail = str(exc)
    model.clear(addr)
    results.append(
        MediaResult(scheme_name, "permanent", addr, outcome, "degraded_located",
                    outcome == "degraded_located", detail)
    )

    # Silent bit flip: only the data-HMAC layer can catch it.
    addr = addrs[2]
    model.inject_silent_bitflip(addr, byte_index=5)
    try:
        scheme.read(t + 2000, addr)
        outcome, detail = "undetected", "corrupted line decrypted without complaint"
    except IntegrityError as exc:
        outcome, detail = "detected_by_hmac", str(exc)
    model.clear(addr)
    results.append(
        MediaResult(scheme_name, "silent", addr, outcome, "detected_by_hmac",
                    outcome == "detected_by_hmac", detail)
    )

    scheme.nvm.set_media_model(None)
    return results


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


def _crash_hit(scheme_name: str, site: str, count: int) -> int:
    """Which visit of *site* the sweep arms its crash at.

    Crash at the middle visit so both earlier and later protocol
    activity surround the failure.  The design with no staleness bound
    is instead crashed at the last visit: mid-loop its counters are ≤ N
    updates stale and roll forward fine — only the accumulated tail
    shows the miss.
    """
    if site in RECOVERY_SITES:
        return 1
    if scheme_name == "no_cc":
        return count
    return max(1, count // 2)


def run_sites_cell(spec) -> dict:
    """One scheme's whole sweep: the ``crash`` cell of ``mode="sites"``.

    A discover pass records how often the workload visits each crash
    site; every reached site is then crashed at :func:`_crash_hit`'s
    visit, and the media phase runs last.  Returns the JSON-able
    injection and media records, in sweep order.
    """
    p = spec.params
    sites = p.get("sites")
    cfg = CampaignConfig(
        schemes=(spec.scheme,),
        sites=None if sites is None else tuple(sites),
        steps=p["steps"],
        seed=spec.seed,
        data_capacity=p["data_capacity"],
    )
    counts = _discover(spec.scheme, cfg)
    injections = []
    for site in sites_for_scheme(spec.scheme):
        if cfg.sites is not None and site not in cfg.sites:
            continue
        count = counts.get(site, 0)
        if count == 0:
            result = InjectionResult(
                spec.scheme, site, 0, False, "NOT_REACHED", "NOT_REACHED", True,
                notes=["site not reached by this scheme/workload"],
            )
        else:
            result = _inject(spec.scheme, site, _crash_hit(spec.scheme, site, count), cfg)
        injections.append(result.to_dict())
    media = [m.to_dict() for m in _media_phase(spec.scheme, cfg)]
    return {"injections": injections, "media": media}


def run_campaign(
    cfg: CampaignConfig | None = None,
    jobs: int = 1,
    cache: bool = False,
    cache_root=None,
    timeout: float | None = None,
    progress=None,
) -> CampaignResult:
    """Sweep schemes x crash sites x media faults and judge every run.

    Each scheme is one ``crash`` cell (:func:`run_sites_cell`) run
    through the orchestrator — in parallel under ``jobs``,
    content-cached under ``cache``.  Raises :class:`ValueError` when a
    requested site is reachable by none of the selected schemes, so a
    sweep that would inject nothing never passes.
    """
    from repro.runs import RunSpec, orchestrate

    cfg = cfg or CampaignConfig()
    if cfg.sites is not None:
        reachable = {s for scheme in cfg.schemes for s in sites_for_scheme(scheme)}
        unreachable = [s for s in cfg.sites if s not in reachable]
        if unreachable:
            raise ValueError(
                f"no selected scheme ({', '.join(cfg.schemes)}) can reach "
                f"site(s): {', '.join(unreachable)}"
            )
    params = {"mode": "sites", "steps": cfg.steps, "data_capacity": cfg.data_capacity}
    if cfg.sites is not None:
        params["sites"] = list(cfg.sites)
    specs = [
        RunSpec(kind="crash", scheme=s, seed=cfg.seed, params=params)
        for s in cfg.schemes
    ]
    report = orchestrate(
        specs, jobs=jobs, use_cache=cache,
        cache_root=cache_root, timeout=timeout, progress=progress,
    )
    report.raise_on_failure()
    result = CampaignResult(schemes=cfg.schemes, steps=cfg.steps, seed=cfg.seed)
    for spec in specs:
        payload = report.payload(spec)
        result.injections.extend(InjectionResult.from_dict(r) for r in payload["injections"])
        result.media.extend(MediaResult.from_dict(m) for m in payload["media"])
    return result
