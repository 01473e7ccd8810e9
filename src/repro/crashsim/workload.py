"""The recording workloads: deterministic annotated write streams.

The default ``hotset`` profile (8 blocks on 2 pages, enough round-robin
pressure to cross the update-times limit N and trigger every drain
path) is also the stream the fault campaign's site sweep crashes.  The
Figure-5 profiles replay the write-back stream of one SPEC CPU2006 surrogate
(:mod:`repro.workloads.spec`), folded onto a small page range so the
crash campaign exercises each benchmark's metadata-locality shape —
streaming wraps, strides, hot-set skew — rather than the hot-set's.

Every workload runs under an attached
:class:`~repro.crashsim.trace.PersistTraceRecorder`, annotating each
write-back with its intended plaintext so the oracle can later derive
the exact expected contents for *any* crash state.
"""

from __future__ import annotations

import hashlib

from repro.crashsim.trace import PersistTraceRecorder

PAGES = (0x2000, 0x3000)
BLOCKS_PER_PAGE = 4
#: Fresh page the oracle's post-recovery probe write-back targets.
PROBE_ADDR = 0x7000

#: Where the SPEC-surrogate write streams land: 4 pages starting here
#: (256 cache lines), clear of the probe page.
SPEC_BASE = 0x2000
SPEC_LINES = 256
#: Name of the default hot-set profile.
HOTSET = "hotset"


def payload(seed: int, step: int) -> bytes:
    """The deterministic 64 B plaintext for one workload step."""
    return hashlib.blake2b(
        f"crashsim:{seed}:{step}".encode(), digest_size=64
    ).digest()


def hot_addrs() -> list[int]:
    return [
        page + block * 64 for page in PAGES for block in range(BLOCKS_PER_PAGE)
    ]


def hotset_writes(steps: int, seed: int):
    """The hot-set profile as ``(warm-up, stream)`` lists of (addr, data).

    The warm-up writes every hot block once; the stream then walks the
    blocks round-robin for *steps* write-backs — 160 steps put ~20
    updates on each block, past the update-times limit N=16.
    """
    addrs = hot_addrs()
    warmup = [(addr, payload(seed, -1 - i)) for i, addr in enumerate(addrs)]
    stream = [(addrs[i % len(addrs)], payload(seed, i)) for i in range(steps)]
    return warmup, stream


def workload_profiles() -> list[str]:
    """Every recordable profile: the hot set plus the Figure-5 suite."""
    from repro.workloads.spec import SPEC_ORDER

    return [HOTSET, *SPEC_ORDER]


def spec_write_addrs(profile: str, steps: int, seed: int) -> list[int]:
    """The first *steps* write-back line addresses of one SPEC surrogate.

    The surrogate's byte addresses are folded onto :data:`SPEC_LINES`
    cache lines starting at :data:`SPEC_BASE`, preserving the profile's
    access pattern (and hence its counter-line / tree-node sharing
    shape) while keeping the crash-state space enumerable.
    """
    from repro.sim.trace import WRITE
    from repro.workloads.spec import spec_trace

    addrs: list[int] = []
    length = max(64, steps * 4)
    while len(addrs) < steps:
        for record in spec_trace(profile, length, seed):
            if record.op != WRITE:
                continue
            line = (record.addr // 64) % SPEC_LINES
            addrs.append(SPEC_BASE + line * 64)
            if len(addrs) == steps:
                break
        length *= 2
    return addrs


def record_workload(scheme, steps: int, seed: int, profile: str = HOTSET):
    """Run one annotated write stream under a recorder; returns the trace.

    The recorder attaches *before* the first write, so every line the
    workload ever wrote is annotated and the trace's initial image is
    the genesis state — there is no pre-history the oracle cannot see.
    The hot-set profile keeps its warm-up round (every hot block written
    once before the measured stream); the SPEC profiles replay their
    folded write-back stream directly.

    ``ace-k<k>-<rgs>-<fences>`` profiles (see
    :mod:`repro.trafficgen.ace`) replay their canonical k-write stream
    with a full epoch drain (``scheme.flush()``) after every fenced
    write; *steps* is ignored — the enumerated workload's own length is
    the whole point.
    """
    from repro.trafficgen.ace import is_ace_profile, parse_profile

    recorder = PersistTraceRecorder(scheme, seed=seed)
    recorder.attach()
    now = 0
    if is_ace_profile(profile):
        workload = parse_profile(profile)
        for i, addr in enumerate(workload.addrs()):
            data = payload(seed, i)
            scheme.writeback(now, addr, data)
            recorder.annotate(addr, data)
            now += 500
            if workload.fences[i] == "1":
                scheme.flush()
        return recorder.detach()
    if profile == HOTSET:
        warmup, stream = hotset_writes(steps, seed)
        writes = warmup + stream
    else:
        addrs = spec_write_addrs(profile, steps, seed)
        writes = [(addr, payload(seed, i)) for i, addr in enumerate(addrs)]
    for addr, data in writes:
        scheme.writeback(now, addr, data)
        recorder.annotate(addr, data)
        now += 500
    return recorder.detach()
