"""Conventional (DRAM-style) Merkle maintenance under cache pressure.

w/o CC propagates HMACs lazily on dirty evictions; Osiris Plus keeps
cached ancestors current per write-back; SC carries mid-chain victims in
its atomic batches.  A tiny meta cache forces all of those paths, and
every verified re-fetch must still pass — the invariant being that the
cache + TCB view is *always* internally consistent no matter when lines
leave the cache."""

import random
from dataclasses import replace

import pytest

from repro.core.schemes import create_scheme
from repro.metadata.merkle import MerkleTree
from repro.metadata.metacache import IntegrityError
from repro.sim.cpu import TraceCPU
from repro.sim.system import MemoryHierarchy
from repro.workloads.spec import KB, SPEC_PROFILES
from tests.conftest import SMALL_CAPACITY, payload, small_config

FIG5_DESIGNS = ["no_cc", "osiris_plus", "sc", "ccnvm", "ccnvm_no_ds"]


def stressed(scheme_name, meta_kb=1, seed=0, writebacks=150, pages=48):
    """A machine with a 1 KB meta cache driven over many pages."""
    config = small_config(meta_kb=meta_kb)
    scheme = create_scheme(scheme_name, config, SMALL_CAPACITY, seed=seed)
    rng = random.Random(seed)
    written = {}
    t = 0
    for i in range(writebacks):
        addr = rng.randrange(pages) * 4096 + rng.randrange(4) * 64
        scheme.writeback(t, addr, payload(i))
        written[addr] = payload(i)
        t += 500
    return scheme, written, t


@pytest.mark.parametrize("name", FIG5_DESIGNS)
class TestUnderPressure:
    def test_evictions_happened(self, name):
        scheme, _, _ = stressed(name)
        assert scheme.meta.cache.stats.counter("evictions").value > 0

    def test_every_refetch_verifies(self, name):
        """Reads across the whole footprint re-walk paths containing a
        mix of cached, evicted-dirty and evicted-clean nodes — no
        IntegrityError may fire on legitimate data."""
        scheme, written, t = stressed(name)
        for addr, expected in written.items():
            data, _ = scheme.read(t, addr)
            assert data == expected
            t += 500

    def test_flush_leaves_consistent_image(self, name):
        scheme, _, _ = stressed(name)
        scheme.flush()
        tree = MerkleTree(scheme.nvm, scheme.hmac, scheme.genesis)
        assert tree.verify_consistent(scheme.tcb.root_new)

    def test_tampering_still_detected_under_pressure(self, name):
        scheme, written, t = stressed(name, seed=3)
        scheme.flush()
        victim = sorted(written)[0]
        raw = scheme.nvm.peek(victim)
        scheme.nvm.poke(victim, bytes([raw[0] ^ 1]) + raw[1:])
        scheme.meta.crash()
        scheme.hierarchy_dropped = True
        with pytest.raises(IntegrityError):
            scheme.read(t, victim)


class TestLazyPropagationSpecifics:
    def test_no_cc_dirty_evictions_write_to_nvm(self):
        scheme, _, _ = stressed("no_cc")
        by_region = scheme.nvm.writes_by_region()
        # Without any flush, metadata only reaches NVM via evictions.
        assert by_region.get("counter", 0) > 0

    def test_no_cc_root_register_advances_on_eviction_chains(self):
        scheme, _, _ = stressed("no_cc", writebacks=300)
        assert scheme.tcb.root_new != scheme.genesis.root_register()

    def test_osiris_keeps_parents_current_so_evictions_are_cheap(self):
        """Osiris updates the whole chain per write-back; an eviction
        must not trigger extra HMAC computations beyond the chain."""
        scheme, _, _ = stressed("osiris_plus", writebacks=100)
        wbs = scheme.engine.stats.counter("data_writebacks").value
        # Chain = 4 HMACs per write-back on the 1 MB layout; eviction
        # handling adds none (plus verification walks on fetches).
        chains = scheme.hmac.counter_hmac_count
        verifies = scheme.meta.stats.counter("integrity_failures").value
        assert chains >= 4 * wbs
        assert verifies == 0

    def test_sc_orphans_joined_atomic_batches(self):
        """Mid-chain evictions with a 1 KB meta cache must flow through
        the overlay into the same write-back's atomic batch."""
        scheme, _, _ = stressed("sc")
        assert scheme.meta.overlay == {}  # nothing left behind
        assert scheme.wpq.stats.counter("batches_committed").value > 0

    def test_ccnvm_overlay_empty_between_writebacks(self):
        scheme, _, _ = stressed("ccnvm")
        assert scheme.meta.overlay == {}


@pytest.mark.parametrize("name", FIG5_DESIGNS)
@pytest.mark.parametrize(
    "meta_kb,seed",
    [
        # w/o CC: handling an install's dirty victim evicted the line
        # just installed (the install dereferenced the missing line).
        (1, 0),
        (4, 0),
        # cc-NVM: a line evicted while a pre-evict drain committed the
        # queue under it was never reserved, so its HMAC never reached
        # its parent (a false "counter HMAC mismatch" with no attacker).
        (1, 3),
    ],
)
def test_tiny_meta_cache_full_hierarchy_run(name, meta_kb, seed):
    """A 512 KB milc-like trace through the whole hierarchy on a 1-4 KB
    meta cache completes, and the flushed image verifies."""
    config = small_config(meta_kb=meta_kb)
    trace = replace(SPEC_PROFILES["milc"], footprint=512 * KB).generate(
        3000, seed=seed
    )
    scheme = create_scheme(name, config, SMALL_CAPACITY, seed=0)
    memory = MemoryHierarchy(config, scheme)
    TraceCPU(config, memory).run(trace)
    memory.flush()
    tree = MerkleTree(scheme.nvm, scheme.hmac, scheme.genesis)
    assert tree.verify_consistent(scheme.tcb.root_new)
