"""Differential tests: every fast path against the implementation it replaced.

The functional path (crypto, the genesis image, the lazy metadata flush)
was made cheap without changing a single output byte.  The previous
implementations live on here, and only here, as references:

* the generator ``xor_bytes`` and the ``hmac.new``-per-call PRF / MAC;
* the sort-every-dirty-line-per-victim ``_flush_all_dirty_lazily``;
* an un-memoized genesis image (a fresh :class:`GenesisImage` per line);
* the level-loop ``node_of_addr`` and ``parent_of``-chained ancestors.
"""

from __future__ import annotations

import dataclasses
import hashlib
import hmac
import random
from contextlib import contextmanager

import pytest

from repro.common.constants import CACHE_LINE_SIZE, HMAC_SIZE
from repro.core.schemes.base import SecureNVMScheme
from repro.crypto import cme, hmac_engine
from repro.crypto.cme import xor_bytes
from repro.crypto.prf import SecretKey, keyed_hash, prf
from repro.metadata.genesis import GenesisImage
from repro.metadata.layout import MemoryLayout, MerkleNodeId
from repro.metadata.metacache import MetadataStore
from repro.sim import runner
from repro.workloads.spec import SPEC_PROFILES, spec_trace
from tests.conftest import SMALL_CAPACITY, small_config

KEY = SecretKey.from_seed("hotpath-key")
ENC = SecretKey.from_seed("genesis-enc")
MAC = SecretKey.from_seed("genesis-mac")


# -- reference implementations ---------------------------------------------------


def reference_xor_bytes(data: bytes, pad: bytes) -> bytes:
    if len(data) != len(pad):
        raise ValueError(f"length mismatch: {len(data)} vs {len(pad)}")
    return bytes(a ^ b for a, b in zip(data, pad))


def reference_prf(key: SecretKey, *parts: bytes, out_len: int = CACHE_LINE_SIZE) -> bytes:
    message = b"".join(len(p).to_bytes(4, "little") + p for p in parts)
    blocks = []
    counter = 0
    while sum(len(b) for b in blocks) < out_len:
        mac = hmac.new(
            key.material, counter.to_bytes(4, "little") + message, hashlib.sha256
        )
        blocks.append(mac.digest())
        counter += 1
    return b"".join(blocks)[:out_len]


def reference_keyed_hash(key: SecretKey, *parts: bytes) -> bytes:
    message = b"".join(len(p).to_bytes(4, "little") + p for p in parts)
    return hmac.new(key.material, message, hashlib.sha1).digest()[:HMAC_SIZE]


def reference_flush(self: SecureNVMScheme) -> None:
    while True:
        dirty = sorted(
            (line for line in self.meta.cache.dirty_lines()),
            key=lambda l: self.layout.node_of_addr(l.addr).level,
        )
        if not dirty:
            return
        victim = dirty[0]
        self._lazy_propagate_and_write(victim)
        self.meta.cache.clean(victim.addr)


def unmemoized_line(layout: MemoryLayout, addr: int) -> bytes:
    return GenesisImage(layout, ENC, MAC).line(addr)


def reference_node_of_addr(layout: MemoryLayout, addr: int) -> MerkleNodeId:
    if layout.counter_base <= addr < layout.hmac_base:
        return MerkleNodeId(0, (addr - layout.counter_base) // CACHE_LINE_SIZE)
    base = layout.merkle_base
    for level in range(1, layout.root_level):
        size = layout.level_counts[level] * CACHE_LINE_SIZE
        if base <= addr < base + size:
            return MerkleNodeId(level, (addr - base) // CACHE_LINE_SIZE)
        base += size
    raise ValueError(f"address {addr:#x} is not a tree-node address")


def reference_ancestors_of_leaf(layout: MemoryLayout, leaf_index: int) -> list[MerkleNodeId]:
    nodes = []
    node = MerkleNodeId(0, leaf_index)
    while node.level < layout.root_level:
        node = layout.parent_of(node)
        nodes.append(node)
    return nodes


def reference_metadata_addresses(layout: MemoryLayout, data_addr: int) -> list[int]:
    leaf = layout.counter_leaf_index(data_addr)
    addrs = [layout.counter_line_addr(data_addr)]
    for node in reference_ancestors_of_leaf(layout, leaf):
        if node.level < layout.root_level:
            addrs.append(layout.merkle_node_addr(node))
    return addrs


# -- crypto primitives --------------------------------------------------------------


def _random_parts(rng: random.Random) -> list[bytes]:
    return [rng.randbytes(rng.randrange(0, 80)) for _ in range(rng.randrange(0, 5))]


class TestCryptoPrimitives:
    def test_xor_bytes_matches_reference(self):
        rng = random.Random(1)
        for n in (0, 1, 7, 63, 64, 65, 200):
            a, b = rng.randbytes(n), rng.randbytes(n)
            assert xor_bytes(a, b) == reference_xor_bytes(a, b)
        # Leading zero bytes must survive the integer round trip.
        assert xor_bytes(bytes(64), bytes(64)) == bytes(64)
        assert xor_bytes(b"\x01" + bytes(63), b"\x01" + bytes(63)) == bytes(64)

    def test_xor_bytes_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            xor_bytes(b"ab", b"a")

    @pytest.mark.parametrize("out_len", [0, 1, 7, 31, 32, 33, 64, 100, 129])
    def test_prf_matches_reference(self, out_len):
        rng = random.Random(out_len)
        for _ in range(20):
            parts = _random_parts(rng)
            assert prf(KEY, *parts, out_len=out_len) == reference_prf(
                KEY, *parts, out_len=out_len
            )

    def test_keyed_hash_matches_reference(self):
        rng = random.Random(2)
        for _ in range(50):
            parts = _random_parts(rng)
            assert keyed_hash(KEY, *parts) == reference_keyed_hash(KEY, *parts)


# -- tree geometry ---------------------------------------------------------------------


class TestGeometry:
    @pytest.mark.parametrize("pages", [1, 4, 5, 16, 21, 256, 5120])
    def test_lookups_match_reference(self, pages):
        layout = MemoryLayout(pages * 4096)
        assert layout.root_level == len(layout.level_counts) - 1
        line = CACHE_LINE_SIZE
        tree_addrs = range(layout.counter_base, layout.hmac_base, line)
        merkle_addrs = range(layout.merkle_base, layout.total_capacity, line)
        for addr in [*tree_addrs, *merkle_addrs]:
            node = layout.node_of_addr(addr)
            assert node == reference_node_of_addr(layout, addr)
            assert layout.level_of_addr(addr) == node.level
        for leaf in range(pages):
            assert layout.ancestors_of_leaf(leaf) == reference_ancestors_of_leaf(layout, leaf)
            data_addr = leaf * 4096 + 3 * line
            assert layout.metadata_addresses_for_writeback(
                data_addr
            ) == reference_metadata_addresses(layout, data_addr)

    def test_non_tree_addresses_rejected(self):
        layout = MemoryLayout(256 * 4096)
        for addr in (0, layout.counter_base - 1, layout.hmac_base, layout.total_capacity):
            with pytest.raises(ValueError):
                layout.node_of_addr(addr)
            with pytest.raises(ValueError):
                layout.level_of_addr(addr)


# -- genesis memo ---------------------------------------------------------------------


class TestGenesisMemo:
    @pytest.mark.parametrize("capacity", [SMALL_CAPACITY, 5 << 12, 16 << 30])
    def test_memoized_lines_equal_fresh_ones_in_every_region(self, capacity):
        layout = MemoryLayout(capacity)
        genesis = GenesisImage(layout, ENC, MAC)
        line = CACHE_LINE_SIZE
        addrs = [0, line, layout.counter_base - line]
        addrs += [layout.counter_base, layout.hmac_base - line]
        addrs += [layout.hmac_base, layout.hmac_base + line, layout.merkle_base - line]
        addrs += [a for a in (layout.merkle_base, layout.total_capacity - line)
                  if layout.merkle_base <= a < layout.total_capacity]
        regions = {layout.region_of(a) for a in addrs}
        assert {"data", "counter", "data_hmac"} <= regions
        # Reads in both orders, so every line is served once computed and
        # once from the memo.
        for addr in addrs + addrs[::-1]:
            assert genesis.line(addr) == unmemoized_line(layout, addr)

    def test_memo_serves_repeat_reads(self):
        layout = MemoryLayout(SMALL_CAPACITY)
        genesis = GenesisImage(layout, ENC, MAC)
        hmac_line = layout.hmac_base + CACHE_LINE_SIZE
        assert genesis.line(hmac_line) is genesis.line(hmac_line)

    def test_memo_never_sees_nvm_tampering(self):
        from repro.core.schemes import create_scheme

        scheme = create_scheme("ccnvm", small_config(), SMALL_CAPACITY, seed=4)
        hmac_line, _ = scheme.layout.data_hmac_location(0x80)
        pristine = scheme.genesis.line(hmac_line)
        scheme.nvm.poke(hmac_line, bytes(CACHE_LINE_SIZE))
        assert scheme.nvm.peek(hmac_line) == bytes(CACHE_LINE_SIZE)
        fresh = GenesisImage(
            scheme.layout, scheme.tcb.encryption_key, scheme.tcb.hmac_key
        )
        assert scheme.genesis.line(hmac_line) == pristine == fresh.line(hmac_line)


# -- lazy metadata flush -------------------------------------------------------------


@contextmanager
def _captured_run(flush_impl):
    """Patch the flush (when *flush_impl* is given) and capture the scheme
    :func:`run_simulation` builds, plus what the end-of-run flush did to
    the meta cache: dirty evictions, and lines the overlay re-installed
    as dirty."""
    seen: dict = {"flushing": False, "flush_reinstalls": 0}
    create = runner.create_scheme
    flush = flush_impl or SecureNVMScheme._flush_all_dirty_lazily
    install = MetadataStore.install

    def capture(*args, **kwargs):
        seen["scheme"] = create(*args, **kwargs)
        return seen["scheme"]

    def counted_install(self, addr, value, dirty, verified):
        if seen["flushing"] and dirty:
            seen["flush_reinstalls"] += 1
        return install(self, addr, value, dirty, verified)

    def counted_flush(self):
        evictions = self.meta.cache.stats.counter("dirty_evictions")
        before = evictions.value
        seen["flushing"] = True
        flush(self)
        seen["flushing"] = False
        seen["flush_dirty_evictions"] = evictions.value - before

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(runner, "create_scheme", capture)
        mp.setattr(SecureNVMScheme, "_flush_all_dirty_lazily", counted_flush)
        mp.setattr(MetadataStore, "install", counted_install)
        yield seen


def _no_cc_run(trace, config, capacity, flush_impl):
    with _captured_run(flush_impl) as seen:
        result = runner.run_simulation(
            "no_cc", trace, config=config, data_capacity=capacity, seed=7
        )
    nvm = seen["scheme"].nvm
    counts = {addr: nvm.write_count(addr) for addr in nvm.touched_lines()}
    return dataclasses.asdict(result), nvm.snapshot(), counts, seen


FLUSH_CASES = {
    "lbm": lambda: (spec_trace("lbm", 1500, 3), None, None),
    "milc": lambda: (spec_trace("milc", 1500, 3), None, None),
    "namd": lambda: (spec_trace("namd", 3000, 3), None, None),
    # 20 MB: 5120 pages, a tree whose levels are not powers of four.
    "odd-geometry": lambda: (spec_trace("milc", 1500, 4), None, 20 << 20),
    # A 4 KB meta cache over the 12-level tree: loading parents during
    # the flush evicts dirty lines, and the overlay re-installs one of
    # them before its queued propagation runs.
    "small-meta-cache": lambda: (
        dataclasses.replace(SPEC_PROFILES["gcc"], footprint=4 << 20).generate(800, seed=6),
        small_config(meta_kb=4),
        None,
    ),
}


class TestLazyFlushEquivalence:
    @pytest.mark.parametrize("case", sorted(FLUSH_CASES))
    def test_no_cc_identical_under_both_flushes(self, case):
        trace, config, capacity = FLUSH_CASES[case]()
        fast = _no_cc_run(trace, config, capacity, None)
        reference = _no_cc_run(trace, config, capacity, reference_flush)
        assert fast[0] == reference[0]  # SimulationResult, field by field
        assert fast[1] == reference[1]  # the whole stored NVM image
        assert fast[2] == reference[2]  # per-line write counts
        for key in ("flush_dirty_evictions", "flush_reinstalls"):
            assert fast[3][key] == reference[3][key]
        if case == "small-meta-cache":
            assert fast[3]["flush_dirty_evictions"] > 0
            assert fast[3]["flush_reinstalls"] > 0

    def test_flush_leaves_no_dirty_metadata(self):
        trace, config, capacity = FLUSH_CASES["small-meta-cache"]()
        with _captured_run(None) as seen:
            runner.run_simulation(
                "no_cc", trace, config=config, data_capacity=capacity, seed=7
            )
        assert not list(seen["scheme"].meta.cache.dirty_lines())
        assert not seen["scheme"].meta.overlay
        assert seen["scheme"].merkle.verify_consistent(seen["scheme"].tcb.root_new)


# -- whole cells under the reference crypto -------------------------------------------


@pytest.mark.parametrize("scheme", ["ccnvm", "sc"])
def test_cell_identical_under_reference_crypto(scheme):
    trace = spec_trace("lbm", 600, 1)

    def run():
        with _captured_run(None) as seen:
            result = runner.run_simulation(scheme, trace, seed=2)
        return dataclasses.asdict(result), seen["scheme"].nvm.snapshot()

    fast = run()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cme, "xor_bytes", reference_xor_bytes)
        mp.setattr(cme, "prf", reference_prf)
        mp.setattr(hmac_engine, "keyed_hash", reference_keyed_hash)
        reference = run()
    assert fast == reference
