"""Differential tests: every fast path against the implementation it replaced.

The functional path (crypto, the genesis image, the lazy metadata flush)
was made cheap without changing a single output byte.  The previous
implementations live on here, and only here, as references:

* the generator ``xor_bytes`` and the ``hmac.new``-per-call PRF / MAC;
* the sort-every-dirty-line-per-victim ``_flush_all_dirty_lazily``;
* an un-memoized genesis image (a fresh :class:`GenesisImage` per line);
* the level-loop ``node_of_addr`` and ``parent_of``-chained ancestors;
* the full read of a never-written block and the computed HMAC of a
  genesis tree node (:func:`_full_path` switches both shortcuts off).

Every Figure 5 cell's :class:`SimulationResult` is also pinned by sha256
at a short length, so any fast path that moves a simulated number fails.
"""

from __future__ import annotations

import dataclasses
import hashlib
import hmac
import json
import random
from contextlib import contextmanager

import pytest

from repro.common.constants import CACHE_LINE_SIZE, HMAC_SIZE
from repro.core.engine import EncryptionEngine
from repro.core.schemes import create_scheme
from repro.core.schemes.base import SecureNVMScheme
from repro.crypto import cme, hmac_engine
from repro.crypto.cme import CounterModeCipher, xor_bytes
from repro.crypto.hmac_engine import HmacEngine
from repro.crypto.prf import SecretKey, keyed_hash, prf
from repro.faults import MediaFaultModel
from repro.mem.nvm import NVMDevice
from repro.mem.wpq import WritePendingQueue
from repro.metadata.counters import CounterLine
from repro.metadata.genesis import GenesisImage
from repro.metadata.layout import MemoryLayout, MerkleNodeId
from repro.metadata.metacache import IntegrityError, MetadataStore
from repro.obs import ObsSession
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


# -- pristine-line shortcuts ------------------------------------------------------------


def reference_counter_hmac(self: HmacEngine, child_node: bytes) -> bytes:
    if len(child_node) != CACHE_LINE_SIZE:
        raise ValueError("counter HMAC covers exactly one tree node")
    self.stats.counter("counter_hmacs").inc()
    return hmac_engine.keyed_hash(self.key, child_node)


@contextmanager
def _full_path():
    """Switch off both pristine-line shortcuts: never-written blocks are
    read, verified and decrypted, and genesis tree-node codes are
    computed."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(NVMDevice, "read_untouched", lambda self, *addrs: False)
        mp.setattr(HmacEngine, "counter_hmac", reference_counter_hmac)
        yield


@contextmanager
def _counted_crypto():
    """Count keyed hashes and the reads the data-path shortcut serves."""
    counts = {"keyed_hash": 0, "untouched_reads": 0}
    real_hash = hmac_engine.keyed_hash
    real_untouched = NVMDevice.read_untouched

    def counted_hash(*args):
        counts["keyed_hash"] += 1
        return real_hash(*args)

    def counted_untouched(self, *addrs):
        served = real_untouched(self, *addrs)
        counts["untouched_reads"] += served
        return served

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hmac_engine, "keyed_hash", counted_hash)
        mp.setattr(NVMDevice, "read_untouched", counted_untouched)
        yield counts


def _observed_cell(scheme, trace):
    obs = ObsSession()
    with _captured_run(None) as seen:
        result = runner.run_simulation(scheme, trace, seed=5, obs=obs)
    nvm = seen["scheme"].nvm
    counts = {addr: nvm.write_count(addr) for addr in nvm.touched_lines()}
    return dataclasses.asdict(result), nvm.snapshot(), counts, obs.bus.events()


@pytest.mark.parametrize("scheme", ["no_cc", "sc", "osiris_plus", "ccnvm_no_ds", "ccnvm"])
def test_cell_identical_without_pristine_shortcuts(scheme):
    trace = spec_trace("lbm", 600, 2)
    with _counted_crypto() as fast_counts:
        fast = _observed_cell(scheme, trace)
    with _full_path():
        with _counted_crypto() as full_counts:
            full = _observed_cell(scheme, trace)
    assert fast[0] == full[0]  # SimulationResult, stats included
    assert fast[0]["counter_hmacs"] == full[0]["counter_hmacs"] > 0
    assert fast[0]["data_hmacs"] == full[0]["data_hmacs"] > 0
    assert fast[1] == full[1]  # the whole stored NVM image
    assert fast[2] == full[2]  # per-line write counts
    assert fast[3] == full[3]  # every obs event, engine.fill included
    # The shortcuts really ran: pristine fills and genesis node codes.
    assert fast_counts["untouched_reads"] > 0 == full_counts["untouched_reads"]
    assert fast_counts["keyed_hash"] < full_counts["keyed_hash"]


def _engine(initializer_keys=(ENC, MAC), zero_initializer=False):
    layout = MemoryLayout(SMALL_CAPACITY)
    initializer = None
    if not zero_initializer:
        initializer = GenesisImage(layout, *initializer_keys).line
    nvm = NVMDevice(layout, initializer=initializer)
    return EncryptionEngine(
        CounterModeCipher(ENC), HmacEngine(MAC), nvm, WritePendingQueue(nvm, entries=64)
    )


def _flip(line: bytes, index: int) -> bytes:
    return line[:index] + bytes([line[index] ^ 1]) + line[index + 1:]


BLOCK = 5 * CACHE_LINE_SIZE


class TestPristineReads:
    def test_never_written_block_reads_zero_and_counts_like_a_full_read(self):
        def pristine_read():
            engine = _engine()
            assert engine.read_data_block(BLOCK, CounterLine()) == bytes(CACHE_LINE_SIZE)
            return (
                engine.nvm.stats.as_dict(),
                engine.stats.as_dict(),
                engine.hmac.stats.as_dict(),
                engine.nvm.total_reads,
                engine.hmac.data_hmac_count,
            )

        fast = pristine_read()
        with _full_path():
            full = pristine_read()
        assert fast == full
        assert fast[3:] == (2, 1)

    def test_never_written_block_under_a_fresh_counter_is_detected(self):
        # A counter that moved past a lost data write (a crash) must not
        # read the genesis line as zeros.
        engine = _engine()
        counters = CounterLine()
        counters.increment(engine.layout.block_slot(BLOCK))
        with pytest.raises(IntegrityError):
            engine.read_data_block(BLOCK, counters)

    def test_tampered_never_written_data_line_is_detected(self):
        engine = _engine()
        engine.nvm.poke(BLOCK, _flip(engine.nvm.peek(BLOCK), 9))
        with pytest.raises(IntegrityError):
            engine.read_data_block(BLOCK, CounterLine())

    def test_tampered_own_hmac_slot_is_detected(self):
        engine = _engine()
        hmac_line, offset = engine.layout.data_hmac_location(BLOCK)
        engine.nvm.poke(hmac_line, _flip(engine.nvm.peek(hmac_line), offset + 3))
        with pytest.raises(IntegrityError):
            engine.read_data_block(BLOCK, CounterLine())

    def test_tampered_sibling_slot_still_reads_zeros(self):
        engine = _engine()
        hmac_line, offset = engine.layout.data_hmac_location(BLOCK)
        sibling = (offset + HMAC_SIZE) % CACHE_LINE_SIZE
        engine.nvm.poke(hmac_line, _flip(engine.nvm.peek(hmac_line), sibling))
        assert engine.read_data_block(BLOCK, CounterLine()) == bytes(CACHE_LINE_SIZE)

    @pytest.mark.parametrize("region", ["data", "data_hmac"])
    def test_silent_media_fault_on_never_written_line_is_detected(self, region):
        engine = _engine()
        hmac_line, offset = engine.layout.data_hmac_location(BLOCK)
        model = MediaFaultModel()
        if region == "data":
            model.inject_silent_bitflip(BLOCK, byte_index=17)
        else:
            model.inject_silent_bitflip(hmac_line, byte_index=offset)
        engine.nvm.set_media_model(model)
        with pytest.raises(IntegrityError):
            engine.read_data_block(BLOCK, CounterLine())
        assert model.delivered["silent"] == 1

    @pytest.mark.parametrize("region", ["data", "data_hmac"])
    def test_detectable_media_fault_retries_as_on_the_full_path(self, region):
        def faulted_read():
            scheme = create_scheme("ccnvm", small_config(), SMALL_CAPACITY, seed=3)
            model = MediaFaultModel()
            target = BLOCK if region == "data" else scheme.layout.data_hmac_location(BLOCK)[0]
            model.inject_transient(target, count=2)
            scheme.nvm.set_media_model(model)
            got = scheme.read(1_000, BLOCK)
            retries = scheme.controller.stats.counter("media_read_retries").value
            return got, retries, scheme.stats.as_dict(), model.delivered

        fast = faulted_read()
        with _full_path():
            full = faulted_read()
        assert fast == full
        assert fast[0][0] == bytes(CACHE_LINE_SIZE)
        assert fast[1] == 2

    def test_zero_initializer_device_still_fails_authentication(self):
        with pytest.raises(IntegrityError):
            _engine(zero_initializer=True).read_data_block(BLOCK, CounterLine())

    def test_genesis_under_another_hmac_key_still_fails_authentication(self):
        other = SecretKey.from_seed("other-mac")
        with pytest.raises(IntegrityError):
            _engine(initializer_keys=(ENC, other)).read_data_block(BLOCK, CounterLine())

    def test_genesis_under_another_encryption_key_reads_as_on_the_full_path(self):
        # Its codes match its own ciphertext, which decrypts to garbage.
        keys = (SecretKey.from_seed("other-enc"), MAC)
        fast = _engine(initializer_keys=keys).read_data_block(BLOCK, CounterLine())
        with _full_path():
            full = _engine(initializer_keys=keys).read_data_block(BLOCK, CounterLine())
        assert fast == full != bytes(CACHE_LINE_SIZE)


class TestGenesisNodeCodes:
    def test_table_codes_equal_computed_ones_and_still_count(self):
        engine = HmacEngine(MAC)
        levels = range(hmac_engine.GENESIS_LEVELS)
        assert engine.genesis_node(0) == bytes(CACHE_LINE_SIZE)
        for level in levels:
            node = engine.genesis_node(level)
            code = keyed_hash(MAC, node)
            assert engine.counter_hmac(node) == code
            if level + 1 in levels:
                assert engine.genesis_node(level + 1) == code * (CACHE_LINE_SIZE // HMAC_SIZE)
        assert engine.counter_hmac_count == len(levels)
        other = bytes(range(64))
        assert engine.counter_hmac(other) == keyed_hash(MAC, other)

    def test_table_covers_the_deepest_tree(self):
        # 2**52 pages: the largest data region a 64-bit address space holds.
        deepest = MemoryLayout(1 << 64)
        assert deepest.root_level == hmac_engine.GENESIS_LEVELS - 1


# -- every Figure 5 result, pinned ---------------------------------------------------

#: sha256 of each Figure 5 cell's SimulationResult (canonical JSON) at 600
#: refs, seed 1, recorded before the pristine-line shortcuts existed.
FIGURE5_RESULT_SHA256 = {
    "leslie3d/no_cc": "ef3f56757a0b9dbeef16ecc244e90f6cdaa98c10d79042a86ff9d2b7756fc26d",
    "leslie3d/sc": "731cd7dc05718e38dda6b9d33973ddc92b95c7c3cf7e2113b6afe12cd3b3e239",
    "leslie3d/osiris_plus": "a1655a97160a0d4cd4569b9cdb9a5b2cb4bc1e0b3b38be8134273cd756823880",
    "leslie3d/ccnvm_no_ds": "6ac01aa1f1b2599179f5c65e3d7d92bc0ebb06deb7eca2eaefbdac538bcc1712",
    "leslie3d/ccnvm": "690e666a00a791866b8d14f6f8820485c4d97ec827a1a45bcaa82acafb5ecd35",
    "libquantum/no_cc": "21412a7325243411c6a0f7b9972f404d0cab7cf3bd2d89567eed1dd1d2d3e157",
    "libquantum/sc": "6cdf703f25305ec9dfe3e94d977e2cdaa14575f56a7e68a4726c4d0cbe2d93b0",
    "libquantum/osiris_plus": "d36ab37a7cb4a604b175360bff6940e450b301dc62698215cbe4205aaf6e56b3",
    "libquantum/ccnvm_no_ds": "91db418f7043d3db3764c77154ae04d5db29ddccf94beef4e4794e0977c23d96",
    "libquantum/ccnvm": "9dd46da0be486de81f06811c928d2bcde1c8ea12ac1550aa97a8e3fe1dff2f6d",
    "gcc/no_cc": "b824bb30948915d5236dfd19a137b8cc5bd8df5e6331830b0a1ca8859f89da88",
    "gcc/sc": "f4c18196d0771eaa3a21f9a37d3bb352c80e3ab72c8f20b4c3a8184cd82aab02",
    "gcc/osiris_plus": "befafcabf6576ba9e20a4fc1681a615743d96912528e8a7edd223485be75ac2c",
    "gcc/ccnvm_no_ds": "b466001d44d4476cbaccea42211a177c94dbe92ce4df6ffae4fb0709b535774a",
    "gcc/ccnvm": "3ecb153c8ffeeead1a25418d0346a80b2f430161c3aadb25ecaa54f7e2915fbf",
    "lbm/no_cc": "233b6673ddd922d6e92f7a2cba274a2725b60618972fe3e650e32d43bffeca6c",
    "lbm/sc": "65862701c2ebbe2d7114240edcfc94835c84bed5e7aa86dfb51049b05cf7d74a",
    "lbm/osiris_plus": "191a8656ff8add9e728c31c8c7760991146d48efd100706c1884410953238f98",
    "lbm/ccnvm_no_ds": "530bb000cd2cbb84473a1e3f151e3ec81a8f4fba537e05a6d1ef43c4897b2978",
    "lbm/ccnvm": "1f7c0ea3e03298a27c775cf9f627e9c890172f73bd37bf13b161ead4cf4c50cd",
    "soplex/no_cc": "f1731ab7b30622c929beb6f93bf195af13290850dbf984a08d7197e40f205f04",
    "soplex/sc": "c0e1e1482db774aea924c89ccb52c3359390b2f96c675bd2accf7325816604e5",
    "soplex/osiris_plus": "a970c68be1c863bb97ad64b29231f89a14c77c3e8a6b807d36429d978ea033a3",
    "soplex/ccnvm_no_ds": "4352ab898336dd5204d11c071d66746f0a0bd48064f3776cf1c34010ed5a7f8d",
    "soplex/ccnvm": "4d4695cb05cbb993eb5fb19a1ceddca72d82ee7b340e86386b1e46390468302b",
    "hmmer/no_cc": "cecc02a15a56f301bd2c3602209cc33974e06aa6d86470bfe95896c0054968b9",
    "hmmer/sc": "f4ced5f7beee15f7f006fdac6ff557073cd41143abae291f5818188e660812e1",
    "hmmer/osiris_plus": "a3de3c86224e4fef1e53f98454125705e7356624259bd90c0fa9e5901d04371f",
    "hmmer/ccnvm_no_ds": "0cf584b0078d9e70d4e6dfd287003112f87df752b3f32ad181f592e0e42cdfe3",
    "hmmer/ccnvm": "7d532247a6bdbb8a6bcea3b3e22a92301d4c1fce53ca316c406bbf89c6b28692",
    "milc/no_cc": "e427333449236701ad64074f711d2400832df04346f94dc57137c0bb5166f445",
    "milc/sc": "7867af08deb7e96da1832e43ea5832ca1b7c6929136f936e58d7749b363e4cc5",
    "milc/osiris_plus": "9f100a4e09c2acca8ff22972b7841a7b93d61effbb5cc5a3f77720e7f9cf6b66",
    "milc/ccnvm_no_ds": "611ffdae7d2131ec5f86552129c515b36a272d3aad833c6877e4abc440719846",
    "milc/ccnvm": "1fc22ff11a73a9a3337c9aa40ebbc80d6079784f29255012a71c84e751ef5287",
    "namd/no_cc": "bdc071b5216f099799a18d9d3e50c6722b0d9d6303686f5315c517d06cae13f4",
    "namd/sc": "ee7aa42ffa6970009dcaa6aa448864183f2f59a673992dece296721399cef778",
    "namd/osiris_plus": "9c08cc25f8eaed4ceba71d17ed2ee15eee13b4977421907136e6eb6314f8dd52",
    "namd/ccnvm_no_ds": "0c4ce9c5542ffbf83e44caceefdeccea749a1d39013c1eb4317543e58e37022f",
    "namd/ccnvm": "c228726bf92f59ad3a59d33fa3938c1c9a71aa36c07334ca4ea92e98f186a8dc",
}


def test_figure5_results_are_pinned():
    from repro.analysis import experiments

    comparisons = experiments.figure5_comparisons(length=600, seed=1)
    digests = {
        f"{workload}/{scheme}": hashlib.sha256(
            json.dumps(dataclasses.asdict(result), sort_keys=True).encode()
        ).hexdigest()
        for workload, comparison in comparisons.items()
        for scheme, result in comparison.results.items()
    }
    assert len(digests) == 40
    assert digests == FIGURE5_RESULT_SHA256
