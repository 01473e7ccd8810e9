"""Unit tests for the encryption engine's functional data path."""

import pytest

from repro.common.constants import (
    BLOCKS_PER_PAGE,
    CACHE_LINE_SIZE,
    HMAC_SIZE,
)
from repro.core.engine import EncryptionEngine
from repro.crypto.cme import CounterModeCipher
from repro.crypto.hmac_engine import HmacEngine
from repro.crypto.prf import SecretKey
from repro.mem.nvm import NVMDevice
from repro.mem.wpq import WritePendingQueue
from repro.metadata.counters import CounterLine
from repro.metadata.genesis import GenesisImage
from repro.metadata.layout import MemoryLayout
from repro.metadata.metacache import IntegrityError


ENC = SecretKey.from_seed("engine-enc")
MAC = SecretKey.from_seed("engine-mac")


@pytest.fixture
def engine():
    layout = MemoryLayout(1 << 20)
    genesis = GenesisImage(layout, ENC, MAC)
    nvm = NVMDevice(layout, initializer=genesis.line)
    wpq = WritePendingQueue(nvm, entries=64)
    return EncryptionEngine(
        CounterModeCipher(ENC), HmacEngine(MAC), nvm, wpq
    )


PLAINTEXT = bytes(range(64))


class TestWriteReadRoundtrip:
    def test_roundtrip(self, engine):
        counters = CounterLine()
        counters.increment(1)
        engine.write_data_block(64, PLAINTEXT, counters)
        assert engine.read_data_block(64, counters) == PLAINTEXT

    def test_ciphertext_lands_in_nvm(self, engine):
        counters = CounterLine()
        counters.increment(1)
        engine.write_data_block(64, PLAINTEXT, counters)
        assert engine.nvm.peek(64) != PLAINTEXT

    def test_data_hmac_stored_beside_data(self, engine):
        counters = CounterLine()
        counters.increment(0)
        engine.write_data_block(0, PLAINTEXT, counters)
        hmac_line, offset = engine.layout.data_hmac_location(0)
        stored = engine.nvm.peek(hmac_line)[offset:offset + HMAC_SIZE]
        expected = engine.hmac.data_hmac(engine.nvm.peek(0), 0, 0, 1)
        assert stored == expected

    def test_rejects_partial_plaintext(self, engine):
        with pytest.raises(ValueError):
            engine.write_data_block(0, b"short", CounterLine())

    def test_stale_counter_fails_authentication(self, engine):
        counters = CounterLine()
        counters.increment(0)
        engine.write_data_block(0, PLAINTEXT, counters)
        with pytest.raises(IntegrityError):
            engine.read_data_block(0, CounterLine())  # counter (0,0) is stale

    def test_tampered_ciphertext_fails_authentication(self, engine):
        counters = CounterLine()
        counters.increment(0)
        engine.write_data_block(0, PLAINTEXT, counters)
        raw = engine.nvm.peek(0)
        engine.nvm.poke(0, bytes([raw[0] ^ 1]) + raw[1:])
        with pytest.raises(IntegrityError):
            engine.read_data_block(0, counters)

    def test_genesis_block_reads_as_zero(self, engine):
        assert engine.read_data_block(128, CounterLine()) == bytes(CACHE_LINE_SIZE)

    def test_event_counters(self, engine):
        counters = CounterLine()
        counters.increment(0)
        engine.write_data_block(0, PLAINTEXT, counters)
        engine.read_data_block(0, counters)
        assert engine.stats.counter("data_writebacks").value == 1
        assert engine.stats.counter("data_fills").value == 1


class TestPageReencryption:
    def _overflow_setup(self, engine):
        """Write every block of page 0, then roll the counters' major."""
        old = CounterLine()
        for block in range(BLOCKS_PER_PAGE):
            old.minors[block] = 5
            engine.write_data_block(
                block * CACHE_LINE_SIZE, bytes([block]) * 64, old
            )
        new = CounterLine(major=1)
        new.minors[7] = 1  # the triggering block gets a fresh minor
        return old, new

    def test_reencrypt_page_rewrites_others(self, engine):
        old, new = self._overflow_setup(engine)
        rewritten = engine.reencrypt_page(0, old, new, skip_block=7)
        assert rewritten == BLOCKS_PER_PAGE - 1
        # Every non-skipped block decrypts under the new counters.
        for block in range(BLOCKS_PER_PAGE):
            if block == 7:
                continue
            data = engine.read_data_block(block * CACHE_LINE_SIZE, new)
            assert data == bytes([block]) * 64

    def test_skip_block_left_under_old_counter(self, engine):
        old, new = self._overflow_setup(engine)
        engine.reencrypt_page(0, old, new, skip_block=7)
        # Block 7 still authenticates under its OLD pair only.
        data = engine.read_data_block(7 * CACHE_LINE_SIZE, old)
        assert data == bytes([7]) * 64
        with pytest.raises(IntegrityError):
            engine.read_data_block(7 * CACHE_LINE_SIZE, new)

    def test_reencryption_statistic(self, engine):
        old, new = self._overflow_setup(engine)
        engine.reencrypt_page(0, old, new, skip_block=7)
        assert engine.stats.counter("page_reencryptions").value == 1

    def test_reencryption_write_traffic(self, engine):
        old, new = self._overflow_setup(engine)
        before = engine.nvm.total_writes
        engine.reencrypt_page(0, old, new, skip_block=0)
        # 63 data lines + 63 HMAC-line merges.
        assert engine.nvm.total_writes - before == 2 * (BLOCKS_PER_PAGE - 1)
