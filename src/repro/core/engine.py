"""The encryption engine: the functional data path of the controller.

Every data block crossing the chip boundary passes through here
(Figure 2, step 2): write-backs are counter-mode encrypted and
authenticated with a fresh data HMAC; fills are decrypted and their HMAC
checked.  Data HMACs are "generated directly in the memory controller"
and written back atomically with their data block through the ADR-covered
WPQ (Section 4.4) — the property that makes post-crash counter recovery
possible.

The engine also handles the split-counter corner case: when a block's
7-bit minor counter overflows, the page's major counter advances and
every *other* block of the page is re-encrypted under its new (major, 0)
pair (the triggering block is written fresh by the caller and is skipped
to avoid one-time-pad reuse).
"""

from __future__ import annotations

from repro.common.address import page_align
from repro.common.constants import BLOCKS_PER_PAGE, CACHE_LINE_SIZE, HMAC_SIZE
from repro.common.persistence import persistence
from repro.common.stats import StatGroup
from repro.crypto.cme import CounterModeCipher
from repro.crypto.hmac_engine import HmacEngine
from repro.mem.nvm import NVMDevice
from repro.mem.wpq import WritePendingQueue
from repro.metadata.counters import CounterLine
from repro.metadata.genesis import GenesisImage
from repro.metadata.layout import MemoryLayout
from repro.metadata.metacache import IntegrityError

_ZERO_LINE = bytes(CACHE_LINE_SIZE)


# The engine holds no state that survives a crash (keys live in the TCB,
# lines in the device); the declaration exists so the interprocedural
# analyzer can resolve `self.engine.write_data_block(...)` calls and
# follow the data path down to its WPQ stores.
@persistence(aka=("engine",))
class EncryptionEngine:
    """Encrypts, decrypts and authenticates data blocks at the controller."""

    def __init__(
        self,
        cipher: CounterModeCipher,
        hmac: HmacEngine,
        nvm: NVMDevice,
        wpq: WritePendingQueue,
        stats: StatGroup | None = None,
        reader=None,
    ) -> None:
        self.cipher = cipher
        self.hmac = hmac
        self.nvm = nvm
        self.wpq = wpq
        #: ``addr -> bytes`` used for device reads.  Defaults to the raw
        #: device; schemes pass the memory controller's retrying
        #: ``read_line`` so transient media faults are absorbed before the
        #: ciphertext reaches the decrypt/verify pipeline.
        self._read_line = reader if reader is not None else nvm.read_line
        self.layout: MemoryLayout = nvm.layout
        self._stats = stats if stats is not None else StatGroup("engine")
        self._writebacks = self._stats.counter("data_writebacks")
        self._fills = self._stats.counter("data_fills")
        self._reencryptions = self._stats.counter("page_reencryptions")
        genesis = getattr(nvm.initializer, "__self__", None)
        #: Never-written lines read as the genesis image of this engine's
        #: own keys, so a never-written block under counter (0, 0) is the
        #: encryption of zeros with a matching HMAC by construction.
        self._pristine_is_genesis = isinstance(
            genesis, GenesisImage
        ) and genesis.keyed_with(cipher.key, hmac.key)
        #: Optional observability bus (see :mod:`repro.obs`): data-path
        #: crypto work (encrypt+HMAC writebacks, verified fills, page
        #: re-encryptions) is emitted as instants when set.
        self.obs = None

    @property
    def stats(self) -> StatGroup:
        """Data-path event counts."""
        return self._stats

    # -- write-back path -----------------------------------------------------------

    def write_data_block(
        self, addr: int, plaintext: bytes, counters: CounterLine
    ) -> None:
        """Encrypt and persist one write-back (data + data HMAC).

        *counters* must already hold the block's fresh (incremented)
        counter.  Both lines go through the WPQ as normal writes — durable
        on acceptance, which is what keeps data and data HMAC atomic
        across a crash.
        """
        if len(plaintext) != CACHE_LINE_SIZE:
            raise ValueError("write-backs are whole cache lines")
        major, minor = counters.counter_pair(self.layout.block_slot(addr))
        ciphertext = self.cipher.encrypt(plaintext, addr, major, minor)
        code = self.hmac.data_hmac(ciphertext, addr, major, minor)
        self.wpq.begin_combined()
        self.wpq.write(addr, ciphertext)
        hmac_line, offset = self.layout.data_hmac_location(addr)
        self.wpq.write_partial(hmac_line, offset, code)
        self.wpq.end_combined()
        self._writebacks.inc()
        if self.obs is not None:
            self.obs.instant("engine.writeback", "engine", {"addr": addr})

    # -- fill path ----------------------------------------------------------------------

    def read_data_block(self, addr: int, counters: CounterLine) -> bytes:
        """Fetch, decrypt and authenticate one data block.

        Raises :class:`IntegrityError` when the stored data HMAC does not
        match the (data, address, counter) triple — runtime detection of
        spoofing and splicing.

        A block under counter (0, 0) whose data and HMAC lines were never
        stored, on a fault-free device whose untouched lines are this
        engine's genesis image, reads as zeros without its PRF and HMAC:
        the full path's inputs would be the genesis bytes, which verify
        and decrypt to zeros by construction.  Reads and the HMAC check
        are still counted, so statistics match the full path.
        """
        major, minor = counters.counter_pair(self.layout.block_slot(addr))
        hmac_line, offset = self.layout.data_hmac_location(addr)
        if (
            self._pristine_is_genesis
            and major == 0
            and minor == 0
            and self.nvm.read_untouched(addr, hmac_line)
        ):
            self.hmac.count_data_hmac()
            plaintext = _ZERO_LINE
        else:
            ciphertext = self._read_line(addr)
            stored = self._read_line(hmac_line)[offset:offset + HMAC_SIZE]
            computed = self.hmac.data_hmac(ciphertext, addr, major, minor)
            if not self.hmac.verify(bytes(stored), computed):
                raise IntegrityError(
                    f"data HMAC mismatch for block {addr:#x} "
                    f"(counter {major}.{minor})"
                )
            plaintext = self.cipher.decrypt(ciphertext, addr, major, minor)
        self._fills.inc()
        if self.obs is not None:
            self.obs.instant(
                "engine.fill", "engine", {"addr": addr, "verified": True}
            )
        return plaintext

    # -- split-counter overflow ------------------------------------------------------------

    def reencrypt_page(
        self,
        page_addr: int,
        old_counters: CounterLine,
        new_counters: CounterLine,
        skip_block: int,
    ) -> int:
        """Re-encrypt a page after a minor-counter overflow.

        Every block except *skip_block* (the write-back that triggered the
        overflow — its fresh data is written by the caller under the new
        counter) is read, decrypted under its old (major, minor) pair,
        re-encrypted under the new pair, and written back with a fresh
        data HMAC.  Returns the number of blocks rewritten.
        """
        page_addr = page_align(page_addr)
        rewritten = 0
        for block in range(BLOCKS_PER_PAGE):
            if block == skip_block:
                continue
            addr = page_addr + block * CACHE_LINE_SIZE
            old_major, old_minor = old_counters.counter_pair(block)
            plaintext = self.cipher.decrypt(
                self._read_line(addr), addr, old_major, old_minor
            )
            new_major, new_minor = new_counters.counter_pair(block)
            ciphertext = self.cipher.encrypt(plaintext, addr, new_major, new_minor)
            code = self.hmac.data_hmac(ciphertext, addr, new_major, new_minor)
            self.wpq.begin_combined()
            self.wpq.write(addr, ciphertext)
            hmac_line, offset = self.layout.data_hmac_location(addr)
            self.wpq.write_partial(hmac_line, offset, code)
            self.wpq.end_combined()
            rewritten += 1
        self._reencryptions.inc()
        if self.obs is not None:
            self.obs.instant(
                "engine.reencrypt_page",
                "engine",
                {"page": page_addr, "blocks": rewritten},
            )
        return rewritten
