"""The genesis (format-time) image of a secure NVM device.

When a secure-NVM DIMM is provisioned, the memory controller initializes
every region to a well-defined state: all encryption counters are zero,
every data block holds the counter-mode encryption of all-zero plaintext
under counter (0, 0), the data-HMAC region holds matching codes, and the
Merkle tree is built over the all-zero counter region.

Materializing that image for a 16 GB device is out of the question, but it
does not need to be: with content-keyed counter HMACs every untouched
subtree of a given level has the *same* node value, and untouched data and
HMAC lines are pure functions of their address.  :class:`GenesisImage`
computes any line of the pristine image on demand; plugged into the NVM
device as its line initializer, it makes the lazy sparse image
indistinguishable from a fully initialized DIMM.

The image memoizes each data-HMAC line it computes.  One such line packs
the codes of four data lines (four encryptions and four HMACs), and a
read of any of the four blocks reads it, so it is computed at most once
per system.  Data lines are not memoized: under random access most of
the four data lines behind an HMAC line are never read, and keeping them
would store four data lines per HMAC line.  The memo holds only pristine
values; attacks and crashes change the NVM device's own lines, never the
image.
"""

from __future__ import annotations

from repro.common.constants import CACHE_LINE_SIZE, HMAC_SIZE
from repro.crypto.cme import CounterModeCipher
from repro.crypto.hmac_engine import HmacEngine
from repro.crypto.prf import SecretKey
from repro.metadata.counters import zero_counter_line
from repro.metadata.layout import MemoryLayout


class GenesisImage:
    """Lazily computes the pristine contents of any NVM line."""

    def __init__(
        self,
        layout: MemoryLayout,
        encryption_key: SecretKey,
        hmac_key: SecretKey,
    ) -> None:
        self.layout = layout
        self._cipher = CounterModeCipher(encryption_key)
        # A private engine so format-time work never pollutes runtime
        # HMAC-computation statistics.
        self._engine = HmacEngine(hmac_key)
        self._hmac_lines: dict[int, bytes] = {}

    def keyed_with(self, encryption_key: SecretKey, hmac_key: SecretKey) -> bool:
        """True when this image was built under exactly these two keys."""
        return self._cipher.key == encryption_key and self._engine.key == hmac_key

    # -- per-region values --------------------------------------------------------

    def data_line(self, addr: int) -> bytes:
        """Pristine data block: all-zero plaintext under counter (0, 0)."""
        return self._cipher.encrypt(bytes(CACHE_LINE_SIZE), addr, 0, 0)

    def data_hmac(self, addr: int) -> bytes:
        """Pristine data HMAC matching :meth:`data_line`."""
        return self._engine.data_hmac(self.data_line(addr), addr, 0, 0)

    def hmac_line(self, line_addr: int) -> bytes:
        """Pristine 64 B line of the data-HMAC region (4 packed codes)."""
        cached = self._hmac_lines.get(line_addr)
        if cached is not None:
            return cached
        first_block = (line_addr - self.layout.hmac_base) // HMAC_SIZE
        parts = []
        for i in range(CACHE_LINE_SIZE // HMAC_SIZE):
            data_addr = (first_block + i) * CACHE_LINE_SIZE
            if data_addr < self.layout.data_capacity:
                parts.append(self.data_hmac(data_addr))
            else:
                parts.append(bytes(HMAC_SIZE))
        cached = self._hmac_lines[line_addr] = b"".join(parts)
        return cached

    def node(self, level: int) -> bytes:
        """The uniform pristine tree-node value at *level*.

        Level 0 is the all-zero counter line; each higher level packs
        four copies of the previous level's HMAC.  For layouts whose page
        count is not a power of four, partial nodes carry the uniform
        value in their dangling slots too — harmless, since verification
        only ever consults slots of children that exist (covered by the
        odd-geometry integration tests).
        """
        return self._engine.genesis_node(level)

    def node_hmac(self, level: int) -> bytes:
        """HMAC of the pristine node value at *level*."""
        return self._engine.counter_hmac(self.node(level))

    def root_register(self) -> bytes:
        """Pristine value of the TCB root registers (the genesis root node)."""
        return self.node(self.layout.root_level)

    # -- the NVM initializer hook -------------------------------------------------

    def line(self, addr: int) -> bytes:
        """Pristine contents of any line — the NVM device's initializer."""
        region = self.layout.region_of(addr)
        if region == "data":
            return self.data_line(addr)
        if region == "counter":
            return zero_counter_line()
        if region == "data_hmac":
            return self.hmac_line(addr)
        return self.node(self.layout.node_of_addr(addr).level)
