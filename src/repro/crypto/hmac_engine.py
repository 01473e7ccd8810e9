"""Data-HMAC and counter-HMAC computation.

Two kinds of authentication codes exist in the Bonsai Merkle Tree
architecture (Section 2.2, Figure 1):

* **Data HMACs** — one 128-bit code per data block, computed over the
  *encrypted* data, the block address and the block's encryption counter:
  ``DH = HMAC(encrypted_data || address || counter)``.  They defeat spoofing
  and splicing, and — because the counter is an input — inherit replay
  protection from the counter tree.  Data HMACs are stored alongside the
  data in NVM and are *not* cached in the meta cache; they are generated in
  the memory controller and written back atomically with the data (the
  property Section 4.4's counter recovery relies on).
* **Counter HMACs** — the internal nodes of the Merkle tree: each parent
  stores the 128-bit HMAC of each of its four children
  (``CH = HMAC(child_node)``), keyed with the TCB HMAC key.

The engine also counts every HMAC computation so the deferred-spreading
ablation can report calculation savings, and exposes the paper's 80-cycle
latency for the timing layer.
"""

from __future__ import annotations

import functools

from repro.common.constants import CACHE_LINE_SIZE, HMAC_SIZE, MERKLE_ARITY
from repro.common.stats import StatGroup
from repro.crypto.prf import SecretKey, constant_time_equal, keyed_hash

#: Tree levels, leaves included, of the largest possible device: a 64-bit
#: address space holds 2**52 pages, one counter leaf each, and 4**26 = 2**52.
GENESIS_LEVELS = 27


@functools.lru_cache(maxsize=8)
def _genesis_table(key: SecretKey) -> tuple[tuple[bytes, ...], dict[bytes, bytes]]:
    """The genesis value of every tree level and the code of each, by value.

    Level 0 is the all-zero counter line; each level above packs four
    copies of the code of the level below.  Computed once per key and
    shared by every engine holding that key, so building a system costs
    no HMACs; callers must not modify the dict.
    """
    nodes: list[bytes] = []
    codes: dict[bytes, bytes] = {}
    node = bytes(CACHE_LINE_SIZE)
    for _ in range(GENESIS_LEVELS):
        code = keyed_hash(key, node)
        nodes.append(node)
        codes[node] = code
        node = code * MERKLE_ARITY
    return tuple(nodes), codes


class HmacEngine:
    """Computes data HMACs and counter HMACs with one TCB key."""

    def __init__(self, key: SecretKey, stats: StatGroup | None = None) -> None:
        self._key = key
        self._stats = stats if stats is not None else StatGroup("hmac")
        self._data_hmacs = self._stats.counter(
            "data_hmacs", "data HMAC computations"
        )
        self._counter_hmacs = self._stats.counter(
            "counter_hmacs", "counter HMAC (Merkle node) computations"
        )
        self._genesis_nodes, self._genesis_codes = _genesis_table(key)

    @property
    def stats(self) -> StatGroup:
        """Statistics group with computation counts."""
        return self._stats

    @property
    def key(self) -> SecretKey:
        """The HMAC key (TCB-internal)."""
        return self._key

    @property
    def data_hmac_count(self) -> int:
        """Total data-HMAC computations performed so far."""
        return self._data_hmacs.value

    @property
    def counter_hmac_count(self) -> int:
        """Total counter-HMAC (tree-node) computations performed so far."""
        return self._counter_hmacs.value

    def data_hmac(
        self, encrypted_data: bytes, address: int, major: int, minor: int
    ) -> bytes:
        """128-bit data HMAC of one encrypted block.

        Inputs follow Figure 1: encrypted data, address, and the block's
        (split) encryption counter.
        """
        if len(encrypted_data) != CACHE_LINE_SIZE:
            raise ValueError("data HMAC covers exactly one cache line")
        self._data_hmacs.inc()
        return keyed_hash(
            self._key,
            encrypted_data,
            address.to_bytes(8, "little"),
            major.to_bytes(8, "little"),
            minor.to_bytes(2, "little"),
        )

    def genesis_node(self, level: int) -> bytes:
        """The format-time value of every untouched tree node at *level*."""
        return self._genesis_nodes[level]

    def count_data_hmac(self) -> None:
        """Count one data-HMAC check whose outcome is known by construction.

        The encryption engine's never-written-block reads
        (:meth:`~repro.core.engine.EncryptionEngine.read_data_block`) skip
        the computation but still account it, so statistics match the
        full path.
        """
        self._data_hmacs.inc()

    def counter_hmac(self, child_node: bytes) -> bytes:
        """128-bit HMAC of one child tree node (counter line or inner node).

        A node's position is authenticated *positionally*: the code is
        stored in the slot of the parent that the tree structure assigns
        to this child, so relocating a node to any other tree position
        lands it under a slot holding some other child's HMAC.  (Data-level
        splicing is separately caught by the address-keyed data HMACs.)
        Content-only keying also gives every tree level a uniform
        "genesis" value for untouched subtrees, which is what lets a full
        16 GB device be modeled lazily — and makes the code of a genesis
        node value a table lookup.
        """
        if len(child_node) != CACHE_LINE_SIZE:
            raise ValueError("counter HMAC covers exactly one tree node")
        self._counter_hmacs.inc()
        code = self._genesis_codes.get(child_node)
        if code is None:
            code = keyed_hash(self._key, child_node)
        return code

    def verify(self, expected: bytes, actual: bytes) -> bool:
        """Constant-time comparison of two HMAC codewords."""
        if len(expected) != HMAC_SIZE or len(actual) != HMAC_SIZE:
            raise ValueError("HMAC codewords are 128-bit")
        return constant_time_equal(expected, actual)
