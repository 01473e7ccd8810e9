"""Keyed pseudo-random functions used by the encryption and HMAC engines.

The hardware in the paper uses AES for one-time-pad generation and SHA-1
for HMACs.  This model substitutes software constructions with the same
*interface contracts* (deterministic keyed functions, fixed-width outputs,
avalanche on any input change) so that the functional layer — encryption,
authentication, attack detection, crash recovery — behaves exactly like the
hardware would, while the timing layer charges the paper's fixed hardware
latencies instead of Python's crypto cost.
"""

from __future__ import annotations

import hashlib
import hmac as _hmac

from repro.common.constants import CACHE_LINE_SIZE, HMAC_SIZE

_SHA256_SIZE = 32


class SecretKey:
    """An opaque secret key living in the TCB.

    Keys never leave the trusted computing base in the modeled design; the
    class exists mostly to make key handling explicit in signatures and to
    prevent accidental reuse of raw byte strings.
    """

    __slots__ = ("_material",)

    def __init__(self, material: bytes) -> None:
        if len(material) < 16:
            raise ValueError("key material must be at least 128 bits")
        self._material = bytes(material)

    @classmethod
    def from_seed(cls, seed: int | str) -> "SecretKey":
        """Derive a key deterministically from a test/simulation seed."""
        digest = hashlib.sha256(repr(seed).encode()).digest()
        return cls(digest)

    @property
    def material(self) -> bytes:
        """Raw key bytes (TCB-internal use only)."""
        return self._material

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SecretKey):
            return NotImplemented
        return _hmac.compare_digest(self._material, other._material)

    def __hash__(self) -> int:
        return hash(self._material)

    def __repr__(self) -> str:  # never leak the key
        return "SecretKey(<hidden>)"


def prf(key: SecretKey, *parts: bytes, out_len: int = CACHE_LINE_SIZE) -> bytes:
    """Keyed PRF with arbitrary-length output.

    Implements a simple counter-mode expansion of HMAC-SHA256 over the
    concatenated, length-prefixed *parts*.  Length prefixes make the input
    encoding injective, so ``prf(k, a, b) != prf(k, ab, b'')`` — the model
    equivalent of AES's block structure preventing seed collisions.
    """
    message = b"".join(len(p).to_bytes(4, "little") + p for p in parts)
    material = key.material
    n_blocks = -(-out_len // _SHA256_SIZE)
    out = b"".join(
        _hmac.digest(material, i.to_bytes(4, "little") + message, "sha256")
        for i in range(n_blocks)
    )
    return out[:out_len]


def keyed_hash(key: SecretKey, *parts: bytes) -> bytes:
    """A 128-bit keyed MAC over the length-prefixed *parts*.

    Models the paper's HMAC-SHA1 truncated to the 128-bit codeword width.
    """
    message = b"".join(len(p).to_bytes(4, "little") + p for p in parts)
    return _hmac.digest(key.material, message, "sha1")[:HMAC_SIZE]


def constant_time_equal(a: bytes, b: bytes) -> bool:
    """Timing-safe comparison (as the hardware comparator would be)."""
    return _hmac.compare_digest(a, b)
