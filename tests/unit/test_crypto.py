"""Unit tests for the crypto substrate: PRF, CME cipher, HMAC engine."""

import pytest

from repro.common.constants import CACHE_LINE_SIZE, HMAC_SIZE
from repro.crypto.cme import CounterModeCipher, generate_otp, make_seed, xor_bytes
from repro.crypto.hmac_engine import HmacEngine
from repro.crypto.prf import SecretKey, constant_time_equal, keyed_hash, prf
from repro.metadata.genesis import GenesisImage
from repro.metadata.layout import MemoryLayout, MerkleNodeId


KEY = SecretKey.from_seed("unit-test-key")
OTHER_KEY = SecretKey.from_seed("other-key")


class TestSecretKey:
    def test_from_seed_deterministic(self):
        assert SecretKey.from_seed(42) == SecretKey.from_seed(42)

    def test_different_seeds_differ(self):
        assert SecretKey.from_seed(1) != SecretKey.from_seed(2)

    def test_rejects_short_material(self):
        with pytest.raises(ValueError):
            SecretKey(b"short")

    def test_repr_hides_material(self):
        assert "hidden" in repr(KEY)
        assert KEY.material.hex() not in repr(KEY)


class TestPrf:
    def test_deterministic(self):
        assert prf(KEY, b"a", b"b") == prf(KEY, b"a", b"b")

    def test_key_separation(self):
        assert prf(KEY, b"x") != prf(OTHER_KEY, b"x")

    def test_output_length(self):
        assert len(prf(KEY, b"x")) == CACHE_LINE_SIZE
        assert len(prf(KEY, b"x", out_len=100)) == 100
        assert len(prf(KEY, b"x", out_len=7)) == 7

    def test_injective_part_encoding(self):
        # (a, b) must not collide with (ab, '') — length prefixes at work.
        assert prf(KEY, b"ab", b"c") != prf(KEY, b"a", b"bc")
        assert prf(KEY, b"ab", b"") != prf(KEY, b"a", b"b")

    def test_avalanche(self):
        a = prf(KEY, b"seed-0")
        b = prf(KEY, b"seed-1")
        differing = sum(x != y for x, y in zip(a, b))
        assert differing > CACHE_LINE_SIZE // 2


class TestKeyedHash:
    def test_width_is_128_bits(self):
        assert len(keyed_hash(KEY, b"data")) == HMAC_SIZE

    def test_deterministic(self):
        assert keyed_hash(KEY, b"d", b"a") == keyed_hash(KEY, b"d", b"a")

    def test_key_separation(self):
        assert keyed_hash(KEY, b"d") != keyed_hash(OTHER_KEY, b"d")

    def test_constant_time_equal(self):
        assert constant_time_equal(b"abc", b"abc")
        assert not constant_time_equal(b"abc", b"abd")


class TestSeed:
    def test_fixed_width(self):
        assert len(make_seed(0, 0, 0)) == 18
        assert len(make_seed(2**40, 2**50, 127)) == 18

    def test_no_aliasing_between_components(self):
        assert make_seed(1, 0, 0) != make_seed(0, 1, 0)
        assert make_seed(0, 1, 0) != make_seed(0, 0, 1)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            make_seed(-1, 0, 0)


class TestXorBytes:
    def test_xor_roundtrip(self):
        data = bytes(range(64))
        pad = prf(KEY, b"pad")
        assert xor_bytes(xor_bytes(data, pad), pad) == data

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            xor_bytes(b"ab", b"a")


class TestCounterModeCipher:
    def setup_method(self):
        self.cipher = CounterModeCipher(KEY)
        self.plaintext = bytes(range(64))

    def test_roundtrip(self):
        ct = self.cipher.encrypt(self.plaintext, 0x1000, 3, 7)
        assert self.cipher.decrypt(ct, 0x1000, 3, 7) == self.plaintext

    def test_ciphertext_differs_from_plaintext(self):
        ct = self.cipher.encrypt(self.plaintext, 0x1000, 3, 7)
        assert ct != self.plaintext

    def test_counter_changes_pad(self):
        a = self.cipher.encrypt(self.plaintext, 0x1000, 3, 7)
        b = self.cipher.encrypt(self.plaintext, 0x1000, 3, 8)
        c = self.cipher.encrypt(self.plaintext, 0x1000, 4, 7)
        assert a != b
        assert a != c

    def test_address_changes_pad(self):
        a = self.cipher.encrypt(self.plaintext, 0x1000, 3, 7)
        b = self.cipher.encrypt(self.plaintext, 0x1040, 3, 7)
        assert a != b

    def test_wrong_counter_garbles_decryption(self):
        ct = self.cipher.encrypt(self.plaintext, 0x1000, 3, 7)
        assert self.cipher.decrypt(ct, 0x1000, 3, 8) != self.plaintext

    def test_rejects_partial_lines(self):
        with pytest.raises(ValueError):
            self.cipher.encrypt(b"short", 0, 0, 0)
        with pytest.raises(ValueError):
            self.cipher.decrypt(b"short", 0, 0, 0)

    def test_otp_matches_cipher(self):
        pad = generate_otp(KEY, 0x40, 1, 2)
        ct = self.cipher.encrypt(self.plaintext, 0x40, 1, 2)
        assert xor_bytes(ct, pad) == self.plaintext


class TestHmacEngine:
    def setup_method(self):
        self.engine = HmacEngine(KEY)
        self.block = prf(KEY, b"block-content")

    def test_data_hmac_width(self):
        assert len(self.engine.data_hmac(self.block, 0x80, 1, 2)) == HMAC_SIZE

    def test_data_hmac_depends_on_every_input(self):
        base = self.engine.data_hmac(self.block, 0x80, 1, 2)
        other_data = self.engine.data_hmac(prf(KEY, b"x"), 0x80, 1, 2)
        other_addr = self.engine.data_hmac(self.block, 0xC0, 1, 2)
        other_major = self.engine.data_hmac(self.block, 0x80, 2, 2)
        other_minor = self.engine.data_hmac(self.block, 0x80, 1, 3)
        assert len({base, other_data, other_addr, other_major, other_minor}) == 5

    def test_counter_hmac_depends_on_content(self):
        node = bytes(64)
        other = bytes([1]) + bytes(63)
        assert self.engine.counter_hmac(node) != self.engine.counter_hmac(other)

    def test_counter_hmac_uniform_for_equal_content(self):
        # Positional authentication: equal contents hash equally; the slot
        # position in the parent is what pins a node to its place.
        assert self.engine.counter_hmac(bytes(64)) == self.engine.counter_hmac(
            bytes(64)
        )

    def test_computation_counters(self):
        self.engine.data_hmac(self.block, 0, 0, 0)
        self.engine.data_hmac(self.block, 0, 0, 0)
        self.engine.counter_hmac(bytes(64))
        assert self.engine.data_hmac_count == 2
        assert self.engine.counter_hmac_count == 1

    def test_verify_checks_width(self):
        with pytest.raises(ValueError):
            self.engine.verify(b"short", bytes(HMAC_SIZE))

    def test_verify_matches(self):
        mac = self.engine.data_hmac(self.block, 0, 0, 0)
        assert self.engine.verify(mac, bytes(mac))
        tampered = bytes([mac[0] ^ 1]) + mac[1:]
        assert not self.engine.verify(mac, tampered)

    def test_rejects_partial_line_inputs(self):
        with pytest.raises(ValueError):
            self.engine.data_hmac(b"short", 0, 0, 0)
        with pytest.raises(ValueError):
            self.engine.counter_hmac(b"short")


class TestKnownAnswers:
    """Byte-exact outputs, recorded from the original implementations.

    Every other test here is relational; a fast path that changed bytes
    consistently on both the encrypt and the verify side would pass them
    all.  These vectors pin the encoding itself: 4-byte little-endian
    length prefixes, counter-first PRF blocks, HMAC-SHA256 expansion and
    HMAC-SHA1 truncated to 128 bits.
    """

    PRF_100 = bytes.fromhex(
        "fb00ce3fd5bfa0742d4067286dfd2753d2207b8c4062c94ffcb5950382f1706e"
        "a2a7b3a1dd76f6a9ae852761e648be056b234f6473317ed9a038bdaa292994f1"
        "f1c675bb0f1f4ff2b46ee7b688298b13a71c1b7dcf8e27a16f816e6fea601fea"
        "132f565d"
    )

    @pytest.mark.parametrize("out_len", [7, 64, 100])
    def test_prf(self, out_len):
        assert prf(KEY, b"a", b"bc", out_len=out_len) == self.PRF_100[:out_len]

    def test_multi_part_keyed_hash(self):
        assert keyed_hash(KEY, b"d", b"", b"ata") == bytes.fromhex(
            "9c50756744419ec54de277300aa8f354"
        )

    def test_generate_otp(self):
        assert generate_otp(KEY, 0x1240, 3, 7) == bytes.fromhex(
            "e9a65bb6a91d921a5eeb6f286c17eb1cd177c1ff5e8c5e8dbf24c0f7e2d75a8f"
            "3688d57b8ac516e2d3f5aadf762612c97833432959d62123caa7c1145eaa7de2"
        )

    def test_data_hmac(self):
        engine = HmacEngine(KEY)
        assert engine.data_hmac(bytes(range(64)), 0x1240, 3, 7) == bytes.fromhex(
            "7e6b25558ca219b5281bfa4bdb3d2e60"
        )

    def test_counter_hmac(self):
        engine = HmacEngine(KEY)
        assert engine.counter_hmac(bytes(range(64, 128))) == bytes.fromhex(
            "5e051ceb01cdc80c1407fd6a0f1ed989"
        )


class TestGenesisKnownAnswers:
    """The pristine image of a 1 MB device (256 pages, 5-level tree)."""

    ENC = SecretKey.from_seed("genesis-enc")
    MAC = SecretKey.from_seed("genesis-mac")
    HMAC_NODE = bytes.fromhex("fabeb11f741af5a955cdf974a92b1c05")
    ROOT_SLOT = bytes.fromhex("d3ee86a64bf4a159b795c0024ab759dd")

    def setup_method(self):
        self.layout = MemoryLayout(1 << 20)
        self.genesis = GenesisImage(self.layout, self.ENC, self.MAC)

    def test_data_line(self):
        assert self.genesis.line(0x1240) == bytes.fromhex(
            "6b6a3cf58f9115a357a56e70dd246c99024cdb92f59998e135959b946876d465"
            "05f898c61a91bd4a8deb8fb1929e67d523f738d28f3173921c38928f55bf3241"
        )

    def test_counter_line(self):
        assert self.genesis.line(self.layout.counter_base + 0x40) == bytes(64)

    def test_data_hmac_line(self):
        assert self.genesis.line(self.layout.hmac_base + 0x80) == bytes.fromhex(
            "59eedb809a3ec3d49b4310caad1d05c9df83fa703a2c66ae32edb5260a353610"
            "c1c46498e1ab1912ec2de91b304328f019522464aad1843e7250f81965581d08"
        )

    def test_merkle_line(self):
        addr = self.layout.merkle_node_addr(MerkleNodeId(2, 3))
        assert self.genesis.line(addr) == self.HMAC_NODE * 4

    def test_root_register(self):
        assert self.genesis.root_register() == self.ROOT_SLOT * 4
