"""Tests for wire formats: padding, traps, inner ciphertexts."""

import pytest

from repro.core import messages as fmt
from repro.core.messages import PayloadSpec
from repro.crypto.groups import get_group
from repro.crypto.kem import cca2_encrypt
from repro.crypto.elgamal import AtomElGamal


@pytest.fixture(scope="module")
def group():
    return get_group("TOY")


class TestPadding:
    def test_roundtrip(self):
        assert PayloadSpec.unpad(PayloadSpec.sized(32).pad(b"hi")) == b"hi"

    def test_empty(self):
        assert PayloadSpec.unpad(PayloadSpec.sized(16).pad(b"")) == b""

    def test_exact_fit(self):
        msg = b"x" * 12
        assert PayloadSpec.unpad(PayloadSpec.sized(16).pad(msg)) == msg

    def test_too_large_rejected(self):
        with pytest.raises(fmt.MessageFormatError):
            PayloadSpec.sized(16).pad(b"x" * 13)

    def test_padded_size_exact(self):
        assert len(PayloadSpec.sized(64).pad(b"ab")) == 64

    def test_truncated_rejected(self):
        with pytest.raises(fmt.MessageFormatError):
            PayloadSpec.unpad(b"\x00\x00")

    def test_length_overflow_rejected(self):
        bad = b"\xff\xff\xff\xff" + b"\x00" * 12
        with pytest.raises(fmt.MessageFormatError):
            PayloadSpec.unpad(bad)


class TestPlainPayload:
    def test_roundtrip(self):
        payload = PayloadSpec.sized(64).build_plain(b"tweet")
        assert PayloadSpec.parse_plain(payload) == b"tweet"

    def test_wrong_tag_rejected(self):
        trap = PayloadSpec.sized(64).build_trap(1, b"n" * 16)
        with pytest.raises(fmt.MessageFormatError):
            PayloadSpec.parse_plain(trap)


class TestTrapPayload:
    def test_roundtrip(self):
        payload = PayloadSpec.sized(64).build_trap(7, b"n" * 16)
        gid, nonce = PayloadSpec.parse_trap(payload)
        assert gid == 7 and nonce == b"n" * 16

    def test_is_trap(self):
        spec = PayloadSpec.sized(64)
        assert PayloadSpec.is_trap(spec.build_trap(0, b"0" * 16))
        assert not PayloadSpec.is_trap(spec.build_plain(b"x"))

    def test_bad_nonce_length(self):
        with pytest.raises(fmt.MessageFormatError):
            PayloadSpec.sized(64).build_trap(0, b"short")

    def test_traps_same_size_as_plain(self):
        """Indistinguishability requires equal sizes."""
        spec = PayloadSpec.sized(80)
        assert len(spec.build_trap(3, b"n" * 16)) == len(spec.build_plain(b"msg"))


class TestInnerPayload:
    def test_roundtrip(self, group):
        scheme = AtomElGamal(group)
        kp = scheme.keygen()
        inner = cca2_encrypt(group, kp.public, b"hello inner")
        spec = PayloadSpec.sized(fmt.inner_payload_size(group, 32))
        payload = spec.build_inner(group, inner)
        parsed = PayloadSpec.parse_inner(group, payload)
        assert parsed == inner

    def test_is_inner(self, group):
        scheme = AtomElGamal(group)
        kp = scheme.keygen()
        inner = cca2_encrypt(group, kp.public, b"x")
        spec = PayloadSpec.sized(fmt.inner_payload_size(group, 32))
        assert PayloadSpec.is_inner(spec.build_inner(group, inner))
        assert not PayloadSpec.is_inner(spec.build_trap(0, b"0" * 16))

    def test_garbage_not_inner_or_trap(self):
        garbage = b"\x00\x00\x00\x04junk" + b"\x00" * 24
        assert not PayloadSpec.is_inner(garbage[4:])  # malformed framing
        assert not PayloadSpec.is_trap(b"\xff" * 32)

    def test_deserialize_cca2_too_short(self, group):
        with pytest.raises(fmt.MessageFormatError):
            PayloadSpec.cca2_from_bytes(group, b"\x01" * 4)


class TestPayloadSpec:
    def test_trap_spec_fits_inner(self, group):
        spec = PayloadSpec.for_deployment(group, 32, trap_variant=True)
        assert spec.payload_size >= fmt.inner_payload_size(group, 32)
        assert spec.elements_per_message == group.elements_for_size(spec.payload_size)

    def test_plain_spec_smaller(self, group):
        trap = PayloadSpec.for_deployment(group, 32, trap_variant=True)
        plain = PayloadSpec.for_deployment(group, 32, trap_variant=False)
        assert plain.payload_size < trap.payload_size

    def test_message_size_scales_payload(self, group):
        small = PayloadSpec.for_deployment(group, 16, trap_variant=True)
        large = PayloadSpec.for_deployment(group, 160, trap_variant=True)
        assert large.payload_size > small.payload_size


class TestPayloadSpecCodec:
    """The codec methods are the payload API."""

    def test_round_trip_through_methods(self, group):
        spec = PayloadSpec.for_deployment(group, 32, trap_variant=True)
        assert spec.parse_plain(spec.build_plain(b"hi")) == b"hi"
        assert spec.parse_trap(spec.build_trap(7, b"y" * 16)) == (7, b"y" * 16)
        assert spec.is_dummy(spec.build_dummy(b"z" * 8))
        assert spec.is_trap(spec.build_trap(0, b"0" * 16))
        assert not spec.is_inner(spec.build_trap(0, b"0" * 16))
        scheme = AtomElGamal(group)
        kp = scheme.keygen()
        inner = cca2_encrypt(group, kp.public, b"deep")
        assert spec.parse_inner(group, spec.build_inner(group, inner)) == inner

    def test_sized_spec_pads_to_its_size(self):
        spec = PayloadSpec.sized(40)
        assert len(spec.pad(b"abc")) == 40
        assert spec.unpad(spec.pad(b"abc")) == b"abc"
        assert spec.elements_per_message == 0

    def test_pad_overflow_raises(self):
        spec = PayloadSpec.sized(8)
        with pytest.raises(fmt.MessageFormatError):
            spec.pad(b"much too long for eight bytes")
