"""Unit tests for the NIST P-256 backend (``repro.crypto.ec``).

Point arithmetic is checked against published P-256 multiples of the
generator and against an independent double-and-add reference written
directly from the curve equation, so a bug in the Jacobian formulas
cannot hide behind itself.
"""

import pytest

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.crypto.ec import (
    B,
    GX,
    GY,
    JAC_OPS,
    N,
    P,
    EcGroup,
    EcPoint,
    JacobianComb,
    _batch_to_affine,
    _jdbl,
    _jmul,
    _mul_var,
    _to_affine,
    _wnaf,
)
from repro.crypto.elgamal import AtomCiphertext, AtomElGamal
from repro.crypto.fastexp import FixedBaseComb
from repro.crypto.groups import DeterministicRng, EncodingError, get_group

GROUP = get_group("P256")

# Published multiples of the P-256 base point (affine x, y).
KNOWN_MULTIPLES = {
    1: (GX, GY),
    2: (
        0x7CF27B188D034F7E8A52380304B51AC3C08969E277F21B35A60B48FC47669978,
        0x07775510DB8ED040293D9AC69F7430DBBA7DADE63CE982299E04B79D227873D1,
    ),
    3: (
        0x5ECBE4D1A6330A44C8F7EF951D4BF165E6C6B721EFADA985FB41661BC6E7FD6C,
        0x8734640C4998FF7E374B06CE1A64A2ECD82AB036384FB83D9A79B127A27D5032,
    ),
    5: (
        0x51590B7A515140D2D784C85608668FDFEF8C82FD1F5BE52421554A0DC3D033ED,
        0xE0C17DA8904A727D8AE1BF36BF8A79260D012F00D4D80888D1D0BB44FDA16DA4,
    ),
}


def _ref_add(p1, p2):
    """Affine addition straight from the curve equation (reference)."""
    if p1 is None:
        return p2
    if p2 is None:
        return p1
    (x1, y1), (x2, y2) = p1, p2
    if x1 == x2 and (y1 + y2) % P == 0:
        return None
    if p1 == p2:
        lam = (3 * x1 * x1 - 3) * pow(2 * y1, -1, P) % P
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, P) % P
    x3 = (lam * lam - x1 - x2) % P
    return (x3, (lam * (x1 - x3) - y1) % P)


def _ref_mult(k, base=(GX, GY)):
    """Double-and-add reference scalar multiplication (of the generator
    unless ``base`` is given)."""
    acc, addend = None, base
    while k:
        if k & 1:
            acc = _ref_add(acc, addend)
        addend = _ref_add(addend, addend)
        k >>= 1
    return acc


class TestCurveConstants:
    def test_generator_on_curve(self):
        assert (GY * GY - (GX ** 3 - 3 * GX + B)) % P == 0

    def test_group_order(self):
        assert (GROUP.g ** N).is_identity()
        assert not (GROUP.g ** (N - 1)).is_identity()


class TestPointArithmetic:
    @pytest.mark.parametrize("k", sorted(KNOWN_MULTIPLES))
    def test_known_multiples(self, k):
        point = GROUP.g ** k
        assert (point.x, point.y) == KNOWN_MULTIPLES[k]

    @pytest.mark.parametrize("k", [2, 3, 5, 7, 12345, N - 1, N - 2])
    def test_matches_reference_ladder(self, k):
        point = GROUP.g ** k
        assert (point.x, point.y) == _ref_mult(k)

    def test_jacobian_vs_affine_paths_agree(self):
        rng = DeterministicRng(b"ec-jacobian")
        a = GROUP.random_element(rng)
        b = GROUP.random_element(rng)
        via_affine = a * b
        via_jac = GROUP._wrap_raw(_jmul(a._jac(), b._jac()))
        assert via_affine == via_jac
        assert GROUP._wrap_raw(_jdbl(a._jac())) == a * a

    def test_identity_laws(self):
        e = GROUP.identity
        a = GROUP.random_element(DeterministicRng(b"ec-identity"))
        assert e * a == a and a * e == a
        assert a / a == e
        assert a * a.inverse() == e
        assert (e ** 12345).is_identity()
        assert e.inverse() == e

    def test_inverse_negates_y(self):
        a = GROUP.random_element(DeterministicRng(b"ec-neg"))
        assert a.inverse() == EcPoint(GROUP, a.x, P - a.y)

    def test_negative_exponents_reduce_mod_n(self):
        a = GROUP.random_element(DeterministicRng(b"ec-negexp"))
        assert a ** -1 == a ** (N - 1) == a.inverse()

    def test_batch_to_affine_matches_single(self):
        rng = DeterministicRng(b"ec-batch")
        jacs = [_jdbl(GROUP.random_element(rng)._jac()) for _ in range(5)]
        jacs.append(JAC_OPS.one)
        normalized = _batch_to_affine(jacs)
        for jac, norm in zip(jacs, normalized):
            assert _to_affine(jac) == _to_affine(norm)


class TestSerialization:
    def test_compressed_roundtrip(self):
        rng = DeterministicRng(b"ec-serialize")
        for _ in range(8):
            el = GROUP.random_element(rng)
            assert GROUP.element(el.value) == el
            assert len(el.to_bytes()) == GROUP.element_bytes == 33

    def test_identity_serializes_as_zero(self):
        assert GROUP.identity.value == 0
        assert GROUP.element(0).is_identity()
        assert GROUP.identity.to_bytes() == b"\x00" * 33

    @pytest.mark.parametrize(
        "bad",
        [
            (0x04 << 256) | GX,  # uncompressed prefix
            (0x02 << 256) | P,  # x out of field
            (0x02 << 256) | 1,  # x not on the curve (1-3+B is a non-residue)
            1,
        ],
    )
    def test_invalid_encodings_rejected(self, bad):
        with pytest.raises(ValueError):
            GROUP.element(bad)

    def test_off_curve_affine_rejected(self):
        with pytest.raises(ValueError):
            GROUP.element_from_affine(GX, GY + 1)


class TestKoblitzEncoding:
    def test_roundtrip(self):
        for message in [b"", b"x", b"hello curve", b"a" * GROUP.params.message_bytes]:
            point = GROUP.encode(message)
            assert GROUP.decode(point) == message

    def test_deterministic_even_y(self):
        point = GROUP.encode(b"determinism")
        assert point == GROUP.encode(b"determinism")
        assert point.y % 2 == 0

    def test_capacity_enforced(self):
        with pytest.raises(EncodingError):
            GROUP.encode(b"a" * (GROUP.params.message_bytes + 1))

    def test_identity_not_decodable(self):
        with pytest.raises(EncodingError):
            GROUP.decode(GROUP.identity)

    def test_decode_ignores_y(self):
        # Rerandomization moves a ciphertext, not the embedded point;
        # decoding depends only on x, so the mirrored point decodes too.
        point = GROUP.encode(b"mirror")
        assert GROUP.decode(point.inverse()) == b"mirror"


class TestRegistry:
    def test_get_group_caches_singleton(self):
        assert get_group("P256") is GROUP
        assert get_group("p256") is GROUP

    def test_is_registered_backend(self):
        from repro.crypto.groups import available_groups

        assert "P256" in available_groups()

    def test_isolated_instance_does_not_share_cache(self):
        fresh = EcGroup()
        assert fresh._fixed_cache == {}

    def test_prime_order_is_structural(self):
        assert GROUP.is_prime_order(GROUP.g)
        assert GROUP.is_prime_order(GROUP.identity)


# A point of order 3 on y^2 = x^3 - 3x - 2, a curve the P-256 formulas
# also compute on (they never use b): a stand-in for a point built from
# raw coordinates off the curve, whose small order drives the hot loops
# through their identity and equal/opposite-point branches.
TORSION3 = (3, 4)

#: scalars at the edges of the wNAF recoding and of the reduction mod N
EDGE_SCALARS = [0, 1, 2, 15, 16, 31, N - 1, N, N + 1, 2 ** 255]


def _random_scalars(count, seed):
    rng = DeterministicRng(seed)
    return [rng.randint(1, N - 1) for _ in range(count)]


#: enough scalars to reach every identity / equal-point branch
SMALL_ORDER_SCALARS = list(range(1, 200)) + _random_scalars(4, b"torsion")


class TestWnafMultiply:
    """``_mul_var`` (width-5 wNAF) against the affine reference."""

    @pytest.mark.parametrize("k", EDGE_SCALARS + _random_scalars(4, b"wnaf-g"))
    def test_generator_matches_reference(self, k):
        assert _to_affine(_mul_var(GROUP.g._jac(), k)) == _ref_mult(k % N)

    @pytest.mark.parametrize("k", EDGE_SCALARS + _random_scalars(4, b"wnaf-b"))
    def test_random_base_matches_reference(self, k):
        base = GROUP.random_element(DeterministicRng(b"wnaf-base"))
        expected = _ref_mult(k % N, (base.x, base.y))
        assert _to_affine(_mul_var(base._jac(), k)) == expected
        assert (base ** k) == GROUP._wrap_raw(_mul_var(base._jac(), k))

    @pytest.mark.parametrize("k", EDGE_SCALARS)
    def test_identity_base(self, k):
        assert _to_affine(_mul_var(JAC_OPS.one, k)) is None
        assert (GROUP.identity ** k).is_identity()

    def test_small_order_base_stays_exact(self):
        for k in SMALL_ORDER_SCALARS:
            assert _to_affine(_mul_var(TORSION3 + (1,), k)) == _ref_mult(
                k, TORSION3
            )

    @pytest.mark.parametrize("k", EDGE_SCALARS[1:] + _random_scalars(8, b"naf"))
    def test_recoding(self, k):
        e = k % N
        if not e:
            return
        digits = _wnaf(e)
        assert sum(d << i for i, d in enumerate(reversed(digits))) == e
        assert digits[0] > 0
        nonzero = [i for i, d in enumerate(digits) if d]
        assert all(digits[i] % 2 and abs(digits[i]) < 16 for i in nonzero)
        assert all(b - a >= 5 for a, b in zip(nonzero, nonzero[1:]))


class TestJacobianComb:
    """The signed-digit comb against the generic ``FixedBaseComb``."""

    @pytest.mark.parametrize(
        "k", EDGE_SCALARS + [-1] + _random_scalars(6, b"comb")
    )
    def test_matches_generic_comb(self, k):
        base = GROUP.random_element(DeterministicRng(b"comb-base"))._jac()
        generic = FixedBaseComb(JAC_OPS, N, base)
        assert _to_affine(JacobianComb(base).pow(k)) == _to_affine(generic.pow(k))

    def test_generator_table_is_the_specialization(self):
        assert isinstance(GROUP.fixed_base(GROUP.g), JacobianComb)
        for k in _random_scalars(4, b"comb-g"):
            assert (GROUP.g_pow(k).x, GROUP.g_pow(k).y) == _ref_mult(k)

    @pytest.mark.parametrize("k", [0, 1, 5, N - 1])
    def test_identity_base(self, k):
        assert _to_affine(JacobianComb(JAC_OPS.one).pow(k)) is None

    def test_small_order_base_stays_exact(self):
        comb = JacobianComb(TORSION3 + (1,))
        for k in SMALL_ORDER_SCALARS:
            assert _to_affine(comb.pow(k)) == _ref_mult(k, TORSION3)


settings_composed = settings(
    max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@pytest.mark.parametrize("name", ["P256", "MODP2048"])
class TestComposedElGamal:
    """``rerandomize``/``reencrypt`` go through the backend's composed
    hooks; their ciphertexts must be byte-identical to Appendix A's
    element-wise formulas."""

    @given(seed=st.binary(min_size=1, max_size=8))
    @settings_composed
    def test_rerandomize(self, name, seed):
        group = get_group(name)
        scheme = AtomElGamal(group)
        rng = DeterministicRng(seed)
        key = scheme.keygen(rng)
        ct, _ = scheme.encrypt(key.public, group.encode(seed), rng)
        r = group.random_scalar(rng)
        expected = AtomCiphertext(
            R=(group.g ** r) * ct.R, c=ct.c * (key.public ** r), Y=None
        )
        got = scheme.rerandomize(key.public, ct, randomness=r)
        assert got.to_bytes() == expected.to_bytes()

    @given(seed=st.binary(min_size=1, max_size=8), final=st.booleans(),
           y_bot=st.booleans())
    @settings_composed
    def test_reencrypt(self, name, seed, final, y_bot):
        group = get_group(name)
        scheme = AtomElGamal(group)
        rng = DeterministicRng(seed)
        key, next_key = scheme.keygen(rng), scheme.keygen(rng)
        ct, _ = scheme.encrypt(key.public, group.encode(seed), rng)
        if not y_bot:
            ct = AtomCiphertext(R=group.random_element(rng), c=ct.c, Y=ct.R)
        R, c, Y = ct.R, ct.c, ct.Y
        if Y is None:
            Y, R = R, group.identity
        c_tmp = c / (Y ** key.secret)
        r = group.random_scalar(rng)
        if final:
            expected = AtomCiphertext(R=R, c=c_tmp, Y=Y)
            got = scheme.reencrypt(key.secret, None, ct)
        else:
            expected = AtomCiphertext(
                R=(group.g ** r) * R, c=c_tmp * (next_key.public ** r), Y=Y
            )
            got = scheme.reencrypt(key.secret, next_key.public, ct, randomness=r)
        assert got.to_bytes() == expected.to_bytes()

    @given(seed=st.binary(min_size=1, max_size=8))
    @settings_composed
    def test_encrypt(self, name, seed):
        group = get_group(name)
        scheme = AtomElGamal(group)
        rng = DeterministicRng(seed)
        key = scheme.keygen(rng)
        message = group.encode(seed)
        r = group.random_scalar(rng)
        ct, _ = scheme.encrypt(key.public, message, randomness=r)
        assert ct.R == group.g ** r
        assert ct.c == message * (key.public ** r)
