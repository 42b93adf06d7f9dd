"""NIST P-256 elliptic-curve group backend (registry name ``P256``).

The paper's evaluation runs the entire protocol over NIST P-256; this
backend implements that group in pure Python behind the
:class:`~repro.crypto.groups.GroupBackend` interface, so every layer —
ElGamal, the sigma protocols, the shuffle proof, DVSS, the stream
engine — runs unchanged on the curve via ``get_group("P256")`` (CLI:
``--group p256``).

Why it is fast enough: a MODP2048 exponentiation multiplies 2048-bit
residues ~2048 times, while a P-256 scalar multiplication performs a
few hundred field operations on 256-bit integers — roughly an order of
magnitude cheaper in pure Python even before precomputation.  The
fixed-base comb and Straus multi-exponentiation are the *same*
algorithms as the Schnorr backend, instantiated through the
ops-abstraction of :mod:`repro.crypto.fastexp` with Jacobian point
arithmetic:

- **Jacobian coordinates** ``(X, Y, Z)`` with ``x = X/Z^2``,
  ``y = Y/Z^3`` make doubling and addition inversion-free; one modular
  inversion is paid only when a result is normalized back to affine.
- **Mixed addition**: precomputation tables are batch-normalized to
  affine (one shared inversion via the Montgomery trick,
  ``JacobianOps.finish_tables``), so the hot comb/Straus loops use the
  cheaper Jacobian+affine formulas.
- ``a = -3`` doubling shortcut (standard for the NIST curves).

The mixing hot path (ReEnc and Rerand, once per ciphertext part per
server per layer) is specialized further:

- **wNAF variable-base multiply** (:func:`_mul_var`): width-5 NAF
  digits over a batch-normalized affine table of odd multiples, with
  the doubling and mixed addition inlined.  A server's secret is
  recoded once per pass (:func:`_wnaf` is memoized).
- **Signed-digit comb** (:class:`JacobianComb`): width-5 signed
  digits (negation is free on a curve) and the mixed addition inlined
  in ``pow``.
- **Jacobian-composed ElGamal steps**: ``EcGroup._rerandomize_parts``
  and ``_reencrypt_parts`` (hooks of ``GroupBackend``) keep Enc,
  Rerand and ReEnc in Jacobian coordinates and normalize each output
  ``(R, c)`` pair with one shared inversion.
- **One decode per layer** lives in ``repro.core.batch``: a group's
  participants hand decoded vectors down the chain, so a point is
  decompressed (a square root) only where it enters the group.

Results are unique affine points, so all of this is byte-identical to
the element-wise formulas.  A native kernel through the OpenSSL that
``cryptography`` bundles was measured 3.1x faster end to end but adds
~7 MiB RSS on import (+24% peak RSS of a benchmark stream), so the
backend stays pure Python.

Element serialization is SEC1 compressed: 33 bytes (``02``/``03`` ‖
x-coordinate); the integer ``value`` of a point is that byte string as
a big-endian integer (``0`` for the identity), which is what proof
transcripts carry and :meth:`EcGroup.element` parses back.

Messages are embedded as curve points by Koblitz's method: the padded
message integer ``m`` is shifted left one byte and the low byte scans
``i = 0, 1, ...`` until ``x = m*256 + i`` hits a valid x-coordinate
(each try succeeds with probability ~1/2, so 256 tries fail with
probability ~2^-256); decoding is just ``m = x >> 8``.  The curve has
prime order (cofactor 1), so every on-curve point is already in the
prime-order group and :meth:`EcGroup.is_prime_order` is structural.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

from repro.crypto.fastexp import jacobi, multiexp_ops
from repro.crypto.groups import EncodingError, GroupBackend

# -- curve constants (SEC2 / FIPS 186-4, secp256r1) -------------------------

P = 0xFFFFFFFF00000001000000000000000000000000FFFFFFFFFFFFFFFFFFFFFFFF
A = P - 3  # a = -3 mod p
B = 0x5AC635D8AA3A93E7B3EBBD55769886BC651D06B0CC53B0F63BCE3C3E27D2604B
N = 0xFFFFFFFF00000000FFFFFFFFFFFFFFFFBCE6FAADA7179E84F3B9CAC2FC632551
GX = 0x6B17D1F2E12C4247F8BCE6E563A440F277037D812DEB33A0F4A13945D898C296
GY = 0x4FE342E2FE1A7F9B8EE7EB4A7C0F9E162BCE33576B315ECECBB6406837BF51F5

_SQRT_EXP = (P + 1) // 4  # p = 3 mod 4: sqrt(a) = a^((p+1)/4)
_XMASK = (1 << 256) - 1

#: Jacobian point at infinity (Z = 0).  Kept as a singleton so the
#: generic loops' ``acc is one`` fast path works.
_INF: Tuple[int, int, int] = (1, 1, 0)


# -- Jacobian field/point arithmetic ----------------------------------------


def _jdbl(pt: Tuple[int, int, int]) -> Tuple[int, int, int]:
    """Point doubling, dbl-2001-b formulas for ``a = -3`` (with
    ``Z3 = 2*Y1*Z1``, one multiplication instead of a square and two
    subtractions)."""
    X1, Y1, Z1 = pt
    if not Z1:
        return _INF
    delta = Z1 * Z1 % P
    gamma = Y1 * Y1 % P
    beta = X1 * gamma % P
    alpha = 3 * (X1 - delta) * (X1 + delta) % P
    X3 = (alpha * alpha - 8 * beta) % P
    Y3 = (alpha * (4 * beta - X3) - 8 * gamma * gamma) % P
    Z3 = (Y1 + Y1) * Z1 % P
    return (X3, Y3, Z3)


def _jadd(p1: Tuple[int, int, int], p2: Tuple[int, int, int]) -> Tuple[int, int, int]:
    """General Jacobian addition (add-2007-bl)."""
    X1, Y1, Z1 = p1
    X2, Y2, Z2 = p2
    Z1Z1 = Z1 * Z1 % P
    Z2Z2 = Z2 * Z2 % P
    U1 = X1 * Z2Z2 % P
    U2 = X2 * Z1Z1 % P
    S1 = Y1 * Z2 * Z2Z2 % P
    S2 = Y2 * Z1 * Z1Z1 % P
    H = (U2 - U1) % P
    if not H:
        if S1 == S2:
            return _jdbl(p1)
        return _INF
    I = 4 * H * H % P
    J = H * I % P
    r = 2 * (S2 - S1) % P
    V = U1 * I % P
    X3 = (r * r - J - 2 * V) % P
    Y3 = (r * (V - X3) - 2 * S1 * J) % P
    Z3 = ((Z1 + Z2) * (Z1 + Z2) - Z1Z1 - Z2Z2) * H % P
    return (X3, Y3, Z3)


def _madd(p1: Tuple[int, int, int], p2: Tuple[int, int, int]) -> Tuple[int, int, int]:
    """Mixed addition: ``p1`` Jacobian + ``p2`` affine (Z2 = 1),
    madd-2007-bl — 3 field multiplications cheaper than :func:`_jadd`."""
    X1, Y1, Z1 = p1
    X2, Y2, _ = p2
    Z1Z1 = Z1 * Z1 % P
    U2 = X2 * Z1Z1 % P
    S2 = Y2 * Z1 * Z1Z1 % P
    H = (U2 - X1) % P
    if not H:
        if S2 == Y1:
            return _jdbl(p1)
        return _INF
    HH = H * H % P
    I = 4 * HH % P
    J = H * I % P
    r = 2 * (S2 - Y1) % P
    V = X1 * I % P
    X3 = (r * r - J - 2 * V) % P
    Y3 = (r * (V - X3) - 2 * Y1 * J) % P
    Z3 = ((Z1 + H) * (Z1 + H) - Z1Z1 - HH) % P
    return (X3, Y3, Z3)


def _jmul(a: Tuple[int, int, int], b: Tuple[int, int, int]) -> Tuple[int, int, int]:
    """Dispatching group operation: identity short-circuits, mixed
    addition whenever one side is affine-normalized."""
    if not a[2]:
        return b
    if not b[2]:
        return a
    if b[2] == 1:
        return _madd(a, b)
    if a[2] == 1:
        return _madd(b, a)
    return _jadd(a, b)


def _batch_to_affine(points: Sequence[Tuple[int, int, int]]) -> List[Tuple[int, int, int]]:
    """Normalize Jacobian points to ``Z = 1`` with ONE field inversion
    (Montgomery's trick); infinities pass through as :data:`_INF`."""
    zs = [pt[2] for pt in points if pt[2] not in (0, 1)]
    if not zs:
        return [pt if pt[2] else _INF for pt in points]
    prefix = [1] * (len(zs) + 1)
    for i, z in enumerate(zs):
        prefix[i + 1] = prefix[i] * z % P
    inv = pow(prefix[-1], -1, P)
    out: List[Tuple[int, int, int]] = []
    invs = [0] * len(zs)
    for i in range(len(zs) - 1, -1, -1):
        invs[i] = prefix[i] * inv % P
        inv = inv * zs[i] % P
    k = 0
    for pt in points:
        X, Y, Z = pt
        if Z == 0:
            out.append(_INF)
        elif Z == 1:
            out.append(pt)
        else:
            zi = invs[k]
            k += 1
            zi2 = zi * zi % P
            out.append((X * zi2 % P, Y * zi2 * zi % P, 1))
    return out


def _to_affine(pt: Tuple[int, int, int]) -> Optional[Tuple[int, int]]:
    """Jacobian -> affine ``(x, y)``; ``None`` for the identity."""
    X, Y, Z = pt
    if not Z:
        return None
    if Z == 1:
        return (X, Y)
    zi = pow(Z, -1, P)
    zi2 = zi * zi % P
    return (X * zi2 % P, Y * zi2 * zi % P)


class JacobianOps:
    """The :mod:`repro.crypto.fastexp` ops-object for P-256 points."""

    __slots__ = ()

    one = _INF
    mul = staticmethod(_jmul)
    sqr = staticmethod(_jdbl)

    @staticmethod
    def finish_tables(rows: List[list]) -> List[list]:
        """Batch-normalize freshly built precomputation rows to affine
        so the evaluation loops hit the mixed-addition fast path."""
        flat = [pt for row in rows for pt in row]
        flat = _batch_to_affine(flat)
        radix = len(rows[0]) if rows else 0
        return [flat[i: i + radix] for i in range(0, len(flat), radix)]


JAC_OPS = JacobianOps()


# -- the hot loops: variable-base wNAF and the fixed-base comb --------------
#
# Both loops inline their point arithmetic (madd-2004-hmv for the mixed
# add, the ``_jdbl`` formulas for doubling): a Python call per group
# operation costs more than the saving of any formula tweak.  Each
# mixed add checks for the identity on either side and for ``H == 0``
# (equal or opposite points) -- those cases never arise for a valid
# scalar and a prime-order base, but a point built from raw
# coordinates may lie on the twist, and the loops must stay exact there.


@lru_cache(maxsize=16)
def _wnaf(e: int) -> Tuple[int, ...]:
    """Width-5 NAF of ``e > 0``, most significant digit first
    (Hankerson-Menezes-Vanstone, *Guide to ECC*, Alg. 3.35).

    Every digit is 0 or odd with ``|d| < 16``, and a nonzero digit is
    followed by at least four zeros, so a 256-bit scalar costs ~43
    additions.  Cached: a mixing server multiplies every ciphertext of
    a pass by the same secret, which is therefore recoded once per
    pass, not once per ciphertext."""
    digits = []
    while e:
        if e & 1:
            d = e & 31
            if d > 16:
                d -= 32
            e -= d
        else:
            d = 0
        digits.append(d)
        e >>= 1
    digits.reverse()
    return tuple(digits)


def _odd_multiples(point: Tuple[int, int, int]) -> List[Tuple[int, int, int]]:
    """``d * point`` in affine form for odd ``d`` in ``±1..±15``, indexed
    by ``d`` itself (a negative index wraps: entry ``-3`` is
    ``-3 * point``).  One shared inversion normalizes all eight."""
    two = _jdbl(point)
    odd = [point]
    for _ in range(7):
        odd.append(_jmul(odd[-1], two))
    table: List[Tuple[int, int, int]] = [_INF] * 32
    for i, (x, y, z) in enumerate(_batch_to_affine(odd)):
        table[2 * i + 1] = (x, y, z)
        table[-2 * i - 1] = (x, -y % P, z)
    return table


def _mul_var(point: Tuple[int, int, int], scalar: int) -> Tuple[int, int, int]:
    """``scalar * point`` for a base without a comb table: width-5 wNAF
    over the affine odd multiples (ReEnc's ``Y ** secret``, and the
    variable bases of proof verification)."""
    e = scalar % N
    if not e or not point[2]:
        return _INF
    table = _odd_multiples(point)
    digits = _wnaf(e)
    p = P
    X1, Y1, Z1 = table[digits[0]]
    for d in digits[1:]:
        delta = Z1 * Z1 % p
        gamma = Y1 * Y1 % p
        beta = X1 * gamma % p
        alpha = 3 * (X1 - delta) * (X1 + delta) % p
        Z1 = (Y1 + Y1) * Z1 % p
        X1 = (alpha * alpha - 8 * beta) % p
        Y1 = (alpha * (4 * beta - X1) - 8 * gamma * gamma) % p
        if not d:
            continue
        x2, y2, z2 = table[d]
        if not z2:
            continue
        if not Z1:
            X1, Y1, Z1 = x2, y2, 1
            continue
        zz = Z1 * Z1 % p
        H = (x2 * zz - X1) % p
        r = (y2 * zz * Z1 - Y1) % p
        if not H:
            X1, Y1, Z1 = _INF if r else _jdbl((X1, Y1, Z1))
            continue
        HH = H * H % p
        HHH = H * HH % p
        V = X1 * HH % p
        X1 = (r * r - HHH - 2 * V) % p
        Y1 = (r * (V - X1) - Y1 * HHH) % p
        Z1 = Z1 * H % p
    return (X1, Y1, Z1) if Z1 else _INF


#: comb rows: width-5 signed digits of a scalar below N (a carry out of
#: the top digit needs the extra bit)
_COMB_ROWS = (N.bit_length() + 5) // 5


class JacobianComb:
    """Fixed-base comb for P-256: every ``g^r`` and ``X^r`` of Enc, Rerand
    and ReEnc.

    The algorithm of :class:`~repro.crypto.fastexp.FixedBaseComb` (row
    ``j`` holds ``d * 2^(5j) * base``, one addition per window, no
    doublings), with two changes only a curve allows or needs:

    - signed digits in ``-15..16``: negating an affine point is free,
      so a row holds 16 points instead of 31 and a 256-bit scalar costs
      ~51 additions (the unsigned width-4 comb: ~60, over 1024 points);
    - the mixed addition inlined in :meth:`pow`, the way
      :class:`~repro.crypto.fastexp.FixedBaseExp` inlines the modular
      multiply.
    """

    __slots__ = ("_rows",)

    def __init__(self, base: Tuple[int, int, int]):
        rows = []
        b = base
        for _ in range(_COMB_ROWS):
            row = [_INF, b]
            for _ in range(15):
                row.append(_jmul(row[-1], b))
            rows.append(row)
            b = _jdbl(row[16])  # 32 * b: the next row's base
        flat = _batch_to_affine([pt for row in rows for pt in row])
        self._rows = [flat[i: i + 17] for i in range(0, len(flat), 17)]

    def pow(self, exponent: int) -> Tuple[int, int, int]:
        """``exponent * base`` (Jacobian), the exponent reduced mod N."""
        e = exponent % N
        p = P
        X1, Y1, Z1 = _INF
        for row in self._rows:
            if not e:
                break
            d = e & 31
            e >>= 5
            if d > 16:
                e += 1  # d - 32, borrowing from the next digit
                x2, y2, z2 = row[32 - d]
                y2 = p - y2
            elif d:
                x2, y2, z2 = row[d]
            else:
                continue
            if not z2:
                continue
            if not Z1:
                X1, Y1, Z1 = x2, y2, 1
                continue
            zz = Z1 * Z1 % p
            H = (x2 * zz - X1) % p
            r = (y2 * zz * Z1 - Y1) % p
            if not H:
                X1, Y1, Z1 = _INF if r else _jdbl((X1, Y1, Z1))
                continue
            HH = H * H % p
            HHH = H * HH % p
            V = X1 * HH % p
            X1 = (r * r - HHH - 2 * V) % p
            Y1 = (r * (V - X1) - Y1 * HHH) % p
            Z1 = Z1 * H % p
        return (X1, Y1, Z1) if Z1 else _INF


# -- the element and group classes ------------------------------------------


@dataclass(frozen=True)
class EcParams:
    """P-256 parameters exposed alongside the Schnorr ``GroupParams``."""

    name: str
    p: int
    a: int
    b: int
    n: int
    gx: int
    gy: int

    @property
    def q(self) -> int:
        """Prime group order (the scalar field)."""
        return self.n

    @property
    def message_bytes(self) -> int:
        """Safely embeddable payload bytes per point: the Koblitz shift
        spends one byte of x-coordinate space, the padding scheme one
        length byte, and one byte of headroom keeps ``x < p``."""
        return (self.p.bit_length() - 9) // 8 - 1


P256_PARAMS = EcParams("P256", P, A, B, N, GX, GY)


class EcPoint:
    """A point on P-256 (multiplicative notation, like ``GroupElement``).

    ``x is None`` encodes the identity (point at infinity).  Points are
    immutable and hashable; ``*`` is point addition, ``**`` scalar
    multiplication, matching the paper's multiplicative notation so the
    proof code is backend-blind.
    """

    __slots__ = ("group", "x", "y")

    def __init__(self, group: "EcGroup", x: Optional[int], y: Optional[int]):
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    def __setattr__(self, name, value):
        raise AttributeError("EcPoint is immutable")

    # -- serialization ------------------------------------------------

    @property
    def value(self) -> int:
        """SEC1-compressed encoding as a big-endian integer (0 = identity)."""
        if self.x is None:
            return 0
        return ((2 | (self.y & 1)) << 256) | self.x

    def to_bytes(self) -> bytes:
        return self.value.to_bytes(33, "big")

    # -- group operations ---------------------------------------------

    def _jac(self) -> Tuple[int, int, int]:
        if self.x is None:
            return _INF
        return (self.x, self.y, 1)

    def __mul__(self, other: "EcPoint") -> "EcPoint":
        if self.x is None:
            return other
        if other.x is None:
            return self
        x1, y1, x2, y2 = self.x, self.y, other.x, other.y
        if x1 == x2:
            if (y1 + y2) % P == 0:
                return self.group.identity
            lam = 3 * (x1 * x1 - 1) * pow(2 * y1, -1, P) % P  # a = -3
        else:
            lam = (y2 - y1) * pow(x2 - x1, -1, P) % P
        x3 = (lam * lam - x1 - x2) % P
        y3 = (lam * (x1 - x3) - y1) % P
        return EcPoint(self.group, x3, y3)

    def __truediv__(self, other: "EcPoint") -> "EcPoint":
        return self * other.inverse()

    def __pow__(self, exponent: int) -> "EcPoint":
        # Hot bases (g, group public keys) have a comb table on the
        # group; everything else takes the generic windowed path.
        table = self.group._table_hit(self.value)
        if table is not None:
            return self.group._wrap_raw(table.pow(exponent))
        return self.group._wrap_raw(_mul_var(self._jac(), exponent))

    def inverse(self) -> "EcPoint":
        if self.x is None:
            return self
        return EcPoint(self.group, self.x, P - self.y)

    def is_identity(self) -> bool:
        return self.x is None

    # -- protocol plumbing --------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, EcPoint)
            and self.x == other.x
            and self.y == other.y
            and self.group.params.name == other.group.params.name
        )

    def __hash__(self) -> int:
        return hash((self.value, self.group.params.name))

    def __repr__(self) -> str:
        if self.x is None:
            return "EcPoint(identity)"
        return f"EcPoint(x={self.x:#x})"

    def __reduce__(self):
        # Same singleton-restoring scheme as Schnorr groups: the group
        # rides along as get_group("P256"), keeping worker-process
        # fixed-base caches warm across parallel-mixing tasks.
        return (_point_from_value, (self.group, self.value))


def _point_from_value(group: "EcGroup", value: int) -> EcPoint:
    return group.element(value)


class EcGroup(GroupBackend):
    """P-256 as a :class:`~repro.crypto.groups.GroupBackend`."""

    def __init__(self, params: EcParams = P256_PARAMS):
        super().__init__()
        self.params = params
        self.q = params.n
        self.g = EcPoint(self, params.gx, params.gy)
        self.identity = EcPoint(self, None, None)

    def __reduce__(self):
        from repro.crypto.groups import get_group

        return (get_group, (self.params.name,))

    # -- fast exponentiation hooks ------------------------------------

    def _build_table(self, value: int) -> JacobianComb:
        return JacobianComb(self.element(value)._jac())

    def _pow_raw(self, base: EcPoint, exponent: int) -> Tuple[int, int, int]:
        return _mul_var(base._jac(), exponent)

    def _wrap_raw(self, raw: Tuple[int, int, int]) -> EcPoint:
        affine = _to_affine(raw)
        if affine is None:
            return self.identity
        return EcPoint(self, affine[0], affine[1])

    def _wrap_pair(
        self, a: Tuple[int, int, int], b: Tuple[int, int, int]
    ) -> Tuple[EcPoint, EcPoint]:
        """Two Jacobian results as points, with one shared inversion."""
        return tuple(
            EcPoint(self, x, y) if z else self.identity
            for x, y, z in _batch_to_affine((a, b))
        )

    # -- composed ElGamal steps ---------------------------------------
    #
    # Both run in Jacobian coordinates end to end; the only inversion
    # is the one that normalizes the output pair.

    def _rerandomize_parts(self, public_key, R, c, r):
        return self._wrap_pair(
            _jmul(self._g_raw(r), R._jac()),
            _jmul(self._pow_cached_raw(public_key, r), c._jac()),
        )

    def _reencrypt_parts(self, secret, Y, R, c, next_public_key, r):
        X, Yy, Z = _mul_var(Y._jac(), secret)
        c_tmp = _jmul((X, -Yy % P, Z), c._jac())  # c / Y^secret
        if next_public_key is None:
            return R, self._wrap_raw(c_tmp)
        return self._wrap_pair(
            _jmul(self._g_raw(r), R._jac()),
            _jmul(self._pow_cached_raw(next_public_key, r), c_tmp),
        )

    def multiexp(self, bases, exponents, window: int = 0) -> EcPoint:
        """Straus multi-exponentiation in Jacobian coordinates."""
        jbases = [
            b._jac() if isinstance(b, EcPoint) else self.element(b)._jac()
            for b in bases
        ]
        return self._wrap_raw(multiexp_ops(JAC_OPS, N, jbases, exponents, window))

    # -- construction -------------------------------------------------

    @property
    def element_bytes(self) -> int:
        return 33

    def element(self, value: int) -> EcPoint:
        """Decompress an integer-serialized point (validates on-curve)."""
        if value == 0:
            return self.identity
        prefix = value >> 256
        x = value & _XMASK
        if prefix not in (2, 3) or not 0 <= x < P:
            raise ValueError(f"invalid compressed point {value:#x}")
        rhs = (x * x * x - 3 * x + B) % P
        y = pow(rhs, _SQRT_EXP, P)
        if y * y % P != rhs:
            raise ValueError("x is not on the curve")
        if (y & 1) != (prefix & 1):
            y = P - y
        return EcPoint(self, x, y)

    def element_from_affine(self, x: int, y: int) -> EcPoint:
        """Wrap affine coordinates, validating the curve equation."""
        if not (0 <= x < P and 0 < y < P):
            raise ValueError("coordinates outside the field")
        if (y * y - (x * x * x - 3 * x + B)) % P != 0:
            raise ValueError("point is not on the curve")
        return EcPoint(self, x, y)

    # -- message encoding (Koblitz embedding) -------------------------

    def encode(self, message: bytes) -> EcPoint:
        """Embed up to ``message_bytes`` bytes into an x-coordinate.

        Uses the backends' shared fixed-width layout
        (``GroupBackend._payload_to_int``), then scans the low byte for
        a valid x; the even-y root is chosen so encoding is
        deterministic.
        """
        base = self._payload_to_int(message) << 8
        for i in range(256):
            x = base + i
            if x >= P:
                break
            rhs = (x * x * x - 3 * x + B) % P
            if jacobi(rhs, P) != 1:
                continue
            y = pow(rhs, _SQRT_EXP, P)
            if y & 1:
                y = P - y
            return EcPoint(self, x, y)
        raise EncodingError("no curve point found for message")  # ~2^-256

    def decode(self, element: EcPoint) -> bytes:
        """Invert :meth:`encode` (the y-coordinate carries no data)."""
        if element.x is None:
            raise EncodingError("identity does not carry an encoded message")
        return self._int_to_payload(element.x >> 8)

    # -- membership ----------------------------------------------------

    def is_prime_order(self, element: EcPoint) -> bool:
        """Curve-equation check (4 field multiplications).

        P-256 has prime order (cofactor 1), so on-curve membership IS
        prime-order membership — but an ``EcPoint`` built directly from
        raw coordinates (tamper instrumentation does this on the
        Schnorr backend) could lie on the *twist*, whose small-order
        subgroups are exactly what the batched shuffle verifier's
        subgroup gate exists to reject.  Deserialization paths
        (``element`` / ``element_from_affine``) already validate."""
        if not isinstance(element, EcPoint):
            return False
        if element.x is None:
            return True
        x, y = element.x, element.y
        return (y * y - (x * x * x - 3 * x + B)) % P == 0

    def __repr__(self) -> str:
        return f"EcGroup({self.params.name})"


def make_p256_group() -> EcGroup:
    """Factory used by the lazy registry entry in ``repro.crypto.groups``."""
    return EcGroup()
