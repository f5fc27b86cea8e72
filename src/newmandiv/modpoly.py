"""Dense polynomial arithmetic over prime fields and over the integers.

``ModPoly`` (GF(p)[x]) and ``IntPoly`` (Z[x]) hold their coefficients as
tuples of Python ints.  Two resultant routines serve as oracle and
diagnostic paths:

* ``resultant_prs``  — Euclidean polynomial-remainder-sequence over GF(p),
  O(d^2) field operations, each reduced mod p as it is made;
* ``resultant_sylvester`` — exact integer determinant of the Sylvester
  matrix (fraction-free Bareiss elimination), O(d^3), capped at small
  degree; the independent oracle for everything mod p.

The certificate kernel is ``coprime`` on ``PackedPoly``: GF(p)[t] held in
Python ints, so one big-int operation acts on every coefficient at once.
p = 2 uses a bitmask, p = 3 two bit planes and p >= 5 W-bit lanes, each
lane holding its coefficient in [0, p): after every subtraction and every
Euclid pass one multiply-shift quotient (division by the invariant p)
brings every lane back, and W is the narrowest width in which that is
exact (9 bits for p = 5, 12 for 7, 16 for 11).  Only Euclid runs, because
over a field Res(f, g) != 0 iff gcd(f, g) = 1; that the reduced pair still
has the integer pair's degrees is the caller's check.

Over Z there is a primitive-remainder-sequence gcd, ``ip_gcd``, and Yun's
squarefree decomposition, ``squarefree_decomposition``, in exact integer
arithmetic; the scan's retry solves each factor's simple roots on its
own, in double precision.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

# defined in the package, so that the analysis layers need not load this
# module, and re-exported here
from . import CapacityError

__all__ = [
    "MINUS_INFINITY",
    "CapacityError",
    "Prime",
    "ModPoly",
    "IntPoly",
    "PackedPoly",
    "coprime",
    "ip_gcd",
    "mp_mul",
    "mp_rem",
    "mp_gcd",
    "pack",
    "resultant_prs",
    "resultant_sylvester",
    "squarefree_decomposition",
]

#: degree of the zero polynomial — a real minus infinity, never -1-as-integer,
#: so arithmetic on degrees (skip rules, exponent bookkeeping) stays honest.
MINUS_INFINITY = float("-inf")


# --------------------------------------------------------------------------
# primality
# --------------------------------------------------------------------------

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    # deterministic Miller-Rabin; the witness set above is known exact for
    # every n < 3.3e24, far beyond the 2^31 constructor cap.
    if n < 2:
        return False
    for small in _MR_WITNESSES:
        if n == small:
            return True
        if n % small == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Prime:
    """A prime modulus, primality asserted at construction.

    Values are restricted to [2, 2^31).
    """

    value: int

    def __post_init__(self):
        if not isinstance(self.value, int):
            raise TypeError(f"prime must be an int, got {type(self.value).__name__}")
        if not 2 <= self.value < 2**31:
            raise ValueError(f"prime must be in [2, 2^31), got {self.value}")
        if not _is_prime(self.value):
            raise ValueError(f"{self.value} is not prime")

    def __int__(self) -> int:
        return self.value

    def __index__(self) -> int:
        return self.value


# --------------------------------------------------------------------------
# polynomials
# --------------------------------------------------------------------------


class ModPoly:
    """Dense polynomial over GF(p); coeffs[k] is the coefficient of x^k.

    Canonical form: a tuple of ints in [0, p-1] with no trailing zeros.
    Instances are immutable after construction.
    """

    __slots__ = ("modulus", "coeffs")

    def __init__(self, modulus: Prime, coeffs):
        if not isinstance(modulus, Prime):
            raise TypeError("modulus must be a Prime")
        p = modulus.value
        cs = [int(c) % p for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("ModPoly is immutable")

    @classmethod
    def zero(cls, modulus: Prime) -> "ModPoly":
        return cls(modulus, [])

    @classmethod
    def one(cls, modulus: Prime) -> "ModPoly":
        return cls(modulus, [1])

    def degree(self):
        """Degree, with the zero polynomial reporting MINUS_INFINITY."""
        return MINUS_INFINITY if len(self.coeffs) == 0 else len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return len(self.coeffs) == 0

    def leading(self) -> int:
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __call__(self, x: int) -> int:
        p = self.modulus.value
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * x + c) % p
        return acc

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ModPoly)
            and self.modulus == other.modulus
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.modulus, self.coeffs))

    def __repr__(self):
        return f"ModPoly(mod {self.modulus.value}, {list(self.coeffs)})"


class IntPoly:
    """Dense polynomial with exact arbitrary-size integer coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("IntPoly is immutable")

    @classmethod
    def zero(cls) -> "IntPoly":
        return cls([])

    @classmethod
    def one(cls) -> "IntPoly":
        return cls([1])

    def degree(self):
        return MINUS_INFINITY if not self.coeffs else len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> int:
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __add__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    def __neg__(self) -> "IntPoly":
        return IntPoly([-c for c in self.coeffs])

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        return self + (-other)

    def __mul__(self, other: "IntPoly") -> "IntPoly":
        if self.is_zero() or other.is_zero():
            return IntPoly.zero()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPoly(out)

    def shift(self, m: int) -> "IntPoly":
        """Multiply by x^m."""
        if self.is_zero():
            return self
        return IntPoly((0,) * m + self.coeffs)

    def derivative(self) -> "IntPoly":
        return IntPoly([k * c for k, c in enumerate(self.coeffs)][1:])

    def primitive(self) -> "tuple[int, IntPoly]":
        """(c, pp) with self = c * pp, pp primitive with a positive leading
        coefficient; the zero polynomial gives (0, zero)."""
        if self.is_zero():
            return 0, self
        c = math.gcd(*self.coeffs)
        if self.coeffs[-1] < 0:
            c = -c
        return c, IntPoly([a // c for a in self.coeffs])

    def reduce_mod(self, modulus: Prime) -> ModPoly:
        return ModPoly(modulus, self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"IntPoly({list(self.coeffs)})"


# --------------------------------------------------------------------------
# field operations
# --------------------------------------------------------------------------


def _require_same_modulus(f: ModPoly, g: ModPoly):
    if f.modulus != g.modulus:
        raise ValueError(
            f"modulus mismatch: {f.modulus.value} vs {g.modulus.value}"
        )


def _rem(f, g, p: int) -> list:
    """Coefficients of f mod g over GF(p); f and g reduced, g nonzero."""
    r = list(f)
    dg = len(g) - 1
    inv = pow(g[-1], -1, p)
    while len(r) > dg:
        c = r.pop() * inv % p  # the top coefficient cancels
        s = len(r) - dg
        r[s:] = [(a - c * b) % p for a, b in zip(r[s:], g)]
        while r and r[-1] == 0:
            r.pop()
    return r


def mp_mul(f: ModPoly, g: ModPoly) -> ModPoly:
    """Product in GF(p)[x]."""
    _require_same_modulus(f, g)
    return ModPoly(f.modulus, (IntPoly(f.coeffs) * IntPoly(g.coeffs)).coeffs)


def mp_rem(f: ModPoly, g: ModPoly) -> ModPoly:
    """Remainder of f divided by g in GF(p)[x] (deg r < deg g)."""
    _require_same_modulus(f, g)
    if g.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    return ModPoly(f.modulus, _rem(f.coeffs, g.coeffs, f.modulus.value))


def mp_gcd(f: ModPoly, g: ModPoly) -> ModPoly:
    """Monic gcd in GF(p)[x] (Euclid); gcd(0, 0) = 0."""
    _require_same_modulus(f, g)
    p = f.modulus.value
    a, b = f.coeffs, g.coeffs
    while b:
        a, b = b, _rem(a, b, p)
    inv = pow(a[-1], -1, p) if a else 0
    return ModPoly(f.modulus, [c * inv for c in a])


# --------------------------------------------------------------------------
# integer gcd and squarefree decomposition
# --------------------------------------------------------------------------


def _prem_primitive(f: IntPoly, g: IntPoly) -> IntPoly:
    """Primitive part of a pseudo-remainder of f by a nonzero g."""
    r = list(f.coeffs)
    dg = len(g.coeffs) - 1
    lg = g.coeffs[-1]
    while len(r) - 1 >= dg:
        lr = r[-1]
        h = math.gcd(lr, lg)
        a, b = lg // h, lr // h
        shift = len(r) - 1 - dg
        r = [a * c for c in r]
        for j, c in enumerate(g.coeffs):
            r[shift + j] -= b * c
        while r and r[-1] == 0:
            r.pop()
    return IntPoly(r).primitive()[1]


def _exquo(f: IntPoly, g: IntPoly) -> IntPoly:
    """f / g for a nonzero g that divides f in Z[x]; ArithmeticError otherwise."""
    r = list(f.coeffs)
    dg = len(g.coeffs) - 1
    lg = g.coeffs[-1]
    q = [0] * max(len(r) - dg, 0)
    while len(r) - 1 >= dg:
        c, rem = divmod(r[-1], lg)
        if rem:
            raise ArithmeticError("inexact polynomial division over Z")
        shift = len(r) - 1 - dg
        q[shift] = c
        for j, b in enumerate(g.coeffs):
            r[shift + j] -= c * b
        while r and r[-1] == 0:
            r.pop()
    if r:
        raise ArithmeticError("inexact polynomial division over Z")
    return IntPoly(q)


def ip_gcd(f: IntPoly, g: IntPoly) -> IntPoly:
    """gcd in Z[x] by the primitive remainder sequence.

    The result has a positive leading coefficient and content
    gcd(content f, content g); gcd(0, 0) = 0.
    """
    cf, a = f.primitive()
    cg, b = g.primitive()
    if a.degree() < b.degree():
        a, b = b, a
    while not b.is_zero():
        a, b = b, _prem_primitive(a, b)
    c = math.gcd(cf, cg)
    return IntPoly([c * x for x in a.coeffs])


def squarefree_decomposition(f: IntPoly) -> "tuple[int, list[tuple[IntPoly, int]]]":
    """Yun's algorithm over Z: (c, [(a_1, 1), (a_2, 2), ...]).

    f = c * prod a_i^i, each a_i primitive, squarefree, with a positive
    leading coefficient and pairwise coprime; factors equal to 1 are left
    out, so the list is empty for a constant f.  Every division is exact in
    Z[x] (Gauss's lemma), so no rational arithmetic is needed.
    """
    if f.is_zero():
        raise ValueError("the zero polynomial has no squarefree decomposition")
    c, f = f.primitive()
    df = f.derivative()
    a = ip_gcd(f, df)
    b = _exquo(f, a)
    d = _exquo(df, a) - b.derivative()
    factors = []
    i = 1
    while b.degree() > 0:
        a = ip_gcd(b, d)
        b = _exquo(b, a)
        d = _exquo(d, a) - b.derivative()
        if a.degree() > 0:
            factors.append((a, i))
        i += 1
    return c, factors


# --------------------------------------------------------------------------
# resultants
# --------------------------------------------------------------------------


def resultant_prs(f: ModPoly, g: ModPoly) -> int:
    """Res(f, g) over GF(p) via the Euclidean remainder sequence.

    Same value as the Sylvester determinant reduced mod p.  Bookkeeping per
    division step:  Res(f, g) = (-1)^(df*dg) * lc(g)^(df - deg r) * Res(g, r),
    ending with Res(f, c) = c^(deg f) for a constant c.  The step holds for
    df < dg too (r = f), so no initial swap is needed.
    """
    _require_same_modulus(f, g)
    if f.is_zero() and g.is_zero():
        raise ValueError("resultant of two zero polynomials is undefined")
    if f.is_zero() or g.is_zero():
        return 0
    p = f.modulus.value
    a, b = f.coeffs, g.coeffs
    res = 1
    while len(b) > 1:
        r = _rem(a, b, p)
        if not r:
            return 0
        da, db = len(a) - 1, len(b) - 1
        if da * db % 2:
            res = -res
        res = res * pow(b[-1], da - (len(r) - 1), p) % p
        a, b = b, r
    return res * pow(b[0], len(a) - 1, p) % p


def _sylvester_matrix(f: IntPoly, g: IntPoly):
    d, e = f.degree(), g.degree()
    n = d + e
    rows = []
    frow = list(reversed(f.coeffs))  # leading first
    grow = list(reversed(g.coeffs))
    for i in range(e):
        rows.append([0] * i + frow + [0] * (e - 1 - i))
    for i in range(d):
        rows.append([0] * i + grow + [0] * (d - 1 - i))
    return rows, n


def resultant_sylvester(f: IntPoly, g: IntPoly) -> int:
    """Exact integer Res(f, g): Bareiss determinant of the Sylvester matrix.

    Degree-capped oracle path; use resultant_prs for anything big.
    """
    if f.is_zero() and g.is_zero():
        raise ValueError("resultant of two zero polynomials is undefined")
    if f.is_zero() or g.is_zero():
        return 0
    d, e = f.degree(), g.degree()
    if d > 200 or e > 200:
        raise CapacityError(f"degree cap 200 exceeded: {d}, {e}")
    if d == 0:
        return f.coeffs[0] ** e
    if e == 0:
        return g.coeffs[0] ** d
    m, n = _sylvester_matrix(f, g)
    # fraction-free Bareiss elimination with row pivoting
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


# --------------------------------------------------------------------------
# packed GF(p)[t]: the certificate kernel
# --------------------------------------------------------------------------


def _gcd2(f: int, g: int) -> int:
    """gcd in GF(2)[x], polynomials encoded bit k <-> coeff of x^k."""
    while g:
        dg = g.bit_length() - 1
        df = f.bit_length() - 1
        while df >= dg:
            f ^= g << (df - dg)
            df = f.bit_length() - 1
        f, g = g, f
    return f


class _Bits:
    """GF(2): one int, bit k is the coefficient of t^k."""

    def __init__(self):
        self.p = 2

    def pack(self, cs) -> int:
        return sum(1 << k for k, c in enumerate(cs) if c)

    def unpack(self, x: int) -> list:
        return [(x >> k) & 1 for k in range(x.bit_length())]

    def degree(self, x: int) -> int:
        return x.bit_length() - 1

    def leading(self, x: int) -> int:
        return 1

    def sub(self, x: int, y: int) -> int:
        return x ^ y

    def shift(self, x: int, k: int) -> int:
        return x << k

    def coprime(self, x: int, y: int) -> bool:
        return _gcd2(x, y) == 1


class _Planes:
    """GF(3): two bit planes (m, s); bit k of m marks a nonzero coefficient
    of t^k and bit k of s (a subset of m) marks that it equals 2 = -1.

    Addition is seven word operations: r_m = (m1^m2) | (m1^s1^s2) and
    r_s = (m1&m2) ^ (s1|s2); negation flips the sign of the nonzeros.
    A Euclid pass that does not lower f's degree, which only malformed
    planes can cause, raises AssertionError rather than loop forever."""

    def __init__(self):
        self.p = 3

    def pack(self, cs) -> tuple:
        m = sum(1 << k for k, c in enumerate(cs) if c)
        s = sum(1 << k for k, c in enumerate(cs) if c == 2)
        return m, s

    def unpack(self, x: tuple) -> list:
        m, s = x
        return [((m >> k) & 1) << ((s >> k) & 1) for k in range(m.bit_length())]

    def degree(self, x: tuple) -> int:
        return x[0].bit_length() - 1

    def leading(self, x: tuple) -> int:
        m, s = x
        return 2 if s >> (m.bit_length() - 1) else 1

    def add(self, x: tuple, y: tuple) -> tuple:
        (xm, xs), (ym, ys) = x, y
        return (xm ^ ym) | (xm ^ xs ^ ys), (xm & ym) ^ (xs | ys)

    def sub(self, x: tuple, y: tuple) -> tuple:
        ym, ys = y
        return self.add(x, (ym, ys ^ ym))

    def shift(self, x: tuple, k: int) -> tuple:
        return x[0] << k, x[1] << k

    def coprime(self, x: tuple, y: tuple) -> bool:
        (fm, fs), (gm, gs) = x, y
        df, dg = fm.bit_length() - 1, gm.bit_length() - 1
        if df < dg:
            fm, fs, gm, gs, df, dg = gm, gs, fm, fs, dg, df
        if dg < 0:
            return df == 0
        while dg > 0:
            gsign = gs >> dg
            gneg = gs ^ gm
            while df >= dg:
                k = df - dg
                ym = gm << k
                # subtract lc(f)/lc(g) * t^k * g: g itself when the signs of
                # the two leading coefficients agree, -g when they differ
                ys = (gneg if fs >> df == gsign else gs) << k
                fm, fs = (fm ^ ym) | (fm ^ fs ^ ys), (fm & ym) ^ (fs | ys)
                top = fm.bit_length() - 1
                if top >= df:
                    raise AssertionError(f"GF(3) Euclid pass left deg f at {top}, from {df}, against deg g {dg}")
                df = top
            if df < 0:
                return False
            fm, fs, gm, gs, df, dg = gm, gs, fm, fs, dg, df
        return True


class _Lanes:
    """GF(p), p >= 5: one int of W-bit lanes; lane k holds the coefficient
    of t^k in [0, p).

    Every polynomial at rest is canonical, so its top lane is nonzero and its
    degree is its bit length.  A step that leaves lanes up to X = (p - 1) +
    2(p - 1)^2 (a ``sub``, or one Euclid pass adding two products to a lane)
    is brought back to [0, p) in one multiply-shift quotient, ``_reduce``.

    Euclid divides in passes of one Kronecker product: each subtracts the
    quotient's top two terms (its last once the degrees are equal) times g
    from f's top, so a lane gains at most two products per pass.  A pass
    that does not lower f's degree, which only a faulty lane shape or
    reduction can cause, raises AssertionError rather than loop forever.
    """

    def __init__(self, p: int):
        self.p = p
        self.w, self.s, self.m = _lane_shape(p)
        self.lane = (1 << self.w) - 1
        self._mask = 0

    def _quotient_mask(self, nbits: int) -> int:
        """The low W - s bits of every lane, over at least nbits bits."""
        if self._mask.bit_length() < nbits:
            lanes = 2 * (nbits // self.w + 1)
            rep = ((1 << (lanes * self.w)) - 1) // self.lane  # 1 in every lane
            self._mask = ((1 << (self.w - self.s)) - 1) * rep
        return self._mask

    def _reduce(self, x: int, mask: int) -> int:
        """Every lane of x, each at most X, reduced to [0, p): lane by lane
        x - p * floor(x * m / 2^s), with no carry between lanes since X*m <
        2^W; mask is ``_quotient_mask`` over at least x's bits.  A lane that
        is 0 mod p becomes 0, so the degree is the bit length again."""
        return x - self.p * ((x * self.m >> self.s) & mask)

    def pack(self, cs) -> int:
        x = 0
        for c in reversed(cs):
            x = (x << self.w) | (c % self.p)
        return x

    def unpack(self, x: int) -> list:
        w, lane = self.w, self.lane
        return [(x >> (k * w)) & lane for k in range(self.degree(x) + 1)]

    def degree(self, x: int) -> int:
        return (x.bit_length() - 1) // self.w

    def leading(self, x: int) -> int:
        return x >> (self.degree(x) * self.w)

    def sub(self, x: int, y: int) -> int:
        z = x + (self.p - 1) * y
        return self._reduce(z, self._quotient_mask(z.bit_length()))

    def shift(self, x: int, k: int) -> int:
        return x << (k * self.w)

    def coprime(self, f: int, g: int) -> bool:
        p, w, lane, reduce = self.p, self.w, self.lane, self._reduce
        df, dg = self.degree(f), self.degree(g)
        if df < dg:
            f, g, df, dg = g, f, dg, df
        if dg < 0:
            return df == 0
        mask = self._quotient_mask(f.bit_length())
        inv = {}  # the inverses of the leading lanes met in this call
        while dg > 0:
            u = g >> ((dg - 1) * w)  # g's top two lanes
            ig = inv.get(u >> w)
            if ig is None:
                ig = inv[u >> w] = pow(u >> w, -1, p)
            while df >= dg:
                # f -= q * g, shifted to f's top, as one product: q is the
                # quotient's top two terms (k = 2), or its last term (k = 1)
                # once the degrees are equal, and its lanes hold -q mod p, so
                # Kronecker substitution adds them times g with no carry
                if df > dg:
                    k, t = 2, f >> ((df - 1) * w)
                    q1 = (t >> w) * ig % p
                    qneg = ((p - q1) << w) | ((q1 * (u & lane) - (t & lane)) * ig % p)
                else:
                    k, qneg = 1, -(f >> (df * w)) * ig % p
                sh = (df - dg + 1 - k) * w
                f += qneg * g << sh if sh else qneg * g  # a shift by 0 still copies
                f = reduce(f, mask)  # f's top k lanes are now 0
                top = (f.bit_length() - 1) // w
                if top >= df:
                    raise AssertionError(f"GF({p}) Euclid pass left deg f at {top}, from {df}, against deg g {dg}")
                df = top
            if df < 0:
                return False
            f, g, df, dg = g, f, dg, df
        return True


def _lane_shape(p: int):
    """(W, s, m) for the lane form of GF(p): the smallest s for which
    m = ceil(2^s / p) gives floor(x * m / 2^s) = floor(x / p) for every
    lane value x <= X = (p - 1) + 2(p - 1)^2, and W = bit length of X*m.

    Division by an invariant integer (Granlund & Montgomery, PLDI 1994):
    with e = m*p - 2^s in [0, p) and x = q*p + r, x*m/2^s = q + (r + x*e/2^s)/p,
    and r + x*e/2^s < (p - 1) + 1 = p whenever X*e < 2^s, so the floor is q.
    W = 9, 12, 16, 15 and 17 bits for p = 5, 7, 11, 13 and 17."""
    x = (p - 1) + 2 * (p - 1) ** 2
    s = 1
    while True:
        m = -(-(1 << s) // p)
        if x * (m * p - (1 << s)) < 1 << s:
            return (x * m).bit_length(), s, m
        s += 1


@functools.lru_cache(maxsize=None)
def _form(p: int):
    if p == 2:
        return _Bits()
    if p == 3:
        return _Planes()
    return _Lanes(p)


class PackedPoly:
    """Immutable element of GF(p)[t] packed into Python ints.

    The form depends only on p (bitmask for 2, two bit planes for 3, W-bit
    lanes from 5 on) and stays private to this module; callers get
    subtraction, multiplication by t^k, degree, leading coefficient and
    ``coprime``.
    """

    __slots__ = ("_form", "_x")

    def __init__(self, form, x):
        object.__setattr__(self, "_form", form)
        object.__setattr__(self, "_x", x)

    def __setattr__(self, name, value):
        raise AttributeError("PackedPoly is immutable")

    def degree(self):
        d = self._form.degree(self._x)
        return MINUS_INFINITY if d < 0 else d

    def is_zero(self) -> bool:
        return self._form.degree(self._x) < 0

    def leading(self) -> int:
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return self._form.leading(self._x)

    def __sub__(self, other: "PackedPoly") -> "PackedPoly":
        _require_same_form(self, other)
        return PackedPoly(self._form, self._form.sub(self._x, other._x))

    def shift(self, k: int) -> "PackedPoly":
        """Multiply by t^k."""
        return PackedPoly(self._form, self._form.shift(self._x, k))

    def unpack(self) -> ModPoly:
        return ModPoly(Prime(self._form.p), self._form.unpack(self._x))

    def __repr__(self):
        return f"PackedPoly(mod {self._form.p}, {self._form.unpack(self._x)})"


def _require_same_form(f: PackedPoly, g: PackedPoly):
    if f._form is not g._form:
        raise ValueError(f"modulus mismatch: {f._form.p} vs {g._form.p}")


def pack(f: ModPoly) -> PackedPoly:
    """f in the packed form of its field."""
    form = _form(f.modulus.value)
    return PackedPoly(form, form.pack(f.coeffs))


def coprime(f: PackedPoly, g: PackedPoly) -> bool:
    """True iff gcd(f, g) is a nonzero constant (Euclid over GF(p)).

    For nonzero f and g this is Res(f, g) != 0 over GF(p); gcd(0, 0) = 0
    is not coprime.
    """
    _require_same_form(f, g)
    return f._form.coprime(f._x, g._x)
