"""The polynomial sequence B_n(t), mod p or with exact integer coefficients.

B_0 = 1, B_1 = 0, B_2 = 1 - t, B_3 = 0, B_4 = 1 - t + t^2, and

    B_n(t) = 1 - t*B_{n-2}(t) - B_{n-5}(t)          (n >= 5).

B_n(a) equals the cofactor coefficient b_n as long as every dividend
coefficient so far is 1, which is what makes this sequence the symbolic
backbone of the resultant verification: proving B_{n-2} and B_{n-5} share
no root rules out the coefficient pattern that would allow c_n = 0.

Only a five-entry window is ever alive: the recurrence looks back 2 and 5
steps, so B_{n-5} is the oldest entry needed.

The recurrence is written once, in ``_walk``, which runs it on any window
whose entries subtract and shift.  ``b_pairs`` walks polynomials: with a
prime it keeps the window in the packed form of ``modpoly`` (the verifier's
batch walk); with no prime it yields exact integer polynomials, capped at
EXACT_INDEX_CAP because their coefficients grow exponentially.
``b_values`` walks the values B_n(c) mod p at every c = 1..p-1 at once:
evaluation at c is a ring map, so at a fixed c the recurrence is the scalar
one  B_n(c) = 1 - c*B_{n-2}(c) - B_{n-5}(c)  over GF(p).  The verifier reads
from it the n whose pair shares a root in GF(p)*.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple, Union

from .modpoly import CapacityError, IntPoly, ModPoly, PackedPoly, Prime, pack

__all__ = [
    "ZERO_POLY_LAW",
    "b_pairs",
    "b_values",
    "b_leading",
    "b_constant",
    "EXACT_INDEX_CAP",
]

#: cap on the exact walk's last index: integer coefficients grow
#: exponentially and the exact walk exists only as an oracle for the mod-p one.
EXACT_INDEX_CAP = 200

#: sentinel returned by b_leading for the identically-zero small odd cases
#: (B_1 = B_3 = B_5 = 0), where the degree law does not apply.
ZERO_POLY_LAW = "zero-polynomial"

# initial window, as integer coefficient lists (index k = coeff of t^k)
_INIT = ([1], [0], [1, -1], [0], [1, -1, 1])

_Poly = Union[IntPoly, PackedPoly]


class _Values:
    """One window entry of the value walk: the list of B(c) mod p for
    c = 1..p-1, in that order.  Multiplying by t multiplies the value at c
    by c; the products are left for the subtraction that follows to reduce,
    so every entry the walk keeps lies in [0, p)."""

    __slots__ = ("p", "v")

    def __init__(self, p: int, v: List[int]):
        self.p, self.v = p, v

    def __sub__(self, other: "_Values") -> "_Values":
        p = self.p
        return _Values(p, [(a - b) % p for a, b in zip(self.v, other.v)])

    def shift(self, k: int) -> "_Values":
        """Multiply by t^k."""
        return _Values(self.p, [a * c**k for c, a in enumerate(self.v, 1)])


def _walk(one, w, hi: int):
    """Yield (n, B_{n-2}, B_{n-5}) for n = 5..hi from the initial window w,
    in whatever form its entries take; the pair for n is read off before the
    step that evicts B_{n-5}."""
    for n in range(5, hi + 1):
        b2, b5 = w[3], w[0]
        yield n, b2, b5
        w = w[1:] + [one - b2.shift(1) - b5]


def b_pairs(prime: Optional[Prime], hi: int) -> Iterator[Tuple[int, _Poly, _Poly]]:
    """Yield (n, B_{n-2}, B_{n-5}) for n = 5, 6, ..., hi.

    With a prime the pair is reduced mod p and packed; with prime None it is
    exact, and hi may not exceed EXACT_INDEX_CAP.
    """
    if prime is None:
        if hi > EXACT_INDEX_CAP:
            raise CapacityError(f"exact walk capped at n = {EXACT_INDEX_CAP}, asked for {hi}")
        yield from _walk(IntPoly.one(), [IntPoly(c) for c in _INIT], hi)
    else:
        one = pack(ModPoly.one(prime))
        yield from _walk(one, [pack(ModPoly(prime, c)) for c in _INIT], hi)


def b_values(prime: Prime, hi: int) -> Iterator[Tuple[int, List[int], List[int]]]:
    """Yield (n, B_{n-2}(c), B_{n-5}(c)) for n = 5, 6, ..., hi, each member
    the list of its values mod p at c = 1, 2, ..., p-1.

    One step costs p-1 scalar steps, so the walk to hi costs (p-1)*hi.
    """
    p = prime.value
    cs = range(1, p)
    one = _Values(p, [1] * (p - 1))
    w = [_Values(p, [IntPoly(c)(x) % p for x in cs]) for c in _INIT]
    for n, f, g in _walk(one, w, hi):
        yield n, f.v, g.v


def b_leading(n: int):
    """Degree and leading coefficient of B_n from the closed-form law.

    n = 2k          ->  (k, (-1)^k)
    n = 2k+1, k>=3  ->  (k-2, (-1)^(k-1) * (k-2))

    For n in {1, 3, 5} the polynomial is identically zero and the law does
    not apply: returns the ZERO_POLY_LAW sentinel instead of a pair.
    """
    if n < 0:
        raise ValueError("index must be nonnegative")
    if n % 2 == 0:
        k = n // 2
        return (k, (-1) ** k)
    k = (n - 1) // 2
    if k < 3:
        return ZERO_POLY_LAW
    return (k - 2, (-1) ** (k - 1) * (k - 2))


def b_constant(n: int) -> int:
    """Constant coefficient of B_n: 1 for even n, 0 for odd n."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    return 1 if n % 2 == 0 else 0
