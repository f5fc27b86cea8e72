"""The polynomial sequence B_n(t), mod p or with exact integer coefficients.

B_0 = 1, B_1 = 0, B_2 = 1 - t, B_3 = 0, B_4 = 1 - t + t^2, and

    B_n(t) = 1 - t*B_{n-2}(t) - B_{n-5}(t)          (n >= 5).

B_n(a) equals the cofactor coefficient b_n as long as every dividend
coefficient so far is 1, which is what makes this sequence the symbolic
backbone of the resultant verification: proving B_{n-2} and B_{n-5} share
no root rules out the coefficient pattern that would allow c_n = 0.

Only a five-entry window is ever alive: the recurrence looks back 2 and 5
steps, so B_{n-5} is the oldest entry needed.

``b_pairs`` is the one walk of the recurrence.  With a prime it keeps the
window in the packed form of ``modpoly`` (the verifier's batch walk); with
no prime it yields exact integer polynomials, capped at EXACT_INDEX_CAP
because their coefficients grow exponentially.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple, Union

from .modpoly import CapacityError, IntPoly, ModPoly, PackedPoly, Prime, pack

__all__ = [
    "ZERO_POLY_LAW",
    "b_pairs",
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


def b_pairs(prime: Optional[Prime], hi: int) -> Iterator[Tuple[int, _Poly, _Poly]]:
    """Yield (n, B_{n-2}, B_{n-5}) for n = 5, 6, ..., hi.

    With a prime the pair is reduced mod p and packed; with prime None it is
    exact, and hi may not exceed EXACT_INDEX_CAP.  The pair for n is read off
    before the step that evicts B_{n-5}.
    """
    if prime is None:
        if hi > EXACT_INDEX_CAP:
            raise CapacityError(f"exact walk capped at n = {EXACT_INDEX_CAP}, asked for {hi}")
        one = IntPoly.one()
        w = [IntPoly(c) for c in _INIT]
    else:
        one = pack(ModPoly.one(prime))
        w = [pack(ModPoly(prime, c)) for c in _INIT]
    for n in range(5, hi + 1):
        b2, b5 = w[3], w[0]
        yield n, b2, b5
        w = w[1:] + [one - b2.shift(1) - b5]


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
