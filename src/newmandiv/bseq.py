"""The polynomial sequence B_n(t), mod p or with exact integer coefficients.

B_0 = 1, B_1 = 0, B_2 = 1 - t, B_3 = 0, B_4 = 1 - t + t^2, and

    B_n(t) = 1 - t*B_{n-2}(t) - B_{n-5}(t)          (n >= 5).

B_n(a) equals the cofactor coefficient b_n as long as every dividend
coefficient so far is 1, which is what makes this sequence the symbolic
backbone of the resultant verification: proving B_{n-2} and B_{n-5} share
no root rules out the coefficient pattern that would allow c_n = 0.

Only a five-entry window is ever alive: the recurrence looks back 2 and 5
steps, so B_{n-5} is the oldest entry needed.

Two walks share the recurrence: ``b_step`` on ModPoly/IntPoly windows, the
oracle and diagnostic path, and ``b_pairs``, the batch walk of the
verifier, which keeps the window in the packed form of ``modpoly``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Tuple, Union

from .modpoly import CapacityError, IntPoly, ModPoly, PackedPoly, Prime, pack

__all__ = [
    "ZERO_POLY_LAW",
    "BWindow",
    "b_init",
    "b_step",
    "b_pairs",
    "b_leading",
    "b_constant",
    "EXACT_INDEX_CAP",
]

#: default cap on exact-mode stepping: integer coefficients grow exponentially
#: and exact mode exists only as an oracle for the mod-p fast path.
EXACT_INDEX_CAP = 200

#: sentinel returned by b_leading for the identically-zero small odd cases
#: (B_1 = B_3 = B_5 = 0), where the degree law does not apply.
ZERO_POLY_LAW = "zero-polynomial"

_Poly = Union[ModPoly, IntPoly]

# initial window, as integer coefficient lists (index k = coeff of t^k)
_INIT = ([1], [0], [1, -1], [0], [1, -1, 1])


@dataclass(frozen=True)
class BWindow:
    """Sliding window holding B_{index-4} .. B_{index}.

    modulus None means exact integer mode; exact stepping is capped (see
    ``exact_cap``) because coefficient growth makes large exact indices
    unfeasible — exact mode is an oracle, not the workhorse.
    """

    modulus: Optional[Prime]
    window: Tuple[_Poly, _Poly, _Poly, _Poly, _Poly]
    index: int
    exact_cap: int = EXACT_INDEX_CAP

    def __post_init__(self):
        if len(self.window) != 5:
            raise ValueError("window must hold exactly five polynomials")
        if self.index < 4:
            raise ValueError("index starts at 4")

    def newest(self) -> _Poly:
        """B_{index}."""
        return self.window[4]

    def poly(self, n: int) -> _Poly:
        """B_n for any n still inside the window."""
        off = n - (self.index - 4)
        if not 0 <= off <= 4:
            raise ValueError(f"B_{n} is outside the live window at index {self.index}")
        return self.window[off]


def b_init(modulus: Optional[Prime] = None, exact_cap: int = EXACT_INDEX_CAP) -> BWindow:
    """Window holding (B_0, ..., B_4) with index 4."""
    if modulus is None:
        polys = tuple(IntPoly(c) for c in _INIT)
    else:
        polys = tuple(ModPoly(modulus, c) for c in _INIT)
    return BWindow(modulus, polys, 4, exact_cap)


def b_step(w: BWindow) -> BWindow:
    """Advance one index: append B_{n+1} = 1 - t*B_{n-1} - B_{n-4}."""
    n = w.index + 1
    b2 = w.window[3]  # B_{n-2}
    b5 = w.window[0]  # B_{n-5}
    if w.modulus is None:
        if n > w.exact_cap:
            raise CapacityError(
                f"exact-mode index cap {w.exact_cap} exceeded at n={n}"
            )
        new = IntPoly.one() - b2.shift(1) - b5
    else:
        p = w.modulus.value
        t_b2 = [0] + [int(c) for c in b2.coeffs]
        b5c = list(b5.coeffs)
        m = max(len(t_b2), len(b5c), 1)
        out = [0] * m
        out[0] = 1
        for i, c in enumerate(t_b2):
            out[i] = (out[i] - c) % p
        for i, c in enumerate(b5c):
            out[i] = (out[i] - int(c)) % p
        new = ModPoly(w.modulus, out)
    return BWindow(w.modulus, w.window[1:] + (new,), n, w.exact_cap)


def b_pairs(prime: Prime, hi: int) -> Iterator[Tuple[int, PackedPoly, PackedPoly]]:
    """Yield (n, B_{n-2} mod p, B_{n-5} mod p) for n = 5, 6, ..., hi, packed.

    The pair for n is read off before the step that evicts B_{n-5}.
    """
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
