"""Tests for the B_n(t) window: recurrence, degree/leading/constant laws."""

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from newmandiv.bseq import (
    EXACT_INDEX_CAP,
    ZERO_POLY_LAW,
    b_constant,
    b_leading,
    b_pairs,
    b_values,
)
from newmandiv.modpoly import CapacityError, IntPoly, ModPoly, Prime
from newmandiv.verifier import DEFAULT_PRIMES

#: the verifier's primes (lanes of 9 to 17 bits from p = 5) and wider lanes:
#: W = 20, 33, 65 and 126 bits
WALK_PRIMES = DEFAULT_PRIMES + (19, 257, 65537, 2**31 - 1)


def sympy_b(n_max):
    """Independent oracle: the same recurrence run through sympy.Poly."""
    t = sympy.Symbol("t")
    seq = [
        sympy.Poly(1, t),
        sympy.Poly(0, t),
        sympy.Poly(1 - t, t),
        sympy.Poly(0, t),
        sympy.Poly(1 - t + t**2, t),
    ]
    for n in range(5, n_max + 1):
        seq.append(sympy.Poly(1, t) - sympy.Poly(t, t) * seq[n - 2] - seq[n - 5])
    return seq


def as_coeff_list(poly):
    """sympy.Poly -> ascending coefficient list without trailing zeros."""
    cs = list(reversed(poly.all_coeffs()))
    while cs and cs[-1] == 0:
        cs.pop()
    return [int(c) for c in cs]


def b_polys(prime, hi):
    """{m: B_m} for m = 0 .. hi-2 (hi >= 7), read off the pairs of
    b_pairs(prime, hi); mod-p entries are unpacked to ModPoly."""
    out = {}
    for n, f, g in b_pairs(prime, hi):
        out[n - 5], out[n - 2] = g, f
    if prime is not None:
        out = {m: poly.unpack() for m, poly in out.items()}
    return out


# --------------------------------------------------------------------------
# initial window
# --------------------------------------------------------------------------


def test_initial_window_exact():
    first = next(b_pairs(None, 5))
    assert first == (5, IntPoly([]), IntPoly([1]))  # (n, B_3, B_0)
    w = b_polys(None, 7)
    assert w[5] == IntPoly([])
    assert {m: w[m] for m in range(5)} == {
        0: IntPoly([1]),
        1: IntPoly([]),
        2: IntPoly([1, -1]),
        3: IntPoly([]),
        4: IntPoly([1, -1, 1]),
    }


def test_initial_window_mod2():
    p = Prime(2)
    w = b_polys(p, 7)
    assert w[2] == ModPoly(p, [1, 1])
    assert w[4] == ModPoly(p, [1, 1, 1])


def test_initial_window_mod3():
    p = Prime(3)
    w = b_polys(p, 7)
    assert w[2] == ModPoly(p, [1, 2])
    assert w[4] == ModPoly(p, [1, 2, 1])


def test_pairs_run_from_five_to_hi():
    assert [n for n, _, _ in b_pairs(None, 12)] == list(range(5, 13))
    assert [n for n, _, _ in b_pairs(Prime(5), 12)] == list(range(5, 13))
    assert [n for n, _, _ in b_values(Prime(5), 12)] == list(range(5, 13))
    assert list(b_pairs(Prime(5), 4)) == []
    assert list(b_values(Prime(5), 4)) == []


# --------------------------------------------------------------------------
# frozen small values (cross-checked against the sympy oracle below)
# --------------------------------------------------------------------------

FROZEN = {
    5: [],
    6: [1, -1, 1, -1],
    7: [0, 1],
    8: [1, -1, 1, -1, 1],
    9: [0, 1, -2],
    10: [1, -1, 1, -1, 1, -1],
    11: [0, 1, -2, 3],
}


def test_frozen_values_b5_to_b11():
    w = b_polys(None, 13)
    for n in range(5, 12):
        assert w[n] == IntPoly(FROZEN[n]), f"B_{n}"


def test_exact_window_matches_sympy_to_60():
    oracle = sympy_b(60)
    w = b_polys(None, 62)
    for n in range(61):
        assert list(w[n].coeffs) == as_coeff_list(oracle[n]), f"B_{n}"


def test_exact_cap_enforced():
    assert len(list(b_pairs(None, EXACT_INDEX_CAP))) == EXACT_INDEX_CAP - 4
    with pytest.raises(CapacityError):
        next(b_pairs(None, EXACT_INDEX_CAP + 1))
    # the cap is on the exact walk only
    assert next(b_pairs(Prime(3), EXACT_INDEX_CAP + 1))[0] == 5


def test_default_exact_cap():
    assert EXACT_INDEX_CAP == 200


# --------------------------------------------------------------------------
# mod-p walk vs exact walk
# --------------------------------------------------------------------------


@pytest.mark.parametrize("p", WALK_PRIMES)
def test_modp_window_is_exact_reduced(p):
    """The packed pairs the verifier reads, unpacked, are the exact pairs
    reduced mod p at every n the exact walk reaches."""
    prime = Prime(p)
    exact = b_pairs(None, EXACT_INDEX_CAP)
    for (n, f, g), (m, fe, ge) in zip(b_pairs(prime, EXACT_INDEX_CAP), exact, strict=True):
        assert n == m
        assert f.unpack() == ModPoly(prime, fe.coeffs), f"B_{n - 2} mod {p}"
        assert g.unpack() == ModPoly(prime, ge.coeffs), f"B_{n - 5} mod {p}"


@pytest.mark.parametrize("p", DEFAULT_PRIMES + (19, 23))
def test_value_walk_is_exact_evaluated(p):
    """The value walk yields the exact pair evaluated at c = 1..p-1, mod p,
    at every n the exact walk reaches."""
    exact = b_pairs(None, EXACT_INDEX_CAP)
    for (n, f, g), (m, fe, ge) in zip(b_values(Prime(p), EXACT_INDEX_CAP), exact, strict=True):
        assert n == m
        assert f == [fe(c) % p for c in range(1, p)], f"B_{n - 2} mod {p}"
        assert g == [ge(c) % p for c in range(1, p)], f"B_{n - 5} mod {p}"


# --------------------------------------------------------------------------
# degree / leading / constant laws
# --------------------------------------------------------------------------


def test_leading_law_anchors():
    assert b_leading(0) == (0, 1)
    assert b_leading(2) == (1, -1)
    assert b_leading(7) == (1, 1)
    assert b_leading(8) == (4, 1)
    assert b_leading(9) == (2, -2)


def test_leading_law_zero_cases():
    for n in (1, 3, 5):
        assert b_leading(n) == ZERO_POLY_LAW


def test_leading_law_rejects_negative():
    with pytest.raises(ValueError):
        b_leading(-1)
    with pytest.raises(ValueError):
        b_constant(-1)


def test_laws_match_exact_window_to_cap():
    w = b_polys(None, EXACT_INDEX_CAP)
    assert sorted(w) == list(range(EXACT_INDEX_CAP - 1))
    for n, poly in w.items():
        law = b_leading(n)
        if law == ZERO_POLY_LAW:
            assert poly == IntPoly([])
        else:
            deg, lead = law
            assert poly.degree() == deg, f"degree of B_{n}"
            assert poly.coeffs[-1] == lead, f"leading coeff of B_{n}"
        const = poly.coeffs[0] if len(poly.coeffs) else 0
        assert const == b_constant(n), f"constant coeff of B_{n}"


@given(st.integers(min_value=0, max_value=10**6))
def test_leading_law_total_on_nonneg(n):
    law = b_leading(n)
    if n in (1, 3, 5):
        assert law == ZERO_POLY_LAW
    else:
        deg, lead = law
        assert deg >= 0
        assert lead != 0
        if n % 2 == 0:
            assert deg == n // 2
            assert lead in (-1, 1)
        else:
            assert abs(lead) == deg


@pytest.mark.parametrize("p", DEFAULT_PRIMES)
def test_leading_law_vs_modp_window(p):
    """For every B_n the packed walk reaches by n = 2000, the mod-p
    leading/degree agree with the law unless p kills the leading
    coefficient."""
    prime = Prime(p)
    for n, poly in b_polys(prime, 2000).items():
        law = b_leading(n)
        if law == ZERO_POLY_LAW:
            assert poly.is_zero()
            continue
        deg, lead = law
        if lead % p == 0:
            # law's leading term dies mod p; degree must drop (or vanish)
            assert poly.is_zero() or poly.degree() < deg
        else:
            assert poly.degree() == deg
            assert poly.leading() == lead % p
        if not poly.is_zero():
            assert poly.coeffs[0] == b_constant(n) % p
