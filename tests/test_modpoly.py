import pytest
import sympy
from hypothesis import given, settings, strategies as st

import newmandiv.modpoly as modpoly
from newmandiv.modpoly import (
    MINUS_INFINITY,
    CapacityError,
    IntPoly,
    ModPoly,
    Prime,
    coprime,
    ip_gcd,
    mp_gcd,
    mp_mul,
    mp_rem,
    pack,
    resultant_prs,
    resultant_sylvester,
    squarefree_decomposition,
)
from newmandiv.verifier import DEFAULT_PRIMES

P5 = Prime(5)
P7 = Prime(7)
P11 = Prime(11)


# ---------------------------------------------------------------- primes


def test_prime_accepts_primes():
    for p in (2, 3, 5, 7, 11, 13, 17, 2**31 - 1):
        assert Prime(p).value == p


def test_prime_rejects_composites_and_range():
    for bad in (0, 1, 4, 9, 15, 561, 341550071728321):  # 561 = Carmichael
        with pytest.raises(ValueError):
            Prime(bad)
    with pytest.raises(ValueError):
        Prime(2**31 + 11)  # prime but above the cap


# ---------------------------------------------------------------- canonical form


def test_modpoly_canonical():
    f = ModPoly(P5, [6, 0, 5, 10])  # reduces to [1]
    assert list(f.coeffs) == [1]
    assert f.degree() == 0
    z = ModPoly(P5, [0, 0, 0])
    assert z.is_zero()
    assert z.degree() == MINUS_INFINITY
    assert z.degree() < 0  # the sentinel still orders sensibly


def test_modpoly_immutable():
    f = ModPoly(P5, [1, 2])
    with pytest.raises(AttributeError):
        f.coeffs = None
    with pytest.raises(TypeError):  # coeffs is a tuple
        f.coeffs[0] = 3


def test_intpoly_eval_and_degree():
    f = IntPoly([1, 0, -3, 2])  # 2x^3 - 3x^2 + 1
    assert f.degree() == 3
    assert f(2) == 16 - 12 + 1
    assert IntPoly([]).degree() == MINUS_INFINITY


# ---------------------------------------------------------------- mul / rem


def test_mul_difference_of_squares():
    f = ModPoly(P5, [1, 1])
    g = ModPoly(P5, [1, -1])
    assert mp_mul(f, g) == ModPoly(P5, [1, 0, 4])


def test_mul_absorbing_zero():
    f = ModPoly(P7, [3, 1, 4])
    assert mp_mul(f, ModPoly.zero(P7)).is_zero()


def test_mul_telescoping():
    # (1 - t)(1 + t + t^2) = 1 - t^3
    f = ModPoly(P7, [1, -1])
    g = ModPoly(P7, [1, 1, 1])
    assert mp_mul(f, g) == ModPoly(P7, [1, 0, 0, 6])


def test_rem_exact_division():
    f = ModPoly(P7, [-1, 0, 1])  # t^2 - 1
    g = ModPoly(P7, [-1, 1])  # t - 1
    assert mp_rem(f, g).is_zero()


def test_rem_small_degree_passthrough():
    f = ModPoly(P7, [3, 1])
    g = ModPoly(P7, [1, 2, 1])
    assert mp_rem(f, g) == f


def test_rem_worked_example():
    # t^5 + t^3 + 1 = t^3 (t^2 + 1) + 1
    f = ModPoly(P11, [1, 0, 0, 1, 0, 1])
    g = ModPoly(P11, [1, 0, 1])
    assert mp_rem(f, g) == ModPoly(P11, [1])


def test_rem_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        mp_rem(ModPoly(P5, [1, 1]), ModPoly.zero(P5))


def test_modulus_mismatch():
    with pytest.raises(ValueError):
        mp_mul(ModPoly(P5, [1]), ModPoly(P7, [1]))


# ---------------------------------------------------------------- resultants: frozen oracles

# Exact values computed independently via the Sylvester determinant (and
# double-checked against a CAS) before being frozen here.


def test_res_linear_pair():
    # monic linears: Res(t-2, t-3) = 2 - 3 = -1
    assert resultant_sylvester(IntPoly([-2, 1]), IntPoly([-3, 1])) == -1


def test_res_shared_root_is_zero():
    f = ModPoly(P7, [-1, 0, 1])
    g = ModPoly(P7, [-1, 1])
    assert resultant_prs(f, g) == 0


def test_res_discriminant_companion():
    # Res(t^5+t^3+1, 5t^4+3t^2) = 3233 = 108*1^5 + 3125
    f = IntPoly([1, 0, 0, 1, 0, 1])
    g = IntPoly([0, 0, 3, 0, 5])
    assert resultant_sylvester(f, g) == 3233
    fm = ModPoly(P7, [1, 0, 0, 1, 0, 1])
    gm = ModPoly(P7, [0, 0, 3, 0, 5])
    assert resultant_prs(fm, gm) == 3233 % 7 == 6


def test_res_quintic_vs_quadratic():
    # Res(x^5 + a x^3 + 1, x^2 - 1) = -a^2 - 2a; at a = 2 this is -8
    a = 2
    f = IntPoly([1, 0, 0, a, 0, 1])
    g = IntPoly([-1, 0, 1])
    assert resultant_sylvester(f, g) == -(a**2) - 2 * a == -8


def test_res_quintic_vs_quintic():
    # Res(x^5 + a x^3 + 1, 2x^5 - 3) = -108 a^5 - 3125; at a = 1: -3233
    f = IntPoly([1, 0, 0, 1, 0, 1])
    g = IntPoly([-3, 0, 0, 0, 0, 2])
    assert resultant_sylvester(f, g) == -3233


def test_res_constant_rule():
    f = ModPoly(P7, [2, 0, 5, 1])  # degree 3
    c = ModPoly(P7, [4])
    assert resultant_prs(f, c) == pow(4, 3, 7)
    assert resultant_prs(c, f) == pow(4, 3, 7)  # (-1)^(3*0) = +1


def test_res_zero_cases():
    f = ModPoly(P5, [1, 1])
    assert resultant_prs(f, ModPoly.zero(P5)) == 0
    with pytest.raises(ValueError):
        resultant_prs(ModPoly.zero(P5), ModPoly.zero(P5))
    with pytest.raises(ValueError):
        resultant_sylvester(IntPoly.zero(), IntPoly.zero())


def test_sylvester_degree_cap():
    big = IntPoly([1] * 202)
    with pytest.raises(CapacityError):
        resultant_sylvester(big, IntPoly([1, 1]))


# ---------------------------------------------------------------- property tests

primes_st = st.sampled_from([2, 3, 5, 7, 11, 13, 17, 101])


def intpoly_st(max_deg=8, max_coeff=9):
    return st.lists(
        st.integers(min_value=-max_coeff, max_value=max_coeff),
        min_size=1,
        max_size=max_deg + 1,
    ).map(IntPoly)


@given(primes_st, intpoly_st(), intpoly_st())
@settings(max_examples=150, deadline=None)
def test_reduction_commutes_with_resultant(p, f, g):
    """Property: Res(f mod p, g mod p) == Res(f, g) mod p when p divides
    neither leading coefficient."""
    if f.is_zero() or g.is_zero():
        return
    pr = Prime(p)
    if f.leading() % p == 0 or g.leading() % p == 0:
        return
    exact = resultant_sylvester(f, g)
    assert resultant_prs(ModPoly(pr, f.coeffs), ModPoly(pr, g.coeffs)) == exact % p


@given(primes_st, intpoly_st(), intpoly_st())
@settings(max_examples=150, deadline=None)
def test_resultant_symmetry(p, f, g):
    """Property: Res(f,g) = (-1)^(deg f * deg g) Res(g,f)."""
    pr = Prime(p)
    fm, gm = ModPoly(pr, f.coeffs), ModPoly(pr, g.coeffs)
    if fm.is_zero() or gm.is_zero():
        return
    lhs = resultant_prs(fm, gm)
    rhs = resultant_prs(gm, fm)
    sign = (-1) ** (int(fm.degree()) * int(gm.degree()))
    assert lhs == rhs * sign % p


@given(primes_st, intpoly_st(5), intpoly_st(5), intpoly_st(5))
@settings(max_examples=150, deadline=None)
def test_resultant_multiplicative(p, f, g, h):
    """Property: Res(f, g*h) = Res(f, g) * Res(f, h)."""
    pr = Prime(p)
    fm, gm, hm = ModPoly(pr, f.coeffs), ModPoly(pr, g.coeffs), ModPoly(pr, h.coeffs)
    if fm.is_zero() or gm.is_zero() or hm.is_zero():
        return
    lhs = resultant_prs(fm, mp_mul(gm, hm))
    rhs = resultant_prs(fm, gm) * resultant_prs(fm, hm) % p
    assert lhs == rhs


@given(primes_st, intpoly_st(), intpoly_st())
@settings(max_examples=150, deadline=None)
def test_resultant_zero_iff_common_factor(p, f, g):
    """Property: Res(f,g) = 0 exactly when gcd(f,g) has positive degree."""
    pr = Prime(p)
    fm, gm = ModPoly(pr, f.coeffs), ModPoly(pr, g.coeffs)
    if fm.is_zero() or gm.is_zero():
        return
    r = resultant_prs(fm, gm)
    d = mp_gcd(fm, gm).degree()
    assert (r == 0) == (d > 0)


@given(primes_st, intpoly_st(6), intpoly_st(6))
@settings(max_examples=120, deadline=None)
def test_rem_is_division_remainder(p, f, g):
    """Property: f = q*g + rem for some q (checked via degree + evaluation)."""
    pr = Prime(p)
    fm, gm = ModPoly(pr, f.coeffs), ModPoly(pr, g.coeffs)
    if gm.is_zero():
        return
    r = mp_rem(fm, gm)
    assert r.is_zero() or r.degree() < gm.degree()
    # f ≡ r (mod g), so at any GF(p) root of g the two agree
    for x0 in range(min(p, 12)):
        if gm(x0) == 0:
            assert fm(x0) == r(x0)


def test_large_prime_paths():
    # a prime near the 2^31 cap: products of two coefficients exceed 2^60
    p = Prime(2**31 - 1)
    f = ModPoly(p, [2**31 - 2, 123456789, 1])
    g = ModPoly(p, [7, 2**31 - 5])
    # cross-check against exact Sylvester
    fi = IntPoly([int(c) for c in f.coeffs])
    gi = IntPoly([int(c) for c in g.coeffs])
    assert resultant_prs(f, g) == resultant_sylvester(fi, gi) % p.value
    h = mp_mul(f, f)
    hi = fi * fi
    assert list(h.coeffs) == [c % p.value for c in hi.coeffs]


# ---------------------------------------------------------------- squarefree decomposition over Z


def _sympy_sqf(f: IntPoly):
    x = sympy.Symbol("x")
    c, factors = sympy.Poly(list(reversed(f.coeffs)), x, domain="ZZ").sqf_list()
    return int(c), [(IntPoly(reversed([int(a) for a in g.all_coeffs()])), k) for g, k in factors]


def _power(f: IntPoly, k: int) -> IntPoly:
    out = IntPoly.one()
    for _ in range(k):
        out = out * f
    return out


@st.composite
def sqf_inputs(draw):
    # random polynomials are mostly squarefree, so half the draws are
    # products of small factors raised to random powers
    if draw(st.booleans()):
        return draw(intpoly_st())
    f = IntPoly([draw(st.integers(min_value=-6, max_value=6).filter(bool))])
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        g = draw(intpoly_st(max_deg=3, max_coeff=4))
        if g.degree() >= 1:
            f = f * _power(g, draw(st.integers(min_value=1, max_value=4)))
    return f


@given(sqf_inputs())
@settings(max_examples=150, deadline=None)
def test_squarefree_decomposition_rebuilds_and_matches_sympy(f):
    """Property: c * prod a_i^i == f, each a_i squarefree and primitive,
    and the decomposition is sympy's sqf_list."""
    if f.is_zero():
        return
    c, factors = squarefree_decomposition(f)
    rebuilt = IntPoly([c])
    for a, k in factors:
        assert a.degree() >= 1 and a.leading() > 0
        assert a.primitive() == (1, a)
        assert ip_gcd(a, a.derivative()) == IntPoly.one()
        rebuilt = rebuilt * _power(a, k)
    assert rebuilt == f
    assert [k for _, k in factors] == sorted({k for _, k in factors})
    assert (c, factors) == _sympy_sqf(f)


@given(intpoly_st(6), intpoly_st(6), intpoly_st(3))
@settings(max_examples=150, deadline=None)
def test_ip_gcd_matches_sympy(f, g, h):
    """Property: ip_gcd(f*h, g*h) is sympy's gcd, normalised to a positive
    leading coefficient."""
    f, g = f * h, g * h
    got = ip_gcd(f, g)
    x = sympy.Symbol("x")
    want = sympy.gcd(
        sympy.Poly(list(reversed(f.coeffs)) or [0], x, domain="ZZ"),
        sympy.Poly(list(reversed(g.coeffs)) or [0], x, domain="ZZ"),
    )
    want = IntPoly(reversed([int(a) for a in want.all_coeffs()]))
    if not want.is_zero() and want.leading() < 0:
        want = -want
    assert got == want


def test_squarefree_decomposition_worked_examples():
    # 1+x+x^3+x^4 = (1+x)^2 (1-x+x^2)
    assert squarefree_decomposition(IntPoly([1, 1, 0, 1, 1])) == (
        1,
        [(IntPoly([1, -1, 1]), 1), (IntPoly([1, 1]), 2)],
    )
    # -12 (x - 1)^3 = 12 - 36x + 36x^2 - 12x^3
    assert squarefree_decomposition(IntPoly([12, -36, 36, -12])) == (-12, [(IntPoly([-1, 1]), 3)])
    assert squarefree_decomposition(IntPoly([-7])) == (-7, [])
    with pytest.raises(ValueError):
        squarefree_decomposition(IntPoly.zero())


def test_intpoly_derivative_and_primitive():
    assert IntPoly([5, 3, 0, 2]).derivative() == IntPoly([3, 0, 6])
    assert IntPoly([4]).derivative().is_zero()
    assert IntPoly([6, -4, -2]).primitive() == (-2, IntPoly([-3, 2, 1]))
    assert IntPoly.zero().primitive() == (0, IntPoly.zero())


# ---------------------------------------------------------------- packed kernel


def coeff_list(max_deg):
    return st.lists(st.integers(min_value=0, max_value=10**6), max_size=max_deg + 1)


#: the sweep's primes and wider lanes: W = 9 to 17 bits for p = 5..17, then
#: 20, 33, 65 and 126 (the lane must hold (p - 1) + 2(p - 1)^2 times m)
KERNEL_PRIMES = DEFAULT_PRIMES + (19, 257, 65537, 2**31 - 1)

#: (W, s, m) of every lane prime in KERNEL_PRIMES
LANE_SHAPES = {
    5: (9, 6, 13),
    7: (12, 8, 37),
    11: (16, 11, 187),
    13: (15, 10, 79),
    17: (17, 12, 241),
    19: (20, 14, 863),
    257: (33, 24, 65281),
    65537: (65, 48, 4294901761),
    2**31 - 1: (126, 94, 9223372041149743107),
}


def test_kernel_primes_span_the_lane_widths():
    assert {p: modpoly._lane_shape(p) for p in KERNEL_PRIMES if p >= 5} == LANE_SHAPES


@pytest.mark.parametrize("p", [p for p in KERNEL_PRIMES if p >= 5])
def test_lane_quotient_is_exact(p):
    """floor(x * m / 2^s) = floor(x / p) and x * m fits in W bits for every
    lane value x up to X = (p - 1) + 2(p - 1)^2: checked at every x up to
    p = 257, at the end points and by the sufficient inequality beyond."""
    w, s, m = modpoly._lane_shape(p)
    top = (p - 1) + 2 * (p - 1) ** 2
    assert top * m < 2**w and top * (m * p - 2**s) < 2**s
    xs = range(top + 1) if p <= 257 else [0, 1, p - 1, p, top - 1, top]
    for x in xs:
        assert (x * m) >> s == x // p, x
        assert x * m < 2**w


@st.composite
def packed_pairs(draw):
    """(p, f, g) as ModPolys: random pairs, pairs given a common factor h,
    and pairs whose Euclid quotients span many terms, so that the many
    passes of a long quotient run."""
    prime = Prime(draw(st.sampled_from(KERNEL_PRIMES)))
    f = ModPoly(prime, draw(coeff_list(40)))
    g = ModPoly(prime, draw(coeff_list(40)))
    shape = draw(st.sampled_from(["random", "common", "long"]))
    if shape == "common":
        h = ModPoly(prime, draw(coeff_list(6)))
        f, g = mp_mul(f, h), mp_mul(g, h)
    elif shape == "long":  # f = q*g + r with a quotient of up to 160 terms
        q = ModPoly(prime, draw(coeff_list(160)))
        r = ModPoly(prime, draw(coeff_list(8)))
        f = _add(mp_mul(q, g), r)
    return prime, f, g


def _zip_pad(a, b):
    n = max(len(a), len(b))
    return zip(list(a) + [0] * (n - len(a)), list(b) + [0] * (n - len(b)))


def _add(f, g):
    return ModPoly(f.modulus, [int(x) + int(y) for x, y in _zip_pad(f.coeffs, g.coeffs)])


@given(packed_pairs())
@settings(max_examples=300, deadline=None)
def test_coprime_iff_gcd_is_constant(case):
    """Property: coprime(f, g) == (deg gcd(f, g) == 0) for every kernel p."""
    prime, f, g = case
    assert coprime(pack(f), pack(g)) == (mp_gcd(f, g).degree() == 0)
    assert coprime(pack(g), pack(f)) == (mp_gcd(f, g).degree() == 0)


@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_coprime_long_quotient(p):
    """A quotient of 301 terms takes about 150 passes, each reduced back to
    canonical lanes before the next."""
    prime = Prime(p)
    g = ModPoly(prime, [3, 1, 4, 1, 5, 9, 2, 6, 1])
    q = ModPoly(prime, [(7 * k * k + 3) % p for k in range(300)] + [1])
    for r in (ModPoly(prime, [1, 1]), ModPoly.zero(prime)):
        f = _add(mp_mul(q, g), r)
        expect = mp_gcd(f, g).degree() == 0
        assert coprime(pack(f), pack(g)) is expect


@pytest.mark.parametrize("p", [p for p in KERNEL_PRIMES if p >= 5])
def test_coprime_lanes_at_their_bound(p):
    """Passes whose lanes reach X = (p - 1) + 2(p - 1)^2, the most the
    reduction is exact for.  g is all p - 1 and f is all p - 1 but its
    second-top coefficient, p - 2: the first pass's quotient terms are then
    1, held as p - 1 in the kernel's lanes, and it adds (p - 1)^2 twice to
    lanes that hold p - 1.  The pairs f = q*g + r with every quotient term 1
    keep the quotient lanes at p - 1 on every pass; with r = 0 they are not
    coprime.  A product too many per pass, or a lane one bit short, carries
    into the next lane."""
    prime = Prime(p)
    g = ModPoly(prime, [p - 1] * 9)
    fs = []
    for low in ([p - 1, p - 1], [p - 1, 0], [0]):
        cs = low + [p - 1] * 300
        cs[-2] = p - 2
        fs.append(ModPoly(prime, cs))
    for r in ([1, 1], [2, 0, 1], []):
        fs.append(_add(mp_mul(ModPoly(prime, [1] * 300), g), ModPoly(prime, r)))
    for f in fs:
        expect = mp_gcd(f, g).degree() == 0
        assert coprime(pack(f), pack(g)) is expect
        assert coprime(pack(g), pack(f)) is expect


def _broken_lanes(p, fault):
    """A lane form of GF(p) with a faulty shape: m one below ceil(2^s / p),
    or lanes one bit narrower than the reduction needs."""
    lanes = modpoly._Lanes(p)
    if fault == "m - 1":
        lanes.m -= 1
    else:
        lanes.w -= 1
        lanes.lane >>= 1
    return lanes


@pytest.mark.parametrize("fault", ["m - 1", "W - 1"])
@pytest.mark.parametrize("p", [p for p in DEFAULT_PRIMES if p >= 5])
def test_coprime_lanes_fail_on_a_faulty_shape(p, fault):
    """The first pair of test_coprime_lanes_at_their_bound on a broken lane
    shape: a pass leaves f's top lane nonzero, and Euclid raises at once
    instead of repeating that pass forever."""
    lanes = _broken_lanes(p, fault)
    f = [p - 1] * 302
    f[-2] = p - 2
    with pytest.raises(AssertionError, match=rf"GF\({p}\) Euclid pass left deg f at \d+, from \d+, against deg g 8"):
        lanes.coprime(lanes.pack(f), lanes.pack([p - 1] * 9))


def test_coprime_planes_fail_on_malformed_planes():
    """f = 1 + t^3 against a g = 1 + t whose sign plane has a stray bit at
    t^2, which no pack or sub makes: the sign of g's top then never matches,
    each pass raises f's degree, and Euclid raises instead of spinning."""
    f, g = (0b1001, 0), (0b11, 0b100)
    with pytest.raises(AssertionError, match=r"GF\(3\) Euclid pass left deg f at 4, from 3, against deg g 1"):
        modpoly._Planes().coprime(f, g)


def _canonical(f) -> bool:
    """Every lane of a packed f is below p (p >= 5 only; planes and bits
    are canonical by construction)."""
    form = f._form
    if form.p < 5:
        return True
    x = f._x
    return all((x >> (k * form.w)) & form.lane < form.p for k in range(x.bit_length() // form.w + 1))


@given(st.sampled_from(KERNEL_PRIMES), coeff_list(30), coeff_list(30), st.integers(0, 5))
@settings(max_examples=150, deadline=None)
def test_packed_ring_ops_match_modpoly(p, a, b, k):
    prime = Prime(p)
    f, g = ModPoly(prime, a), ModPoly(prime, b)
    pf, pg = pack(f), pack(g)
    assert pf.unpack() == f
    diff = [int(x) - int(y) for x, y in _zip_pad(f.coeffs, g.coeffs)]
    assert (pf - pg).unpack() == ModPoly(prime, diff)
    shifted = [0] * k + list(f.coeffs) if not f.is_zero() else []
    assert pf.shift(k).unpack() == ModPoly(prime, shifted)
    assert all(_canonical(x) for x in (pf, pg, pf - pg, pg - pf, pf.shift(k)))
    assert pf.degree() == f.degree()
    if not f.is_zero():
        assert pf.leading() == f.leading()


def test_packed_rejects_mixed_primes():
    f = pack(ModPoly(P5, [1, 2]))
    g = pack(ModPoly(P7, [1, 2]))
    with pytest.raises(ValueError):
        coprime(f, g)
    with pytest.raises(ValueError):
        f - g


def test_packed_zero_cases():
    z = pack(ModPoly.zero(P5))
    one = pack(ModPoly.one(P5))
    x = pack(ModPoly(P5, [0, 1]))
    assert z.is_zero() and z.degree() == MINUS_INFINITY
    assert not coprime(z, z)
    assert coprime(z, one)
    assert not coprime(z, x)
    with pytest.raises(ValueError):
        z.leading()
