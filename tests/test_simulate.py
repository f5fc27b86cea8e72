"""Tests for the cofactor simulation: all-ones runs, the counterfactual
window, the deviation stream, and the closed-form cross-check."""

import hashlib
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from newmandiv.simulate import (
    AllOnesResult,
    CounterfactualNegative,
    NegativeCoefficient,
    NoCandidateError,
    NoViolationUpTo,
    SimConfig,
    b8_consistency,
    counterfactual_run,
    cross_check_closed_form,
    deviation_stream,
    run_all_ones,
)

# ----------------------------------------------------------------------
# config validation
# ----------------------------------------------------------------------


@pytest.mark.parametrize("a", [-0.1, 1.0, 1.5, -1e-9])
def test_config_rejects_a_outside_range(a):
    with pytest.raises(ValueError):
        SimConfig(a=a)


def test_config_boundary_a_zero_allowed():
    assert SimConfig(a=0.0).a == 0.0


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(max_n=5),
    ],
)
def test_config_rejects_bad_parameters(kwargs):
    with pytest.raises(ValueError):
        SimConfig(a=0.3, **kwargs)


# ----------------------------------------------------------------------
# all-ones mode
# ----------------------------------------------------------------------


def test_all_ones_a03_first_violation():
    # the canonical mid-range example: the 39th coefficient goes negative
    r = run_all_ones(SimConfig(a=0.3))
    assert isinstance(r.outcome, NegativeCoefficient)
    assert r.outcome.n == 39
    assert r.outcome.value == pytest.approx(-0.040588, abs=1e-5)
    # accumulated rounding is ten orders below the reported violation
    assert r.max_error_bound < 1e-10 * abs(r.outcome.value)


def test_all_ones_a03_early_values():
    r = run_all_ones(SimConfig(a=0.3), collect=True)
    a = 0.3
    want = [1.0, 0.0, 1 - a, 0.0, 1 - a + a * a, 0.0]
    assert r.b[:6] == pytest.approx(want, abs=0)
    assert r.b[6] == pytest.approx(0.763, abs=1e-12)
    assert r.b[9] == pytest.approx(0.12, abs=1e-12)
    assert len(r.b) == r.outcome.n + 1
    assert len(r.e) == len(r.b)


def test_all_ones_boundary_a_zero_never_violates():
    # x^5 + 1 divides honest 0-1 polynomials; the run must cycle forever
    r = run_all_ones(SimConfig(a=0.0, max_n=2000), collect=True)
    assert isinstance(r.outcome, NoViolationUpTo)
    assert r.outcome.max_n == 2000
    # the b-pattern is exactly 1 at even indices, 0 at odd ones
    assert all(b == (1.0 if n % 2 == 0 else 0.0) for n, b in enumerate(r.b))
    # every odd index is flagged near-zero until the cap
    assert r.near_zero == tuple(range(7, 7 + 2 * 32, 2))


@pytest.mark.parametrize("a", [0.1, 0.5, 0.9, 0.999])
def test_all_ones_violates_within_bound(a):
    r = run_all_ones(SimConfig(a=a))
    assert isinstance(r.outcome, NegativeCoefficient)
    assert r.outcome.n <= 10000


def test_all_ones_overshoot_within_error_bound_is_passed_over():
    # at a = 1/2 + 2^-53, b_9 = a (1 - 2a) rounds to -2^-53: past 0, but by
    # less than its error bound, so rounding alone could put it there; the
    # run goes on to the first overshoot that its bound certifies
    a = math.nextafter(0.5, 1.0)
    r = run_all_ones(SimConfig(a=a), collect=True)
    assert r.b[9] == -(2.0**-53)
    assert 2.0**-53 <= r.e[9] < 1e-15
    assert 9 in r.near_zero
    assert r.outcome == NegativeCoefficient(19, -0.2578125000000002)
    assert -r.outcome.value > r.error_bound_at_stop
    assert r.violated()


def _exact_all_ones(a, max_n, stop=True):
    """b_0, b_1, ... of the all-ones recurrence in exact rationals at the
    double a, up to index max_n or, with stop, to the first value outside
    [0, 1]."""
    a = Fraction(a)
    b = [Fraction(1), Fraction(0), 1 - a, Fraction(0), 1 - a + a * a, Fraction(0)]
    while len(b) <= max_n and (not stop or 0 <= b[-1] <= 1):
        n = len(b)
        b.append(1 - a * b[n - 2] - b[n - 5])
    return b


def test_all_ones_error_bound_is_sound():
    # every double-precision value lies within its claimed error bound of
    # the exact rational value, with no slack for any further rounding
    rf = run_all_ones(SimConfig(a=0.005, max_n=400), collect=True)
    exact = _exact_all_ones(0.005, 400)
    assert isinstance(rf.outcome, NoViolationUpTo)
    assert len(rf.b) == len(exact) == 401
    for n, (b, e, want) in enumerate(zip(rf.b, rf.e, exact)):
        assert abs(Fraction(float(b)) - want) <= Fraction(float(e)), n
    assert rf.e[-1] < 1e-12


def test_all_ones_high_precision_matches_double():
    # the exact rational run leaves [0, 1] at the index the double run
    # reports, with the same value to within a few units in the last place
    r = run_all_ones(SimConfig(a=0.3))
    exact = _exact_all_ones(0.3, 10000)
    assert isinstance(r.outcome, NegativeCoefficient)
    assert r.outcome.n == len(exact) - 1 == 39
    assert abs(r.outcome.value - float(exact[-1])) <= 1e-15


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=0.05, max_value=0.999))
@example(math.nextafter(0.5, 1.0))  # passes over b_9, stops at b_19
def test_all_ones_violation_is_certified(a):
    # the reported b_n is within e_n of the exact rational b_n, which is
    # negative; earlier overshoots within their bound may be passed over,
    # so the exact run does not stop at them
    r = run_all_ones(SimConfig(a=a))
    assert isinstance(r.outcome, NegativeCoefficient)
    n = r.outcome.n
    exact = _exact_all_ones(a, n, stop=False)[n]
    assert abs(Fraction(r.outcome.value) - exact) <= Fraction(r.error_bound_at_stop)
    assert exact < 0


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.005, max_value=0.95))
def test_all_ones_tracks_shifted_homogeneous_sequence(a):
    # conservation: b_n - s obeys y_{n+3} with y_n = -a y_{n-2} - y_{n-5},
    # because s (2 + a) = 1 ties the inhomogeneous term to the shift
    r = run_all_ones(SimConfig(a=a, max_n=300), collect=True)
    s = 1.0 / (2.0 + a)
    n_max = len(r.b) + 2
    y = np.empty(n_max + 1)
    y[0:5] = (-s, 1 - s, -s, 1 - s, -s)
    for n in range(5, n_max + 1):
        y[n] = -a * y[n - 2] - y[n - 5]
    shifted = y[3 : len(r.b) + 3] + s
    assert np.max(np.abs(np.asarray(r.b) - shifted)) < 1e-10


# ----------------------------------------------------------------------
# trace format
# ----------------------------------------------------------------------


def test_trace_all_ones_format():
    r = run_all_ones(SimConfig(a=0.3), collect=True)
    lines = r.trace_text().splitlines()
    assert lines[0] == "n b c d err"
    rows = [ln.split() for ln in lines[1:]]
    assert len(rows) == r.outcome.n + 1
    assert [int(row[0]) for row in rows] == list(range(r.outcome.n + 1))
    c_column = [int(row[2]) for row in rows]
    assert c_column[:6] == [1, 0, 1, 0, 1, 1]
    assert all(c == 1 for c in c_column[6:])
    assert all(float(row[3]) == 0.0 for row in rows)
    assert all(float(row[4]) >= 0.0 for row in rows)
    assert float(rows[39][1]) == pytest.approx(-0.040588, abs=1e-5)


def test_trace_counterfactual_format():
    c = counterfactual_run(SimConfig(a=0.003))
    lines = c.trace_text().splitlines()
    assert lines[0] == "n b c d err"
    rows = [ln.split() for ln in lines[1:]]
    assert len(rows) == 15  # N-6 .. N+8
    ns = [int(row[0]) for row in rows]
    assert ns == list(range(c.N - 6, c.N + 9))
    c_column = {int(row[0]): int(row[2]) for row in rows}
    assert c_column[c.N] == 0
    assert all(v == 1 for n, v in c_column.items() if n != c.N)
    d_column = [float(row[3]) for row in rows]
    assert d_column[:6] == [0.0] * 6
    assert d_column[6:] == pytest.approx(deviation_stream(0.003), abs=0)
    b_column = {int(row[0]): float(row[1]) for row in rows}
    for n, v in b_column.items():
        assert v == pytest.approx(c.b[n], abs=1e-12)


@pytest.mark.parametrize(
    "mode, a, max_n, lines, sha256",
    [
        ("all-ones", 0.3, 10000, 41, "8fc31146615d3b8dab55452159ef019dc265b7353afc4a35daa4e9e04b8509bf"),
        ("all-ones", 0.005, 10000, 7653, "77d744a1c2e9317850b824c1f0960b26a4343a71c56f3c9f026702a0ed62b9d3"),
        ("all-ones", 0.0, 100, 102, "b27207d0ece258c70386e920af0aa6aae49984341b9491b63d7132648c622487"),
        ("counterfactual", 0.003, 10000, 16, "6403c953e83145d4f0c390dce42072c897df1411b1881c1c54701349c36a830e"),
    ],
)
def test_trace_bytes(mode, a, max_n, lines, sha256):
    # byte for byte the traces the legs wrote while they ran, before the
    # trace was rendered from the finished result
    config = SimConfig(a=a, max_n=max_n)
    r = run_all_ones(config, collect=True) if mode == "all-ones" else counterfactual_run(config)
    text = r.trace_text()
    assert text.count("\n") == lines
    assert hashlib.sha256(text.encode()).hexdigest() == sha256


def test_trace_needs_a_collected_run():
    with pytest.raises(ValueError, match="collect"):
        run_all_ones(SimConfig(a=0.3)).trace_text()


# ----------------------------------------------------------------------
# deviation stream
# ----------------------------------------------------------------------


def test_deviation_stream_table_row_exact():
    a = Fraction(3, 10)
    assert deviation_stream(a) == [
        -1,
        0,
        a,
        0,
        -(a**2),
        1,
        a**3,
        -2 * a,
        -(a**4),
    ]


@given(st.fractions(min_value=0, max_value=1))
def test_deviation_stream_recurrence_exact(a):
    d = deviation_stream(a, k_max=20)
    assert d[0] == -1
    for k in range(1, 21):
        t2 = d[k - 2] if k >= 2 else 0
        t5 = d[k - 5] if k >= 5 else 0
        assert d[k] == -a * t2 - t5


# ----------------------------------------------------------------------
# counterfactual mode
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def counterfactual_003():
    return counterfactual_run(SimConfig(a=0.003))


def test_counterfactual_domain():
    for a in (0.006, 0.3, 0.9):
        with pytest.raises(ValueError):
            counterfactual_run(SimConfig(a=a))
    with pytest.raises(ValueError):
        counterfactual_run(SimConfig(a=0.0))


def test_counterfactual_a003_index(counterfactual_003):
    c = counterfactual_003
    assert abs(c.N - 11785) <= 15
    assert c.N == 11786
    assert c.estimate == pytest.approx(11785.899, abs=1e-3)


def test_counterfactual_a003_closing_value(counterfactual_003):
    c = counterfactual_003
    assert c.b8 == pytest.approx(-0.0018, abs=4e-4)
    assert c.b8 == pytest.approx(-0.001854, abs=1e-5)
    assert isinstance(c.outcome, CounterfactualNegative)
    assert c.outcome.N == c.N
    assert sorted(c.outcome.b) == list(range(c.N - 6, c.N + 9))


def test_counterfactual_a003_profile(counterfactual_003):
    c = counterfactual_003
    profile = (c.b[c.N + 1], c.b[c.N + 3], c.b[c.N + 6])
    for got, want in zip(profile, (0.19, 0.99, 0.81)):
        assert abs(got - want) <= 0.04


def test_counterfactual_vanishing_window(counterfactual_003):
    # the two pinned coefficients and the solved one all vanish to rounding
    c = counterfactual_003
    for k in (-5, -2, 0):
        assert abs(c.b[c.N + k]) < 1e-12
    # the pins force y'_{N+3} = s (1 + a) exactly
    assert c.y_prime[c.N + 3] == pytest.approx(c.s * (1 + 0.003), abs=1e-12)


def test_counterfactual_b8_consistency(counterfactual_003):
    report = b8_consistency(counterfactual_003)
    assert report["holds"]
    assert report["abs_diff"] <= report["budget"] == pytest.approx(9e-6)
    assert report["abs_diff"] < 1e-7


def test_counterfactual_diagnostics_order_one(counterfactual_003):
    c = counterfactual_003
    # the unforced sequence is nowhere near the pins: that is the point
    assert 0.1 < c.raw_residual_at_N < 2.0
    assert 0.0 < c.amplitude_ratio < 1.5
    assert c.phase_score >= 0.0
    assert c.s == pytest.approx(1.0 / 2.003)


@pytest.mark.parametrize(
    "a,want_n",
    [(0.0005, 89553), (0.001, 41133), (0.002, 18746), (0.004, 10033), (0.0049, 10030)],
)
def test_counterfactual_frozen_indices(a, want_n):
    # small a follows the balance estimate; near the top of the range the
    # window floor at 10000 takes over
    c = counterfactual_run(SimConfig(a=a))
    assert c.N == want_n
    assert isinstance(c.outcome, CounterfactualNegative)


def test_counterfactual_grid_closing_bounds():
    # b_{N+8} <= -a/2 and the 2 a y'_{N+4} identity within a^2, across the
    # whole admissible range (theoretical ratio is about -0.618 a)
    for a in np.linspace(0.0005, 0.005, 20):
        a = float(a)
        c = counterfactual_run(SimConfig(a=a))
        assert c.b8 <= -0.5 * a
        assert -0.75 * a < c.b8
        assert b8_consistency(c)["holds"]


def test_counterfactual_solves_the_quintic_once(monkeypatch):
    # the residues come from the roots the run already found
    from newmandiv import analytic

    calls = []
    solve = analytic.aberth_roots

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(analytic, "aberth_roots", counted)
    counterfactual_run(SimConfig(a=0.003))
    assert len(calls) == 1


# ----------------------------------------------------------------------
# closed form vs recurrence
# ----------------------------------------------------------------------


@pytest.mark.parametrize("a", [0.003, 0.1, 0.3, 0.9])
def test_cross_check_mid_range(a):
    r = cross_check_closed_form(a, 2000, tolerance=1e-9)
    assert r.passed, f"a={a}: {r.max_normalized_deviation}"
    # on the prefix where the sequence is still coefficient-sized, the
    # deviation is a plain absolute one and must meet the same bar
    assert r.bounded_range_end >= 5
    assert r.bounded_range_deviation <= 1e-9


def test_cross_check_long_small_a():
    r = cross_check_closed_form(0.003, 12000, tolerance=1e-6)
    assert r.passed
    assert r.max_normalized_deviation < 1e-9  # plenty of slack in practice
    # at a = 0.003 the sequence never outgrows the coefficient range, so
    # the whole run is an absolute comparison
    assert r.bounded_range_end == 12000


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------


def test_results_serialize_to_json(counterfactual_003):
    for result in (
        run_all_ones(SimConfig(a=0.3)),
        run_all_ones(SimConfig(a=0.0, max_n=50)),
        counterfactual_003,
    ):
        payload = json.loads(json.dumps(result.to_dict(), sort_keys=True))
        assert payload["mode"] in ("all-ones", "counterfactual")
        assert "outcome" in payload and "kind" in payload["outcome"]
