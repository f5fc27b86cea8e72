"""Tests for the root-level analysis: roots, residues, Vandermonde, battery."""

import cmath
import math
import types
from dataclasses import asdict

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from newmandiv import analytic
from newmandiv.analytic import (
    N_ESTIMATE_CONSTANT,
    EstimateGrids,
    aberth_roots,
    check_estimates,
    estimate_N,
    _grid,
    _root_tables,
    find_roots,
    residue_coeffs,
    root_acceleration,
    root_table,
    root_velocity,
    sample_node_set,
    vandermonde_inverse,
    vandermonde_matrix,
    y_closed_sequence,
)
from newmandiv.modpoly import CapacityError


# --------------------------------------------------------------------------
# general root finder
# --------------------------------------------------------------------------


def test_aberth_quadratic():
    roots = aberth_roots([2, -3, 1], seeds=[0.5 + 0.5j, 3 - 0.5j])  # (x-1)(x-2)
    assert sorted(round(r.real, 9) for r in roots) == [1, 2]
    assert max(abs(r.imag) for r in roots) < 1e-9


def test_aberth_validates():
    with pytest.raises(ValueError):
        aberth_roots([1], seeds=[])  # constant
    with pytest.raises(ValueError):
        aberth_roots([1, 2, 0], seeds=[0, 1])  # zero leading coeff
    with pytest.raises(ValueError):
        aberth_roots([2, -3, 1], seeds=[1.0])  # wrong seed count


@settings(max_examples=50)
@given(st.lists(st.integers(min_value=-5, max_value=5), min_size=2, max_size=6, unique=True))
def test_aberth_recovers_integer_roots(int_roots):
    coeffs = np.array([1.0])
    for r in int_roots:
        coeffs = np.convolve(coeffs, [-r, 1.0])
    seeds = 6.0 * np.exp(2j * np.pi * (np.arange(len(int_roots)) + 0.25) / len(int_roots))
    got = aberth_roots(coeffs, seeds=seeds)
    got_sorted = sorted(got, key=lambda z: z.real)
    for want, have in zip(sorted(int_roots), got_sorted):
        assert abs(have - want) < 1e-7


def _aberth_polyval(coeffs, seeds, tol=1e-14, max_iter=200):
    """The one-polynomial Aberth loop on np.polyval: the reference the
    row-wise evaluation of aberth_roots must reproduce bit for bit."""
    c = np.asarray(coeffs, dtype=complex)
    deg = len(c) - 1
    z = np.asarray(seeds, dtype=complex).copy()
    dc = c[1:] * np.arange(1, deg + 1)
    crev, dcrev = c[::-1], dc[::-1]
    cabs = np.abs(crev)
    for _ in range(max_iter):
        pv = np.polyval(crev, z)
        if np.all(np.abs(pv) <= tol * np.polyval(cabs, np.abs(z))):
            return z
        dv = np.polyval(dcrev, z)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = np.where(dv != 0, pv / dv, 0.1 + 0.1j)
            diff = z[:, None] - z[None, :]
            np.fill_diagonal(diff, 1.0)
            s = np.sum(1.0 / diff, axis=1) - 1.0
            denom = 1.0 - newton * s
            step = np.where(np.abs(denom) > 1e-300, newton / denom, newton)
        z = z - step
    pv = np.polyval(crev, z)
    if np.all(np.abs(pv) <= tol * np.polyval(cabs, np.abs(z))):
        return z
    raise ArithmeticError("no convergence")


def _bits(z):
    return np.asarray(z, dtype=complex).tobytes()


def test_aberth_matches_polyval_loop_on_zero_one_masks(monkeypatch):
    # every 0-1 polynomial of degree <= 10, seeded as the scan seeds them
    for d in range(1, 11):
        seeds = 1.2 * np.exp(2j * np.pi * (np.arange(d) + 0.37) / d)
        for middle in range(2 ** (d - 1)):
            bits = 1 | middle << 1 | 1 << d
            c = [float(bits >> k & 1) for k in range(d + 1)]
            assert _bits(aberth_roots(c, seeds)) == _bits(_aberth_polyval(c, seeds)), bits
    # the budget runs out on the same polynomials, after the same last step
    c, seeds = [1.0, 1.0, 0.0, 1.0, 1.0, 1.0], 1.2 * np.exp(2j * np.pi * (np.arange(5) + 0.37) / 5)
    for max_iter in range(0, 12):
        monkeypatch.setattr(analytic, "_ABERTH_MAX_ITER", max_iter)
        try:
            want = _bits(_aberth_polyval(c, seeds, max_iter=max_iter))
        except ArithmeticError:
            with pytest.raises(ArithmeticError):
                aberth_roots(c, seeds)
        else:
            assert _bits(aberth_roots(c, seeds)) == want


@st.composite
def _monic_batches(draw):
    deg = draw(st.integers(min_value=1, max_value=8))
    rows = draw(st.integers(min_value=1, max_value=6))
    part = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False)
    coeffs = np.array(
        [
            [complex(draw(part), draw(part)) for _ in range(deg)] + [1.0]
            for _ in range(rows)
        ]
    )
    radii = [draw(st.floats(min_value=0.5, max_value=3.0)) for _ in range(rows)]
    ks = np.arange(deg)
    seeds = np.array([r * np.exp(2j * np.pi * (ks + 0.37) / deg) for r in radii])
    return coeffs, seeds


@settings(max_examples=150, deadline=None)
@given(_monic_batches())
def test_aberth_batch_rows_equal_single_calls(batch):
    coeffs, seeds = batch
    singles = []
    for c, z in zip(coeffs, seeds):
        try:
            singles.append(_bits(aberth_roots(c, z)))
        except ArithmeticError:
            singles.append(None)
    if None in singles:
        with pytest.raises(ArithmeticError):
            aberth_roots(coeffs, seeds)
        return
    # Fortran order is the layout a broadcast seed vector copies to: the
    # batch axis innermost
    for layout in (seeds, np.asfortranarray(seeds)):
        got = aberth_roots(coeffs, layout)
        assert got.shape == seeds.shape
        assert [_bits(row) for row in got] == singles


def test_aberth_batch_one_stuck_row_raises():
    # x^2 + 1 from the real seeds +-1: the two approximations swap places
    # forever and never leave the real axis
    coeffs = [[2.0, -3.0, 1.0], [1.0, 0.0, 1.0], [6.0, -5.0, 1.0]]
    seeds = [[0.5 + 0.5j, 3 - 0.5j], [1.0, -1.0], [0.5 + 0.5j, 3 - 0.5j]]
    with pytest.raises(ArithmeticError):
        aberth_roots(coeffs, seeds)
    good = aberth_roots([coeffs[0], coeffs[2]], [seeds[0], seeds[2]])
    assert _bits(good[1]) == _bits(aberth_roots(coeffs[2], seeds[2]))


def test_aberth_batch_validates():
    coeffs = np.array([[2.0, -3.0, 1.0], [6.0, -5.0, 1.0]])
    seeds = np.array([[0.5 + 0.5j, 3 - 0.5j]] * 2)
    bad = coeffs.copy()
    bad[1, -1] = 0.0  # zero leading coefficient in one row
    with pytest.raises(ValueError):
        aberth_roots(bad, seeds)
    with pytest.raises(ValueError):
        aberth_roots(coeffs, seeds[:, :1])  # too few seeds per row
    with pytest.raises(ValueError):
        aberth_roots(coeffs, seeds[:1])  # fewer seed rows than polynomials
    with pytest.raises(ValueError):
        aberth_roots(coeffs, seeds[0])  # one seed vector for a batch
    with pytest.raises(ValueError):
        aberth_roots(coeffs[0], seeds)  # a batch of seeds for one polynomial
    with pytest.raises(ValueError):
        aberth_roots(coeffs[None], seeds[None])  # two batch axes
    with pytest.raises(ValueError):
        aberth_roots(np.ones((2, 1)), np.ones((2, 0)))  # constants
    assert aberth_roots(np.ones((0, 3)), np.ones((0, 2))).shape == (0, 2)


# --------------------------------------------------------------------------
# quintic roots
# --------------------------------------------------------------------------


def test_roots_at_t0():
    r = find_roots(0.0)
    assert abs(r.alpha - (-1.0)) < 1e-14
    assert abs(r.beta - np.exp(3j * np.pi / 5)) < 1e-14
    assert abs(r.gamma - np.exp(1j * np.pi / 5)) < 1e-14


def test_roots_anchor_small_t():
    r = find_roots(0.005)
    assert abs(r.alpha - (-0.9990010)) < 1e-7
    assert abs(r.beta - (-0.3087072 + 0.9520082j)) < 1e-7
    assert r.residual <= 1e-14 * (1 + 0.005)


def test_roots_anchor_t1():
    r = find_roots(1.0)
    assert abs(abs(r.beta) - 1.18711) < 2e-5
    assert abs(abs(r.gamma) - 0.92042) < 2e-5
    assert r.residual <= 1e-14 * 2


def test_roots_domain():
    with pytest.raises(ValueError):
        find_roots(-0.1)
    with pytest.raises(ValueError):
        find_roots(1.1)


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_root_invariants(t):
    """Elementary symmetric functions of the five roots: e1=0, e2=t, e5=-1."""
    r = find_roots(t)
    roots = np.array(r.all_roots())
    assert abs(np.sum(roots)) < 1e-12
    e2 = sum(
        roots[i] * roots[j] for i in range(5) for j in range(i + 1, 5)
    )
    assert abs(e2 - t) < 1e-11
    assert abs(np.prod(roots) - (-1)) < 1e-11
    # modulus product |alpha| |beta|^2 |gamma|^2 = 1
    assert abs(abs(r.alpha) * abs(r.beta) ** 2 * abs(r.gamma) ** 2 - 1) < 1e-11
    # roots are simple and well separated
    for i in range(5):
        for j in range(i + 1, 5):
            assert abs(roots[i] - roots[j]) > 1e-13 * 10


def _row(table, i):
    """Row i of a RootTable as the QuinticRoots find_roots builds."""
    return analytic.QuinticRoots(t=float(table.t[i]), alpha=table.alpha[i], beta=table.beta[i],
                                 gamma=table.gamma[i], residual=table.residual[i])


def test_root_table_columns_are_find_roots():
    ts = [0.0, 1e-5, 0.003, 0.5, 0.999, 1.0]
    table = root_table(ts)
    assert len(table) == len(ts)
    assert [c.dtype for c in (table.t, table.alpha, table.beta, table.gamma, table.residual)] == [
        np.float64, np.float64, np.complex128, np.complex128, np.float64]
    assert [_row(table, i) for i in range(len(ts))] == [find_roots(t) for t in ts]
    assert len(root_table([])) == 0
    with pytest.raises(ValueError):
        root_table([0.5, 1.1])
    with pytest.raises(ValueError):
        root_table([-1e-9])


def test_battery_tables_equal_the_find_roots_loop():
    """The tables the battery reads are the per-t find_roots loop, field for
    field: the three default grids and the t -/+ h points of check (l)."""
    grids = EstimateGrids()
    tables = _root_tables(grids, list("abcdefghijklm"))
    assert sorted(tables) == ["large", "small", "small±h", "unit"]
    for name in ("unit", "large", "small"):
        table = tables[name]
        want = [find_roots(float(t)) for t in _grid(getattr(grids, name))]
        assert [_row(table, i) for i in range(len(table))] == want, name
    h, stop = 1e-6, grids.small[1]
    inner = [float(t) for t in _grid(grids.small) if h <= float(t) <= stop - h]
    assert len(inner) == 499
    want = [find_roots(t - h) for t in inner] + [find_roots(t + h) for t in inner]
    table = tables["small±h"]
    assert [_row(table, i) for i in range(len(table))] == want


def test_battery_solves_only_the_grids_it_reads():
    assert _root_tables(COARSE, ["d", "i"]) == {}
    assert sorted(_root_tables(COARSE, ["c"])) == ["large"]
    assert sorted(_root_tables(COARSE, ["a", "g"])) == ["small", "unit"]
    assert sorted(_root_tables(COARSE, ["l"])) == ["small", "small±h"]


def _oracle_modes(a):
    """Roots of x^5 + a x^3 + 1 from mpmath.polyroots at 160 bits, each with
    the residue that solves the start values y_0..y_4 = (-s, 1-s, -s, 1-s, -s)
    as a 160-bit Vandermonde system: no code shared with the double path."""
    with mpmath.workprec(160):
        w = mpmath.polyroots([1, 0, a, 0, 0, 1], maxsteps=100, extraprec=160)
        s = 1 / (2 + mpmath.mpf(a))
        y = mpmath.matrix([-s, 1 - s, -s, 1 - s, -s])
        c = mpmath.lu_solve(mpmath.matrix([[rho**n for rho in w] for n in range(5)]), y)
        return [(complex(rho), complex(ci)) for rho, ci in zip(w, c)]


def _nearest(modes, z):
    return min(modes, key=lambda m: abs(m[0] - z))


def test_roots_high_precision():
    # the double roots sit within 2^-52 (a unit or two in the last place at
    # modulus 1) of the 160-bit roots of an independent solver
    r = find_roots(0.003)
    assert r == _row(root_table([0.003]), 0)
    modes = _oracle_modes(0.003)
    for z in (r.alpha, r.beta, r.gamma):
        assert abs(_nearest(modes, z)[0] - z) <= 2.0**-52


def test_root_derivatives_match_finite_differences_mid_interval():
    t, h = 0.3, 1e-6
    rm, r0, rp = find_roots(t - h), find_roots(t), find_roots(t + h)
    for key in ("alpha", "beta", "gamma"):
        a, b, c = (complex(getattr(x, key)) for x in (rm, r0, rp))
        fd1 = (c - a) / (2 * h)
        fd2 = (c - 2 * b + a) / h**2
        assert abs(fd1 - root_velocity(b, t)) < 1e-6
        assert abs(fd2 - root_acceleration(b, t)) < 1e-3


# --------------------------------------------------------------------------
# residues and the closed form
# --------------------------------------------------------------------------


def test_residue_start_values():
    """The closed form must reproduce y_0..y_4 = (-s, 1-s, -s, 1-s, -s)."""
    for a in (0.003, 0.1, 0.5, 0.9):
        s = 1 / (2 + a)
        y = y_closed_sequence(a, 4)
        want = np.array([-s, 1 - s, -s, 1 - s, -s])
        assert np.max(np.abs(y - want)) < 1e-12, a


def test_closed_form_satisfies_recurrence():
    a = 0.1
    y = y_closed_sequence(a, 50)
    for n in range(5, 51):
        assert abs(y[n] + a * y[n - 2] + y[n - 5]) < 1e-12


def test_closed_form_matches_direct_recurrence():
    a = 0.1
    y = y_closed_sequence(a, 500)
    s = 1 / (2 + a)
    z = [-s, 1 - s, -s, 1 - s, -s]
    for n in range(5, 501):
        z.append(-a * z[n - 2] - z[n - 5])
    dev = max(abs(y[n] - z[n]) / max(1.0, abs(z[n])) for n in range(501))
    assert dev < 1e-10


def test_residue_anchors():
    res = residue_coeffs(0.003)
    assert abs(res.c_alpha - (-0.5)) < 0.01
    res5 = residue_coeffs(0.005)
    assert abs(res5.c_beta) <= 0.106 * 0.005
    assert abs(res5.c_gamma) <= 0.172 * 0.005


def test_residue_domain():
    with pytest.raises(ValueError):
        residue_coeffs(0.0)  # degenerate: roots on the unit circle
    with pytest.raises(ValueError):
        residue_coeffs(1.5)


@pytest.mark.parametrize("a", [1e-16, 3e-16, 1e-100])
def test_residues_where_alpha_rounds_to_minus_one_name_a(a):
    # rho^2 - 1 is exactly 0 there: this was a bare ZeroDivisionError
    assert find_roots(a).alpha == -1.0
    with pytest.raises(ValueError, match=f"a = {a:g} .* alpha rounds to -1"):
        residue_coeffs(a)


def test_residues_high_precision():
    # the residue formula divides by rho^2 - 1, which cancels near alpha = -1,
    # so the relative error allowed is a few units scaled by 1 / |rho^2 - 1|
    r = find_roots(0.003)
    res = residue_coeffs(0.003)
    modes = _oracle_modes(0.003)
    for z, c in ((r.alpha, res.c_alpha), (r.beta, res.c_beta), (r.gamma, res.c_gamma)):
        rho, want = _nearest(modes, z)
        assert abs(c - want) <= 2.0**-50 * abs(want) / abs(rho**2 - 1)


# --------------------------------------------------------------------------
# balance-point estimate
# --------------------------------------------------------------------------


def test_estimate_constant():
    assert abs(N_ESTIMATE_CONSTANT - 5 / math.cos(math.pi / 10)) < 1e-15


def test_estimate_anchor():
    assert abs(estimate_N(0.003) - 11785) <= 15
    assert abs(estimate_N(0.005) - 6534.43) < 0.1


def test_estimate_domain():
    for bad in (0.0, -0.001, 0.0051, 0.3):
        with pytest.raises(ValueError):
            estimate_N(bad)


def test_estimate_not_finite_is_refused():
    # a subnormal a is inside the domain, but its estimate overflows
    with pytest.raises(ValueError, match="not a finite double"):
        estimate_N(1e-320)


def test_estimate_monotone_in_a():
    vals = [estimate_N(a) for a in np.linspace(0.0005, 0.005, 50)]
    assert all(x > y for x, y in zip(vals, vals[1:]))


# --------------------------------------------------------------------------
# Vandermonde inverse
# --------------------------------------------------------------------------


def test_vandermonde_two_nodes_exact():
    M = vandermonde_inverse([1.0, -1.0])
    assert np.allclose(M, [[0.5, 0.5], [0.5, -0.5]], atol=1e-15)


def test_vandermonde_identity_residual_random_sets():
    """1000 random well-conditioned sets: ||V V^-1 - I||_inf <= 1e-10."""
    rng = np.random.default_rng(20260817)
    worst = 0.0
    for _ in range(1000):
        nodes = sample_node_set(rng)
        V = vandermonde_matrix(nodes)
        M = vandermonde_inverse(nodes)
        err = float(np.max(np.sum(np.abs(V @ M - np.eye(len(nodes))), axis=1)))
        worst = max(worst, err)
    assert worst <= 1e-10, worst


@pytest.mark.parametrize("a", [0.005, 0.3, 1.0])
def test_vandermonde_identity_residual_quintic_nodes(a):
    nodes = np.array(find_roots(a).all_roots())
    V = vandermonde_matrix(nodes)
    M = vandermonde_inverse(nodes)
    err = float(np.max(np.sum(np.abs(V @ M - np.eye(5)), axis=1)))
    assert err <= 1e-10, err


def test_vandermonde_solves_residue_system():
    """Solving V c = (y_0..y_4) recovers the residue coefficients."""
    a = 0.25
    roots = find_roots(a)
    res = residue_coeffs(a)
    nodes = np.array(roots.all_roots())
    y = y_closed_sequence(a, 4)
    c = vandermonde_inverse(nodes) @ y  # row j dots y to the residue of node j
    want = [res.c_alpha, res.c_beta, np.conj(res.c_beta), res.c_gamma, np.conj(res.c_gamma)]
    remaining = list(c)
    for w in want:
        d, best = min((abs(w - r), k) for k, r in enumerate(remaining))
        assert d < 1e-12, (w, remaining)
        remaining.pop(best)


def test_vandermonde_rejects_near_duplicates():
    with pytest.raises(ValueError):
        vandermonde_inverse([1.0, 1.0 + 1e-14])


def test_vandermonde_node_cap():
    with pytest.raises(CapacityError):
        vandermonde_inverse(np.exp(2j * np.pi * np.arange(13) / 13))
    with pytest.raises(CapacityError):
        vandermonde_inverse([])


# --------------------------------------------------------------------------
# the battery
# --------------------------------------------------------------------------

COARSE = EstimateGrids(
    unit=(0.0, 1.0, 2e-2),
    large=(0.005, 0.999, 2e-2),
    small=(1e-4, 0.005, 1e-4),
)


@pytest.mark.parametrize(
    "name, spec",
    [("small", (0.0, 0.005, 1e-12)), ("unit", (0.0, 1.0, 5e-324)), ("large", (0.5, 1.0, 1e-9))],
    ids=["small-5e9-points", "unit-quotient-overflows", "large-5e8-points"],
)
def test_grids_above_the_point_cap_are_refused(name, spec):
    # billions of points, and a step too small to divide by: refused by name
    # before any array is built
    with pytest.raises(CapacityError, match=f"grid {name}=.* has more than 100000 points"):
        EstimateGrids(**{name: spec})
    at_cap = EstimateGrids(unit=(0.0, 1.0, 1e-5 + 1e-15))
    assert len(_grid(at_cap.unit)) == 100_000


@pytest.mark.parametrize("spec", [(0.0, 0.0, 1e-5), (0.0, 1e-6, 1e-5)])
def test_small_grid_without_a_point_above_zero_is_refused(spec):
    # (g), (h) and (j) skip t = 0, so they would pass without a sample
    with pytest.raises(ValueError, match="grid small=.* needs a point above 0"):
        EstimateGrids(small=spec)
    assert _grid(EstimateGrids(small=(0.0, 1e-5, 1e-5)).small).tolist() == [0.0, 1e-5]
    assert _grid(EstimateGrids(small=(1e-5, 1e-5, 1e-5)).small).tolist() == [1e-5]


def test_battery_all_pass_coarse():
    results = check_estimates(COARSE)
    assert [c.check_id for c in results] == list("abcdefghijklm")
    for c in results:
        assert c.passed, (c.check_id, c.worst_margin)
        assert c.worst_margin > 0, c.check_id


def test_battery_subset_and_validation():
    only = check_estimates(COARSE, only=["d", "i"])
    assert [c.check_id for c in only] == ["d", "i"]
    with pytest.raises(ValueError):
        check_estimates(COARSE, only=["z"])


@pytest.fixture(scope="module")
def coarse_battery():
    return {c.check_id: c for c in check_estimates(COARSE)}


@pytest.mark.parametrize("cid", list("abcdefghijklm"))
def test_each_check_alone_equals_its_battery_row(cid, coarse_battery):
    # a check run alone solves only the tables its _BATTERY entry reads,
    # so a missing or wrong entry there fails here
    assert check_estimates(COARSE, only=[cid]) == [coarse_battery[cid]]
    margin = analytic._BATTERY[cid]["check"](COARSE, _root_tables(COARSE, [cid]))
    assert isinstance(margin, float)


def test_every_table_is_solved_before_check_d_draws(monkeypatch):
    """The root tables' temporaries must be freed before check (d) first
    loads numpy.random: solving a table lazily, on its first read, raises
    the peak RSS of `newmandiv estimates`."""
    events = []
    solve, default_rng = analytic.root_table, np.random.default_rng
    monkeypatch.setattr(analytic, "root_table", lambda ts: events.append("table") or solve(ts))
    monkeypatch.setattr(np.random, "default_rng", lambda seed: events.append("draw") or default_rng(seed))
    assert all(c.passed for c in check_estimates(COARSE))
    assert events == ["table"] * 4 + ["draw"]


@pytest.mark.parametrize(
    "cid, t, old_margin",
    [("g", 3e-7, -8.2e-4), ("h", 1e-7, -5.3e-3), ("j", 1e-14, -4.2e-2)],
)
def test_small_grid_check_refuses_a_point_rounding_cannot_decide(cid, t, old_margin):
    """Each of (g), (h) and (j) alone refuses the point where its margin was
    rounding noise (the per-row reference reported old_margin there)."""
    grids = EstimateGrids(small=(t, t, 1.0))
    ref = _ref_margins(grids)[cid]
    assert ref == pytest.approx(old_margin, rel=0.05)
    with pytest.raises(ValueError, match=rf"has the point t = {t:g}, too small for check \({cid}\): rounding"):
        check_estimates(grids, only=[cid])


def test_small_grid_rounding_bounds_leave_the_default_grids_decided():
    # the tiny benchmark profile's small grid, and the default one: every
    # point decided, with the bound far below the margin
    for small in ((0.0001, 0.005, 0.0001), EstimateGrids().small):
        results = check_estimates(EstimateGrids(small=small), only=["g", "h", "j"])
        assert all(c.passed for c in results)


def test_battery_margins_scale_free():
    """The Taylor-window checks report t^2-scaled margins: coarsening the
    grid must not collapse them toward zero."""
    fine = {c.check_id: c for c in check_estimates(only=["g", "h"])}
    coarse = {c.check_id: c for c in check_estimates(COARSE, only=["g", "h"])}
    for cid in ("g", "h"):
        assert fine[cid].passed and coarse[cid].passed
        assert fine[cid].worst_margin > 1e-5
        assert coarse[cid].worst_margin > 1e-5


# --------------------------------------------------------------------------
# the per-row reference: the battery as written before it ran on columns,
# one QuinticRoots per grid point and CPython or numpy scalar arithmetic on
# each.  The column code must give its tables, margins and errors exactly.
# (d) and (i) read no table and are left out.
# --------------------------------------------------------------------------

_REF_FIFTH = tuple(cmath.exp(1j * math.pi * (2 * k + 1) / 5) for k in range(5))


def _ref_sectors(t, z):
    by_sector = {}
    for r in z:
        ang = cmath.phase(r)
        if abs(ang) > 4 * math.pi / 5:
            by_sector["alpha"] = r
        elif 2 * math.pi / 5 < ang < 4 * math.pi / 5:
            by_sector["beta"] = r
        elif 0 < ang < 2 * math.pi / 5:
            by_sector["gamma"] = r
    if set(by_sector) != {"alpha", "beta", "gamma"}:
        raise ArithmeticError(f"sector classification failed at t={t}: {z}")
    alpha_c, beta, gamma = by_sector["alpha"], by_sector["beta"], by_sector["gamma"]
    if abs(alpha_c.imag) > 1e-12:
        raise ArithmeticError(f"real root drifted off the axis at t={t}: {alpha_c}")
    alpha = alpha_c.real
    resid = max(abs(r**5 + t * r**3 + 1) for r in (complex(alpha), beta, gamma))
    return analytic.QuinticRoots(t=t, alpha=alpha, beta=beta, gamma=gamma, residual=resid)


def _ref_polished(ts):
    ts = np.asarray(ts, dtype=float)
    coeffs = np.zeros((len(ts), 6), dtype=complex)
    coeffs[:, 0] = coeffs[:, 5] = 1.0
    coeffs[:, 3] = ts
    seeds = np.broadcast_to(_REF_FIFTH, (len(ts), 5))
    return ts, analytic._polish(aberth_roots(coeffs, seeds), ts[:, None])


def _ref_root_table(ts):
    ts, z = _ref_polished(ts)
    return [_ref_sectors(float(t), row) for t, row in zip(ts, z)]


def _ref_residue(rho, a):
    return -a / (2 * rho**5 - 3) * rho**2 / (rho**2 - 1)


def _ref_residues(roots):
    a = roots.t
    if not a > 0.0:
        raise ValueError(f"residues need 0 < a <= 1, got {a}")
    if roots.alpha**2 == 1.0:
        raise ValueError(
            f"residues at a = {a:g} are out of reach in double precision: the real root alpha"
            f" rounds to -1, where the residue divides by alpha^2 - 1 = 0"
        )
    c_alpha = _ref_residue(complex(roots.alpha), a)
    if abs(c_alpha.imag) > 1e-12 * (1 + abs(c_alpha)):
        raise ArithmeticError(f"real residue drifted complex at a={a}")
    return analytic.ResidueCoeffs(
        a=a,
        c_alpha=c_alpha.real,
        c_beta=_ref_residue(roots.beta, a),
        c_gamma=_ref_residue(roots.gamma, a),
    )


def _ref_moduli(rr):
    return tuple(np.array([abs(getattr(r, key)) for r in rr]) for key in ("alpha", "beta", "gamma"))


def _ref_check_a(grids, tables):
    aa, bb, gg = _ref_moduli(tables["unit"])
    return min(
        float(np.min(aa[:-1] - aa[1:])),
        float(np.min(bb[1:] - bb[:-1])),
        float(np.min(gg[:-1] - gg[1:])),
    )


def _ref_check_b(grids, tables):
    aa, bb, gg = _ref_moduli(tables["large"])
    return min(
        float(np.min(aa - 0.8375)), float(np.min(0.999002 - aa)),
        float(np.min(bb - 1.000809)), float(np.min(1.1872 - bb)),
        float(np.min(gg - 0.9203)), float(np.min(0.999692 - gg)),
    )


def _ref_check_c(grids, tables):
    margin = math.inf
    for r in tables["large"]:
        res = _ref_residues(r)
        margin = min(margin, 2.0 - abs(res.c_alpha), abs(res.c_beta) - 1.0 / 2007.0, 1.0 - abs(res.c_gamma))
    return margin


def _ref_check_e(grids, tables):
    ib = np.array([r.beta.imag for r in tables["large"]])
    return min(float(np.min(ib[1:] - ib[:-1])), float(np.min(ib - 0.95)))


def _ref_check_f(grids, tables):
    fifth = np.exp(2j * math.pi * np.arange(5) / 5)
    margin = math.inf
    for r in tables["unit"]:
        roots = np.array(r.all_roots())
        d = np.min(np.abs(roots[:, None] - fifth[None, :]))
        margin = min(margin, d - 0.1, abs(r.gamma - 1) - 0.2)
    return margin


def _ref_track_from_zero(r):
    return [(r0, min(r.all_roots(), key=lambda x: abs(x - r0))) for r0 in _REF_FIFTH]


def _ref_small_positive(grids, tables):
    points = [(t, r) for t, r in zip(_grid(grids.small), tables["small"]) if t > 0]
    for t, r in points:
        if t * t == 0 or abs(r.beta) == 1:
            start, stop, step = grids.small
            why = "t^2 is 0" if t * t == 0 else "|beta| rounds to 1"
            raise ValueError(
                f"grid small={start}:{stop}:{step} has the point t = {t:g}, too small for"
                f" checks (g), (h) and (j): {why}"
            )
    return points


def _ref_check_g(grids, tables):
    margin = math.inf
    for t, r in _ref_small_positive(grids, tables):
        for r0, rt in _ref_track_from_zero(r):
            err2 = abs(rt - r0 + t / (5 * r0)) / t**2
            err1 = abs(rt - r0) / t
            margin = min(margin, 0.04065 - err2, 0.2009 - err1)
    return margin


def _ref_check_h(grids, tables):
    margin = math.inf
    for t, r in _ref_small_positive(grids, tables):
        for r0, rt in _ref_track_from_zero(r):
            err = abs(abs(rt) ** 2 - 1 - (2 * t / 5) * (r0**3).real) / t**2
            margin = min(margin, 0.13 - err)
    return margin


def _ref_check_j(grids, tables):
    margin = math.inf
    for _, r in _ref_small_positive(grids, tables):
        lb = math.log(abs(r.beta))
        ra = math.log(abs(r.alpha)) / lb
        rg = math.log(abs(r.gamma)) / lb
        margin = min(margin, 0.008 - abs(ra - (-1.236)), 0.005 - abs(rg - (-0.382)))
    return margin


def _ref_check_k(grids, tables):
    margin = math.inf
    for t, r in zip(_grid(grids.unit), tables["unit"]):
        for rho in r.all_roots():
            lhs = rho**10 - 1
            rhs = 2 * t * rho**3 + t**2 * rho**6
            margin = min(margin, 1e-10 - abs(lhs - rhs))
    return margin


def _ref_check_l(grids, tables):
    margin = math.inf
    h = 1e-6
    fd_tol = 1e-4
    shifted = tables["small±h"]
    half = len(shifted) // 2
    neighbours = iter(zip(shifted[:half], shifted[half:]))
    for t, r, fd in zip(_grid(grids.small), tables["small"], analytic._fd_inner(grids)):
        t = float(t)
        for rho in (complex(r.alpha), r.beta, r.gamma):
            margin = min(
                margin,
                abs(rho) - 0.9990009,
                1.0008097 - abs(rho),
                0.2009 - abs(root_velocity(rho, t)),
                0.0813 - abs(root_acceleration(rho, t)),
            )
        if fd:
            rm, rp = next(neighbours)
            for key in ("alpha", "beta", "gamma"):
                a_, b_, c_ = (complex(getattr(x, key)) for x in (rm, r, rp))
                fd1 = (c_ - a_) / (2 * h)
                fd2 = (c_ - 2 * b_ + a_) / h**2
                margin = min(
                    margin,
                    fd_tol - abs(fd1 - root_velocity(b_, t)),
                    fd_tol * 50 - abs(fd2 - root_acceleration(b_, t)),
                )
    return margin


def _ref_check_m(grids, tables):
    margin = math.inf
    for t, r in zip(_grid(grids.unit), tables["unit"]):
        margin = min(margin, (5 * r.gamma**2 + 3 * t).real)
    return margin


_REF_CHECKS = {
    "a": _ref_check_a, "b": _ref_check_b, "c": _ref_check_c, "e": _ref_check_e, "f": _ref_check_f,
    "g": _ref_check_g, "h": _ref_check_h, "j": _ref_check_j, "k": _ref_check_k, "l": _ref_check_l,
    "m": _ref_check_m,
}


def _table_ts(grids, name):
    if name == "small±h":
        ts = _grid(grids.small)[analytic._fd_inner(grids)]
        return np.concatenate([ts - 1e-6, ts + 1e-6])
    return _grid(getattr(grids, name))


def _outcome(fn):
    """fn()'s value, or the type and text of what it raised."""
    try:
        return fn()
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


def _ref_margins(grids):
    tables = {name: _ref_root_table(_table_ts(grids, name)) for name in ("unit", "large", "small", "small±h")}
    return {cid: _outcome(lambda: check(grids, tables)) for cid, check in _REF_CHECKS.items()}


def _margins(grids):
    tables = _root_tables(grids, list(_REF_CHECKS))
    return {cid: _outcome(lambda: analytic._BATTERY[cid]["check"](grids, tables)) for cid in _REF_CHECKS}


def _assert_columns_are_reference(table, ref):
    assert len(table) == len(ref)
    for key in ("t", "alpha", "beta", "gamma", "residual"):
        assert getattr(table, key).tolist() == [getattr(r, key) for r in ref], key


@pytest.mark.parametrize("grids", [EstimateGrids(), COARSE], ids=["default", "coarse"])
def test_margins_equal_the_per_row_reference(grids):
    want = _ref_margins(grids)
    assert _margins(grids) == want
    got = {c.check_id: c.worst_margin for c in check_estimates(grids)}
    assert {cid: got[cid] for cid in want} == want
    for name in ("unit", "large", "small", "small±h"):
        ts = _table_ts(grids, name)
        _assert_columns_are_reference(root_table(ts), _ref_root_table(ts))


@st.composite
def _estimate_grids(draw):
    """Grids inside the EstimateGrids domain with at most 151 points each;
    small starts at 1e-5, where rounding decides every small-grid margin."""
    def spec(lo, hi, min_points):
        start = draw(st.floats(min_value=lo, max_value=hi - 1e-3))
        stop = draw(st.floats(min_value=start + 1e-3, max_value=hi))
        k = draw(st.integers(min_value=min_points - 1, max_value=150))
        return (start, stop, (stop - start) / max(k, 1))

    return EstimateGrids(unit=spec(0.0, 1.0, 2), large=spec(1e-3, 1.0, 2), small=spec(1e-5, 1.0, 1))


@settings(max_examples=20, deadline=None)
@given(_estimate_grids())
def test_margins_equal_the_reference_on_drawn_grids(grids):
    assert _margins(grids) == _ref_margins(grids)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1.0, allow_nan=False), max_size=40))
def test_root_table_columns_equal_the_reference(ts):
    _assert_columns_are_reference(root_table(ts), _ref_root_table(ts))


@pytest.mark.parametrize("t", [0.0, 5e-324, 1e-17, 1e-5, 0.003, 0.3, 0.5, 1.0])
def test_find_roots_is_the_reference_quintic_roots(t):
    (want,) = _ref_root_table([t])
    got = find_roots(t)
    assert got == want
    assert [type(x) for x in (got.t, got.alpha, got.beta, got.gamma)] == [float, np.float64, np.complex128,
                                                                           np.complex128]
    assert [type(x) for x in (want.alpha, want.beta, want.gamma)] == [np.float64, np.complex128, np.complex128]


@pytest.mark.parametrize("a", [1e-15, 1e-5, 0.003, 0.1, 0.5, 1.0])
def test_residue_coeffs_are_the_reference(a):
    want = _ref_residues(find_roots(a))
    got = residue_coeffs(a)
    assert got == want
    assert type(got.c_alpha) is float and type(got.c_beta) is np.complex128


def test_sector_errors_are_the_reference():
    ts, z = _ref_polished([0.1, 0.2, 0.3])
    no_gamma = z.copy()
    no_gamma[1] = np.where(np.angle(z[1]) > 0, np.conj(z[1]), z[1])  # the upper half emptied
    off_axis = z.copy()
    k = int(np.argmin(np.abs(z[2] + 1)))
    off_axis[2, k] += 1e-10j
    both = off_axis.copy()
    both[1] = no_gamma[1]  # the earlier row's error is the one raised
    # a root whose angle is the edge 2 pi/5 itself lies in neither sector
    edge = next(z for z in (s * cmath.exp(2j * math.pi / 5) for s in np.linspace(0.9, 1.1, 1001))
                if cmath.phase(z) == 2 * math.pi / 5)
    on_edge = z.copy()
    on_edge[0, np.argmin(np.abs(np.angle(z[0]) - math.pi / 5))] = edge
    for rows in (no_gamma, off_axis, both, on_edge):
        with pytest.raises(ArithmeticError) as want:
            [_ref_sectors(float(t), row) for t, row in zip(ts, rows)]
        with pytest.raises(ArithmeticError) as got:
            analytic._sectors(ts, rows)
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize(
    "grids",
    [
        EstimateGrids(large=(1e-17, 0.5, 0.1)),  # alpha rounds to -1 in (c)
        EstimateGrids(small=(1e-17, 1e-17, 1)),  # |beta| rounds to 1
        EstimateGrids(small=(1e-300, 1e-300, 1)),  # t^2 is 0
    ],
    ids=["c-alpha-minus-one", "beta-rounds-to-1", "t-squared-0"],
)
def test_error_paths_are_the_reference(grids):
    want = {cid: m for cid, m in _ref_margins(grids).items() if isinstance(m, tuple)}
    assert want
    got = _margins(grids)
    assert {cid: got[cid] for cid in want} == want


def test_residue_columns_equal_the_reference():
    ts = _grid(EstimateGrids().large)
    c_alpha, c_beta, c_gamma = analytic._residue_table(root_table(ts))
    want = [_ref_residues(r) for r in _ref_root_table(ts)]
    assert c_alpha.tolist() == [w.c_alpha for w in want]
    assert c_beta.tolist() == [w.c_beta for w in want]
    assert c_gamma.tolist() == [w.c_gamma for w in want]


#: the checks whose margin is a least over points, by the grid they read
_POINTWISE = {"unit": "fkm", "large": "bc", "small": "ghjl"}


def _row_margins(monkeypatch, cid, grids, tables, inner):
    """Each row's margin of check cid as the column code computes it on the
    whole table (numpy's loops can round an array otherwise than one row):
    the row-wise least of the arrays the check hands to _least.  Arrays
    shorter than the table are (l)'s finite differences, at the inner rows."""
    seen, least = [], analytic._least
    monkeypatch.setattr(analytic, "_least", lambda *ms: seen.extend(ms) or least(*ms))
    analytic._BATTERY[cid]["check"](grids, tables)
    monkeypatch.setattr(analytic, "_least", least)
    rows = np.full(len(inner), np.inf)
    for m in seen:
        m = np.min(np.reshape(m, (len(m), -1)), axis=1)
        at = slice(None) if len(m) == len(rows) else inner
        rows[at] = np.minimum(rows[at], m)
    return rows.tolist()


@pytest.mark.parametrize("name", sorted(_POINTWISE))
def test_pointwise_margins_equal_the_reference(name, monkeypatch):
    """Every default-grid point's own margin, not just the least: the
    reference runs each pointwise check on one row (with its t -/+ h
    neighbours in (l)), the column code on the whole table."""
    grids = EstimateGrids()
    ts = _grid(getattr(grids, name))
    inner = analytic._fd_inner(grids) if name == "small" else np.zeros(len(ts), bool)
    shifted = _table_ts(grids, "small±h")
    tables = {name: root_table(ts), "small±h": root_table(shifted)}
    ref, ref_shifted = _ref_root_table(ts), _ref_root_table(shifted)
    half = len(ref_shifted) // 2
    rank = np.cumsum(inner) - 1
    for cid in _POINTWISE[name]:
        want = []
        for i, t in enumerate(ts.tolist()):
            # a one-point grid; a stop 3h above t keeps t inside (l)'s differences
            one = types.SimpleNamespace(**{**asdict(grids), name: (t, t + 3e-6 if inner[i] else t, 1.0)})
            near = [ref_shifted[rank[i]], ref_shifted[half + rank[i]]] if inner[i] else []
            want.append(_REF_CHECKS[cid](one, {name: [ref[i]], "small±h": near}))
        assert _row_margins(monkeypatch, cid, grids, tables, inner) == want, cid
