"""Tests for the small-degree unfair-factorization scanner."""

import hashlib
import json
import multiprocessing

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import newmandiv.search as search
from newmandiv.analytic import aberth_roots
from newmandiv.modpoly import CapacityError, IntPoly, squarefree_decomposition
from newmandiv.search import (
    Classification,
    DEFAULT_TOL,
    Newman01,
    NumericFailure,
    SplitCandidate,
    SplitSurvey,
    enumerate_01,
    scan,
    split_survey,
)
from newmandiv.search import (
    _BLOCK,
    _block_roots,
    _block_row,
    _block_survey,
    _retry_survey,
    _seeds,
    _units,
)

# ----------------------------------------------------------------------
# masks and enumeration
# ----------------------------------------------------------------------


def test_enumerate_degree_two():
    assert [str(r) for r in enumerate_01(2)] == ["1+x^2", "1+x+x^2"]


def test_enumerate_counts():
    assert len(list(enumerate_01(1))) == 1
    assert len(list(enumerate_01(3))) == 4
    assert len(list(enumerate_01(12))) == 2048


def test_enumerate_range_errors():
    for bad in (0, -1, 25):
        with pytest.raises(CapacityError):
            list(enumerate_01(bad))


def test_mask_invariants():
    with pytest.raises(ValueError):
        Newman01(3, 0b1110)  # constant term 0
    with pytest.raises(ValueError):
        Newman01(3, 0b101)  # leading bit below the degree
    with pytest.raises(ValueError):
        Newman01(3, 0b11101)  # bits above the degree
    with pytest.raises(CapacityError):
        Newman01(25, (1 << 25) | 1)


def _coeffs(r):
    # r's ascending coefficient vector of 0.0/1.0 values
    return np.array([(r.bits >> k) & 1 for k in range(r.degree + 1)], dtype=float)


def test_mask_str():
    assert str(Newman01(4, 0b10011)) == "1+x+x^4"


def _reversed(r):
    # x^deg R(1/x): the bitmask read backwards; every root maps to its inverse
    return Newman01(r.degree, int(f"{r.bits:0{r.degree + 1}b}"[::-1], 2))


def test_reciprocal_reverses_and_involutes():
    r = Newman01(3, 0b1011)  # 1+x+x^3
    assert _reversed(r).bits == 0b1101  # 1+x^2+x^3
    assert _reversed(_reversed(r)) == r


# ----------------------------------------------------------------------
# split_survey on hand-checked cases
# ----------------------------------------------------------------------


def test_single_pair_has_no_splits():
    assert split_survey(Newman01(2, 0b111)).candidates() == []


def test_two_factor_cube():
    # 1+x+x^2+x^3 = (1+x)(1+x^2): one unit pair and one real root, so one
    # canonical nontrivial split, and it is fair with exactly those factors
    survey = split_survey(Newman01(3, 0b1111)).candidates()
    assert len(survey) == 1
    c = survey[0]
    assert c.classification is Classification.FAIR
    got = sorted([list(np.round(c.p_coeffs, 9)), list(np.round(c.q_coeffs, 9))], key=len)
    assert got == [[1.0, 1.0], [1.0, 0.0, 1.0]]


def test_repeated_real_root_mask():
    # 1+x+x^3+x^4 = (1+x)^2 (1-x+x^2): the double root at -1 splits into
    # near-coincident approximations; every split must come out fair or
    # indeterminate at double precision, and all fair after escalation
    r = Newman01(4, 0b11011)
    for c in split_survey(r).candidates():
        assert c.classification in (Classification.FAIR, Classification.INDETERMINATE)
    retry = _retry_survey(r).candidates()
    assert retry and all(c.classification is Classification.FAIR for c in retry)


def test_repeated_complex_pair_mask_escalates_clean():
    # 1+x^2+x^6+x^8 = (1+x^2)^2 (x^4-x^2+1): double roots at +-i
    r = Newman01(8, 0b101000101)
    retry = _retry_survey(r).candidates()
    assert retry and all(c.classification is Classification.FAIR for c in retry)


def test_survey_subsets_are_conjugate_closed_index_sets():
    r = Newman01(6, 0b1111111)  # 1+x+...+x^6, roots are 7th roots of unity but 1
    survey = split_survey(r).candidates()
    assert survey
    n_roots = r.degree
    for c in survey:
        assert 0 < len(c.subset) < n_roots
        assert len(set(c.subset)) == len(c.subset)
        assert len(c.p_coeffs) == len(c.subset) + 1  # monic of matching degree
        assert len(c.q_coeffs) == n_roots - len(c.subset) + 1
        assert c.p_coeffs[-1] == pytest.approx(1.0, abs=1e-9)
        assert c.q_coeffs[-1] == pytest.approx(1.0, abs=1e-9)


def test_survey_of_a_mask_without_splits_is_empty():
    survey = split_survey(Newman01(2, 0b111))
    assert isinstance(survey, SplitSurvey)
    assert survey.tally == (0, 0, 0) and survey.candidates() == []


def _tally_of_list(survey):
    # the reference: each verdict counted over the built candidates, in the
    # order of SplitSurvey.tally
    counts = _verdict_counts(survey.candidates())
    return tuple(counts[c] for c in (Classification.FAIR, Classification.UNFAIR, Classification.INDETERMINATE))


def test_tally_counts_the_verdicts_of_every_mask_to_degree_nine():
    indeterminate = 0
    for r in (r for d in range(1, 10) for r in enumerate_01(d)):
        try:
            survey = split_survey(r)
        except NumericFailure:
            continue
        assert survey.tally == _tally_of_list(survey), str(r)
        indeterminate += survey.tally[2]
    assert indeterminate > 0


# ----------------------------------------------------------------------
# reconstruction and metamorphic properties
# ----------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=4, max_value=10), st.randoms(use_true_random=False))
def test_reconstruction_bound(degree, rng):
    inner = rng.getrandbits(degree - 1)
    r = Newman01(degree, 1 | (inner << 1) | (1 << degree))
    try:
        survey = split_survey(r)
    except NumericFailure:
        survey = _retry_survey(r)
    budget = degree * (2**degree) * DEFAULT_TOL
    want = _coeffs(r)
    for c in survey.candidates():
        got = np.convolve(c.p_coeffs, c.q_coeffs)
        assert np.max(np.abs(got - want)) <= budget


def _double_roots(r):
    # r's row of its block's batched solve, or the NumericFailure of its own
    block, row = _block_row(r)
    roots = _block_roots(r.degree, block)[row]
    if isinstance(roots, str):
        raise NumericFailure(roots)
    return roots


def _product_by_loop(units, picked, zero):
    # the reference: multiply the picked units' factors in ascending order
    poly = [zero + 1]
    for k, (_, factor) in enumerate(units):
        if (picked >> k) & 1:
            out = [zero] * (len(poly) + len(factor) - 1)
            for i, c in enumerate(poly):
                for j, f in enumerate(factor):
                    out[i + j] = out[i + j] + c * f
            poly = out
    return poly


def _verdict(p, q, tol):
    # the reference verdict rule on lists of floats: a decisively negative
    # coefficient makes a split fair; one nonnegative within tol is fair iff
    # both factors are 0-1
    both = list(p) + list(q)
    m = min(both)
    dev = max(min(abs(c), abs(c - 1)) for c in both)
    loose = search._ESCALATION_TOL_FACTOR * tol
    if m < -loose:
        return Classification.FAIR, m, dev
    if m < -tol:
        return Classification.INDETERMINATE, m, dev
    if dev <= tol:
        return Classification.FAIR, m, dev
    if dev > loose:
        return Classification.UNFAIR, m, dev
    return Classification.INDETERMINATE, m, dev


def _survey_by_loop(units, tol):
    # the reference survey: each split's factors multiplied by the loop and
    # classified one split at a time, on scalars of whatever type the units
    # hold; the SplitCandidates, or the message the mask fails with at its
    # first split whose P, then Q, carries imaginary residue above the limit
    im_limit = search._REAL_AXIS_FACTOR * tol
    full = (1 << len(units)) - 1
    out = []
    for picked in range(1, 1 << (len(units) - 1)):
        p_poly, q_poly = _product_by_loop(units, picked, 0.0), _product_by_loop(units, full ^ picked, 0.0)
        worst = [max(abs(float(c.imag)) for c in poly) for poly in (p_poly, q_poly)]
        for w in worst:
            if w > im_limit:
                return f"imaginary residue {w:.3g} above {im_limit:.3g}"
        p, q = [float(c.real) for c in p_poly], [float(c.real) for c in q_poly]
        cls, mc, dev = _verdict(p, q, tol)
        if max(worst) > tol:
            # more imaginary noise than the thresholds tolerate: defer
            cls = Classification.INDETERMINATE
        subset = tuple(sorted(i for k, (idx, _) in enumerate(units) if (picked >> k) & 1 for i in idx))
        out.append(SplitCandidate(subset, tuple(p), tuple(q), cls, mc, dev))
    return out


#: masks with at least four units, then every other mask of degree <= 9
LISTED_PRODUCT_MASKS = [0b111111111111, 0b100110110011, 0b110101100101, 0b101000101]
SHARED_PRODUCT_MASKS = LISTED_PRODUCT_MASKS + [
    r.bits for d in range(1, 10) for r in enumerate_01(d) if r.bits not in LISTED_PRODUCT_MASKS
]


@pytest.mark.parametrize("bits", SHARED_PRODUCT_MASKS)
def test_shared_products_equal_the_ascending_loop(bits):
    # the survey's shared product table on planes must reproduce the
    # per-subset loop bit for bit, since the first pass's verdicts are pinned
    # by the scan digest; the listed masks must survive the double pass, an
    # added mask may be lost by it, and then the survey must be lost on the
    # same grounds
    listed = bits in LISTED_PRODUCT_MASKS
    r = Newman01(bits.bit_length() - 1, bits)
    try:
        units = _units(_double_roots(r), DEFAULT_TOL)
    except NumericFailure:
        if listed:
            raise
        with pytest.raises(NumericFailure):
            split_survey(r)
        return
    if listed:
        assert len(units) >= 4
    # the survey visits each subset without the top unit once, in order,
    # and fails at the first split the loop survey fails at
    want = _survey_by_loop(units, DEFAULT_TOL)
    if isinstance(want, str):
        assert not listed
        with pytest.raises(NumericFailure) as info:
            split_survey(r)
        assert str(info.value) == want
        return
    survey = split_survey(r).candidates()
    assert len(survey) == (1 << (len(units) - 1)) - 1
    assert repr(survey) == repr(want)


# ----------------------------------------------------------------------
# blocked root finding
# ----------------------------------------------------------------------


def _solo_roots(r):
    try:
        return aberth_roots(_coeffs(r), _seeds(r.degree))
    except ArithmeticError:
        return None


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=13),
    st.integers(min_value=0),
    st.sampled_from(["first", "last", "middle"]),
)
@example(1, 0, "middle")
@example(2, 0, "last")  # two masks: one short block
@example(7, 0, "last")  # 64 masks: exactly one full block
@example(8, 1, "first")
@example(12, 31, "last")  # the last mask of degree 12
def test_block_rows_equal_their_own_solve(degree, block, where):
    # a mask's row of its block's batched solve is its 1-D solve bit for bit,
    # whichever row of which block it is
    n = 1 << (degree - 1)
    block %= -(-n // _BLOCK)
    first, last = block * _BLOCK, min((block + 1) * _BLOCK, n) - 1
    inner = {"first": first, "last": last, "middle": (first + last) // 2}[where]
    r = Newman01(degree, 1 | (inner << 1) | (1 << degree))
    want = _solo_roots(r)
    got = _block_roots(degree, block)[inner - first]
    if want is None:
        assert got == f"root finding failed for {r}"
    else:
        assert np.array(got).tobytes() == want.tobytes()


def _outcomes(degree):
    out = {}
    for r in enumerate_01(degree):
        try:
            out[r.bits] = split_survey(r).candidates()
        except NumericFailure as exc:
            out[r.bits] = str(exc)
    return out


def test_no_batched_solve_to_degree_12_fails():
    # the premise of losing a refused block whole: every batched solve of the
    # 69 blocks of degrees 1..12 converges
    for degree in range(1, 13):
        for block in range(-(-(1 << (degree - 1)) // _BLOCK)):
            rows = _block_roots(degree, block)
            assert not any(isinstance(row, str) for row in rows), (degree, block)


def test_failed_block_loses_every_mask_to_the_retry(monkeypatch):
    # a block whose batched solve raises fails each of its masks by name,
    # with no solve of a mask alone, and the scan retries every one of them:
    # the retry's verdicts close the scan with the same split counts
    want = scan(8)
    batched, whole = [], []

    def no_batches(coeffs, seeds, *args, **kwargs):
        if np.ndim(coeffs) == 2:
            batched.append(len(coeffs))
            raise ArithmeticError("batched solve refused")
        whole.append(len(coeffs))
        return aberth_roots(coeffs, seeds, *args, **kwargs)

    # clear the cache, or the surveys of the last block surveyed before the
    # patch would be read back without a solve
    _block_survey.cache_clear()
    monkeypatch.setattr(search, "aberth_roots", no_batches)
    try:
        for r in enumerate_01(8):
            with pytest.raises(NumericFailure) as info:
                split_survey(r)
            assert str(info.value) == f"root finding failed for {r}"
        assert whole == []
        got = scan(8)
    finally:
        _block_survey.cache_clear()
    assert batched  # the batched solves were tried and refused
    assert got.conjecture_holds()
    for g, w in zip(got.summaries, want.summaries):
        assert g.escalated == g.polynomials
        assert g.splits == w.splits
    assert not got.retry_failures


# ----------------------------------------------------------------------
# block survey
# ----------------------------------------------------------------------


def _list_outcome(r):
    # the reference: this mask's units, expanded split by split on lists
    try:
        units = _units(_double_roots(r), DEFAULT_TOL)
    except NumericFailure as exc:
        return str(exc)
    return _survey_by_loop(units, DEFAULT_TOL)


def _block_outcome(r):
    try:
        return split_survey(r).candidates()
    except NumericFailure as exc:
        return str(exc)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=10, max_value=12),
    st.integers(min_value=0),
    st.integers(min_value=0, max_value=_BLOCK - 1),
)
@example(9, 2, 61)  # 1+x+x^3+x^4+x^5+x^6+x^8+x^9 fails on its residue
@example(10, 0, 0)
@example(12, 31, _BLOCK - 1)  # the last mask of degree 12
def test_block_survey_equals_the_list_survey(degree, block, row):
    # every mask's entry of its block's survey, wherever it sits in the block,
    # is its own list survey bit for bit, or fails with the same message
    block %= (1 << (degree - 1)) // _BLOCK
    inner = block * _BLOCK + row
    r = Newman01(degree, 1 | (inner << 1) | (1 << degree))
    assert _block_outcome(r) == _list_outcome(r)


def test_failing_mask_raises_the_same_message_each_call(monkeypatch):
    # a failure is cached as its message; each call raises a fresh exception
    r = Newman01(9, 0b1101111011)  # the one degree <= 12 mask that fails at 53 bits
    want = _list_outcome(r)
    assert want.startswith("imaginary residue")
    raised = []
    for _ in range(2):
        with pytest.raises(NumericFailure) as info:
            split_survey(r)
        raised.append(info.value)
    assert [str(e) for e in raised] == [want, want]
    assert raised[0] is not raised[1]

    # a mask that no solve converges on fails alike, and keeps failing
    def lost(coeffs, seeds, *args, **kwargs):
        raise ArithmeticError("no convergence")

    _block_survey.cache_clear()
    monkeypatch.setattr(search, "aberth_roots", lost)
    try:
        r = Newman01(5, 0b110101)
        for _ in range(2):
            with pytest.raises(NumericFailure, match=r"root finding failed for 1\+x\^2\+x\^4\+x\^5"):
                split_survey(r)
    finally:
        _block_survey.cache_clear()


def _solve_counts(monkeypatch, refuse_batches):
    # aberth_roots calls by rank (1: one mask, 2: a batch) while split_survey
    # is asked twice for every mask of degree 1..9, in enumerate_01 order
    calls = {1: 0, 2: 0}

    def counting(coeffs, seeds, *args, **kwargs):
        calls[np.ndim(coeffs)] += 1
        if refuse_batches and np.ndim(coeffs) == 2:
            raise ArithmeticError("batched solve refused")
        return aberth_roots(coeffs, seeds, *args, **kwargs)

    _block_survey.cache_clear()
    monkeypatch.setattr(search, "aberth_roots", counting)
    try:
        for r in (r for d in range(1, 10) for r in enumerate_01(d)):
            for _ in range(2):
                try:
                    split_survey(r)
                except NumericFailure:
                    pass
    finally:
        monkeypatch.undo()
        _block_survey.cache_clear()
    return calls


def test_block_survey_solves_each_block_once(monkeypatch):
    # _block_survey is the double pass's one cache: 13 blocks of 64 masks
    # (one per degree up to 7, then 2 and 4) take one batched solve each,
    # and a refused batch is not followed by any solve of a mask alone
    assert _solve_counts(monkeypatch, refuse_batches=False) == {1: 0, 2: 13}
    assert _solve_counts(monkeypatch, refuse_batches=True) == {1: 0, 2: 13}


@pytest.mark.parametrize(
    "roots, message",
    [([1j], "unbalanced half-planes"), ([1 + 1j, 3 - 1j], "no matching lower root")],
)
def test_units_refuses_roots_it_cannot_pair(roots, message):
    with pytest.raises(NumericFailure, match=f"conjugate pairing failed: {message}"):
        _units(roots, DEFAULT_TOL)


#: how each pairing failure is made from the lower root of -i of 1+x+x^2+x^3
UNPAIRED_LOWER_ROOT = {
    "unbalanced half-planes": lambda z: z.conjugate(),
    "no matching lower root": lambda z: z + 1,
}


@pytest.mark.parametrize("message", sorted(UNPAIRED_LOWER_ROOT))
def test_unpaired_roots_fail_the_mask_and_the_scan_escalates_it(monkeypatch, message):
    # a block solve that hands one mask roots _units cannot pair fails that
    # mask's survey with the pairing's message; the scan escalates the mask,
    # whose retry solves its factors alone and records the same splits
    r = Newman01(3, 0b1111)  # (1+x)(1+x^2): roots -1 and +-i
    block, row = _block_row(r)
    want = scan(3).to_dict()

    def unpaired(coeffs, seeds, *args, **kwargs):
        z = aberth_roots(coeffs, seeds, *args, **kwargs)
        if np.ndim(coeffs) == 2 and np.shape(coeffs)[1] == r.degree + 1:
            z = z.copy()
            lower = int(np.argmin(z[row].imag))
            z[row, lower] = UNPAIRED_LOWER_ROOT[message](z[row, lower])
        return z

    _block_survey.cache_clear()
    monkeypatch.setattr(search, "aberth_roots", unpaired)
    try:
        with pytest.raises(NumericFailure, match=f"conjugate pairing failed: {message}"):
            split_survey(r)
        got = scan(3).to_dict()
    finally:
        monkeypatch.undo()
        _block_survey.cache_clear()
    assert block == 0 and want["degrees"][2]["escalated"] == 0
    want["degrees"][2]["escalated"] = 1
    assert got == want


def _verdict_counts(survey):
    out = {cls: 0 for cls in Classification}
    for c in survey:
        out[c.classification] += 1
    return out


def test_reciprocal_metamorphic_full_degree_seven():
    # root inversion gives a split bijection, so verdict counts must agree
    # mask by mask; the one repeated-root mask of degree 7,
    # 1+x^2+x^3+x^4+x^5+x^7 = (x^2-x+1)^2 (x^3+2x^2+2x+1), is palindromic,
    # so it is its own reversal and both sides see the same survey
    for r in enumerate_01(7):
        a = _verdict_counts(split_survey(r).candidates())
        b = _verdict_counts(split_survey(_reversed(r)).candidates())
        assert a == b, str(r)
        assert a[Classification.UNFAIR] == 0


def test_monotone_refinement_sample():
    # the retry's simple roots and tighter tolerance may flip indeterminate
    # either way but must never turn a fair split unfair; match splits by
    # their coefficient vectors
    rng = np.random.default_rng(20260817)
    masks = [Newman01(9, 1 | (int(rng.integers(0, 1 << 8)) << 1) | (1 << 9)) for _ in range(8)]
    for r in masks:
        lo = split_survey(r).candidates()
        hi = _retry_survey(r).candidates()
        hi_by_coeffs = {
            tuple(np.round(c.p_coeffs, 5)): c.classification for c in hi
        } | {tuple(np.round(c.q_coeffs, 5)): c.classification for c in hi}
        for c in lo:
            if c.classification is Classification.FAIR:
                match = hi_by_coeffs.get(tuple(np.round(c.p_coeffs, 5)))
                if match is not None:
                    assert match is not Classification.UNFAIR


# ----------------------------------------------------------------------
# scan
# ----------------------------------------------------------------------


def test_scan_degree_one_trivial():
    rep = scan(1)
    assert rep.summaries[0].polynomials == 1
    assert rep.summaries[0].splits == 0
    assert rep.conjecture_holds()


def test_scan_small_degrees_hold():
    seen = []
    rep = scan(5, progress=seen.append)
    assert [s.degree for s in rep.summaries] == [1, 2, 3, 4, 5]
    assert [s.degree for s in seen] == [1, 2, 3, 4, 5]
    for s in rep.summaries:
        assert s.polynomials == 2 ** (s.degree - 1)
        assert s.fair + s.unfair + s.indeterminate == s.splits
        assert s.escalated <= s.polynomials
    assert rep.total_unfair == 0
    assert rep.total_residual_indeterminate == 0
    assert rep.offenders == ()


#: every mask of degree <= 12 the double-precision pass flags, as
#: (degree, bits) -> split count of its retry; each count is
#: 2^(m-1) - 1 for m real roots plus conjugate pairs, with multiplicity
ESCALATED_TO_DEGREE_12 = {
    (4, 27): 3, (6, 99): 7, (7, 189): 7, (8, 297): 15, (8, 325): 7,
    (8, 495): 15, (9, 891): 31, (9, 975): 15, (10, 1161): 31,
    (10, 1215): 31, (10, 1539): 31, (10, 1647): 31, (10, 1755): 31,
    (10, 1911): 15, (10, 1935): 31, (10, 1971): 31, (10, 2025): 31,
    (11, 2457): 31, (11, 2925): 31, (11, 3195): 63, (11, 3555): 63,
    (12, 4617): 63, (12, 4671): 63, (12, 4851): 63, (12, 5031): 63,
    (12, 5049): 63, (12, 5125): 31, (12, 5439): 31, (12, 5775): 63,
    (12, 5805): 63, (12, 6147): 63, (12, 6363): 63, (12, 6543): 63,
    (12, 6579): 63, (12, 6633): 63, (12, 7011): 63, (12, 7353): 63,
    (12, 7399): 31, (12, 7695): 63, (12, 7725): 63, (12, 7731): 63,
    (12, 7875): 63, (12, 8073): 63, (12, 8085): 31, (12, 8127): 63,
}


def _flagged(r):
    try:
        survey = split_survey(r)
    except NumericFailure:
        return True
    return any(c.classification is not Classification.FAIR for c in survey.candidates())


def test_escalated_masks_have_repeated_factors_and_fair_retries():
    flagged = {(r.degree, r.bits) for d in range(1, 13) for r in enumerate_01(d) if _flagged(r)}
    assert flagged == set(ESCALATED_TO_DEGREE_12)
    for (degree, bits), n_splits in ESCALATED_TO_DEGREE_12.items():
        r = Newman01(degree, bits)
        _, factors = squarefree_decomposition(IntPoly([(bits >> k) & 1 for k in range(degree + 1)]))
        assert max(k for _, k in factors) >= 2, str(r)
        retry = _retry_survey(r).candidates()
        assert len(retry) == n_splits, str(r)
        assert all(c.classification is Classification.FAIR for c in retry), str(r)


def _squarefree_factors(degree, bits):
    _, factors = squarefree_decomposition(IntPoly([(bits >> k) & 1 for k in range(degree + 1)]))
    return [factor.coeffs for factor, _ in factors if len(factor.coeffs) > 2]


def _oracle_roots(degree, bits):
    # the reference: every root with its multiplicity, by mpmath.polyroots
    # at 200 bits on each exact squarefree factor
    import mpmath

    _, factors = squarefree_decomposition(IntPoly([(bits >> k) & 1 for k in range(degree + 1)]))
    roots = []
    with mpmath.workprec(200):
        for factor, mult in factors:
            for w in mpmath.polyroots(factor.coeffs[::-1], maxsteps=200, extraprec=200):
                roots.extend([mpmath.mpc(w)] * mult)
    return roots


def _oracle_product(roots):
    # prod (x - w) over roots, ascending, at the roots' precision
    poly = [1]
    for w in roots:
        poly = [b - w * a for a, b in zip(poly + [0], [0] + poly)]
    return poly


def test_retry_splits_match_the_200_bit_oracle():
    # every split of every mask the scan escalates to degree 12: P and Q lie
    # within 1e-11 of the same roots' product from 200-bit roots, and a split
    # fair as 0-1 rounds to integer factors whose product is exactly R
    import mpmath

    retry_tol = DEFAULT_TOL / 100
    exact = 0
    with mpmath.workprec(200):
        for (degree, bits), n_splits in ESCALATED_TO_DEGREE_12.items():
            r = Newman01(degree, bits)
            whole = IntPoly([(bits >> k) & 1 for k in range(degree + 1)])
            oracle = _oracle_roots(degree, bits)
            # pair each retry root with the nearest oracle root not yet taken
            free, match = list(range(len(oracle))), []
            for z in search._roots_squarefree(r):
                k = min(free, key=lambda k: abs(oracle[k] - z))
                free.remove(k)
                match.append(oracle[k])
            retry = _retry_survey(r).candidates()
            assert len(retry) == n_splits, str(r)
            for c in retry:
                rest = [i for i in range(degree) if i not in c.subset]
                for got, picked in ((c.p_coeffs, c.subset), (c.q_coeffs, rest)):
                    want = _oracle_product([match[i] for i in picked])
                    assert len(got) == len(want), (str(r), c.subset)
                    assert max(abs(g - w) for g, w in zip(got, want)) < 1e-11, (str(r), c.subset)
                if c.classification is Classification.FAIR and c.min_coefficient >= -retry_tol:
                    p0, q0 = (IntPoly([round(x) for x in f]) for f in (c.p_coeffs, c.q_coeffs))
                    assert p0 * q0 == whole, (str(r), c.subset)
                    exact += 1
    assert exact > 0


def test_retry_tally_counts_its_verdicts():
    # every mask the scan escalates to degree 11
    for (degree, bits), n_splits in ESCALATED_TO_DEGREE_12.items():
        if degree <= 11:
            retry = _retry_survey(Newman01(degree, bits))
            assert isinstance(retry, SplitSurvey)
            assert retry.tally == _tally_of_list(retry) == (n_splits, 0, 0), (degree, bits)


def test_retry_solves_each_factor_once_in_double_precision(monkeypatch):
    # through the module's aberth_roots, one 1-D solve per squarefree factor
    # of degree >= 2, so a wrapper of search.aberth_roots sees each one
    solved = []

    def recording(coeffs, seeds, *args, **kwargs):
        solved.append(np.asarray(coeffs).tolist())
        return aberth_roots(coeffs, seeds, *args, **kwargs)

    monkeypatch.setattr(search, "aberth_roots", recording)
    for degree, bits in [(4, 27), (12, 8127)]:
        solved.clear()
        _retry_survey(Newman01(degree, bits))
        assert solved == [[float(c) for c in f] for f in _squarefree_factors(degree, bits)]


def test_retry_equals_the_loop_survey():
    # the retry classifies through the double pass's planes; on every mask
    # the scan escalates to degree 12 it is the loop survey of its units, to
    # the bit
    retry_tol = DEFAULT_TOL / 100
    for degree, bits in ESCALATED_TO_DEGREE_12:
        r = Newman01(degree, bits)
        want = _survey_by_loop(_units(search._roots_squarefree(r), retry_tol), retry_tol)
        assert repr(_retry_survey(r).candidates()) == repr(want), str(r)


#: a mask whose first split fails on Q, with real roots in the units before
#: the moved pair, and one with no real roots, whose first split fails on P
@pytest.mark.parametrize("mask", [(4, 27), (8, 325)], ids=["fails-on-q", "fails-on-p"])
def test_retry_residue_failure_is_the_loop_surveys(monkeypatch, mask):
    # the first upper root moved up by 1.5 im_limit still pairs with its
    # lower root, which allows im_limit (1 + |u|), but leaves that much
    # imaginary residue in their factor: the retry fails with the loop
    # survey's message
    retry_tol = DEFAULT_TOL / 100
    im_limit = search._REAL_AXIS_FACTOR * retry_tol
    roots_squarefree = search._roots_squarefree

    def moved(r):
        z = roots_squarefree(r)
        first = next(i for i, w in enumerate(z) if w.imag > im_limit)
        z[first] += 1.5j * im_limit
        return z

    monkeypatch.setattr(search, "_roots_squarefree", moved)
    r = Newman01(*mask)
    want = _survey_by_loop(_units(moved(r), retry_tol), retry_tol)
    assert want.startswith("imaginary residue")
    with pytest.raises(NumericFailure) as info:
        _retry_survey(r)
    assert str(info.value) == want


def _degree_row(degree, polynomials, splits, fair, indeterminate, escalated):
    return {
        "degree": degree, "polynomials": polynomials, "splits": splits,
        "fair": fair, "unfair": 0, "indeterminate": indeterminate,
        "escalated": escalated, "residual_unfair": 0, "residual_indeterminate": 0,
    }


def test_scan_degree_ten_resolves_all_indeterminates():
    # the first pass sees indeterminate splits, escalation resolves them all;
    # every count of the report is deterministic and pinned, because a change
    # in any of them changes the scan digest
    assert scan(10).to_dict() == {
        "max_degree": 10,
        "tol": DEFAULT_TOL,
        "degrees": [
            _degree_row(1, 1, 0, 0, 0, 0),
            _degree_row(2, 2, 0, 0, 0, 0),
            _degree_row(3, 4, 4, 4, 0, 0),
            _degree_row(4, 8, 10, 8, 2, 1),
            _degree_row(5, 16, 48, 48, 0, 0),
            _degree_row(6, 32, 120, 118, 2, 1),
            _degree_row(7, 64, 448, 444, 4, 1),
            _degree_row(8, 128, 1128, 1118, 10, 3),
            _degree_row(9, 256, 3872, 3864, 8, 2),
            _degree_row(10, 512, 9824, 9796, 28, 9),
        ],
        "offenders": [],
        "conjecture_holds": True,
    }


def _no_factor_solve(coeffs, seeds, *args, **kwargs):
    # the double pass's batched solves run; the retry's 1-D solves raise
    if np.ndim(coeffs) == 1:
        raise ArithmeticError("root iteration did not converge")
    return aberth_roots(coeffs, seeds, *args, **kwargs)


def test_failed_retry_leaves_the_mask_open(monkeypatch):
    # a retry that raises is a residual indeterminate recorded in the report,
    # not a crash of the whole scan
    monkeypatch.setattr(search, "aberth_roots", _no_factor_solve)
    rep = scan(6)
    assert [(r.degree, r.bits) for r, _ in rep.retry_failures] == [(4, 27), (6, 99)]
    assert [s.residual_indeterminate for s in rep.summaries] == [0, 0, 0, 1, 0, 1]
    assert [s.escalated for s in rep.summaries] == [0, 0, 0, 1, 0, 1]
    assert rep.offenders == ()
    assert not rep.conjecture_holds()
    doc = rep.to_dict()
    assert doc["conjecture_holds"] is False
    assert [(f["degree"], f["bits"], f["polynomial"]) for f in doc["retry_failures"]] == [
        (4, 27, "1+x+x^3+x^4"),
        (6, 99, "1+x+x^5+x^6"),
    ]
    assert [f["error"] for f in doc["retry_failures"]] == [
        "root finding failed for the factor [1, -1, 1] of 1+x+x^3+x^4",
        "root finding failed for the factor [1, -1, 1, -1, 1] of 1+x+x^5+x^6",
    ]
    monkeypatch.undo()
    assert "retry_failures" not in scan(6).to_dict()


def _sha256(report):
    return hashlib.sha256(json.dumps(report.to_dict(), sort_keys=True).encode()).hexdigest()


def test_scan_report_does_not_depend_on_jobs():
    seen = {1: [], 2: []}
    reports = {jobs: scan(12, progress=seen[jobs].append, jobs=jobs) for jobs in (1, 2)}
    assert reports[2].to_dict() == reports[1].to_dict()
    assert seen[2] == seen[1] and [s.degree for s in seen[1]] == list(range(1, 13))
    # recorded with a 212-bit retry: the retry in double reaches its report
    assert _sha256(reports[1]) == "00d29d7b744932486003ccdb34e4d7f01da484f0a9ade87e706828a12e4abedb"


@pytest.mark.slow
def test_scan_report_to_degree_14():
    # 113 masks escalate up to degree 14; recorded with a 212-bit retry
    assert _sha256(scan(14, jobs=2)) == "e22939a124ba73770b5a7297f975fdadc71ebd15b156af4e73cf5a4f57eea8b5"


fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork", reason="pool workers see the patches only when forked"
)


def _all_retries_indeterminate(monkeypatch):
    # every split of every retry comes out indeterminate, so each split of a
    # retried mask is an offender
    real_classify = search._classify

    def classify(group, tol):
        entries = real_classify(group, tol)
        if tol == search._RETRY_TOL:
            for survey in entries:
                if isinstance(survey, SplitSurvey):
                    survey._arrays[4][survey._row] = search._VERDICTS.index(Classification.INDETERMINATE)
                    survey.tally = (0, 0, sum(survey.tally))
        return entries

    monkeypatch.setattr(search, "_classify", classify)


@fork_only
def test_pool_keeps_the_serial_order_of_offenders_and_retry_failures(monkeypatch):
    # retries fail on masks 297 and 495 (degree 8, blocks 0 and 1) and 891
    # (degree 9, block 2); every other retry leaves its splits indeterminate
    # and so lists them as offenders, from blocks of both degrees
    lost = {(1, -2, 3, -3, 3, -2, 1), (1, -1, 2, -2, 2, -1, 1)}

    def factor_solve(coeffs, seeds, *args, **kwargs):
        if np.ndim(coeffs) == 1 and tuple(np.asarray(coeffs).tolist()) in lost:
            raise ArithmeticError("root iteration did not converge")
        return aberth_roots(coeffs, seeds, *args, **kwargs)

    monkeypatch.setattr(search, "aberth_roots", factor_solve)
    _all_retries_indeterminate(monkeypatch)
    serial, pooled = scan(9, jobs=1), scan(9, jobs=2)
    assert [(r.degree, r.bits) for r, _ in pooled.retry_failures] == [(8, 297), (8, 495), (9, 891)]
    assert sorted({(r.degree, r.bits) for r, _ in pooled.offenders}) == [
        (4, 27), (6, 99), (7, 189), (8, 325), (9, 975)
    ]
    assert pooled.offenders == serial.offenders
    assert pooled.retry_failures == serial.retry_failures
    assert pooled.to_dict() == serial.to_dict()


def test_scan_builds_candidates_only_for_the_offenders_of_a_retry(monkeypatch):
    # the scan counts every mask off its survey's tally: to degree 9 it
    # builds no SplitCandidate at all, and when the retries are made to keep
    # their splits open it builds exactly the offenders it reports
    real_candidates = SplitSurvey.candidates
    built = []

    def counting(survey):
        out = real_candidates(survey)
        built.extend(out)
        return out

    monkeypatch.setattr(SplitSurvey, "candidates", counting)
    assert scan(9).conjecture_holds()
    assert built == []
    _all_retries_indeterminate(monkeypatch)
    report = scan(9)
    assert len(report.offenders) == sum(
        n for (degree, _), n in ESCALATED_TO_DEGREE_12.items() if degree <= 9
    )
    assert built == [c for _, c in report.offenders]


class _Recorded(Exception):
    pass


def _raise_at_degree_9(summary):
    if summary.degree == 9:
        raise _Recorded


@fork_only
@pytest.mark.parametrize("where", ["returns", "progress raises", "task raises"])
def test_no_pool_worker_outlives_scan(monkeypatch, where):
    real_survey = search.split_survey

    def survey(r):
        if (r.degree, *_block_row(r)) == (9, 1, 36):  # a task in the middle of the run
            raise _Recorded
        return real_survey(r)

    if where == "task raises":
        monkeypatch.setattr(search, "split_survey", survey)
    progress = _raise_at_degree_9 if where == "progress raises" else None
    if where == "returns":
        assert scan(10, jobs=2).conjecture_holds()
    else:
        with pytest.raises(_Recorded):
            scan(10, progress=progress, jobs=2)
    assert multiprocessing.active_children() == []


def test_pool_starts_once_a_degree_has_two_blocks(monkeypatch):
    import concurrent.futures

    started = []

    class Pool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    scan(7, jobs=2)
    scan(8, jobs=1)
    assert started == []
    scan(8, jobs=3)
    assert started == [3]


def test_pool_has_no_more_workers_than_blocks(monkeypatch):
    # degrees 1..8 make 9 blocks; the fake pool records its size and maps in
    # process, so no worker is started
    import concurrent.futures

    started = []

    class InProcessPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def map(self, fn, *iterables):
            return map(fn, *iterables)

        def shutdown(self, **kwargs):
            pass

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    report = scan(8, jobs=5000)
    assert started == [9]
    assert report.to_dict() == scan(8, jobs=1).to_dict()


@pytest.mark.parametrize("jobs", [0, -1])
def test_scan_rejects_job_count_below_one(jobs):
    seen = []
    with pytest.raises(ValueError, match="jobs must be at least 1"):
        scan(9, progress=seen.append, jobs=jobs)
    assert seen == []


def test_scan_range_validation():
    with pytest.raises(CapacityError):
        scan(0)
    with pytest.raises(CapacityError):
        scan(25)


def test_scan_report_serializes():
    rep = scan(4)
    payload = json.loads(json.dumps(rep.to_dict(), sort_keys=True))
    assert payload["max_degree"] == 4
    assert payload["conjecture_holds"] is True
    assert len(payload["degrees"]) == 4
    assert payload["degrees"][3]["polynomials"] == 8
    assert payload["offenders"] == []
    assert rep.duration_seconds >= 0.0
