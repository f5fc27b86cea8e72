"""Tests for the small-degree unfair-factorization scanner."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from newmandiv.modpoly import CapacityError, IntPoly, squarefree_decomposition
from newmandiv.search import (
    Classification,
    DEFAULT_TOL,
    Newman01,
    NumericFailure,
    classify,
    enumerate_01,
    scan,
    split_survey,
)
from newmandiv.search import _ESCALATION_PRECISION, _products, _roots_double, _units

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


def test_mask_coeffs_and_str():
    r = Newman01(4, 0b10011)
    assert list(r.coeffs()) == [1.0, 1.0, 0.0, 0.0, 1.0]
    assert str(r) == "1+x+x^4"


def test_reciprocal_reverses_and_involutes():
    r = Newman01(3, 0b1011)  # 1+x+x^3
    assert r.reciprocal().bits == 0b1101  # 1+x^2+x^3
    assert r.reciprocal().reciprocal() == r


# ----------------------------------------------------------------------
# classify on hand-checked cases
# ----------------------------------------------------------------------


def test_single_pair_has_no_splits():
    assert split_survey(Newman01(2, 0b111)) == []


def test_two_factor_cube():
    # 1+x+x^2+x^3 = (1+x)(1+x^2): one unit pair and one real root, so one
    # canonical nontrivial split, and it is fair with exactly those factors
    survey = split_survey(Newman01(3, 0b1111))
    assert len(survey) == 1
    c = survey[0]
    assert c.classification is Classification.FAIR
    got = sorted([list(np.round(c.p_coeffs, 9)), list(np.round(c.q_coeffs, 9))], key=len)
    assert got == [[1.0, 1.0], [1.0, 0.0, 1.0]]
    assert classify(Newman01(3, 0b1111)) == []


def test_classify_tolerance_domain():
    r = Newman01(3, 0b1111)
    for bad in (1e-11, 1e-3, 0.0):
        with pytest.raises(ValueError):
            classify(r, tol=bad)


def test_repeated_real_root_mask():
    # 1+x+x^3+x^4 = (1+x)^2 (1-x+x^2): the double root at -1 splits into
    # near-coincident approximations; every split must come out fair or
    # indeterminate at double precision, and all fair after escalation
    r = Newman01(4, 0b11011)
    for c in split_survey(r):
        assert c.classification in (Classification.FAIR, Classification.INDETERMINATE)
    retry = split_survey(r, tol=DEFAULT_TOL / 100, precision=_ESCALATION_PRECISION)
    assert retry and all(c.classification is Classification.FAIR for c in retry)


def test_repeated_complex_pair_mask_escalates_clean():
    # 1+x^2+x^6+x^8 = (1+x^2)^2 (x^4-x^2+1): double roots at +-i
    r = Newman01(8, 0b101000101)
    retry = split_survey(r, tol=DEFAULT_TOL / 100, precision=_ESCALATION_PRECISION)
    assert retry and all(c.classification is Classification.FAIR for c in retry)


def test_survey_subsets_are_conjugate_closed_index_sets():
    r = Newman01(6, 0b1111111)  # 1+x+...+x^6, roots are 7th roots of unity but 1
    survey = split_survey(r)
    assert survey
    n_roots = r.degree
    for c in survey:
        assert 0 < len(c.subset) < n_roots
        assert len(set(c.subset)) == len(c.subset)
        assert len(c.p_coeffs) == len(c.subset) + 1  # monic of matching degree
        assert len(c.q_coeffs) == n_roots - len(c.subset) + 1
        assert c.p_coeffs[-1] == pytest.approx(1.0, abs=1e-9)
        assert c.q_coeffs[-1] == pytest.approx(1.0, abs=1e-9)


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
        survey = split_survey(r, tol=DEFAULT_TOL / 100, precision=_ESCALATION_PRECISION)
    budget = degree * (2**degree) * DEFAULT_TOL
    want = r.coeffs()
    for c in survey:
        got = np.convolve(c.p_coeffs, c.q_coeffs)
        assert np.max(np.abs(got - want)) <= budget


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


@pytest.mark.parametrize("bits", [0b111111111111, 0b100110110011, 0b110101100101, 0b101000101])
def test_shared_products_equal_the_ascending_loop(bits):
    # the subset-product table must reproduce the per-subset loop bit for
    # bit, since the first pass's verdicts are pinned by the scan digest
    r = Newman01(bits.bit_length() - 1, bits)
    units = _units(_roots_double(r), DEFAULT_TOL, float)
    assert len(units) >= 4
    products = _products(units, 0.0)
    assert len(products) == 1 << len(units)
    for picked, poly in enumerate(products):
        assert poly == _product_by_loop(units, picked, 0.0)
    # the survey visits each subset without the top unit once, in order
    full = len(products) - 1
    survey = split_survey(r)
    assert len(survey) == len(products) // 2 - 1
    for picked, c in enumerate(survey, start=1):
        assert c.p_coeffs == tuple(float(x.real) for x in _product_by_loop(units, picked, 0.0))
        assert c.q_coeffs == tuple(float(x.real) for x in _product_by_loop(units, full ^ picked, 0.0))


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
        a = _verdict_counts(split_survey(r))
        b = _verdict_counts(split_survey(r.reciprocal()))
        assert a == b, str(r)
        assert a[Classification.UNFAIR] == 0


def test_monotone_refinement_sample():
    # raising precision may flip indeterminate either way but must never
    # turn a fair split unfair; match splits by their coefficient vectors
    rng = np.random.default_rng(20260817)
    masks = [Newman01(9, 1 | (int(rng.integers(0, 1 << 8)) << 1) | (1 << 9)) for _ in range(8)]
    for r in masks:
        lo = split_survey(r)
        hi = split_survey(r, tol=DEFAULT_TOL / 100, precision=_ESCALATION_PRECISION)
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


#: every mask of degree <= 10 the double-precision pass flags, as
#: (degree, bits) -> split count of its 212-bit survey; each count is
#: 2^(m-1) - 1 for m real roots plus conjugate pairs, with multiplicity
ESCALATED_TO_DEGREE_10 = {
    (4, 27): 3, (6, 99): 7, (7, 189): 7, (8, 297): 15, (8, 325): 7,
    (8, 495): 15, (9, 891): 31, (9, 975): 15, (10, 1161): 31,
    (10, 1215): 31, (10, 1539): 31, (10, 1647): 31, (10, 1755): 31,
    (10, 1911): 15, (10, 1935): 31, (10, 1971): 31, (10, 2025): 31,
}


def _flagged(r):
    try:
        survey = split_survey(r)
    except NumericFailure:
        return True
    return any(c.classification is not Classification.FAIR for c in survey)


def test_escalated_masks_have_repeated_factors_and_fair_retries():
    flagged = {(r.degree, r.bits) for d in range(1, 11) for r in enumerate_01(d) if _flagged(r)}
    assert flagged == set(ESCALATED_TO_DEGREE_10)
    for (degree, bits), n_splits in ESCALATED_TO_DEGREE_10.items():
        r = Newman01(degree, bits)
        _, factors = squarefree_decomposition(IntPoly([(bits >> k) & 1 for k in range(degree + 1)]))
        assert max(k for _, k in factors) >= 2, str(r)
        retry = split_survey(r, tol=DEFAULT_TOL / 100, precision=_ESCALATION_PRECISION)
        assert len(retry) == n_splits, str(r)
        assert all(c.classification is Classification.FAIR for c in retry), str(r)


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
