"""Tests for the case-by-case verification driver."""

import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import newmandiv
from newmandiv.bseq import b_leading, b_pairs
from newmandiv.modpoly import CapacityError, IntPoly, Prime, _gcd2, resultant_prs
from newmandiv.verifier import (
    BASE_CASE_WITNESS,
    DEFAULT_PRIMES,
    CheckpointMismatch,
    ClaimTable,
    _run_chunk,
    _shared_roots,
    base_cases,
    check_base_case,
    resultant_mod,
    skip_rule,
    verify_exact_small,
    verify_range,
)

PRIMES = list(DEFAULT_PRIMES)


# --------------------------------------------------------------------------
# skip rule
# --------------------------------------------------------------------------


def test_skip_rule_examples():
    assert skip_rule(16, 3)  # k=8, 8-5 divisible by 3
    assert skip_rule(11, 2)  # k=5, 5-3 divisible by 2
    assert not skip_rule(12, 17)
    assert not skip_rule(11, 3)


def test_skip_rule_rejects_small_n():
    with pytest.raises(ValueError):
        skip_rule(10, 3)


def _closed_form_skip(n, p):
    """The leading-coefficient law solved for n: the even member of the pair
    leads with +-1 and the odd member 2j+1 with +-(j-2), so n = 2k skips iff
    k = 5 (mod p) and n = 2k+1 iff k = 3 (mod p)."""
    if n % 2 == 0:
        return (n // 2 - 5) % p == 0
    return ((n - 1) // 2 - 3) % p == 0


@pytest.mark.parametrize("p", PRIMES)
def test_skip_rule_is_leading_coeff_divisibility(p):
    """skip_rule(n, p) iff p divides a leading coefficient of the exact
    walk's pair (B_{n-2}, B_{n-5}), n <= 200, and iff the closed form holds,
    n <= 2000."""
    for n, f, g in b_pairs(None, 200):
        if n >= 11:
            assert skip_rule(n, p) == (f.leading() % p == 0 or g.leading() % p == 0), (n, p)
    for n in range(11, 2001):
        assert skip_rule(n, p) == _closed_form_skip(n, p), (n, p)


# --------------------------------------------------------------------------
# single-case resultants against frozen oracles
# --------------------------------------------------------------------------


def test_resultant_mod_frozen_n11():
    # exact R_11 = Res(B_9, B_6) = -5
    assert resultant_mod(11, Prime(3)) == 1
    assert resultant_mod(11, Prime(5)) == 0  # 5 | R_11: p=5 can never prove n=11
    assert resultant_mod(11, Prime(7)) == 2
    assert resultant_mod(11, Prime(11)) == 6
    assert resultant_mod(11, Prime(13)) == 8


def test_resultant_mod_frozen_n12_n13():
    # exact R_12 = Res(B_10, B_7) = -1, R_13 = Res(B_11, B_8) = 41
    assert resultant_mod(12, Prime(3)) == 2
    assert resultant_mod(12, Prime(7)) == 6
    assert resultant_mod(13, Prime(3)) == 41 % 3
    assert resultant_mod(13, Prime(17)) == 41 % 17


def test_resultant_mod_rejects_small_n():
    with pytest.raises(ValueError):
        resultant_mod(10, Prime(3))


def test_exact_small_frozen():
    ex = verify_exact_small(11, 13)
    assert ex == {11: -5, 12: -1, 13: 41}


def test_exact_small_range_cap():
    with pytest.raises(CapacityError):
        verify_exact_small(10, 20)
    with pytest.raises(CapacityError):
        verify_exact_small(11, 61)
    with pytest.raises(CapacityError):
        verify_exact_small(30, 20)


def test_soundness_11_to_60_all_primes():
    """Exact R_n is nonzero and every admissible mod-p value matches it.

    Zero tolerance: the exact Sylvester determinant is the oracle, and the
    fast GF(p) path must agree with its reduction at every non-skipped
    (n, p) pair with p <= 17.
    """
    exact = verify_exact_small(11, 60)
    for n, r in exact.items():
        assert r != 0, f"exact resultant vanishes at n={n}"
        for p in PRIMES:
            if skip_rule(n, p):
                continue
            assert resultant_mod(n, Prime(p)) == r % p, (n, p)


# --------------------------------------------------------------------------
# GF(2) fast path
# --------------------------------------------------------------------------


def test_gcd2_examples():
    # (x+1)^2 = x^2+1 over GF(2); gcd with x+1 is x+1
    assert _gcd2(0b101, 0b11) == 0b11
    assert _gcd2(0b11, 0b101) == 0b11
    # coprime: x^2+x+1 and x+1
    assert _gcd2(0b111, 0b11) == 1
    assert _gcd2(0, 0b101) == 0b101


@settings(max_examples=80)
@given(st.integers(min_value=1, max_value=2**24 - 1), st.integers(min_value=1, max_value=2**24 - 1))
def test_gcd2_divides_both_and_is_maximal(f, g):
    d = _gcd2(f, g)
    assert d  # gcd of two nonzero polys is nonzero

    def rem2(a, b):
        db = b.bit_length() - 1
        da = a.bit_length() - 1
        while da >= db:
            a ^= b << (da - db)
            da = a.bit_length() - 1
        return a

    assert rem2(f, d) == 0
    assert rem2(g, d) == 0


def test_bitmask_agrees_with_generic_path_mod2():
    """The p=2 bitmask decision must match the generic PRS decision."""
    ns = [n for n in range(11, 301) if not skip_rule(n, 2)]
    proved_fast = set(_run_chunk(2, ns, _shared_roots(2, ns)))
    for n in ns:
        assert (resultant_mod(n, Prime(2)) != 0) == (n in proved_fast), n


@pytest.mark.parametrize("p", PRIMES)
def test_window_pass_agrees_with_single_case_path(p):
    """The packed batch walk and the one-shot bseq walk must agree, n <= 300."""
    ns = [n for n in range(11, 301) if not skip_rule(n, p)]
    proved_fast = set(_run_chunk(p, ns, _shared_roots(p, ns)))
    for n in ns[::7] + ns[-3:]:
        assert (resultant_mod(n, Prime(p)) != 0) == (n in proved_fast), n


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_band_near_2000_agrees_with_prs(p):
    """n in 1990..2010: the packed pass decides each admissible case as the
    remainder-sequence resultant does, on the unpacked pairs of one walk."""
    prime = Prime(p)
    ns = [n for n in range(1990, 2011) if not skip_rule(n, p)]
    proved = set(_run_chunk(p, ns, _shared_roots(p, ns)))
    for n, f, g in b_pairs(prime, ns[-1]):
        if n in ns:
            nonzero = resultant_prs(f.unpack(), g.unpack()) != 0
            assert nonzero == (n in proved), n


def test_leading_law_guard_rejects_corrupted_pair(monkeypatch):
    """A pair whose leading coefficient breaks b_leading stops the pass."""
    from newmandiv import verifier
    from newmandiv.modpoly import ModPoly, pack

    assert not skip_rule(12, 3) and b_leading(10) == (5, -1)
    clean = _run_chunk(3, [11, 14], set())
    real = verifier.b_pairs

    def corrupted(prime, hi):
        for n, f, g in real(prime, hi):
            if n == 12:  # B_10 mod 3 leads with 2 at degree 5; make it 1
                f = f - pack(ModPoly(prime, [0, 0, 0, 0, 0, 1]))
            yield n, f, g

    monkeypatch.setattr(verifier, "b_pairs", corrupted)
    assert _run_chunk(3, [11, 14], set()) == clean  # cases that read no bad pair pass
    with pytest.raises(ArithmeticError):
        _run_chunk(3, [11, 12], set())


def test_leading_law_guard_rejects_inadmissible_case():
    """An inadmissible n reaching the kernel is an error, not a verdict."""
    assert skip_rule(16, 3)
    with pytest.raises(ArithmeticError):
        _run_chunk(3, [16], set())


# --------------------------------------------------------------------------
# shared roots in GF(p)*: the cases marked to fail before Euclid
# --------------------------------------------------------------------------


@pytest.mark.parametrize("p", PRIMES)
def test_shared_roots_are_common_roots_of_the_exact_pair(p):
    """n <= 200 is marked iff the exact pair, evaluated at some c in GF(p)*,
    vanishes mod p in both members."""
    ns = [n for n in range(11, 201) if not skip_rule(n, p)]
    want = {
        n
        for n, f, g in b_pairs(None, 200)
        if n in ns and any(f(c) % p == 0 == g(c) % p for c in range(1, p))
    }
    assert _shared_roots(p, ns) == want
    assert want or p == 17  # the check is not empty where a root occurs


@pytest.mark.parametrize("p", PRIMES)
def test_shared_roots_have_zero_resultant(p):
    """Every marked admissible n <= 600 has Res(B_{n-2}, B_{n-5}) = 0 mod p,
    by the remainder-sequence resultant."""
    ns = [n for n in range(11, 601) if not skip_rule(n, p)]
    for n in sorted(_shared_roots(p, ns)):
        assert resultant_mod(n, Prime(p)) == 0, n


@pytest.mark.parametrize("p", PRIMES)
def test_marking_changes_no_verdict(p):
    """With nothing marked, Euclid proves the same cases, for every
    admissible n <= 1500."""
    ns = [n for n in range(11, 1501) if not skip_rule(n, p)]
    marked = _shared_roots(p, ns)
    assert marked
    assert _run_chunk(p, ns, marked) == _run_chunk(p, ns, set())


@pytest.fixture
def marking_walks(monkeypatch):
    """The case list of every ``_shared_roots`` call, in call order."""
    from newmandiv import verifier

    calls = []
    real = verifier._shared_roots
    monkeypatch.setattr(verifier, "_shared_roots", lambda p, ns: calls.append(list(ns)) or real(p, ns))
    return calls


def test_marking_runs_only_when_p_minus_1_fits_the_cases(marking_walks, monkeypatch):
    """The value walk costs (p - 1) * max(ns) scalar steps: it runs for a
    pass of at least p - 1 cases, never for 2^31 - 1.  At p = 7 every n in
    11..16 is admissible, so max_n = 15 gives 5 cases and 16 gives 6."""
    from newmandiv import verifier

    verify_range(15, primes=(7,))
    assert marking_walks == []
    verify_range(16, primes=(7,))
    assert marking_walks == [list(range(11, 17))]

    def refuse(p, ns):
        raise AssertionError(f"value walk at p = {p}")

    monkeypatch.setattr(verifier, "_shared_roots", refuse)
    rep = verify_range(60, primes=(2**31 - 1,))
    assert rep.passes[0].computed > 0


# --------------------------------------------------------------------------
# claim table
# --------------------------------------------------------------------------


def test_claim_table_basics():
    t = ClaimTable(12)
    assert t.unproven() == list(range(5, 13))
    assert not t.all_proven()
    for n in range(5, 11):
        t.mark(n, BASE_CASE_WITNESS)
    assert t.proved_up_to() == 10
    t.mark(12, 3)
    assert t.unproven() == [11]
    assert t.proved_up_to() == 10
    t.mark(11, 5)
    assert t.all_proven()
    assert t.proved_up_to() == 12


def test_claim_table_first_witness_wins():
    t = ClaimTable(20)
    t.mark(11, 3)
    t.mark(11, 13)
    assert t.witness[11] == 3


def test_claim_table_range_checks():
    t = ClaimTable(20)
    with pytest.raises(ValueError):
        t.mark(4, 3)
    with pytest.raises(ValueError):
        t.mark(21, 3)
    with pytest.raises(ValueError):
        ClaimTable(4)


# --------------------------------------------------------------------------
# base cases
# --------------------------------------------------------------------------


def test_base_cases_pairs():
    cases = {c.n: c for c in base_cases()}
    assert sorted(cases) == [5, 6, 7, 8, 9, 10]
    assert cases[5].pair == (IntPoly([]), IntPoly([1]))
    assert cases[6].pair == (IntPoly([1, -1, 1]), IntPoly([]))
    assert cases[7].pair == (IntPoly([]), IntPoly([1, -1]))
    assert cases[8].pair == (IntPoly([1, -1, 1, -1]), IntPoly([]))
    assert cases[9].pair == (IntPoly([0, 1]), IntPoly([1, -1, 1]))
    assert cases[10].pair == (IntPoly([1, -1, 1, -1, 1]), IntPoly([]))


def test_base_cases_no_root_checks_pass():
    for case in base_cases():
        assert check_base_case(case) is True, case.n
        # the witness is never the zero polynomial
        assert not case.no_root_witness.is_zero()


def test_check_base_case_detects_interior_root():
    from newmandiv.verifier import BaseCase

    bad = BaseCase(9, (IntPoly([-1, 2]), IntPoly([1])), IntPoly([-1, 2]))  # root 1/2
    assert check_base_case(bad) is False


@pytest.mark.parametrize(
    "coeffs, ok",
    [
        ([1, -4, 4], False),  # (1 - 2t)^2: a double root at 1/2
        ([3, -10, 3], False),  # (1 - 3t)(3 - t): one root 1/3 in (0, 1)
        ([-2, 1], True),  # root 2
        ([1, 0, 1], True),  # no real root
        ([0, 1], True),  # root 0, outside the open interval
        ([1, -1], True),  # root 1, outside the open interval
        ([-5], True),  # a nonzero constant
        ([], False),  # the zero polynomial vanishes everywhere
    ],
)
def test_check_base_case_exact_cases(coeffs, ok):
    from newmandiv.verifier import BaseCase

    poly = IntPoly(coeffs)
    assert check_base_case(BaseCase(9, (poly, IntPoly([1])), poly)) is ok


def test_certificate_chain_runs_without_numpy():
    """modpoly, bseq and verifier stay in exact integer arithmetic: they
    import, and verify a small range, with numpy made unimportable."""
    code = (
        "import sys; sys.modules['numpy'] = None\n"
        "from newmandiv import modpoly, bseq, verifier\n"
        "assert verifier.verify_range(60).all_proven()\n"
        "assert verifier.verify_exact_small(11, 13) == {11: -5, 12: -1, 13: 41}\n"
        "assert verifier.resultant_mod(13, modpoly.Prime(17)) == 41 % 17\n"
    )
    src = str(Path(newmandiv.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert out.returncode == 0, out.stderr


# --------------------------------------------------------------------------
# driver
# --------------------------------------------------------------------------


def test_verify_range_base_only():
    rep = verify_range(10, primes=[2])
    assert rep.all_proven()
    assert all(w == BASE_CASE_WITNESS for w in rep.table.witness.values())


@pytest.mark.parametrize("max_n", [10, 60])
def test_verify_range_needs_a_prime(max_n):
    with pytest.raises(ValueError, match="no primes given"):
        verify_range(max_n, primes=[])


def test_verify_range_n11_needs_odd_prime():
    rep = verify_range(11, primes=[2])
    assert not rep.all_proven()
    assert rep.unproven() == [11]
    rep = verify_range(11, primes=[2, 3])
    assert rep.all_proven()
    assert rep.table.witness[11] == 3


def test_verify_range_witnesses_to_60():
    rep = verify_range(60)
    assert rep.all_proven()
    assert rep.table.witness[11] == 3
    assert rep.table.witness[40] == 13  # survives every prime below 13
    # every resultant witness is admissible and is the *first* proving prime
    for n, w in rep.table.witness.items():
        if w == BASE_CASE_WITNESS:
            continue
        assert not skip_rule(n, w)
    for q in (2, 3, 5, 7, 11):
        assert skip_rule(40, q) or resultant_mod(40, Prime(q)) == 0


def test_verify_range_validates_inputs():
    with pytest.raises(ValueError):
        verify_range(4)
    with pytest.raises(ValueError):
        verify_range(60, primes=[3, 2])
    with pytest.raises(ValueError):
        verify_range(60, primes=[2, 2, 3])
    with pytest.raises(ValueError):
        verify_range(60, primes=[2, 9])
    for jobs in (0, -3):
        with pytest.raises(ValueError, match="jobs must be at least 1"):
            verify_range(60, jobs=jobs)


def test_verify_range_pass_accounting():
    rep = verify_range(200)
    assert rep.all_proven()
    for ps in rep.passes:
        assert ps.candidates == ps.skipped + ps.computed
        assert 0 <= ps.proved <= ps.computed
    d = rep.to_dict()
    assert d["all_proven"] is True
    assert d["unproven"] == []
    assert d["witnesses"]["11"] == 3


def test_verify_range_progress_gets_each_pass_as_recorded():
    seen = []
    rep = verify_range(300, progress=seen.append)
    assert seen == rep.passes
    assert [ps.prime for ps in seen] == list(DEFAULT_PRIMES)


def test_parallel_matches_sequential():
    seq = verify_range(600, jobs=1)
    par = verify_range(600, jobs=3)
    assert seq.table.witness == par.table.witness
    assert seq.all_proven() and par.all_proven()


def test_parallel_run_starts_one_pool(monkeypatch):
    # every pass that needs workers shares the pool the first one started,
    # and the run shuts it down before it returns
    import concurrent.futures

    started, stopped = [], []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            started.append(self)

        def shutdown(self, *args, **kwargs):
            stopped.append(self)
            super().shutdown(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    par = verify_range(600, jobs=2)
    assert sum(1 for ps in par.passes if ps.computed >= 32) >= 2  # the pool is shared
    assert len(started) == 1 and stopped == started
    assert par.table.witness == verify_range(600, jobs=1).table.witness


@pytest.fixture
def in_process_pool(monkeypatch):
    """Stand in for ProcessPoolExecutor with a pool that maps in process, so
    no worker is started.  It records each pool's size in .started and each
    pass it maps as (p, chunks) in .maps."""
    import concurrent.futures

    record = SimpleNamespace(started=[], maps=[])

    class InProcessPool:
        def __init__(self, max_workers):
            record.started.append(max_workers)

        def map(self, fn, ps, chunks, marks):
            record.maps.append((ps[0], chunks))
            return map(fn, ps, chunks, marks)

        def shutdown(self, **kwargs):
            pass

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    return record


def test_pool_has_no_more_workers_than_cases(in_process_pool):
    # the pool is sized by the first pass that needs it: every later pass
    # works on a subset of its cases
    par = verify_range(300, jobs=5000)
    started = in_process_pool.started
    assert started == [par.passes[0].candidates] and started[0] < 5000
    assert par.table.witness == verify_range(300, jobs=1).table.witness


@pytest.mark.parametrize("jobs", [1, 8])
def test_one_marking_walk_per_pass_whatever_jobs(jobs, in_process_pool, marking_walks):
    """The pass marks its shared roots once, on its whole case list, in the
    calling process: all 136 admissible n <= 150 at p = 29, for any jobs."""
    verify_range(150, primes=(29,), jobs=jobs)
    ns = [n for n in range(11, 151) if not skip_rule(n, 29)]
    assert len(ns) == 136 and marking_walks == [ns]
    assert len(in_process_pool.maps) == (jobs > 1)


def test_chunks_partition_each_pass_and_leave_the_report_alone(in_process_pool):
    """A pooled pass is dealt to min(jobs, len(ns)) ascending chunks, sizes
    within one of each other, that partition its cases ns; the pass rows
    (duration aside) and the witnesses are those of the serial run."""

    def rows(rep):
        return [{k: v for k, v in asdict(ps).items() if k != "duration_seconds"} for ps in rep.passes]

    serial = verify_range(600, jobs=1)
    assert in_process_pool.maps == []
    w = serial.table.witness
    for jobs in (2, 3, 5):
        in_process_pool.maps.clear()
        rep = verify_range(600, jobs=jobs)
        assert rows(rep) == rows(serial) and rep.table.witness == w
        assert [p for p, _ in in_process_pool.maps] == [ps.prime for ps in rep.passes if ps.computed >= 32]
        for p, chunks in in_process_pool.maps:
            ns = [n for n in range(11, 601) if w[n] >= p and not skip_rule(n, p)]
            sizes = [len(c) for c in chunks]
            assert len(chunks) == min(jobs, len(ns)) and max(sizes) - min(sizes) <= 1
            assert all(c == sorted(c) for c in chunks)
            assert sorted(n for c in chunks for n in c) == ns


# --------------------------------------------------------------------------
# checkpointing
# --------------------------------------------------------------------------


def test_max_n_above_the_cap_is_refused_before_the_checkpoint_is_read(tmp_path):
    path = tmp_path / "ck.txt"
    path.write_text("not a checkpoint\n")
    with pytest.raises(CapacityError, match="at most 1000000"):
        verify_range(10**6 + 1, checkpoint=str(path))
    with pytest.raises(CheckpointMismatch):  # below the cap the file is read
        verify_range(60, checkpoint=str(path))


def test_checkpoint_roundtrip(tmp_path):
    path = str(tmp_path / "ck.txt")
    first = verify_range(120, primes=[2, 3, 5], checkpoint=path)
    # resume: all passes recorded complete, nothing recomputed
    second = verify_range(120, primes=[2, 3, 5], checkpoint=path)
    assert second.table.witness == first.table.witness
    assert second.passes == []  # every prime pass skipped on resume


def test_checkpoint_partial_resume(tmp_path):
    path = str(tmp_path / "ck.txt")
    full = verify_range(120, primes=[2, 3, 5])

    # simulate a run interrupted after the p=2 pass: truncate the file
    verify_range(120, primes=[2, 3, 5], checkpoint=path)
    with open(path) as fh:
        lines = fh.readlines()
    cut = next(i for i, ln in enumerate(lines) if ln.startswith("# pass p=3"))
    with open(path, "w") as fh:
        fh.writelines(lines[:cut])

    resumed = verify_range(120, primes=[2, 3, 5], checkpoint=path)
    assert resumed.table.witness == full.table.witness
    assert [ps.prime for ps in resumed.passes] == [3, 5]


def test_checkpoint_rejects_mismatched_parameters(tmp_path):
    path = str(tmp_path / "ck.txt")
    verify_range(60, primes=[2, 3], checkpoint=path)
    with pytest.raises(CheckpointMismatch):
        verify_range(61, primes=[2, 3], checkpoint=path)
    with pytest.raises(CheckpointMismatch):
        verify_range(60, primes=[2, 3, 5], checkpoint=path)


def test_checkpoint_rejects_corrupt_lines(tmp_path):
    path = str(tmp_path / "ck.txt")
    verify_range(60, primes=[2, 3], checkpoint=path)
    with open(path, "a") as fh:
        fh.write("this is not a claim line\n")
    with pytest.raises(CheckpointMismatch):
        verify_range(60, primes=[2, 3], checkpoint=path)


def test_checkpoint_rejects_unterminated_last_line(tmp_path):
    """The writer replaces the file whole and ends it with a newline, so a
    file that does not end in one was not written by it and is refused."""
    path = str(tmp_path / "ck.txt")
    verify_range(61, primes=[2, 3], checkpoint=path)
    with open(path) as fh:
        lines = fh.readlines()
    cut = next(i for i, ln in enumerate(lines) if ln.startswith("61 proven"))
    with open(path, "w") as fh:
        fh.writelines(lines[:cut])
        fh.write("61 prov")  # torn: no newline
    with pytest.raises(CheckpointMismatch, match="newline") as err:
        verify_range(61, primes=[2, 3], checkpoint=path)
    assert path in str(err.value)
    with open(path) as fh:
        assert fh.read().endswith("61 prov")  # refused, never repaired


def test_checkpoint_survives_a_crash_mid_write(tmp_path, monkeypatch):
    """A crash before the rename of the p=3 write leaves the p=2 file whole;
    the resume reruns exactly passes 3 and 5."""
    from newmandiv import verifier

    path = str(tmp_path / "ck.txt")
    full = verify_range(120, primes=[2, 3, 5])
    real_replace = verifier.os.replace

    def crash_at_p3(src, dst):
        with open(src) as fh:
            if "# pass p=3 complete" in fh.read():
                raise OSError("simulated crash")
        real_replace(src, dst)

    monkeypatch.setattr(verifier.os, "replace", crash_at_p3)
    with pytest.raises(OSError, match="simulated crash"):
        verify_range(120, primes=[2, 3, 5], checkpoint=path)
    monkeypatch.setattr(verifier.os, "replace", real_replace)
    with open(path) as fh:
        text = fh.read()
    assert "# pass p=2 complete\n" in text and "# pass p=3" not in text
    resumed = verify_range(120, primes=[2, 3, 5], checkpoint=path)
    assert [ps.prime for ps in resumed.passes] == [3, 5]
    assert resumed.table.witness == full.table.witness


def test_checkpoint_resumes_from_interleaved_layout(tmp_path):
    """Earlier versions appended each pass's claims before its marker; the
    reader does not depend on where claims sit, so such a file resumes."""
    path = str(tmp_path / "ck.txt")
    primes = [2, 3, 5]
    full = verify_range(120, primes=primes)
    header = _checkpoint_lines(str(tmp_path / "fresh.txt"), 120, primes)[:4]
    by_witness = {}
    for n in sorted(full.table.witness):
        by_witness.setdefault(full.table.witness[n], []).append(f"{n} proven {full.table.witness[n]}\n")
    lines = header + by_witness[BASE_CASE_WITNESS]
    for p in (2, 3):  # the file a run stopped after its p=3 pass left
        lines += by_witness[p] + [f"# pass p={p} complete\n"]
    with open(path, "w") as fh:
        fh.writelines(lines)
    resumed = verify_range(120, primes=primes, checkpoint=path)
    assert [ps.prime for ps in resumed.passes] == [5]
    assert resumed.table.witness == full.table.witness


def _checkpoint_lines(path, max_n, primes):
    verify_range(max_n, primes=primes, checkpoint=path)
    with open(path) as fh:
        return fh.readlines()


def test_checkpoint_rejects_marker_that_skips_a_pass(tmp_path):
    # p=3 complete with no p=2 marker: the p=2 pass never ran to its end
    path = str(tmp_path / "ck.txt")
    lines = _checkpoint_lines(path, 60, [2, 3, 5])
    with open(path, "w") as fh:
        fh.writelines(ln for ln in lines if ln != "# pass p=2 complete\n")
    with pytest.raises(CheckpointMismatch, match="p=2"):
        verify_range(60, primes=[2, 3, 5], checkpoint=path)


def test_checkpoint_rejects_marker_for_a_prime_not_in_the_run(tmp_path):
    path = str(tmp_path / "ck.txt")
    primes = [2, 3, 5, 7]
    header = _checkpoint_lines(path, 60, primes)[:4]
    with open(path, "w") as fh:
        fh.writelines(header + ["# pass p=23 complete\n"])
    with pytest.raises(CheckpointMismatch, match="p=23"):
        verify_range(60, primes=primes, checkpoint=path)


def test_checkpoint_rejects_unreadable_marker(tmp_path):
    path = str(tmp_path / "ck.txt")
    header = _checkpoint_lines(path, 60, [2, 3])[:4]
    with open(path, "w") as fh:
        fh.writelines(header + ["# pass p=x complete\n"])
    with pytest.raises(CheckpointMismatch, match="p=x"):
        verify_range(60, primes=[2, 3], checkpoint=path)


def test_checkpoint_rejects_repeated_or_extra_markers(tmp_path):
    path = str(tmp_path / "ck.txt")
    lines = _checkpoint_lines(path, 60, [2, 3])
    for extra in ("# pass p=3 complete\n", "# pass p=2 complete\n"):
        with open(path, "w") as fh:
            fh.writelines(lines + [extra])
        with pytest.raises(CheckpointMismatch):
            verify_range(60, primes=[2, 3], checkpoint=path)


@pytest.mark.parametrize(
    "line",
    [
        "13 proven 3",  # skip_rule(13, 3): p=3 cannot certify n=13
        "7 proven 2",  # a base case never has a prime witness
        "12 proven case-analysis",  # the case analysis stops at n=10
        "99 proven 3",  # outside 5..max_n
        "x proven 3",
    ],
)
def test_checkpoint_rejects_unsound_witness(tmp_path, line):
    path = str(tmp_path / "ck.txt")
    primes = [2, 3, 5, 7, 11, 13]
    verify_range(60, primes=primes, checkpoint=path)
    with open(path) as fh:
        header = fh.readlines()[:4]
    with open(path, "w") as fh:
        fh.writelines(header + [line + "\n"])
    with pytest.raises(CheckpointMismatch):
        verify_range(60, primes=primes, checkpoint=path)
