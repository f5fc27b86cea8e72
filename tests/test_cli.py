"""CLI tests: document shape, exit codes, determinism, flag parsing."""

import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import newmandiv.cli as cli
from newmandiv.cli import _parse_grids, _parse_nodes, _parse_primes, _strip_durations, main

# coarse battery grids keep the estimates runs fast in tests
COARSE = [
    "unit=0.0:1.0:0.02",
    "large=0.005:0.999:0.02",
    "small=0.00001:0.005:0.0001",
]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    doc = json.loads(captured.out) if captured.out else None
    return code, doc, captured.err


# ----------------------------------------------------------------------
# flag parsing
# ----------------------------------------------------------------------


def test_parse_primes_forms():
    assert _parse_primes("2,3,5") == [2, 3, 5]
    assert _parse_primes("2..17") == [2, 3, 5, 7, 11, 13, 17]
    assert _parse_primes("17") == [17]
    assert _parse_primes("3..3") == [3]
    with pytest.raises(ValueError):
        _parse_primes("17..2")


def test_parse_grids():
    g = _parse_grids(["unit=0:1:0.5"])
    assert g.unit == (0.0, 1.0, 0.5)
    assert g.large == (0.005, 0.999, 1e-3)  # untouched default
    g = _parse_grids(["unit=0:1:1", "large=0.5:1:0.5", "small=0:1:0.5"])  # domain edges
    assert (g.unit, g.large, g.small) == ((0.0, 1.0, 1.0), (0.5, 1.0, 0.5), (0.0, 1.0, 0.5))
    with pytest.raises(ValueError):
        _parse_grids(["tiny=0:1:0.5"])
    with pytest.raises(ValueError):
        _parse_grids(["unit=0:1"])
    with pytest.raises(ValueError):
        _parse_grids(["unit"])


@pytest.mark.parametrize(
    "spec, message",
    [
        ("large=0:0.999:0.02", "grid large=0.0:0.999:0.02 must lie inside (0, 1]"),
        ("large=0.5:1.5:0.1", "grid large=0.5:1.5:0.1 must lie inside (0, 1]"),
        ("unit=-0.1:1:0.1", "grid unit=-0.1:1.0:0.1 must lie inside [0, 1]"),
        ("small=0:1.01:0.1", "grid small=0.0:1.01:0.1 must lie inside [0, 1]"),
        ("unit=0:1:0", "grid unit=0.0:1.0:0.0 needs step > 0"),
        ("small=0.5:0.4:0.01", "grid small=0.5:0.4:0.01 needs step > 0 and stop >= start"),
        ("unit=0:1:nan", "grid unit=0.0:1.0:nan needs step > 0"),
        ("unit=0.5:0.5:0.1", "grid unit=0.5:0.5:0.1 needs at least two points"),
        ("unit=0.5:0.55:0.1", "grid unit=0.5:0.55:0.1 needs at least two points"),
        ("large=0.5:0.5:0.1", "grid large=0.5:0.5:0.1 needs at least two points"),
        # (g), (h) and (j) skip t = 0: a small grid of 0 alone used to pass
        # them with a worst margin of inf
        ("small=0:0:1e-5", "grid small=0.0:0.0:1e-05 needs a point above 0"),
        ("small=0:1e-6:1e-5", "grid small=0.0:1e-06:1e-05 needs a point above 0"),
    ],
)
def test_estimates_grid_domain_names_the_grid(capsys, spec, message):
    # rejected up front: large = 0 used to run (a) and (b), then fail in (c)
    # with an error about residues that named no grid
    with pytest.raises(ValueError, match=re.escape(message)):
        _parse_grids([spec])
    code, doc, err = run_cli(capsys, "estimates", "--grid", spec)
    assert code == 2
    assert doc is None
    assert message in err


@pytest.mark.parametrize(
    "spec, point, why",
    [
        ("small=1e-300:1e-300:1", "1e-300", "t^2 is 0"),
        ("small=1e-200:1e-200:1", "1e-200", "t^2 is 0"),
        ("small=1e-17:1e-17:1", "1e-17", "|beta| rounds to 1"),
    ],
)
def test_estimates_small_grid_too_small_names_the_grid_and_point(capsys, spec, point, why):
    # (g) and (h) divide by t^2 and (j) by ln|beta|: these grids used to exit
    # 2 with "float division by zero", which named no grid
    code, doc, err = run_cli(capsys, "estimates", "--grid", spec)
    assert code == 2
    assert doc is None
    name, _, body = spec.partition("=")
    start, stop, step = (float(x) for x in body.split(":"))
    assert f"grid small={start}:{stop}:{step} has the point t = {point}" in err
    assert why in err


@pytest.mark.parametrize("spec", ["small=3e-7:3e-7:1", "small=1e-7:1e-7:1", "small=1e-14:1e-14:1"])
def test_estimates_small_grid_below_rounding_exits_2_naming_the_check(capsys, spec):
    # at these points (g), (h) or (j) measure rounding, not the inequality:
    # they reported FAILED (exit 1) with margins -8.2e-4, -5.3e-3 and -4.2e-2
    code, doc, err = run_cli(capsys, "estimates", "--grid", spec)
    assert code == 2
    assert doc is None
    start, stop, step = (float(x) for x in spec.partition("=")[2].split(":"))
    assert f"grid small={start}:{stop}:{step} has the point t = {start:g}, too small for check (g):" in err
    assert "rounding puts its margin anywhere in [" in err


def test_parse_nodes():
    assert _parse_nodes("1,-1") == [1 + 0j, -1 + 0j]
    assert _parse_nodes("0.6+0.8j, 0.6-0.8j") == [0.6 + 0.8j, 0.6 - 0.8j]
    with pytest.raises(ValueError):
        _parse_nodes("zebra")
    with pytest.raises(ValueError):
        _parse_nodes("")
    for text in ("nan", "inf,1", "1,nanj", "-inf+1j"):
        with pytest.raises(ValueError, match="is not finite"):
            _parse_nodes(text)


# ----------------------------------------------------------------------
# manifest and exit codes
# ----------------------------------------------------------------------


def test_simulate_document_shape(capsys):
    code, doc, err = run_cli(capsys, "simulate", "--a", "0.3")
    assert code == 0
    man = doc["manifest"]
    assert man["subcommand"] == "simulate"
    assert man["version"]
    assert man["duration_seconds"] >= 0
    assert len(man["digest"]) == 64
    # defaults are materialized
    assert man["parameters"] == {"a": 0.3, "max_n": 10000, "mode": "all-ones", "trace": None}
    assert doc["report"]["outcome"] == {
        "kind": "negative-coefficient",
        "n": 39,
        "value": pytest.approx(-0.040588, abs=1e-5),
    }
    assert "violation" in err


def test_simulate_domain_errors(capsys):
    for bad in ("1.5", "0", "-0.2", "1"):
        code, doc, err = run_cli(capsys, "simulate", "--a", bad)
        assert code == 2, bad
        assert doc is None
        assert "error" in err


def test_simulate_counterfactual(capsys):
    code, doc, _ = run_cli(capsys, "simulate", "--a", "0.003", "--mode", "counterfactual")
    assert code == 0
    assert doc["report"]["N"] == 11786
    assert doc["report"]["outcome"]["kind"] == "counterfactual-negative"


def test_simulate_counterfactual_domain(capsys):
    code, _, err = run_cli(capsys, "simulate", "--a", "0.3", "--mode", "counterfactual")
    assert code == 2
    assert "small-coefficient" in err


@pytest.mark.parametrize(
    "argv, a",
    [
        (["simulate", "--a", "1e-16", "--mode", "counterfactual"], "1e-16"),
        (["simulate", "--a", "1e-100", "--mode", "counterfactual"], "1e-100"),
        (["estimates", "--grid", "large=1e-17:0.5:0.1"], "1e-17"),
    ],
)
def test_residues_where_alpha_rounds_to_minus_one_exit_2_naming_a(capsys, argv, a):
    # these exited 2 with "complex division by zero", which named neither
    # the point nor the cause
    code, doc, err = run_cli(capsys, *argv)
    assert code == 2
    assert doc is None
    assert f"residues at a = {a} " in err
    assert "alpha rounds to -1" in err


@pytest.mark.parametrize("a", ["1e-7", "1e-9", "1e-11"])
def test_simulate_counterfactual_summary_shows_the_digits(capsys, a):
    # b_{N+8} is of the order of -a: six decimals printed it as -0.000000;
    # at 1e-11 it is still beyond the tolerance 1e-12
    code, doc, err = run_cli(capsys, "simulate", "--a", a, "--mode", "counterfactual")
    assert code == 0
    report = doc["report"]
    assert report["outcome"]["kind"] == "counterfactual-negative"
    value = report["b"][str(report["N"] + 8)]
    (line,) = err.splitlines()
    shown = float(line.split("b_{N+8} = ")[1].split()[0])
    assert shown < 0
    assert math.isclose(shown, value, rel_tol=1e-5)


@pytest.mark.parametrize("a", ["1e-12", "1e-15"])
def test_simulate_counterfactual_refuses_a_sign_within_the_tolerance(capsys, a):
    # |b_{N+8}| is about 0.618 a, within the absolute tolerance 1e-12: these
    # exited 1 with "no violation", although the window closes below 0
    code, doc, err = run_cli(capsys, "simulate", "--a", a, "--mode", "counterfactual")
    assert code == 2
    assert doc is None
    assert "cannot tell the sign of b_{N+8} = -" in err
    assert f"at a = {a}: " in err
    assert "within the tolerance 1e-12" in err


def test_simulate_no_violation_exit_one(capsys):
    # a tiny a cannot blow up within a short horizon: outcome unconfirmed
    code, doc, _ = run_cli(capsys, "simulate", "--a", "0.001", "--max-n", "50")
    assert code == 1
    assert doc["report"]["outcome"]["kind"] == "no-violation"


def test_simulate_overshoot_within_error_bound_is_passed_over(capsys):
    # at a = 1/2 + 2^-53, b_9 rounds to -2^-53, within its error bound: the
    # run passes over it and confirms the certified violation at b_19
    code, doc, err = run_cli(capsys, "simulate", "--a", "0.5000000000000001")
    assert code == 0
    assert doc["manifest"]["parameters"]["a"] == 0.5 + 2.0**-53
    assert doc["report"]["outcome"] == {"kind": "negative-coefficient", "n": 19, "value": -0.2578125000000002}
    assert "first violation: coefficient b_19 = -0.257813 < 0" in err


def test_simulate_trace_file(tmp_path, capsys):
    path = tmp_path / "trace.txt"
    code, _, _ = run_cli(capsys, "simulate", "--a", "0.3", "--trace", str(path))
    assert code == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "n b c d err"
    assert len(lines) == 41
    # the bytes the leg wrote while it ran, before the trace was rendered
    # from its result (test_simulate.py pins the other traces)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "8fc31146615d3b8dab55452159ef019dc265b7353afc4a35daa4e9e04b8509bf"
    )


@pytest.mark.parametrize("a", ["0.3", "1e-16"], ids=["out-of-domain", "alpha-rounds-to-minus-one"])
def test_refused_simulate_leaves_no_trace_file(tmp_path, capsys, a):
    # exit 2 means no output: the trace is written only after the leg returns
    path = tmp_path / "trace.txt"
    code, doc, err = run_cli(capsys, "simulate", "--a", a, "--mode", "counterfactual", "--trace", str(path))
    assert code == 2
    assert doc is None
    assert "error" in err
    assert not path.exists()


@pytest.mark.parametrize("mode", ["all-ones", "counterfactual"])
def test_simulate_rejects_max_n_above_the_cap(tmp_path, capsys, mode):
    # refused before the first step, so no trace file is written
    path = tmp_path / "trace.txt"
    code, doc, err = run_cli(
        capsys, "simulate", "--a", "0.003", "--mode", mode, "--max-n", "100000000", "--trace", str(path)
    )
    assert code == 2
    assert doc is None
    assert "max_n must be at most 1000000, got 100000000" in err
    assert not path.exists()


@pytest.mark.parametrize("a", ["0.3", "1e-16"], ids=["out-of-domain", "alpha-rounds-to-minus-one"])
def test_refused_simulate_keeps_a_file_at_the_trace_path(tmp_path, capsys, a):
    path = tmp_path / "trace.txt"
    path.write_bytes(b"12345678")
    code, doc, _ = run_cli(capsys, "simulate", "--a", a, "--mode", "counterfactual", "--trace", str(path))
    assert code == 2
    assert doc is None
    assert path.read_bytes() == b"12345678"


def test_verify_exit_codes(capsys):
    code, doc, _ = run_cli(capsys, "verify-resultants", "--max-n", "11", "--primes", "2", "--jobs", "1")
    assert code == 1
    assert doc["report"]["unproven"] == [11]
    code, doc, _ = run_cli(capsys, "verify-resultants", "--max-n", "10", "--primes", "2", "--jobs", "1")
    assert code == 0
    assert doc["report"]["all_proven"] is True


def test_verify_rejects_nonprime(capsys):
    code, _, err = run_cli(capsys, "verify-resultants", "--max-n", "60", "--primes", "4,6")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_verify_rejects_job_count_below_one(capsys, tmp_path, jobs):
    path = tmp_path / "ck.txt"
    code, doc, err = run_cli(capsys, "verify-resultants", "--max-n", "60", "--jobs", jobs, "--checkpoint", str(path))
    assert code == 2
    assert doc is None  # no document, so no manifest records the bad count
    assert "jobs must be at least 1" in err
    assert not path.exists()


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_search_rejects_job_count_below_one(capsys, jobs):
    code, doc, err = run_cli(capsys, "search", "--max-degree", "3", "--jobs", jobs)
    assert code == 2
    assert doc is None
    assert "jobs must be at least 1" in err


def test_jobs_default_to_the_cpus_this_process_may_use(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    parser = cli._build_parser()
    assert parser.parse_args(["search", "--max-degree", "3"]).jobs == 1
    assert parser.parse_args(["verify-resultants", "--max-n", "60"]).jobs == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    assert cli._build_parser().parse_args(["search", "--max-degree", "3"]).jobs == 8


@pytest.mark.parametrize("primes", ["0..1", ""], ids=["no-prime-in-range", "empty"])
def test_verify_rejects_an_empty_prime_list(capsys, tmp_path, primes):
    # a usage error, not a run whose cases all stay unproven
    path = tmp_path / "ck.txt"
    code, doc, err = run_cli(capsys, "verify-resultants", "--max-n", "60", "--primes", primes, "--checkpoint", str(path))
    assert code == 2
    assert doc is None
    assert "no primes given" in err
    assert not path.exists()


def test_verify_rejects_a_prime_range_past_the_cap():
    # refused before any integer of the range is tested for primality
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-m", "newmandiv.cli", "verify-resultants", "--max-n", "60", "--primes", "2..3000000000"],
        capture_output=True,
        text=True,
        env=env,
        timeout=30,
    )
    assert out.returncode == 2
    assert out.stdout == ""
    assert "2^31" in out.stderr


def test_verify_rejects_a_prime_range_of_more_than_1e5_integers():
    # under the 2^31 cap, but listing its primes would take over an hour
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-m", "newmandiv.cli", "verify-resultants", "--max-n", "20", "--primes", "2..2147483647"],
        capture_output=True,
        text=True,
        env=env,
        timeout=10,
    )
    assert out.returncode == 2
    assert out.stdout == ""
    assert "spans more than 100000 integers" in out.stderr


def test_verify_rejects_max_n_above_the_cap():
    # refused before the case list is built; one job, so a run that got past
    # the check and was killed at the timeout would leave no worker behind
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-m", "newmandiv.cli", "verify-resultants", "--max-n", "1000001", "--jobs", "1"],
        capture_output=True,
        text=True,
        env=env,
        timeout=10,
    )
    assert out.returncode == 2
    assert out.stdout == ""
    assert "max_n must be at most 1000000" in out.stderr


def test_parse_primes_span_limit():
    assert len(_parse_primes("2..100001")) == 9592  # 10^5 integers: at the limit
    with pytest.raises(ValueError, match="spans more than 100000 integers"):
        _parse_primes("2..100002")


def test_verify_parameters_materialize_prime_range(capsys):
    code, doc, _ = run_cli(capsys, "verify-resultants", "--max-n", "60", "--primes", "2..13", "--jobs", "1")
    assert code == 0
    assert doc["manifest"]["parameters"]["primes"] == [2, 3, 5, 7, 11, 13]
    assert doc["manifest"]["parameters"]["checkpoint"] is None
    assert doc["report"]["witnesses"]["11"] == 3
    assert doc["report"]["witnesses"]["40"] == 13


def test_verify_checkpoint_io(tmp_path, capsys):
    path = tmp_path / "ck.txt"
    code, _, _ = run_cli(capsys, "verify-resultants", "--max-n", "60", "--primes", "2,3", "--jobs", "1", "--checkpoint", str(path))
    assert code == 1  # 2 and 3 alone cannot finish 11..60
    assert path.exists() and "pass p=3 complete" in path.read_text()
    code, _, _ = run_cli(capsys, "verify-resultants", "--max-n", "60", "--primes", "2,3", "--jobs", "1", "--checkpoint", "/nonexistent-dir/ck.txt")
    assert code == 2


def test_roots_anchor(capsys):
    code, doc, err = run_cli(capsys, "roots", "--t", "1")
    assert code == 0
    assert doc["report"]["abs_beta"] == pytest.approx(1.18711, abs=2e-5)
    assert doc["report"]["abs_gamma"] == pytest.approx(0.92042, abs=2e-5)
    assert "|beta| = 1.18711" in err


def test_estimates_coarse_pass(capsys):
    argv = ["estimates"]
    for g in COARSE:
        argv += ["--grid", g]
    code, doc, err = run_cli(capsys, *argv)
    assert code == 0
    checks = doc["report"]["checks"]
    assert len(checks) == 13
    assert all(c["passed"] and c["worst_margin"] > 0 for c in checks)
    assert doc["report"]["all_passed"] is True
    assert err.count("ok") == 13


def test_estimates_one_point_small_grid(capsys):
    # (a) and (e) difference along unit and large only, so small may be one point
    code, doc, _ = run_cli(capsys, "estimates", "--grid", COARSE[0], "--grid", COARSE[1],
                           "--grid", "small=0.001:0.001:0.1")
    assert code == 0
    assert doc["report"]["grids"]["small"] == [0.001, 0.001, 0.1]


def test_estimates_grid_above_the_point_cap_exits_2(capsys):
    # about 5e9 points: refused before any array is built
    code, doc, err = run_cli(capsys, "estimates", "--grid", "small=0:0.005:1e-12")
    assert code == 2
    assert doc is None
    assert "grid small=0.0:0.005:1e-12 has more than 100000 points" in err


def test_estimates_bad_grid(capsys):
    code, _, _ = run_cli(capsys, "estimates", "--grid", "bogus=0:1:0.1")
    assert code == 2


def test_vandermonde_check(capsys):
    code, doc, _ = run_cli(capsys, "vandermonde-check", "--nodes", "1,-1")
    assert code == 0
    assert doc["report"]["max_error"] <= 1e-15
    code, _, _ = run_cli(capsys, "vandermonde-check", "--nodes", "1,1")  # duplicate nodes
    assert code == 2
    code, _, _ = run_cli(capsys, "vandermonde-check", "--nodes", ",".join(["1"] * 13))  # over the cap
    assert code == 2


@pytest.mark.parametrize("nodes", ["nan", "inf,1"])
def test_vandermonde_check_rejects_non_finite_nodes(capsys, nodes):
    # these used to exit 0 or 1 with NaN and Infinity in the document
    code, doc, err = run_cli(capsys, "vandermonde-check", "--nodes", nodes)
    assert code == 2
    assert doc is None
    assert "is not finite" in err


def test_search_small(capsys):
    code, doc, err = run_cli(capsys, "search", "--max-degree", "5")
    assert code == 0
    assert doc["report"]["conjecture_holds"] is True
    assert doc["report"]["offenders"] == []
    assert "0 unfair, 0 residual indeterminate" in err


def test_search_failed_retry_exits_1(capsys, monkeypatch):
    # a retry that fails leaves its mask open: exit 1 with a report
    import newmandiv.search as search

    def lost(coeffs, seeds, *args, **kwargs):
        # the double pass's batched solves run; the retry's 1-D solves raise
        if coeffs.ndim == 1:
            raise ArithmeticError("root iteration did not converge")
        return aberth_roots(coeffs, seeds, *args, **kwargs)

    aberth_roots = search.aberth_roots
    monkeypatch.setattr(search, "aberth_roots", lost)
    code, doc, err = run_cli(capsys, "search", "--max-degree", "6")
    assert code == 1
    assert doc["report"]["conjecture_holds"] is False
    assert [f["bits"] for f in doc["report"]["retry_failures"]] == [27, 99]
    assert "0 unfair, 2 residual indeterminate" in err
    assert "2 of them from retries that failed: 1+x+x^3+x^4, 1+x+x^5+x^6" in err


def test_estimate_n(capsys):
    code, doc, _ = run_cli(capsys, "estimate-N", "--a", "0.005")
    assert code == 0
    assert doc["report"]["estimate"] == pytest.approx(6534.4257, abs=0.1)
    code, _, _ = run_cli(capsys, "estimate-N", "--a", "0.3")
    assert code == 2


def test_estimate_n_not_finite_exits_2(capsys):
    # the estimate overflows at a subnormal a: an error, not "estimate": Infinity
    code, doc, err = run_cli(capsys, "estimate-N", "--a", "1e-320")
    assert code == 2
    assert doc is None
    assert "estimate N(a) is not a finite double at a = 1e-320" in err


def test_simulate_counterfactual_estimate_not_finite_exits_2(capsys):
    # used to fail on converting the infinite estimate to an int
    code, doc, err = run_cli(capsys, "simulate", "--a", "1e-320", "--mode", "counterfactual")
    assert code == 2
    assert doc is None
    assert "estimate N(a) is not a finite double at a = 1e-320" in err


def test_document_with_a_non_finite_number_exits_2(capsys, monkeypatch):
    # _emit writes strict JSON: a value no parser reads back is an error
    monkeypatch.setattr(cli, "estimate_N", lambda a: math.inf)
    code, doc, err = run_cli(capsys, "estimate-N", "--a", "0.005")
    assert code == 2
    assert doc is None
    assert "not JSON compliant" in err


def test_usage_errors(capsys):
    assert main(["no-such-command"]) == 2
    capsys.readouterr()
    assert main(["simulate"]) == 2  # missing --a
    capsys.readouterr()
    assert main([]) == 2
    capsys.readouterr()


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------


def test_reruns_identical_modulo_duration(capsys):
    _, doc1, _ = run_cli(capsys, "simulate", "--a", "0.3")
    _, doc2, _ = run_cli(capsys, "simulate", "--a", "0.3")
    assert doc1["manifest"]["digest"] == doc2["manifest"]["digest"]
    assert _strip_durations(doc1) == _strip_durations(doc2)


def test_verify_parallel_matches_sequential(capsys):
    args = ["verify-resultants", "--max-n", "400", "--primes", "2,3,5,7"]
    _, seq, _ = run_cli(capsys, *args, "--jobs", "1")
    _, par, _ = run_cli(capsys, *args, "--jobs", "3")
    s, p = _strip_durations(seq), _strip_durations(par)
    s["manifest"]["parameters"].pop("jobs")
    p["manifest"]["parameters"].pop("jobs")
    s["manifest"].pop("digest"), p["manifest"].pop("digest")  # jobs is a parameter, so digests differ
    assert s == p


def test_search_document_does_not_depend_on_jobs(capsys):
    # degree 8 is the first with two blocks, so --jobs 2 runs on a pool
    _, seq, _ = run_cli(capsys, "search", "--max-degree", "8", "--jobs", "1")
    _, par, _ = run_cli(capsys, "search", "--max-degree", "8", "--jobs", "2")
    assert seq["manifest"]["parameters"] == {"max_degree": 8}
    assert _strip_durations(seq) == _strip_durations(par)


def test_verify_writes_each_pass_once_then_the_closing_line(capsys):
    # the pass lines come from verify_range's progress, one per PrimePass
    code, doc, err = run_cli(capsys, "verify-resultants", "--max-n", "300", "--jobs", "1")
    assert code == 0
    passes = doc["report"]["passes"]
    lines = err.splitlines()
    assert [ln.split(":")[0] for ln in lines[:-1]] == [f"p={ps['prime']}" for ps in passes]
    for ps, line in zip(passes, lines):
        assert line.startswith(
            f"p={ps['prime']}: proved {ps['proved']}/{ps['computed']} computed ({ps['skipped']} skipped) in "
        )
        assert line.endswith(f"; proved up to {ps['proved_up_to_after']}")
    assert lines[-1] == "all claims proven"


def test_search_writes_one_line_per_degree_for_any_jobs(capsys):
    # one progress line per degree, in order, before the two summary lines;
    # only the seconds at the end of each line may differ with jobs
    counts = {}
    for jobs in ("1", "2"):
        code, doc, err = run_cli(capsys, "search", "--max-degree", "8", "--jobs", jobs)
        assert code == 0
        lines = err.splitlines()
        assert len(lines) == 8 + 2
        for s, line in zip(doc["report"]["degrees"], lines):
            assert line.startswith(
                f"degree {s['degree']}: {s['polynomials']} polynomials, {s['splits']} splits, "
                f"{s['escalated']} escalated, {s['residual_unfair']} unfair, "
                f"{s['residual_indeterminate']} residual indeterminate; "
            )
            assert re.fullmatch(r"\d+\.\ds", line.rsplit("; ", 1)[1])
        assert [s["degree"] for s in doc["report"]["degrees"]] == list(range(1, 9))
        assert lines[8].startswith("degrees 1..8: ")
        counts[jobs] = [line.rsplit("; ", 1)[0] for line in lines[:8]]
    assert counts["1"] == counts["2"]


def test_console_module_entry():
    # the child finds the package where this process found it, installed or not
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-m", "newmandiv.cli", "roots", "--t", "0.005"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["report"]["alpha"] == pytest.approx(-0.9990010, abs=1e-7)
