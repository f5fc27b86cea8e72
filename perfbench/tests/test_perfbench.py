"""Tests of the benchmark itself, on the tiny profile (verify at max_n 200,
scan at degree 6, coarse estimate grids).

Run from the repository root:

    python3 -m pytest -q -p no:cacheprovider perfbench/tests
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import harness  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402

TINY = harness.PROFILES["tiny"]


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced():
    return _result(_bench("--workload", "verify-serial", "--seed", "1", "--seconds", "0",
                          "--trace", "1", "--profile", "tiny"))


def test_metric_lists_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    full = harness.PROFILES["full"]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.metric_units(full.max_degree)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    better = {m["name"]: m["better"] for m in spec["per_layer"]}
    assert [n for n, b in better.items() if b == "higher"] == list(layers.HIGHER_IS_BETTER)
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)


def test_traced_run_emits_every_per_layer_metric(traced):
    assert traced["correct"] and traced["failed"] == 0
    units = layers.metric_units(TINY.max_degree)
    assert list(traced["metrics"]) == list(units)
    for name, unit in units.items():
        assert traced["metrics"][name]["unit"] == unit, name
        assert isinstance(traced["metrics"][name]["value"], (int, float)), name


def test_self_times_are_non_negative(traced):
    values = {k: v["value"] for k, v in traced["metrics"].items()}
    self_times = [k for k in values if k.startswith("bseq.walk_s.")]
    self_times += ["search.survey53_self_s", "cli.overhead_s"]
    for name in self_times:
        assert values[name] >= 0, name
    for name, unit in layers.metric_units(TINY.max_degree).items():
        if unit in ("s", "ms") and name != "bench.trace_overhead_s":
            assert values[name] >= 0, name


def test_kernel_plus_walk_is_the_pass(traced):
    values = {k: v["value"] for k, v in traced["metrics"].items()}
    for p in layers.ODD_PRIMES:
        total = values[f"modpoly.kernel_s.p{p}"] + values[f"bseq.walk_s.p{p}"]
        assert total == pytest.approx(values[f"verifier.pass_s.p{p}"], abs=1e-9), p


def test_untraced_run_emits_end_to_end_metrics():
    result = _result(_bench("--workload", "analysis", "--seed", "2", "--seconds", "0",
                            "--trace", "0", "--profile", "tiny"))
    assert result["correct"] and result["failed"] == 0
    # the set-up probes and the three analysis invocations
    assert result["attempted"] == harness.PROBES + len(harness.WORKLOADS["analysis"])
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.E2E_UNITS
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_wrong_digest_counts_as_failure():
    with open(harness.REFERENCE_PATH) as fh:
        reference = copy.deepcopy(json.load(fh)["tiny"])
    reference["simulate-all-ones"]["digest"] = "0" * 64
    details, result = run.measure(ROOT, "analysis", 3, 0, False, TINY, reference)
    assert result["correct"] is False
    assert result["failed"] == 1
    [failure] = details["failures"]
    assert failure["invocation"] == "simulate-all-ones"
    assert any("digest" in f for f in failure["failures"])


def test_spot_check_miss_counts_as_failure():
    with open(harness.REFERENCE_PATH) as fh:
        reference = json.load(fh)["tiny"]
    doc = {"manifest": {"digest": reference["verify-serial"]["digest"], "duration_seconds": 0.5},
           "report": {"all_proven": True, "witnesses": {"11": 3, "40": 11}}}
    inv = harness.Invocation(key="verify-serial", workdir="", start=0.0, end=1.0, cpu_s=1.0,
                             rss_mb=1.0, exit_code=0, stdout_bytes=0, doc=doc)
    failures = harness.check(inv, reference, TINY)
    assert any(f.startswith("witnesses.40") for f in failures)
    assert any("witness table" in f for f in failures)


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "analysis", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
