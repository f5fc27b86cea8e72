"""Per-layer metrics from the spans of one traced pass over every workload.

Every traced run replays all four workloads under the tracer (the "suite"),
so each per-layer metric is measured on the workload that exercises it:

- ``bseq``, ``modpoly`` and ``verifier`` pass metrics on verify-serial,
- scheduling and checkpoint metrics on verify-parallel,
- ``search`` on scan, ``analytic`` and ``simulate`` on analysis,
- ``cli`` summed over every traced invocation,
- ``bench.trace_overhead_s`` on the workload the run was asked for.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Tuple

PRIMES = (2, 3, 5, 7, 11, 13, 17)
ODD_PRIMES = PRIMES[1:]
BUCKET_PRIMES = (3, 5)
BUCKETS = ((0, 332), (333, 665), (666, 999))  # degree of B_{n-2}, thirds of its range at max_n 2000
IMBALANCE_PRIMES = (3, 5, 7)
CHECK_IDS = "abcdefghijklm"

#: calls the CLI makes into a layer; cli.overhead_s is the manifest duration minus these
CLI_LAYER_SPANS = ("verifier.verify_range", "search.scan", "analytic.check_estimates",
                   "simulate.run_all_ones", "simulate.counterfactual_run")

# higher is better only for these; every other per-layer metric is better lower
HIGHER_IS_BETTER = ("verifier.parallel_efficiency",)


def metric_units(max_degree: int) -> Dict[str, str]:
    """Every per-layer metric a traced run emits, with its unit, in report order."""
    units: Dict[str, str] = {}
    for p in ODD_PRIMES:
        units[f"bseq.walk_s.p{p}"] = "s"
    for p in ODD_PRIMES:
        units[f"modpoly.kernel_s.p{p}"] = "s"
    for p in BUCKET_PRIMES:
        for lo, hi in BUCKETS:
            units[f"modpoly.kernel_ms.p{p}.deg{lo}-{hi}"] = "ms"
    for p in PRIMES:
        units[f"verifier.pass_s.p{p}"] = "s"
    for p in PRIMES:
        units[f"verifier.computed.p{p}"] = "count"
    units["verifier.base_cases_s"] = "s"
    units["verifier.checkpoint_bytes"] = "bytes"
    units["verifier.checkpoint_load_s"] = "s"
    for p in IMBALANCE_PRIMES:
        units[f"verifier.kernel_imbalance.p{p}"] = "ratio"
    units["verifier.parallel_efficiency"] = "ratio"
    for name in ("masks", "splits", "numeric_failures", "escalated"):
        units[f"search.{name}"] = "count"
    for name in ("aberth_s", "survey53_self_s", "escalation_s"):
        units[f"search.{name}"] = "s"
    units["search.escalation_share"] = "ratio"
    for d in range(max_degree - 2, max_degree + 1):
        units[f"search.degree_s.d{d}"] = "s"
    for cid in CHECK_IDS:
        units[f"analytic.check_s.{cid}"] = "s"
    units["analytic.find_roots.calls"] = "count"
    units["analytic.find_roots_s"] = "s"
    units["analytic.battery_s"] = "s"
    units["simulate.all_ones_s"] = "s"
    units["simulate.counterfactual_s"] = "s"
    units["simulate.steps"] = "count"
    units["cli.overhead_s"] = "s"
    units["cli.report_bytes"] = "bytes"
    units["bench.trace_overhead_s"] = "s"
    return units


def _dur(span: dict) -> float:
    return span["t1"] - span["t0"]


def _total(spans: Iterable[dict]) -> float:
    return sum(_dur(s) for s in spans)


def _named(spans: List[dict], name: str) -> List[dict]:
    return [s for s in spans if s["name"] == name]


@dataclass
class Suite:
    """What one traced pass left behind, per invocation key."""

    spans: Dict[str, List[dict]] = field(default_factory=dict)
    docs: Dict[str, dict] = field(default_factory=dict)
    stdout_bytes: Dict[str, int] = field(default_factory=dict)
    checkpoint_bytes: int = 0
    check_spans: List[dict] = field(default_factory=list)


def compute(suite: Suite, jobs: int, max_degree: int) -> Tuple[Dict[str, float], dict]:
    """(per-layer values, accounting checks and notes)."""
    m: Dict[str, float] = {}
    notes: dict = {}

    # ---- verify-serial: passes, kernel by prime and degree bucket, walk ----
    serial = suite.spans["verify-serial"]
    passes = {ps["prime"]: ps for ps in suite.docs["verify-serial"]["report"]["passes"]}
    kernels = _named(serial, "modpoly.resultant_prs")
    by_prime: Dict[int, List[dict]] = defaultdict(list)
    for s in kernels:
        by_prime[s["prime"]].append(s)
    for p in PRIMES:
        m[f"verifier.pass_s.p{p}"] = passes[p]["duration_seconds"]
        m[f"verifier.computed.p{p}"] = passes[p]["computed"]
    for p in ODD_PRIMES:
        kernel = _total(by_prime[p])
        m[f"modpoly.kernel_s.p{p}"] = kernel
        m[f"bseq.walk_s.p{p}"] = passes[p]["duration_seconds"] - kernel
    for p in BUCKET_PRIMES:
        for lo, hi in BUCKETS:
            calls = [s for s in by_prime[p] if lo <= s["degree"] <= hi]
            name = f"modpoly.kernel_ms.p{p}.deg{lo}-{hi}"
            m[name] = 1e3 * _total(calls) / len(calls) if calls else 0.0
            if not calls:
                notes.setdefault("absent", {})[name] = "no kernel call in this degree bucket"
    m["verifier.base_cases_s"] = _total(_named(serial, "verifier.check_base_case"))
    notes["kernel_plus_walk_equals_pass"] = all(
        abs(m[f"modpoly.kernel_s.p{p}"] + m[f"bseq.walk_s.p{p}"] - m[f"verifier.pass_s.p{p}"]) < 1e-9
        for p in ODD_PRIMES)

    # ---- verify-parallel: per-worker kernel balance, efficiency, checkpoint ----
    parallel = _named(suite.spans["verify-parallel"], "modpoly.resultant_prs")
    for p in IMBALANCE_PRIMES:
        per_worker: Dict[int, float] = defaultdict(float)
        for s in parallel:
            if s["prime"] == p:
                per_worker[s["pid"]] += _dur(s)
        total = sum(per_worker.values())
        name = f"verifier.kernel_imbalance.p{p}"
        # mean over the pool's slots, so a slot that got no work counts as idle
        m[name] = max(per_worker.values()) / (total / jobs) if total else 0.0
        if not total:
            notes.setdefault("absent", {})[name] = "no kernel call in this pass"
    serial_pass = sum(ps["duration_seconds"] for ps in passes.values())
    parallel_pass = sum(ps["duration_seconds"]
                        for ps in suite.docs["verify-parallel"]["report"]["passes"])
    m["verifier.parallel_efficiency"] = serial_pass / (jobs * parallel_pass)
    m["verifier.checkpoint_bytes"] = suite.checkpoint_bytes
    m["verifier.checkpoint_load_s"] = _total(_named(suite.spans["verify-resume"], "verifier.verify_range"))

    # ---- scan: masks, escalation, root finding, per-degree time ----
    scan = suite.spans["scan"]
    surveys = _named(scan, "search.split_survey")
    double = [s for s in surveys if s["precision"] == 53]
    escalated = [s for s in surveys if s["precision"] != 53]
    double_ids = {(s["pid"], s["id"]) for s in double}
    aberth = _named(scan, "search.aberth_roots")
    m["search.masks"] = len(double)
    m["search.splits"] = sum(d["splits"] for d in suite.docs["scan"]["report"]["degrees"])
    m["search.numeric_failures"] = sum(1 for s in double if s.get("error") == "NumericFailure")
    m["search.escalated"] = len(escalated)
    m["search.aberth_s"] = _total(aberth)
    m["search.survey53_self_s"] = _total(double) - _total(
        s for s in aberth if (s["pid"], s["parent"]) in double_ids)
    m["search.escalation_s"] = _total(escalated)
    m["search.escalation_share"] = len(escalated) / len(double)
    marks = {s["degree"]: s["t0"] for s in _named(scan, "search.degree")}
    marks[0] = _named(scan, "search.scan")[0]["t0"]
    for d in range(max_degree - 2, max_degree + 1):
        m[f"search.degree_s.d{d}"] = marks[d] - marks[d - 1]
    notes["scan_survey_coverage"] = (_total(surveys)
                                     / suite.docs["scan"]["manifest"]["duration_seconds"])

    # ---- analysis: battery, checks one by one, simulate legs ----
    roots = _named(suite.spans["estimates"], "analytic.find_roots")
    m["analytic.find_roots.calls"] = len(roots)
    m["analytic.find_roots_s"] = _total(roots)
    # battery and single checks alternate in one traced process; medians over the rounds
    m["analytic.battery_s"] = statistics.median(map(_dur, _named(suite.check_spans, "analytic.battery")))
    timings: Dict[str, List[float]] = defaultdict(list)
    for s in _named(suite.check_spans, "analytic.check"):
        timings[s["check"]].append(_dur(s))
    for cid in CHECK_IDS:
        m[f"analytic.check_s.{cid}"] = statistics.median(timings[cid])
    notes["checks_sum_over_battery"] = (sum(m[f"analytic.check_s.{cid}"] for cid in CHECK_IDS)
                                        / m["analytic.battery_s"])
    m["simulate.all_ones_s"] = _total(_named(suite.spans["simulate-all-ones"], "simulate.run_all_ones"))
    m["simulate.counterfactual_s"] = _total(
        _named(suite.spans["simulate-counterfactual"], "simulate.counterfactual_run"))
    m["simulate.steps"] = (suite.docs["simulate-all-ones"]["report"]["outcome"]["n"]
                           + suite.docs["simulate-counterfactual"]["report"]["N"])

    # ---- cli: what the manifest times beyond the layer call, and output size ----
    overhead = 0.0
    for key, spans in suite.spans.items():
        layer = [s for s in spans if s["name"] in CLI_LAYER_SPANS and s["parent"] is None]
        overhead += suite.docs[key]["manifest"]["duration_seconds"] - _total(layer)
    m["cli.overhead_s"] = overhead
    m["cli.report_bytes"] = sum(suite.stdout_bytes.values())
    return m, notes
