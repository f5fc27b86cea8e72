"""newmandiv benchmark: fixed CLI workloads, checked against reference outcomes.

Run from the repository root:

    python3 perfbench/run.py --workload verify-serial --seed 1 --seconds 25 --trace 0

With --trace 0 the workload repeats (as whole CLI processes, tracing off)
while another repetition fits in --seconds seconds, at least once, and the
last stdout line carries the end-to-end metrics. With --trace 1 one untraced
repetition runs (the base of the tracing overhead), then a traced pass over
all four workloads gives the per-layer metrics. The line before the result
holds the machine, the samples and every failed check.

    python3 perfbench/run.py --write-reference --profile full

re-records reference.json after a change that is meant to alter a digest.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import time  # noqa: E402

import harness  # noqa: E402
import layers  # noqa: E402

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def traced_suite(runner: harness.Runner) -> tuple:
    """Replay every workload under the tracer; (Suite, traced wall per workload)."""
    suite = layers.Suite()
    walls = {}
    for name in harness.WORKLOADS:
        invs = runner.workload(name, traced=True)
        walls[name] = harness.rep_wall(invs)
        for inv in invs:
            if inv.doc is None:
                raise harness.NotMeasurable(f"traced {inv.key} printed no manifest (exit code {inv.exit_code})")
            suite.spans[inv.key] = harness.load_spans(inv.workdir)
            suite.docs[inv.key] = inv.doc
            suite.stdout_bytes[inv.key] = inv.stdout_bytes
            if inv.key == "verify-parallel":
                suite.checkpoint_bytes = os.path.getsize(os.path.join(inv.workdir, harness.CHECKPOINT))
        for inv in invs:
            shutil.rmtree(inv.workdir, ignore_errors=True)
    suite.check_spans = runner.estimate_checks(",".join(layers.CHECK_IDS))
    return suite, walls


def measure(root: str, workload: str, seed: int, seconds: float, trace: bool,
            profile: harness.Profile, reference: dict) -> tuple:
    """(details, result) of one benchmark run."""
    details = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
               "machine": harness.machine(root), "loadavg_before": os.getloadavg()}
    runner = harness.Runner(root, profile, reference)
    try:
        # half the set-up probes run before the repetitions and half after, so the
        # set-up median spans the whole run
        ts = harness.probe_values(seed)
        probes = [runner.probe(t) for t in ts[: len(ts) // 2]]
        if all(p.failures for p in probes):
            raise harness.NotMeasurable("every set-up probe failed: " + "; ".join(probes[0].failures))
        reps = []
        t0 = time.perf_counter()
        # another repetition only while one as long as the longest so far still fits;
        # a traced run needs one, as the base of the tracing overhead
        while not reps or (not trace and time.perf_counter() - t0
                           + max(map(harness.rep_wall, reps)) <= seconds):
            reps.append(runner.workload(workload))
        probes += [runner.probe(t) for t in ts[len(ts) // 2:]]
        e2e = harness.end_to_end(reps, probes)
        details["samples"] = {
            "reps": len(reps),
            "wall_s": [harness.rep_wall(rep) for rep in reps],
            "setup_s": [inv.setup_s for inv in runner.invocations],
        }
        if trace:
            suite, walls = traced_suite(runner)
            values, notes = layers.compute(suite, harness.JOBS, profile.max_degree)
            values["bench.trace_overhead_s"] = walls[workload] - e2e["wall_s"]
            units = layers.metric_units(profile.max_degree)
            details["accounting"] = notes
            details["traced_wall_s"] = walls
        else:
            values, units = e2e, E2E_UNITS
        failed = [inv for inv in runner.invocations if inv.failures]
        details["failures"] = [{"invocation": inv.key, "failures": inv.failures} for inv in failed]
        details["loadavg_after"] = os.getloadavg()
        result = {
            "correct": not failed,
            "attempted": len(runner.invocations),
            "failed": len(failed),
            "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
        }
        return details, result
    finally:
        runner.close()


def write_reference(root: str, profile_name: str) -> None:
    """Run every invocation once and record its outcome as the reference."""
    profile = harness.PROFILES[profile_name]
    runner = harness.Runner(root, profile, reference=None)
    try:
        entries = {}
        for name in harness.WORKLOADS:
            for inv in runner.workload(name):
                if inv.doc is None:
                    raise harness.NotMeasurable(f"{inv.key} printed no manifest (exit code {inv.exit_code})")
                entries[inv.key] = {"argv": runner.args[inv.key], "exit_code": inv.exit_code,
                                    "digest": inv.doc["manifest"]["digest"]}
                if inv.key == "verify-serial":
                    entries[inv.key]["witnesses_sha256"] = harness.witnesses_sha256(inv.doc["report"])
    finally:
        runner.close()
    reference = {}
    if os.path.exists(harness.REFERENCE_PATH):
        with open(harness.REFERENCE_PATH) as fh:
            reference = json.load(fh)
    reference[profile_name] = entries
    with open(harness.REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=2, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="newmandiv benchmark")
    parser.add_argument("--workload", choices=sorted(harness.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", choices=sorted(harness.PROFILES), default="full",
                        help="workload sizes; 'tiny' is for the benchmark's own tests")
    parser.add_argument("--write-reference", action="store_true",
                        help="re-record reference.json for --profile instead of measuring")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "newmandiv", "cli.py")):
        print("error: no src/newmandiv here; run from the repository root", file=sys.stderr)
        return 2
    if args.write_reference:
        write_reference(root, args.profile)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    with open(harness.REFERENCE_PATH) as fh:
        reference = json.load(fh)[args.profile]
    try:
        details, result = measure(root, args.workload, args.seed, args.seconds, bool(args.trace),
                                  harness.PROFILES[args.profile], reference)
    except harness.NotMeasurable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
