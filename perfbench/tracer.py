"""Run newmandiv in-process with spans around the public calls into each layer.

    python3 perfbench/tracer.py --spans-dir DIR -- <newmandiv CLI arguments>
    python3 perfbench/tracer.py --spans-dir DIR --checks a,b,...,m [--grid name=start:stop:step ...]

The first form runs ``newmandiv.cli.main`` on the given arguments, so the
process prints the same manifest a plain CLI process prints. The second form
times ``check_estimates(only=[id])`` for each check id and the whole battery,
alternating, CHECK_ROUNDS times.

Only public functions are wrapped, each under the name the calling module
imported it as (``verifier.resultant_prs`` wraps the kernel as the verifier
sees it). Spans stay in memory and are written to ``DIR/spans-<pid>.jsonl``
when the process ends; forked pool workers write their own file from a
multiprocessing finalizer, so worker spans carry the worker's pid.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import multiprocessing.util
import os
import sys
import time

#: rounds of the estimate checks; the battery runs once more, after the last
CHECK_ROUNDS = 5


class Recorder:
    """Per-process span buffer; a forked child starts an empty buffer of its own."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.pid = os.getpid()
        self.spans: list = []
        self.stack: list = []
        self.next_id = 0

    def _adopt_fork(self) -> None:
        pid = os.getpid()
        if pid != self.pid:
            self.pid = pid
            self.spans = []
            self.stack = []
            # pool workers leave through multiprocessing's exit hook, not atexit
            multiprocessing.util.Finalize(None, self.flush, exitpriority=100)

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        self._adopt_fork()
        span = {"name": name, "pid": self.pid, "id": self.next_id,
                "parent": self.stack[-1] if self.stack else None, **attrs}
        self.next_id += 1
        self.stack.append(span["id"])
        span["t0"] = time.perf_counter()
        try:
            yield span
        except BaseException as exc:
            span["error"] = type(exc).__name__
            raise
        finally:
            span["t1"] = time.perf_counter()
            self.stack.pop()
            self.spans.append(span)

    def event(self, name: str, **attrs) -> None:
        self._adopt_fork()
        now = time.perf_counter()
        self.spans.append({"name": name, "pid": self.pid, "id": None, "parent": None,
                           "t0": now, "t1": now, **attrs})

    def wrap(self, module, attr: str, name: str, describe=None) -> None:
        """Replace module.attr by a wrapper that records one span per call.

        describe(*args, **kwargs) returns extra span attributes.
        """
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, **(describe(*args, **kwargs) if describe else {})):
                return fn(*args, **kwargs)

        setattr(module, attr, traced)

    def flush(self) -> None:
        path = os.path.join(self.out_dir, f"spans-{self.pid}.jsonl")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _kernel_attrs(f, g):
    return {"prime": f.modulus.value, "degree": len(f.coeffs) - 1}


def _survey_attrs(r, tol=None, precision=53):
    return {"precision": precision, "degree": r.degree}


def install(rec: Recorder):
    """Wrap every layer boundary the benchmark reports on; returns the cli module."""
    from newmandiv import analytic, cli, search, verifier

    # scan's progress hook timestamps each finished degree
    scan = cli.scan

    def scan_with_progress(max_degree, *args, progress=None, **kwargs):
        def mark(summary):
            rec.event("search.degree", degree=summary.degree)
            if progress is not None:
                progress(summary)

        return scan(max_degree, *args, progress=mark, **kwargs)

    cli.scan = functools.wraps(scan)(scan_with_progress)

    rec.wrap(cli, "verify_range", "verifier.verify_range")
    rec.wrap(cli, "scan", "search.scan")
    rec.wrap(cli, "check_estimates", "analytic.check_estimates")
    rec.wrap(cli, "run_all_ones", "simulate.run_all_ones")
    rec.wrap(cli, "counterfactual_run", "simulate.counterfactual_run")
    rec.wrap(verifier, "resultant_prs", "modpoly.resultant_prs", _kernel_attrs)
    rec.wrap(verifier, "check_base_case", "verifier.check_base_case")
    rec.wrap(search, "split_survey", "search.split_survey", _survey_attrs)
    rec.wrap(search, "aberth_roots", "search.aberth_roots")
    rec.wrap(analytic, "find_roots", "analytic.find_roots")
    return cli


def _grids(specs):
    from newmandiv.analytic import EstimateGrids

    fields = {}
    for spec in specs or ():
        name, _, body = spec.partition("=")
        fields[name] = tuple(float(x) for x in body.split(":"))
    return EstimateGrids(**fields)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans-dir", required=True)
    parser.add_argument("--checks", help="comma list of estimate check ids to time one by one")
    parser.add_argument("--grid", action="append", help="estimate grid override, as for the CLI")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)

    rec = Recorder(args.spans_dir)
    cli = install(rec)
    try:
        if args.checks:
            from newmandiv import analytic

            grids = _grids(args.grid)
            # whole battery and single checks alternate, so that a drift in machine
            # speed falls on both when their medians are compared
            for _ in range(CHECK_ROUNDS):
                with rec.span("analytic.battery"):
                    analytic.check_estimates(grids)
                for cid in args.checks.split(","):
                    with rec.span("analytic.check", check=cid):
                        analytic.check_estimates(grids, only=[cid])
            with rec.span("analytic.battery"):
                analytic.check_estimates(grids)
            return 0
        cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
        return cli.main(cli_args)
    finally:
        rec.flush()


if __name__ == "__main__":
    sys.exit(main())
