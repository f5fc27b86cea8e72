"""Command-line front end.

Every subcommand emits one self-describing JSON document on stdout — a run
manifest (subcommand, effective parameters with defaults materialized, tool
version, duration, result digest) plus the module's structured report — and
a short human-readable summary on stderr.  verify-resultants and search
write one stderr line per report row before it: per prime pass, per degree.

Exit codes: 0 = the expected mathematical outcome was confirmed, 1 = it was
not (the report carries the data), 2 = usage or environment error.

The document is canonical JSON (sorted keys, fixed indentation), so two
runs with identical flags are byte-identical except for wall-clock duration
fields; the digest is a SHA-256 over the document with those fields removed
and therefore stable across reruns.
"""

from __future__ import annotations

import argparse
import cmath
import hashlib
import importlib
import json
import os
import sys
import time
from dataclasses import asdict
from typing import Dict, List, Optional, Sequence

from . import __version__

__all__ = ["main"]

#: the layer module behind each subcommand -> the names its handler calls.
#: A name is bound as an attribute of this module on first use (PEP 562), so
#: ``import newmandiv.cli`` loads no numpy, and ``main`` loads only the
#: chosen subcommand's layer.
_LAYERS = {
    "analytic": (
        "check_estimates",
        "estimate_N",
        "find_roots",
        "vandermonde_inverse",
        "vandermonde_matrix",
    ),
    "search": ("scan",),
    "simulate": (
        "CounterfactualNegative",
        "NegativeCoefficient",
        "SimConfig",
        "counterfactual_run",
        "run_all_ones",
    ),
    "verifier": ("verify_range",),
}
_LAYER_OF = {name: layer for layer, names in _LAYERS.items() for name in names}


def __getattr__(name: str):
    layer = _LAYER_OF.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{layer}", __package__), name)
    globals()[name] = value
    return value


VANDERMONDE_THRESHOLD = 1e-10


def _usable_cpus() -> int:
    """The CPUs this process may run on, the default worker count: its
    affinity mask where the OS has one, since os.cpu_count() counts every
    CPU of the machine, also those a taskset or cpuset leaves out."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# --------------------------------------------------------------------------
# flag parsing helpers
# --------------------------------------------------------------------------


#: integers a --primes lo..hi range may span: _parse_primes tests each for
#: primality, well under a second for the 9,592 primes of 2..100001
_MAX_PRIME_SPAN = 10**5


def _parse_primes(text: str) -> List[int]:
    """Either an explicit list "2,3,5" or an inclusive range "2..17"

    (the range form keeps every prime it contains)."""
    text = text.strip()
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
        lo, hi = int(lo_s), int(hi_s)
        if hi < lo:
            raise ValueError(f"empty prime range {text!r}")
        # both before the primality loop, which tests every integer of the range
        if hi >= 2**31:
            raise ValueError(f"prime range {text!r} passes the cap: primes must be in [2, 2^31)")
        if hi - lo + 1 > _MAX_PRIME_SPAN:
            raise ValueError(f"prime range {text!r} spans more than {_MAX_PRIME_SPAN} integers")
        from .modpoly import _is_prime  # verify-resultants loads modpoly anyway

        return [p for p in range(max(lo, 2), hi + 1) if _is_prime(p)]
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _parse_grids(specs: Optional[Sequence[str]]) -> EstimateGrids:
    """Override battery grids with name=start:stop:step entries."""
    from .analytic import EstimateGrids

    valid = {"unit", "large", "small"}
    overrides: Dict[str, tuple] = {}
    for spec in specs or ():
        if "=" not in spec:
            raise ValueError(f"grid spec {spec!r} is not name=start:stop:step")
        name, _, body = spec.partition("=")
        if name not in valid:
            raise ValueError(f"unknown grid {name!r}; valid: {sorted(valid)}")
        parts = body.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid spec {spec!r} is not name=start:stop:step")
        overrides[name] = tuple(float(x) for x in parts)
    return EstimateGrids(**overrides)


def _parse_nodes(text: str) -> List[complex]:
    """Comma-separated complex literals in Python syntax (1, -0.5, 0.6+0.8j)."""
    nodes = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            z = complex(tok)
        except ValueError:
            raise ValueError(f"cannot parse node {tok!r} as a complex number") from None
        if not cmath.isfinite(z):
            raise ValueError(f"node {tok!r} is not finite")
        nodes.append(z)
    if not nodes:
        raise ValueError("empty node list")
    return nodes


# --------------------------------------------------------------------------
# document emission
# --------------------------------------------------------------------------


def _strip_durations(obj):
    if isinstance(obj, dict):
        return {k: _strip_durations(v) for k, v in obj.items() if k != "duration_seconds"}
    if isinstance(obj, list):
        return [_strip_durations(v) for v in obj]
    return obj


def _emit(subcommand: str, parameters: dict, report: dict, started: float, summary: List[str]) -> None:
    stable = {"subcommand": subcommand, "parameters": parameters, "report": _strip_durations(report)}
    digest = hashlib.sha256(
        json.dumps(stable, sort_keys=True, separators=(",", ":"), allow_nan=False).encode()
    ).hexdigest()
    doc = {
        "manifest": {
            "subcommand": subcommand,
            "parameters": parameters,
            "version": __version__,
            "duration_seconds": time.perf_counter() - started,
            "digest": digest,
        },
        "report": report,
    }
    sys.stdout.write(json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n")
    for line in summary:
        print(line, file=sys.stderr)


# --------------------------------------------------------------------------
# subcommands: each returns (parameters, report, summary, confirmed)
# --------------------------------------------------------------------------


def _pass_line(ps) -> str:
    """One verify_range PrimePass as a progress line."""
    first = "none" if ps.first_unproven_after is None else ps.first_unproven_after
    return (
        f"p={ps.prime}: proved {ps.proved}/{ps.computed} computed ({ps.skipped} skipped) "
        f"in {ps.duration_seconds:.1f}s; first unproven now {first}; proved up to {ps.proved_up_to_after}"
    )


def _degree_line(s, began: float) -> str:
    """One scan DegreeSummary as a progress line, with the seconds since began."""
    return (
        f"degree {s.degree}: {s.polynomials} polynomials, {s.splits} splits, {s.escalated} escalated, "
        f"{s.residual_unfair} unfair, {s.residual_indeterminate} residual indeterminate; "
        f"{time.perf_counter() - began:.1f}s"
    )


def _cmd_verify(args):
    primes = _parse_primes(args.primes)
    report = verify_range(args.max_n, primes=primes, jobs=args.jobs, checkpoint=args.checkpoint,
                          progress=lambda ps: print(_pass_line(ps), file=sys.stderr))
    params = {"max_n": args.max_n, "primes": primes, "checkpoint": args.checkpoint, "jobs": args.jobs}
    ok = report.all_proven()
    summary = ["all claims proven" if ok else f"UNPROVEN cases remain: {report.unproven()[:10]} ..."]
    return params, report.to_dict(), summary, ok


def _describe(outcome) -> str:
    if isinstance(outcome, NegativeCoefficient):
        return f"first violation: coefficient b_{outcome.n} = {outcome.value:.6g} < 0"
    if isinstance(outcome, CounterfactualNegative):
        return f"counterfactual window at N = {outcome.N}: b_{{N+8}} = {outcome.b[outcome.N + 8]:.6g} < 0"
    return f"no violation up to n = {outcome.max_n}"


def _cmd_simulate(args):
    if not 0.0 < args.a < 1.0:
        raise ValueError(f"a must satisfy 0 < a < 1, got {args.a}")
    config = SimConfig(a=args.a, max_n=args.max_n)
    if args.mode == "all-ones":
        result = run_all_ones(config, collect=args.trace is not None)
        violated = result.violated()
    else:
        result = counterfactual_run(config)
        violated = isinstance(result.outcome, CounterfactualNegative)
    # opened only now, so that a refused run leaves any file at the path alone
    if args.trace is not None:
        with open(args.trace, "w") as fh:
            fh.write(result.trace_text())
    params = {"a": args.a, "max_n": args.max_n, "mode": args.mode, "trace": args.trace}
    return params, result.to_dict(), [_describe(result.outcome)], violated


def _cmd_roots(args):
    roots = find_roots(args.t)
    report = {
        "t": args.t,
        "alpha": roots.alpha,
        "beta": [roots.beta.real, roots.beta.imag],
        "gamma": [roots.gamma.real, roots.gamma.imag],
        "abs_beta": abs(roots.beta),
        "abs_gamma": abs(roots.gamma),
        "residual": roots.residual,
    }
    summary = [
        f"alpha = {roots.alpha:.7f}",
        f"beta  = {roots.beta.real:.7f} + {roots.beta.imag:.7f}i  (|beta| = {abs(roots.beta):.5f})",
        f"gamma = {roots.gamma.real:.7f} + {roots.gamma.imag:.7f}i  (|gamma| = {abs(roots.gamma):.5f})",
    ]
    return {"t": args.t}, report, summary, True


def _cmd_estimates(args):
    grids = _parse_grids(args.grid)
    checks = check_estimates(grids)
    report = {
        "grids": asdict(grids),
        "checks": [asdict(c) for c in checks],
        "all_passed": all(c.passed for c in checks),
    }
    summary = [
        f"({c.check_id}) {c.name}: worst margin {c.worst_margin:.3e} "
        f"{'ok' if c.passed else 'FAILED'}"
        for c in checks
    ]
    params = {"grid": sorted(args.grid) if args.grid else []}
    return params, report, summary, report["all_passed"]


def _cmd_vandermonde(args):
    import numpy as np  # loaded with analytic

    nodes = _parse_nodes(args.nodes)
    v = vandermonde_matrix(nodes)
    m = vandermonde_inverse(nodes)
    eye = np.eye(len(nodes))
    err = max(
        float(np.max(np.abs(v @ m - eye))),
        float(np.max(np.abs(m @ v - eye))),
    )
    passed = err <= VANDERMONDE_THRESHOLD
    report = {
        "nodes": [[z.real, z.imag] for z in nodes],
        "max_error": err,
        "threshold": VANDERMONDE_THRESHOLD,
        "passed": passed,
    }
    return {"nodes": args.nodes}, report, [f"|V Vinv - I| = {err:.3e} ({'ok' if passed else 'FAILED'})"], passed


def _cmd_search(args):
    began = time.perf_counter()
    rep = scan(args.max_degree, progress=lambda s: print(_degree_line(s, began), file=sys.stderr), jobs=args.jobs)
    summary = [
        f"degrees 1..{args.max_degree}: {sum(s.polynomials for s in rep.summaries)} polynomials, "
        f"{sum(s.splits for s in rep.summaries)} splits",
        f"{rep.total_unfair} unfair, {rep.total_residual_indeterminate} residual indeterminate",
    ]
    if rep.retry_failures:
        summary.append(f"{len(rep.retry_failures)} of them from retries that failed: "
                       + ", ".join(str(r) for r, _ in rep.retry_failures))
    # jobs is left out of the parameters, and so of the digest: the report
    # does not depend on it
    return {"max_degree": args.max_degree}, rep.to_dict(), summary, rep.conjecture_holds()


def _cmd_estimate_n(args):
    value = estimate_N(args.a)
    return {"a": args.a}, {"a": args.a, "estimate": value}, [f"N({args.a}) ~ {value:.1f}"], True


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="newmandiv",
        description="Verify the components of the x^5 + a x^2 + 1 non-divisibility proof.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("verify-resultants", help="prove B_{n-2}, B_{n-5} share no root for 11 <= n <= max-n")
    p.add_argument("--max-n", type=int, required=True, dest="max_n")
    p.add_argument("--primes", default="2..17", help='comma list "2,3,5" or range "2..17"')
    p.add_argument("--checkpoint", default=None, help="resume/persist pass results at this path")
    p.add_argument("--jobs", type=int, default=_usable_cpus())
    p.set_defaults(func=_cmd_verify, layer="verifier")

    p = sub.add_parser("simulate", help="drive the forced-cofactor recurrence for a given a")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--max-n", type=int, default=10000, dest="max_n")
    p.add_argument("--mode", choices=["all-ones", "counterfactual"], default="all-ones")
    p.add_argument("--trace", default=None, help="write an 'n b c d err' table to this path")
    p.set_defaults(func=_cmd_simulate, layer="simulate")

    p = sub.add_parser("roots", help="roots of x^5 + t x^3 + 1 with sector labels")
    p.add_argument("--t", type=float, required=True)
    p.set_defaults(func=_cmd_roots, layer="analytic")

    p = sub.add_parser("estimates", help="re-check the quantitative root/residue estimates on grids")
    p.add_argument("--grid", action="append", help="override: name=start:stop:step (unit|large|small)")
    p.set_defaults(func=_cmd_estimates, layer="analytic")

    p = sub.add_parser("vandermonde-check", help="invert the node Vandermonde matrix and report the residual")
    p.add_argument("--nodes", required=True, help='comma-separated complex nodes, e.g. "1,-1" or "0.6+0.8j,0.6-0.8j"')
    p.set_defaults(func=_cmd_vandermonde, layer="analytic")

    p = sub.add_parser("search", help="exhaustive unfair-factorization scan up to a degree")
    p.add_argument("--max-degree", type=int, required=True, dest="max_degree")
    p.add_argument("--jobs", type=int, default=_usable_cpus(), help="worker processes (one pool from degree 8 on)")
    p.set_defaults(func=_cmd_search, layer="search")

    p = sub.add_parser("estimate-N", help="balance-index estimate for small a")
    p.add_argument("--a", type=float, required=True)
    p.set_defaults(func=_cmd_estimate_n, layer="analytic")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # one BLAS thread, set before the first numpy import: OpenBLAS otherwise
    # starts a worker per extra core when numpy loads, which spins about
    # 0.1 s of CPU before it sleeps. The only BLAS calls, v @ m and m @ v in
    # vandermonde-check, are at most 12x12, far below the size at which
    # OpenBLAS splits work across threads. A value the caller set is kept.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    # bind the layer's names before the clock starts, so that
    # duration_seconds times the work and not the imports (the counterfactual
    # leg still imports analytic, and with it numpy, inside its run); a name
    # already bound (wrapped or patched) is kept
    module = sys.modules[__name__]
    for name in _LAYERS[args.layer]:
        getattr(module, name)
    started = time.perf_counter()
    try:
        parameters, report, summary, confirmed = args.func(args)
        _emit(args.subcommand, parameters, report, started, summary)
        return 0 if confirmed else 1
    except (ValueError, ArithmeticError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
