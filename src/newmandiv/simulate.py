"""Coefficient-level simulation of a hypothetical nonnegative cofactor.

Two modes, both tracking the cofactor coefficients b_n that a factorization
R = (x^5 + a x^2 + 1) Q would force when the dividend coefficients c_n are
pinned to the all-ones pattern:

* all-ones: iterate b_n = 1 - a b_{n-2} - b_{n-5} from the fixed start
  values and report the first coefficient that certainly escapes [0, 1] —
  for every a bounded away from 0 this happens quickly, which is the
  quantitative heart of the matter;
* counterfactual: for small a, assemble the window around the balance
  index N where b_N could vanish *if* the sequence tracked its slow modes
  exactly, and propagate the deviation stream triggered by the dividend
  coefficient c_N dropping from 1 to 0.  The punchline is b_{N+8} < 0:
  even granting the vanishing, the pattern collapses eight steps later.

Both modes run in double precision.  A float error bound
e_n = a e_{n-2} + e_{n-5} + u (2 + a|b_{n-2}| + |b_{n-5}|) rides along with
the all-ones iteration (u = 2^-53, the unit roundoff of double precision),
and it is that mode's one verdict rule: b_n is a violation when it falls
below 0 by more than e_n (no b_n can certifiably exceed 1, see
run_all_ones), and a smaller overshoot, which accumulated rounding could
explain, is passed over.  The bound itself is computed in double
precision, rounded to nearest and not rounded up, so it is rigorous only up
to its own rounding: every term of e_n is nonnegative, so that rounding can
shrink e_n by a relative amount of order n u at most.

Neither mode writes anything.  An all-ones run with collect keeps b_n and
e_n as tuples of floats (it needs no numpy), and each result renders its
"n b c d err" trace with trace_text.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple, Union

from . import CapacityError

# numpy and the analytic layer are imported by the functions that use them,
# so that an all-ones run loads neither

__all__ = [
    "COUNTERFACTUAL_WINDOW",
    "SimConfig",
    "NegativeCoefficient",
    "CounterfactualNegative",
    "NoViolationUpTo",
    "SimOutcome",
    "AllOnesResult",
    "CounterfactualResult",
    "CrossCheckResult",
    "NoCandidateError",
    "run_all_ones",
    "counterfactual_run",
    "deviation_stream",
    "b8_consistency",
    "cross_check_closed_form",
]

#: half-width of the candidate window around the balance estimate
COUNTERFACTUAL_WINDOW = 30

#: forced-vanishing quality gate: the assembled window must really vanish
_FORCED_RESIDUAL_LIMIT = 0.05

#: the all-ones run lists (the first 32) indices with |b_n| at most this
_ZERO_THRESHOLD = 1e-6

#: largest max_n: a traced all-ones run keeps about 300 bytes per step, so
#: 10^6 steps peak near 300 MB; the first violation is still found at this
#: cap down to about a = 7e-5
_MAX_N = 10**6

#: the counterfactual leg reports b_{N+8} < 0 only below -_VIOLATION_TOLERANCE
#: and refuses to tell the sign of a smaller |b_{N+8}|; an absolute cut, so
#: it refuses every a up to about 1.6e-12
_VIOLATION_TOLERANCE = 1e-12


class NoCandidateError(ArithmeticError):
    """No index in the candidate window admits the near-vanishing profile."""


@dataclass(frozen=True)
class SimConfig:
    """Parameters shared by both simulation modes.

    a = 0 is accepted as a boundary diagnostic (x^5 + 1 genuinely divides
    0-1 polynomials, so the all-ones run cycles forever); the counterfactual
    mode needs 0 < a <= 0.005 on top of this.  The all-ones run's near-zero
    threshold is fixed at _ZERO_THRESHOLD (1e-6).
    """

    a: float
    max_n: int = 10000

    def __post_init__(self):
        if not 0.0 <= self.a < 1.0:
            raise ValueError(f"a must satisfy 0 <= a < 1, got {self.a}")
        if self.max_n < 6:
            raise ValueError("max_n must be at least 6")
        if self.max_n > _MAX_N:
            raise CapacityError(f"max_n must be at most {_MAX_N}, got {self.max_n}")


# --------------------------------------------------------------------------
# outcomes
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class NegativeCoefficient:
    n: int
    value: float

    kind = "negative-coefficient"


@dataclass(frozen=True)
class CounterfactualNegative:
    N: int
    b: Dict[int, float]  # absolute index -> value, N-6..N+8

    kind = "counterfactual-negative"


@dataclass(frozen=True)
class NoViolationUpTo:
    max_n: int

    kind = "no-violation"


SimOutcome = Union[NegativeCoefficient, CounterfactualNegative, NoViolationUpTo]


def _outcome_dict(outcome: SimOutcome) -> dict:
    d = {"kind": outcome.kind}
    if isinstance(outcome, NegativeCoefficient):
        d.update(n=outcome.n, value=outcome.value)
    elif isinstance(outcome, CounterfactualNegative):
        d.update(N=outcome.N, b={str(k): v for k, v in sorted(outcome.b.items())})
    else:
        d.update(max_n=outcome.max_n)
    return d


def _trace_text(rows: Iterable[Tuple[int, float, int, float, float]]) -> str:
    """The trace table: the header "n b c d err", then one line per row."""
    lines = ["n b c d err"] + [f"{n:>8d} {b:+.12e} {c:>2d} {d:+.12e} {err:.3e}" for n, b, c, d, err in rows]
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# all-ones mode
# --------------------------------------------------------------------------

# start values b_0..b_5 and the dividend pattern c_0..c_5 they encode
_INIT_C = (1, 0, 1, 0, 1, 1)


@dataclass(frozen=True)
class AllOnesResult:
    """An all-ones run; b and e, the series b_0..b_steps and its error
    bounds as tuples of floats, only when it ran with collect."""

    config: SimConfig
    outcome: SimOutcome
    steps: int                    # last index iterated
    near_zero: Tuple[int, ...]    # indices with |b_n| <= _ZERO_THRESHOLD (first 32)
    error_bound_at_stop: float
    max_error_bound: float
    b: Optional[Tuple[float, ...]] = None
    e: Optional[Tuple[float, ...]] = None

    def violated(self) -> bool:
        return isinstance(self.outcome, NegativeCoefficient)

    def trace_text(self) -> str:
        """The trace of a collected run: one row per index, d = 0 throughout."""
        if self.b is None:
            raise ValueError("the all-ones trace needs a run with collect=True")
        c = _INIT_C + (1,) * (len(self.b) - len(_INIT_C))
        return _trace_text(zip(range(len(self.b)), self.b, c, [0.0] * len(self.b), self.e))

    def to_dict(self) -> dict:
        return {
            "mode": "all-ones",
            "a": self.config.a,
            "max_n": self.config.max_n,
            "precision": 53,
            "outcome": _outcome_dict(self.outcome),
            "steps": self.steps,
            "near_zero": list(self.near_zero),
            "error_bound_at_stop": self.error_bound_at_stop,
            "max_error_bound": self.max_error_bound,
        }


def run_all_ones(config: SimConfig, collect: bool = False) -> AllOnesResult:
    """Iterate b_n = 1 - a b_{n-2} - b_{n-5} until it leaves [0, 1].

    With collect, the result keeps every b_n and e_n as tuples of floats
    (no numpy), from which AllOnesResult.trace_text renders the trace.

    Checks start at n = 6 (the six start values are in range for every
    0 <= a < 1 by inspection).  The first b_n with -b_n > e_n stops the run
    as a NegativeCoefficient; a smaller overshoot is passed over.  e_n is
    computed in double precision, round-to-nearest rather than rounded up,
    so the verdict is rigorous only up to the rounding of e_n itself.

    No run can certify b_n > 1.  While every b_k (k < n) lies in [0, 1],
    b_n = 1 - a b_{n-2} - b_{n-5} <= 1, so in exact arithmetic the first
    coefficient to leave [0, 1] is negative.  In this run a passed-over b_k
    is at least -e_k, so b_n - 1 is at most a e_{n-2} + e_{n-5} plus this
    step's rounding, which e_n adds up: only the rounding of e_n itself
    could put b_n - 1 above it.
    """
    a = config.a
    u = 2.0**-53
    bs = [1.0, 0.0, 1.0 - a, 0.0, 1.0 - a + a * a, 0.0]
    errs = [0.0, 0.0, u, 0.0, 2 * u, 0.0]

    series: List[float] = list(bs) if collect else []
    eseries: List[float] = list(errs) if collect else []
    near_zero: List[int] = []
    max_err = max(errs)

    window = bs[1:]   # b_{n-5}..b_{n-1} entering n = 6
    ewin = errs[1:]
    outcome: Optional[SimOutcome] = None
    n = 5
    while n < config.max_n:
        n += 1
        b2, b5 = window[3], window[0]
        e2, e5 = ewin[3], ewin[0]
        bn = 1 - a * b2 - b5
        en = a * e2 + e5 + u * (2 + a * abs(b2) + abs(b5))
        window = window[1:] + [bn]
        ewin = ewin[1:] + [en]
        max_err = max(max_err, en)
        if collect:
            series.append(bn)
            eseries.append(en)
        if abs(bn) <= _ZERO_THRESHOLD and len(near_zero) < 32:
            near_zero.append(n)
        if -bn > en:
            outcome = NegativeCoefficient(n, bn)
            break
    if outcome is None:
        outcome = NoViolationUpTo(config.max_n)

    return AllOnesResult(
        config=config,
        outcome=outcome,
        steps=n,
        near_zero=tuple(near_zero),
        error_bound_at_stop=ewin[-1],
        max_error_bound=max_err,
        b=tuple(series) if collect else None,
        e=tuple(eseries) if collect else None,
    )


# --------------------------------------------------------------------------
# the deviation stream
# --------------------------------------------------------------------------


def deviation_stream(a, k_max: int = 8) -> List:
    """d_0..d_{k_max} triggered by one dividend coefficient dropping 1 -> 0.

    d_0 = -1 and d_k = -a d_{k-2} - d_{k-5} (absent terms are 0): exact in
    whatever arithmetic a carries (Fraction in the property tests).  The
    first nine values are
    (-1, 0, a, 0, -a^2, 1, a^3, -2a, -a^4).
    """
    zero = a * 0
    d = [zero] * (k_max + 1)
    d[0] = zero - 1
    for k in range(1, k_max + 1):
        t2 = d[k - 2] if k >= 2 else zero
        t5 = d[k - 5] if k >= 5 else zero
        d[k] = -a * t2 - t5
    return d


# --------------------------------------------------------------------------
# counterfactual mode
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CounterfactualResult:
    config: SimConfig
    N: int
    estimate: float             # balance-point estimate the window centered on
    s: float
    b: Dict[int, float]         # N-6..N+8
    y_prime: Dict[int, float]   # forced slow-mode path, N-3..N+11
    phase_score: float          # |arg| mismatch of the natural vs forced mode at N
    amplitude_ratio: float      # |natural beta mode| / |forced|
    raw_residual_at_N: float    # what the unforced sequence leaves at the window pins
    outcome: SimOutcome

    @property
    def b8(self) -> float:
        return self.b[self.N + 8]

    @property
    def y4(self) -> float:
        return self.y_prime[self.N + 4]

    def trace_text(self) -> str:
        """The trace of the window N-6..N+8: c_N = 0, and d is the deviation
        stream from N on."""
        d = deviation_stream(self.config.a)
        return _trace_text(
            (self.N + k, self.b[self.N + k], int(k != 0), d[k] if k >= 0 else 0.0, 0.0)
            for k in range(-6, 9)
        )

    def to_dict(self) -> dict:
        return {
            "mode": "counterfactual",
            "a": self.config.a,
            "precision": 53,
            "N": self.N,
            "estimate": self.estimate,
            "s": self.s,
            "b": {str(k): v for k, v in sorted(self.b.items())},
            "y_prime": {str(k): v for k, v in sorted(self.y_prime.items())},
            "phase_score": self.phase_score,
            "amplitude_ratio": self.amplitude_ratio,
            "raw_residual_at_N": self.raw_residual_at_N,
            "outcome": _outcome_dict(self.outcome),
        }


def counterfactual_run(config: SimConfig) -> CounterfactualResult:
    """Assemble the vanishing window at the balance index and push it over.

    The sequence y_n = b_n - s (s = 1/(2+a)) decomposes over the three
    modes alpha, beta, gamma.  Near the balance index the beta mode is the
    only one with room to cancel the constant, so the hypothetical-vanishing
    path y' keeps the true alpha and gamma contributions and *solves* the
    beta amplitude B from the two pin conditions y'_{N-2} = y'_{N+1} = -s
    (equivalently b'_{N-5} = b'_{N-2} = 0); the pins force y'_{N+3} =
    s (1 + a) exactly, i.e. b'_N = 0.  Among window candidates the integer
    N is the one whose solved B best aligns in phase with the natural beta
    mode (ties broken toward the window center).  The deviation stream of
    c_N: 1 -> 0 is then added, and b'_{N+8} = 2 a y'_{N+4} + O(a^2) < 0
    closes the window.

    The construction is exact by design; raw_residual_at_N records how far
    the *unforced* closed form sits from the pins at the chosen N — it is
    order one, which is precisely why the hypothetical path has to be
    solved rather than sampled.

    A b_{N+8} within _VIOLATION_TOLERANCE of 0 has no sign the run can
    tell: it raises ArithmeticError, naming the value and the tolerance.
    """
    a = config.a
    if not 0.0 < a <= 0.005:
        raise ValueError(
            f"counterfactual mode runs in the small-coefficient regime 0 < a <= 0.005, got {a}"
        )
    from .analytic import _residues, estimate_N, find_roots

    est = estimate_N(a)
    center = max(est, 10000.0 + COUNTERFACTUAL_WINDOW)
    lo = max(10000, int(math.ceil(center - COUNTERFACTUAL_WINDOW)))
    hi = int(math.floor(center + COUNTERFACTUAL_WINDOW))
    if hi < lo:
        raise NoCandidateError(f"empty candidate window [{lo}, {hi}]")

    roots = find_roots(a)
    res = _residues(roots)
    alpha, beta, gamma = roots.alpha, roots.beta, roots.gamma
    ca, cb, cg = res.c_alpha, res.c_beta, res.c_gamma
    s = 1.0 / (2.0 + a)
    b3 = beta**3

    best = None
    for n in range(lo, hi + 1):
        A = ca * alpha ** (n - 2)
        C = 2 * cg * gamma ** (n - 2)
        ReB = -(A + C.real + s)
        ImB = (ReB * b3.real + (A * alpha**3 + (C * gamma**3).real + s)) / b3.imag
        B = complex(ReB, ImB)
        direct = 2 * cb * beta ** (n - 2)
        score = abs(cmath.phase(direct / B)) + 1e-3 * abs(n - center)
        if best is None or score < best[0]:
            best = (score, n, B, direct)
    score, N, B, direct = best

    A = ca * alpha ** (N - 2)
    C = 2 * cg * gamma ** (N - 2)
    y_prime: Dict[int, float] = {}
    for m in range(-1, 14):
        y_prime[N - 2 + m] = float(A * alpha**m + (B * beta**m).real + (C * gamma**m).real)

    d = deviation_stream(a)
    b: Dict[int, float] = {}
    for k in range(-6, 9):
        dk = d[k] if k >= 0 else 0.0
        b[N + k] = y_prime[N + k + 3] + s + dk

    # what the unforced sequence leaves at the two pins
    y_nat = lambda m: float(
        ca * alpha**m + 2 * (cb * beta**m).real + 2 * (cg * gamma**m).real
    )
    raw_residual = abs(y_nat(N - 2) + s) + abs(y_nat(N + 1) + s)

    forced = max(abs(b[N - 5]), abs(b[N - 2]), abs(b[N]))
    if forced > _FORCED_RESIDUAL_LIMIT:
        raise NoCandidateError(
            f"assembled window fails to vanish (residual {forced:.3g} > {_FORCED_RESIDUAL_LIMIT})"
        )

    b8 = b[N + 8]
    if abs(b8) <= _VIOLATION_TOLERANCE:
        raise ArithmeticError(
            f"cannot tell the sign of b_{{N+8}} = {b8:.6g} at a = {a}: "
            f"|b_{{N+8}}| is within the tolerance {_VIOLATION_TOLERANCE:g}"
        )
    outcome: SimOutcome = (
        CounterfactualNegative(N, dict(b)) if b8 < 0 else NoViolationUpTo(N + 8)
    )

    return CounterfactualResult(
        config=config,
        N=N,
        estimate=est,
        s=s,
        b=b,
        y_prime=y_prime,
        phase_score=score,
        amplitude_ratio=float(abs(direct / B)),
        raw_residual_at_N=raw_residual,
        outcome=outcome,
    )


def b8_consistency(result: CounterfactualResult) -> dict:
    """The closing identity b_{N+8} ~ 2 a y'_{N+4}, with its O(a^2) budget."""
    a = result.config.a
    diff = abs(result.b8 - 2 * a * result.y4)
    return {
        "b8": result.b8,
        "two_a_y4": 2 * a * result.y4,
        "abs_diff": diff,
        "budget": a * a,
        "holds": diff <= a * a,
    }


# --------------------------------------------------------------------------
# closed form vs recurrence
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CrossCheckResult:
    a: float
    n_max: int
    tolerance: float
    max_normalized_deviation: float   # |Δ_n| / max(1, max_{k<=n} |y_k|), worst n
    bounded_range_end: int            # last n with max_{k<=n} |y_k| <= 1
    bounded_range_deviation: float    # plain max |Δ_n| over that prefix
    passed: bool


def cross_check_closed_form(a: float, n_max: int, tolerance: float = 1e-9) -> CrossCheckResult:
    """Drive y_n = -a y_{n-2} - y_{n-5} directly and compare to the mode sum.

    Deviation is normalized per index by the running sequence scale
    max(1, max_{k<=n} |y_k|).  While the sequence stays inside [-1, 1] —
    the only regime where y_n says anything about a cofactor coefficient
    b_n = y_{n+3} + s in [0, 1] — this is the plain absolute deviation,
    and bounded_range_deviation reports exactly that.  Past the point
    where the |beta|^n growth takes over, an absolute comparison is
    meaningless (the values reach 1e100 and beyond) and per-index relative
    comparison is dominated by chance near-cancellations of the alpha and
    beta modes, whose depth is not a property of either evaluation path;
    relative-to-scale is what remains checkable and it pins both paths to
    the same trajectory throughout.
    """
    import numpy as np

    from .analytic import y_closed_sequence

    closed = y_closed_sequence(a, n_max)
    s = 1.0 / (2.0 + a)
    y = np.empty(n_max + 1)
    y[0:5] = (-s, 1 - s, -s, 1 - s, -s)
    for n in range(5, n_max + 1):
        y[n] = -a * y[n - 2] - y[n - 5]
    scale = np.maximum.accumulate(np.abs(closed))
    dev = np.abs(y - closed) / np.maximum(1.0, scale)
    worst = float(np.max(dev))
    bounded = scale <= 1.0
    end = int(np.nonzero(bounded)[0][-1]) if bounded.any() else -1
    bounded_dev = float(np.max(np.abs(y - closed)[bounded])) if end >= 0 else 0.0
    return CrossCheckResult(
        a=a,
        n_max=n_max,
        tolerance=tolerance,
        max_normalized_deviation=worst,
        bounded_range_end=end,
        bounded_range_deviation=bounded_dev,
        passed=worst <= tolerance and bounded_dev <= tolerance,
    )
