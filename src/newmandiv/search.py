"""Brute-force check of the fair-factorization conjecture at small degree.

Every monic 0-1 polynomial R with R(0) = 1 is factored over its complex
roots: each conjugate-closed subset of roots gives a monic real candidate
factor P, with Q built from the complementary roots.  A split is *unfair*
when both factors have nonnegative coefficients but at least one of them
is not a 0-1 polynomial.  The conjecture says no unfair split exists; the
scanner confirms it exhaustively for all degrees up to 12 (and stays sound
up to 24, where the root-finder seeding is validated).

Splits are classified numerically, so there is a deliberate indeterminate
band around the thresholds; a mask with a split in it (or whose double
pass fails) is retried at roughly four times the working precision with a
hundredfold tighter tolerance, and only splits that survive that
escalation are reported.  The retry first splits the mask exactly into its
squarefree factors over Z, finds the simple roots of each factor, and
lists every root as often as its multiplicity: the masks that escalate are
the ones with repeated roots, on which root finding would otherwise
converge only linearly.
"""

from __future__ import annotations

import enum
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .analytic import aberth_roots
from .modpoly import CapacityError, IntPoly, squarefree_decomposition

__all__ = [
    "MAX_DEGREE",
    "DEFAULT_TOL",
    "Classification",
    "Newman01",
    "SplitCandidate",
    "NumericFailure",
    "enumerate_01",
    "split_survey",
    "classify",
    "DegreeSummary",
    "ScanReport",
    "scan",
]

MAX_DEGREE = 24
DEFAULT_TOL = 1e-8

#: escalation pass: ~4x the double-precision mantissa, tolerance / 100
_ESCALATION_PRECISION = 212
_ESCALATION_TOL_FACTOR = 100.0

#: |Im ρ| below this multiple of tol counts as a real root.  The double pass
#: needs the slack: there a double root on the axis splits into a
#: conjugate-looking pair with imaginary parts around sqrt(eps), well under
#: 1000 tol at the default tolerance.  The retry's roots are simple, so its
#: real roots sit far inside the band.
_REAL_AXIS_FACTOR = 1e3


class NumericFailure(ArithmeticError):
    """Root finding or factor reconstruction failed for a specific mask."""


class Classification(enum.Enum):
    FAIR = "fair"
    UNFAIR = "unfair"
    INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class Newman01:
    """A 0-1 polynomial as a bitmask: bit k is the coefficient of x^k."""

    degree: int
    bits: int

    def __post_init__(self):
        if not 1 <= self.degree <= MAX_DEGREE:
            raise CapacityError(f"degree must be in 1..{MAX_DEGREE}, got {self.degree}")
        if not self.bits & 1:
            raise ValueError("constant coefficient must be 1")
        if self.bits >> self.degree != 1:
            raise ValueError("leading coefficient must be 1 and match the degree")

    def coeffs(self) -> np.ndarray:
        """Ascending coefficient vector of 0.0/1.0 values."""
        return np.array([(self.bits >> k) & 1 for k in range(self.degree + 1)], dtype=float)

    def reciprocal(self) -> "Newman01":
        """x^deg R(1/x): the bitmask reversed; roots map to their inverses."""
        rev = 0
        for k in range(self.degree + 1):
            if (self.bits >> k) & 1:
                rev |= 1 << (self.degree - k)
        return Newman01(self.degree, rev)

    def __str__(self) -> str:
        terms = []
        for k in range(self.degree + 1):
            if (self.bits >> k) & 1:
                terms.append("1" if k == 0 else ("x" if k == 1 else f"x^{k}"))
        return "+".join(terms)


def enumerate_01(degree: int) -> Iterator[Newman01]:
    """All 2^(degree-1) masks of exact degree `degree` with constant term 1."""
    if not 1 <= degree <= MAX_DEGREE:
        raise CapacityError(f"degree must be in 1..{MAX_DEGREE}, got {degree}")
    top = 1 << degree
    for inner in range(1 << (degree - 1)):
        yield Newman01(degree, 1 | (inner << 1) | top)


@dataclass(frozen=True)
class SplitCandidate:
    """One conjugate-closed root split of a mask, with its verdict.

    subset holds indices into the mask's root array (closed under
    conjugation); the coefficient vectors are ascending and monic.
    """

    subset: Tuple[int, ...]
    p_coeffs: Tuple[float, ...]
    q_coeffs: Tuple[float, ...]
    classification: Classification
    min_coefficient: float   # most negative coefficient over both factors
    deviation_01: float      # largest distance of any coefficient from {0,1}


def _classify_coeffs(p: Sequence[float], q: Sequence[float], tol: float) -> Tuple[Classification, float, float]:
    both = list(p) + list(q)
    m = min(both)
    dev = max(min(abs(c), abs(c - 1)) for c in both)
    if m < -_ESCALATION_TOL_FACTOR * tol:
        # a decisively negative coefficient: this split is fair by default
        return Classification.FAIR, m, dev
    if m < -tol:
        return Classification.INDETERMINATE, m, dev
    # nonnegative within tolerance; fair iff both factors are 0-1
    if dev <= tol:
        return Classification.FAIR, m, dev
    if dev > _ESCALATION_TOL_FACTOR * tol:
        return Classification.UNFAIR, m, dev
    return Classification.INDETERMINATE, m, dev


# --------------------------------------------------------------------------
# roots and conjugate-closed units
# --------------------------------------------------------------------------


def _roots_double(r: Newman01) -> np.ndarray:
    # seeds on a slightly eccentric circle: 0-1 roots live near |z| = 1 and
    # the offset keeps the start away from real-axis symmetry traps
    d = r.degree
    ks = np.arange(d)
    seeds = 1.2 * np.exp(2j * np.pi * (ks + 0.37) / d)
    try:
        return aberth_roots(r.coeffs(), seeds)
    except (ArithmeticError, ValueError) as exc:
        raise NumericFailure(f"root finding failed for {r}") from exc


def _roots_mp(coeffs: Sequence[int]) -> List:
    """Roots of a squarefree integer polynomial (ascending coefficients) by
    Aberth iteration in the ambient mpmath precision.

    Every root is simple, so convergence is cubic once the approximations
    separate; the iteration stops when no approximation moved by more than
    2^(-prec/2), by which point the next error is far below 2^(-prec).
    """
    import mpmath

    d = len(coeffs) - 1
    if d == 1:
        return [mpmath.mpf(-coeffs[0]) / coeffs[1]]
    cs = [mpmath.mpf(c) for c in coeffs]
    dcs = [k * cs[k] for k in range(1, d + 1)]

    def horner(cs, x):
        acc = mpmath.mpf(0)
        for c in reversed(cs):
            acc = acc * x + c
        return acc

    two_pi = 2 * mpmath.pi
    z = [
        mpmath.mpf("1.2") * mpmath.exp(mpmath.mpc(0, two_pi * (k + mpmath.mpf("0.37")) / d))
        for k in range(d)
    ]
    stop = mpmath.mpf(2) ** -(mpmath.mp.prec // 2)
    for _ in range(400):
        max_step = mpmath.mpf(0)
        for i in range(d):
            fz = horner(cs, z[i])
            if fz == 0:
                continue
            fpz = horner(dcs, z[i])
            if fpz == 0:
                z[i] += stop  # nudge off an exact critical point
                continue
            newton = fz / fpz
            rep = mpmath.mpf(0)
            for j in range(d):
                if j != i:
                    rep += 1 / (z[i] - z[j])
            w = newton / (1 - newton * rep)
            z[i] -= w
            step = abs(w)
            if step > max_step:
                max_step = step
        if max_step < stop:
            break
    else:
        raise NumericFailure(f"root finding failed for {list(coeffs)} at high precision")
    return z


def _roots_squarefree(r: Newman01) -> List:
    """Roots of r with multiplicity, from its exact squarefree factors.

    Each factor's roots are simple, so _roots_mp converges fast on it; a
    root of multiplicity k is then listed k times, equal copies side by side.
    """
    _, factors = squarefree_decomposition(IntPoly([(r.bits >> k) & 1 for k in range(r.degree + 1)]))
    roots = []
    for factor, mult in factors:
        for z in _roots_mp(factor.coeffs):
            roots.extend([z] * mult)
    return roots


def _units(roots, tol: float, to_float: Callable[[object], float]):
    """Group roots into real singletons and conjugate pairs.

    Returns a list of (index-tuple, factor-coefficient-list) units, where
    the factor is (x - rho) for a real root and (x - u)(x - l) for a pair,
    kept in complex form (imaginary residue is checked after expansion).
    """
    axis = _REAL_AXIS_FACTOR * tol
    reals: List[Tuple[int, object]] = []
    uppers: List[Tuple[int, object]] = []
    lowers: List[Tuple[int, object]] = []
    for i, z in enumerate(roots):
        im = to_float(z.imag)
        if abs(im) <= axis:
            reals.append((i, z))
        elif im > 0:
            uppers.append((i, z))
        else:
            lowers.append((i, z))
    if len(uppers) != len(lowers):
        raise NumericFailure("conjugate pairing failed: unbalanced half-planes")
    units = [((i,), [-z.real, 1.0]) for i, z in reals]
    remaining = list(lowers)
    for i, u in uppers:
        best_j, best_d = -1, None
        for j, (_, l) in enumerate(remaining):
            dist = to_float(abs(u.conjugate() - l))
            if best_d is None or dist < best_d:
                best_j, best_d = j, dist
        size = 1.0 + to_float(abs(u))
        if best_d > axis * size:
            raise NumericFailure("conjugate pairing failed: no matching lower root")
        li, l = remaining.pop(best_j)
        # (x - u)(x - l), ascending
        units.append(((i, li), [u * l, -(u + l), 1.0]))
    return units


def _mul(poly, factor, zero):
    out = [zero] * (len(poly) + len(factor) - 1)
    for i, c in enumerate(poly):
        for j, f in enumerate(factor):
            out[i + j] = out[i + j] + c * f
    return out


def _products(units, zero) -> List[List]:
    """Product of the factors of every unit subset, indexed by unit bitmask.

    products[mask] is products[mask without its top unit] times that unit's
    factor, so each subset costs one multiplication and performs the same
    float operations, in the same order, as multiplying its units ascending.
    """
    products = [[zero + 1]]
    for _, factor in units:
        products += [_mul(poly, factor, zero) for poly in products]
    return products


def _real_part(poly, im_limit: float, to_float: Callable[[object], float]):
    """Real coefficients of an expanded product and its worst imaginary residue.

    Residue beyond im_limit means the conjugate pairing itself went wrong,
    not just root noise, and is raised as a failure.
    """
    worst_im = max(abs(to_float(c.imag)) for c in poly)
    if worst_im > im_limit:
        raise NumericFailure(f"imaginary residue {worst_im:.3g} above {im_limit:.3g}")
    return [to_float(c.real) for c in poly], worst_im


def split_survey(r: Newman01, tol: float = DEFAULT_TOL, precision: int = 53) -> List[SplitCandidate]:
    """Classify every nontrivial conjugate-closed split of r.

    Subset/complement pairs are visited once (the lexicographically smaller
    unit mask is kept).  precision 53 uses the double-precision simultaneous
    iteration; higher values switch to an mpmath root pass at that mantissa.
    """
    if not 1e-10 <= tol <= 1e-4:
        raise ValueError(f"tol must be in [1e-10, 1e-4], got {tol}")
    if precision == 53:
        roots = _roots_double(r)
        units = _units(roots, tol, float)
        zero = 0.0
    else:
        import mpmath

        with mpmath.workprec(precision):
            roots = _roots_squarefree(r)
            units = _units(roots, tol, float)
            zero = mpmath.mpf(0)
    m = len(units)
    out: List[SplitCandidate] = []
    if m < 2:
        return out
    im_limit = _REAL_AXIS_FACTOR * tol
    with mpmath.workprec(precision) if precision != 53 else nullcontext():
        # the smaller mask of a subset/complement pair is the one without the
        # top unit, so only subsets of the lower units are tabulated; each
        # complement is its lower part times the top unit's factor
        top = units[-1][1]
        products = _products(units[:-1], zero)
        rest = len(products) - 1
        for picked in range(1, len(products)):
            p, p_im = _real_part(products[picked], im_limit, float)
            q, q_im = _real_part(_mul(products[rest ^ picked], top, zero), im_limit, float)
            cls, mc, dev = _classify_coeffs(p, q, tol)
            if max(p_im, q_im) > tol:
                # coefficients carry more imaginary noise than the verdict
                # thresholds tolerate: defer to the escalation pass
                cls = Classification.INDETERMINATE
            subset = tuple(sorted(i for k, (idx, _) in enumerate(units) if (picked >> k) & 1 for i in idx))
            out.append(
                SplitCandidate(
                    subset=subset,
                    p_coeffs=tuple(p),
                    q_coeffs=tuple(q),
                    classification=cls,
                    min_coefficient=mc,
                    deviation_01=dev,
                )
            )
    return out


def classify(r: Newman01, tol: float = DEFAULT_TOL) -> List[SplitCandidate]:
    """Non-fair splits of r at the given tolerance (empty = conjecture holds)."""
    return [c for c in split_survey(r, tol) if c.classification is not Classification.FAIR]


# --------------------------------------------------------------------------
# exhaustive scan
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class DegreeSummary:
    degree: int
    polynomials: int
    splits: int
    fair: int
    unfair: int
    indeterminate: int          # first pass, before escalation
    escalated: int              # masks retried at high precision
    residual_unfair: int        # after escalation
    residual_indeterminate: int


@dataclass(frozen=True)
class ScanReport:
    max_degree: int
    tol: float
    summaries: Tuple[DegreeSummary, ...]
    offenders: Tuple[Tuple[Newman01, SplitCandidate], ...]
    duration_seconds: float

    @property
    def total_unfair(self) -> int:
        return sum(s.residual_unfair for s in self.summaries)

    @property
    def total_residual_indeterminate(self) -> int:
        return sum(s.residual_indeterminate for s in self.summaries)

    def conjecture_holds(self) -> bool:
        return self.total_unfair == 0 and self.total_residual_indeterminate == 0

    def to_dict(self) -> dict:
        return {
            "max_degree": self.max_degree,
            "tol": self.tol,
            "degrees": [
                {
                    "degree": s.degree,
                    "polynomials": s.polynomials,
                    "splits": s.splits,
                    "fair": s.fair,
                    "unfair": s.unfair,
                    "indeterminate": s.indeterminate,
                    "escalated": s.escalated,
                    "residual_unfair": s.residual_unfair,
                    "residual_indeterminate": s.residual_indeterminate,
                }
                for s in self.summaries
            ],
            "offenders": [
                {
                    "degree": r.degree,
                    "bits": r.bits,
                    "polynomial": str(r),
                    "subset": list(c.subset),
                    "classification": c.classification.value,
                    "min_coefficient": c.min_coefficient,
                    "deviation_01": c.deviation_01,
                }
                for r, c in self.offenders
            ],
            "conjecture_holds": self.conjecture_holds(),
        }


def scan(
    max_degree: int,
    tol: float = DEFAULT_TOL,
    progress: Optional[Callable[[DegreeSummary], None]] = None,
) -> ScanReport:
    """Run classify over every mask of degree 1..max_degree.

    First-pass indeterminates (and any first-pass unfair verdict, which at
    these degrees only ever comes from a root-finder artifact) are retried
    at _ESCALATION_PRECISION bits with tol/100; whatever survives is listed
    as an offender.
    """
    if not 1 <= max_degree <= MAX_DEGREE:
        raise CapacityError(f"max_degree must be in 1..{MAX_DEGREE}, got {max_degree}")
    t0 = time.monotonic()
    summaries: List[DegreeSummary] = []
    offenders: List[Tuple[Newman01, SplitCandidate]] = []
    for degree in range(1, max_degree + 1):
        n_poly = n_split = n_fair = n_unfair = n_ind = n_esc = n_r_unf = n_r_ind = 0
        for r in enumerate_01(degree):
            n_poly += 1
            try:
                survey = split_survey(r, tol)
            except NumericFailure:
                # double-precision pass lost the mask (typically repeated
                # roots blowing the imaginary-residue budget): escalate it
                survey, flagged = [], True
            else:
                flagged = False
            n_split += len(survey)
            for c in survey:
                if c.classification is Classification.FAIR:
                    n_fair += 1
                elif c.classification is Classification.UNFAIR:
                    n_unfair += 1
                    flagged = True
                else:
                    n_ind += 1
                    flagged = True
            if flagged:
                n_esc += 1
                retry = split_survey(r, tol / _ESCALATION_TOL_FACTOR, precision=_ESCALATION_PRECISION)
                if not survey:
                    # first pass produced nothing; the retry is the record
                    n_split += len(retry)
                    n_fair += sum(1 for c in retry if c.classification is Classification.FAIR)
                for c in retry:
                    if c.classification is Classification.UNFAIR:
                        n_r_unf += 1
                        offenders.append((r, c))
                    elif c.classification is Classification.INDETERMINATE:
                        n_r_ind += 1
                        offenders.append((r, c))
        summary = DegreeSummary(
            degree=degree,
            polynomials=n_poly,
            splits=n_split,
            fair=n_fair,
            unfair=n_unfair,
            indeterminate=n_ind,
            escalated=n_esc,
            residual_unfair=n_r_unf,
            residual_indeterminate=n_r_ind,
        )
        summaries.append(summary)
        if progress is not None:
            progress(summary)
    return ScanReport(
        max_degree=max_degree,
        tol=tol,
        summaries=tuple(summaries),
        offenders=tuple(offenders),
        duration_seconds=time.monotonic() - t0,
    )
