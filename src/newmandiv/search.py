"""Brute-force check of the fair-factorization conjecture at small degree.

Every monic 0-1 polynomial R with R(0) = 1 is factored over its complex
roots: each conjugate-closed subset of roots gives a monic real candidate
factor P, with Q built from the complementary roots.  A split is *unfair*
when both factors have nonnegative coefficients but at least one of them
is not a 0-1 polynomial.  The conjecture says no unfair split exists; the
scanner confirms it exhaustively for all degrees up to 12 (and stays sound
up to 24, where the root-finder seeding is validated).

Splits are classified numerically at the fixed tolerance DEFAULT_TOL
(1e-8), so there is a deliberate indeterminate band around the
thresholds; a mask with a split in it (or whose double pass fails) is
retried at _RETRY_TOL (1e-10), a hundredfold tighter, and only splits
that survive that escalation are reported.  The masks that escalate are
the ones with repeated roots, which a solve of the whole mask finds only
to about the k-th root of the unit roundoff at a k-fold root.  The retry
therefore splits the mask exactly into its squarefree factors over Z,
solves each factor on its own in double precision, where every root is
simple and comes out accurate far inside the retry's tolerance, and
lists every root as often as its multiplicity.  Everything after the
roots is the double pass's.  A retry that fails outright counts as a
residual indeterminate, so the scan cannot then report that the
conjecture holds.

The double pass works in blocks of 64 consecutive masks of a degree and
on arrays.  One batched Aberth solve finds the roots of a block; its masks
are then grouped by unit shape, and every split of every mask of a group,
with its complement, is expanded at once on float64 real and imaginary
planes, in the float operations of the per-split product loop and in
their order, so every coefficient is that loop's to the last bit.  When
split_survey first asks for a mask of a block, the block is solved and
surveyed; the survey, not the roots, is the one thing kept, until the next
block.  The retry expands the splits of its one mask on the same planes.
Both passes then reach their verdicts, and their imaginary-residue
failures, by the same masked reductions, in _classify.

Each pass returns a mask's survey as a SplitSurvey, a read-only view of
the mask's row of those arrays.  Its verdicts are counted on the arrays,
for all rows of a _classify call at once, and its SplitCandidates are
built only when a caller reads the view: the scan counts every mask off
the tallies and builds candidates only for a retried mask that keeps an
unfair or indeterminate split.

The scan is one task per block, _scan_block, which surveys and retries
the block's masks and returns its counts, offenders and retry failures.
scan maps it over the blocks in order, in process or, with jobs > 1 from
degree 8 on (where a degree first has two blocks), on a pool of jobs
worker processes (no more than there are blocks), and sums the results in
block order: the report does not depend on jobs.
"""

from __future__ import annotations

import enum
import functools
import time
from collections.abc import Sequence
from dataclasses import asdict, dataclass
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple

import numpy as np

from .analytic import aberth_roots
from .modpoly import CapacityError, IntPoly, squarefree_decomposition

__all__ = [
    "MAX_DEGREE",
    "DEFAULT_TOL",
    "Classification",
    "Newman01",
    "SplitCandidate",
    "SplitSurvey",
    "NumericFailure",
    "enumerate_01",
    "split_survey",
    "DegreeSummary",
    "ScanReport",
    "scan",
]

MAX_DEGREE = 24
DEFAULT_TOL = 1e-8

#: the double pass classifies at DEFAULT_TOL, and the retry of a flagged
#: mask at _RETRY_TOL, a hundredfold tighter
_ESCALATION_TOL_FACTOR = 100.0
_RETRY_TOL = DEFAULT_TOL / _ESCALATION_TOL_FACTOR

#: |Im ρ| below this multiple of tol counts as a real root.  The double pass
#: needs the slack: there a double root on the axis splits into a
#: conjugate-looking pair with imaginary parts around sqrt(eps), well under
#: 1000 DEFAULT_TOL.  The retry's roots are simple, so its real roots sit
#: far inside the band.
_REAL_AXIS_FACTOR = 1e3

#: masks per batched Aberth solve and per block survey in the double pass.
#: A block of 64 keeps its root arrays well under 1 MB at every degree; the
#: 1024 solves of degree 11 take 0.053 s in blocks of 64, against 0.095 s
#: in blocks of 16 and 0.041 s in one block (medians of 5 on one core of a
#: 2-core Intel Xeon VM).  Up to degree 12 no block has more than two unit
#: shapes, so the block survey expands the 1024 masks of degree 11 in 36
#: _expand_group calls.
_BLOCK = 64


class NumericFailure(ArithmeticError):
    """Root finding or factor reconstruction failed for a specific mask."""


class Classification(enum.Enum):
    FAIR = "fair"
    UNFAIR = "unfair"
    INDETERMINATE = "indeterminate"


#: the block survey's verdict codes, in this order
_VERDICTS = (Classification.FAIR, Classification.UNFAIR, Classification.INDETERMINATE)


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


class SplitCandidate(NamedTuple):
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


# --------------------------------------------------------------------------
# roots and conjugate-closed units
# --------------------------------------------------------------------------


def _seeds(degree: int) -> np.ndarray:
    # seeds on a slightly eccentric circle: 0-1 roots live near |z| = 1 and
    # the offset keeps the start away from real-axis symmetry traps
    ks = np.arange(degree)
    return 1.2 * np.exp(2j * np.pi * (ks + 0.37) / degree)


def _block_row(r: Newman01) -> Tuple[int, int]:
    """r's block of _BLOCK consecutive masks of enumerate_01(r.degree), and its row there."""
    return divmod((r.bits >> 1) & ((1 << (r.degree - 1)) - 1), _BLOCK)


def _block_roots(degree: int, block: int) -> List[object]:
    """Roots of masks block*_BLOCK, block*_BLOCK + 1, ... of enumerate_01(degree),
    one entry per mask: its roots as Python complex numbers (their scalar
    arithmetic in _units gives numpy's results to the bit, in well under half
    the time), or the message of its NumericFailure.

    One batched solve finds them all; aberth_roots gives each row the bits
    of its own 1-D call, so a row is the mask's roots whatever block it is
    solved in.  If some mask of the block does not converge, each mask is
    solved alone, so that a failure lands on the masks that fail on their own.
    """
    inner = np.arange(block * _BLOCK, min((block + 1) * _BLOCK, 1 << (degree - 1)))
    bits = 1 | (inner << 1) | (1 << degree)
    coeffs = ((bits[:, None] >> np.arange(degree + 1)) & 1).astype(float)
    seeds = _seeds(degree)
    try:
        return aberth_roots(coeffs, np.broadcast_to(seeds, (len(bits), degree))).tolist()
    except ArithmeticError:
        pass
    rows: List[object] = []
    for b, c in zip(bits.tolist(), coeffs):
        try:
            rows.append(aberth_roots(c, seeds).tolist())
        except (ArithmeticError, ValueError):
            rows.append(f"root finding failed for {Newman01(degree, b)}")
    return rows


def _roots_squarefree(r: Newman01) -> List[complex]:
    """Roots of r with multiplicity, from its exact squarefree factors.

    Each factor's roots are simple: a linear factor's is -c0/c1, rounded
    once (a 0-1 mask's only linear factor is x + 1), and the others come
    from one aberth_roots solve from the circle seeds, whose roots converge
    fast and far inside the retry's tolerance.  A root of multiplicity k is
    then listed k times, equal copies side by side.
    """
    _, factors = squarefree_decomposition(IntPoly([(r.bits >> k) & 1 for k in range(r.degree + 1)]))
    roots: List[complex] = []
    for factor, mult in factors:
        cs = factor.coeffs
        if len(cs) == 2:
            zs = [complex(-cs[0] / cs[1])]
        else:
            try:
                zs = aberth_roots(np.array(cs, dtype=float), _seeds(len(cs) - 1)).tolist()
            except ArithmeticError as exc:
                raise NumericFailure(f"root finding failed for the factor {list(cs)} of {r}") from exc
        for z in zs:
            roots.extend([z] * mult)
    return roots


def _units(roots: List[complex], tol: float):
    """Group roots into real singletons and conjugate pairs.

    Returns a list of (index-tuple, factor-coefficient-list) units, where
    the factor is (x - rho) for a real root and (x - u)(x - l) for a pair,
    kept in complex form (imaginary residue is checked after expansion).
    """
    axis = _REAL_AXIS_FACTOR * tol
    reals: List[Tuple[int, complex]] = []
    uppers: List[Tuple[int, complex]] = []
    lowers: List[Tuple[int, complex]] = []
    for i, z in enumerate(roots):
        if abs(z.imag) <= axis:
            reals.append((i, z))
        elif z.imag > 0:
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
            dist = abs(u.conjugate() - l)
            if best_d is None or dist < best_d:
                best_j, best_d = j, dist
        size = 1.0 + abs(u)
        if best_d > axis * size:
            raise NumericFailure("conjugate pairing failed: no matching lower root")
        li, l = remaining.pop(best_j)
        # (x - u)(x - l), ascending
        units.append(((i, li), [u * l, -(u + l), 1.0]))
    return units


def _expand_planes(re: np.ndarray, im: np.ndarray, factors: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Planes re + i im, (masks x rows x width), times one unit factor per
    mask: row m of factors holds mask m's factor coefficients, ascending.

    The per-split product loop adds c_i f_j into out[i + j] for ascending i,
    then ascending j; taking j in descending order hands every column its
    terms in that same order, and each complex product is written out as
    (c f).re = cr fr - ci fi, (c f).im = cr fi + ci fr, as numpy computes it
    on scalars.  Where the loop multiplies reals, the zero imaginary parts
    here add only signed zeros, which leave every column sum (it starts at
    +0.0) as it is.
    """
    width = re.shape[2]
    out_re, out_im = np.zeros_like(re), np.zeros_like(im)
    for j in range(factors.shape[1] - 1, -1, -1):
        fr, fi = factors[:, j, None, None].real, factors[:, j, None, None].imag
        cr, ci = re[:, :, : width - j], im[:, :, : width - j]
        out_re[:, :, j:] += cr * fr - ci * fi
        out_im[:, :, j:] += cr * fi + ci * fr
    return out_re, out_im


def _expand_group(group) -> Tuple[np.ndarray, ...]:
    """Every split of masks whose units have equal factor lengths, expanded
    at once on float64 planes (masks x splits x width), as _classify takes them.

    The product table is built on planes: row b, padded with zeros to the
    width of the whole polynomial, is the product of the units in bitmask b,
    made as row b without its top unit times that unit's factor.  Each
    split's P and Q come out bit for bit as the loop that multiplies the
    split's units in ascending order makes them.
    """
    lengths = [len(factor) for _, factor in group[0]]
    m, n = len(group), 1 << (len(lengths) - 1)
    width = sum(lengths) - len(lengths) + 1
    factors = [np.array([units[k][1] for units in group], dtype=complex) for k in range(len(lengths))]
    # each unit's roots as a bitmask, so that a split's subset is one lookup
    unit_bits = np.array([[sum(1 << i for i in idx) for idx, _ in units] for units in group])
    re, im = np.zeros((m, n, width)), np.zeros((m, n, width))
    re[:, 0, 0] = 1.0
    root_bits = np.zeros((m, n), dtype=unit_bits.dtype)
    degree = np.zeros(n, dtype=int)
    for k in range(len(lengths) - 1):
        half = 1 << k
        with_k = _expand_planes(re[:, :half], im[:, :half], factors[k])
        re[:, half : 2 * half], im[:, half : 2 * half] = with_k
        root_bits[:, half : 2 * half] = root_bits[:, :half] | unit_bits[:, k, None]
        degree[half : 2 * half] = degree[:half] + lengths[k] - 1
    # split k of every array below is the split picked = k + 1, whose
    # complement (n - 1) ^ picked = n - 2 - k is row k of the reversed table
    q_re, q_im = _expand_planes(re[:, -2::-1], im[:, -2::-1], factors[-1])
    return re[:, 1:], im[:, 1:], q_re, q_im, degree[1:] + 1, root_bits[:, 1:]


def _classify(p_re, p_im, q_re, q_im, p_len, root_bits, tol: float):
    """The verdict rule, for every split of masks laid out on planes.

    p_re + i p_im and q_re + i q_im (masks x splits x width) hold each split's
    factors P and Q, ascending and zero past their lengths; p_len (splits)
    is the length of P, and root_bits (masks x splits) the split's roots as
    a bitmask.  Returns the arrays _candidates reads each mask's splits
    from, and per mask the message of its NumericFailure, or None.
    """
    im_limit = _REAL_AXIS_FACTOR * tol
    width = p_re.shape[2]
    q_len = width + 1 - p_len
    in_p = np.arange(width) < p_len[:, None]
    in_q = np.arange(width) < q_len[:, None]

    # imaginary residue beyond im_limit means the conjugate pairing itself
    # went wrong, not just root noise: the mask fails at its first such
    # split, P before Q
    p_worst = np.where(in_p, np.abs(p_im), 0.0).max(axis=2)
    q_worst = np.where(in_q, np.abs(q_im), 0.0).max(axis=2)
    over = (p_worst > im_limit) | (q_worst > im_limit)
    failures: List[Optional[str]] = [None] * len(p_re)
    for i in np.flatnonzero(over.any(axis=1)).tolist():
        k = int(np.argmax(over[i]))
        worst = p_worst[i, k] if p_worst[i, k] > im_limit else q_worst[i, k]
        failures[i] = f"imaginary residue {worst:.3g} above {im_limit:.3g}"

    low = np.minimum(np.where(in_p, p_re, np.inf).min(axis=2), np.where(in_q, q_re, np.inf).min(axis=2))
    dev = np.maximum(  # each coefficient's distance from {0, 1}, at its worst
        np.where(in_p, np.minimum(np.abs(p_re), np.abs(p_re - 1)), -np.inf).max(axis=2),
        np.where(in_q, np.minimum(np.abs(q_re), np.abs(q_re - 1)), -np.inf).max(axis=2),
    )
    # a decisively negative coefficient makes a split fair by default; one
    # nonnegative within tol is fair iff both factors are 0-1
    fair, unfair, indeterminate = range(len(_VERDICTS))
    loose = _ESCALATION_TOL_FACTOR * tol
    verdict = np.select(
        [low < -loose, low < -tol, dev <= tol, dev > loose],
        [fair, indeterminate, fair, unfair],
        indeterminate,
    )
    # imaginary noise above tol defers a split to the escalation pass
    verdict[np.maximum(p_worst, q_worst) > tol] = indeterminate
    return (p_re, q_re, p_len, q_len, verdict, low, dev, root_bits), failures


#: float64 elements per plane of one _expand_group call (128 KB): a block's
#: masks of one unit shape are surveyed in runs that fit, so every degree
#: works on a few such planes.  In scan(11) this raises peak RSS by 0.9 MB
#: over the per-mask survey; whole groups of up to 64 masks raised it by
#: 1.7 MB, at the same speed.
_PLANE_ELEMENTS = 1 << 14


@functools.lru_cache(maxsize=1)
def _block_survey(degree: int, block: int) -> List[object]:
    """The double pass of every mask of a _block_roots block, one entry per
    mask: the message of its NumericFailure, or its SplitSurvey.

    This is the double pass's one cache: each block is solved once, by one
    _block_roots call, and units come from _units mask by mask; the masks
    are then grouped by unit shape, the tuple of factor lengths, and each
    group is expanded and classified on shared planes.
    """
    rows = _block_roots(degree, block)
    entries: List[object] = [_NO_SPLITS] * len(rows)
    shapes: Dict[Tuple[int, ...], List[Tuple[int, list]]] = {}
    for row, roots in enumerate(rows):
        if isinstance(roots, str):
            entries[row] = roots
            continue
        try:
            units = _units(roots, DEFAULT_TOL)
        except NumericFailure as exc:
            entries[row] = str(exc)
            continue
        if len(units) >= 2:
            shapes.setdefault(tuple(len(factor) for _, factor in units), []).append((row, units))
    for shape, members in shapes.items():
        size = (1 << (len(shape) - 1)) * (sum(shape) - len(shape) + 1)
        step = max(1, _PLANE_ELEMENTS // size)
        for at in range(0, len(members), step):
            run = members[at : at + step]
            arrays, failures = _classify(*_expand_group([units for _, units in run]), DEFAULT_TOL)
            for (row, _), failure, survey in zip(run, failures, _surveys(degree, arrays)):
                entries[row] = failure or survey
    return entries


@functools.lru_cache(maxsize=None)
def _bit_positions(start: int, stop: int) -> Tuple[Tuple[int, ...], ...]:
    """Entry b lists start + i for every set bit i of b, ascending, for each
    b < 2^(stop - start); each doubling appends the next position to a copy
    of every entry so far."""
    table: List[Tuple[int, ...]] = [()]
    for i in range(start, stop):
        table += [t + (i,) for t in table]
    return tuple(table)


def _candidates(degree: int, arrays: Tuple[np.ndarray, ...], i: int, ks) -> List[SplitCandidate]:
    """The SplitCandidates of splits ks (a slice, or a list of split indices)
    of mask i of a _classify call at this degree."""
    p_re, q_re, p_len, q_len, verdict, low, dev, root_bits = arrays
    # a subset is its root bitmask's low and high halves looked up apart, so
    # the tables stay at 2^12 entries up to MAX_DEGREE
    half = (degree + 1) // 2
    lows, highs, cut = _bit_positions(0, half), _bit_positions(half, degree), (1 << half) - 1
    rows = zip(
        *(a[i, ks].tolist() for a in (p_re, q_re, verdict, low, dev, root_bits)),
        p_len[ks].tolist(),
        q_len[ks].tolist(),
    )
    return [
        SplitCandidate(
            subset=lows[b & cut] + highs[b >> half],
            p_coeffs=tuple(p[:lp]),
            q_coeffs=tuple(q[:lq]),
            classification=_VERDICTS[v],
            min_coefficient=mc,
            deviation_01=d,
        )
        for p, q, v, mc, d, b, lp, lq in rows
    ]


class SplitSurvey(Sequence[SplitCandidate]):
    """One mask's splits, a read-only view of its row of a _classify call.

    tally holds the mask's (fair, unfair, indeterminate) split counts, in
    _VERDICTS order; they are counted on the verdict array, for every row of
    a _classify call at once.  A SplitCandidate is built only when the view
    is indexed or iterated.  The view compares equal to the list of its
    candidates, and its repr is that list's.

    The view keeps the arrays of its whole _classify call alive, as many as
    _PLANE_ELEMENTS per plane: a caller that keeps the surveys of many
    blocks should list() them.
    """

    __slots__ = ("_degree", "_arrays", "_row", "tally")

    def __init__(self, degree: int, arrays: Optional[Tuple[np.ndarray, ...]], row: int, tally: Tuple[int, int, int]):
        self._degree, self._arrays, self._row, self.tally = degree, arrays, row, tally

    def _build(self, ks) -> List[SplitCandidate]:
        return [] if self._arrays is None else _candidates(self._degree, self._arrays, self._row, ks)

    def __len__(self) -> int:
        return sum(self.tally)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return self._build(list(range(len(self))[k]))
        return self._build([range(len(self))[k]])[0]

    def __iter__(self) -> Iterator[SplitCandidate]:
        return iter(self._build(slice(None)))

    def __eq__(self, other) -> bool:
        if isinstance(other, (SplitSurvey, list)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return repr(list(self))


#: the survey of a mask with fewer than two units, which has no split
_NO_SPLITS = SplitSurvey(0, None, 0, (0, 0, 0))


def _surveys(degree: int, arrays: Tuple[np.ndarray, ...]) -> List[SplitSurvey]:
    """A SplitSurvey for every mask of a _classify call at this degree, each
    with its row's verdict counts."""
    verdict = arrays[4]
    counts = np.stack([np.count_nonzero(verdict == v, axis=1) for v in range(len(_VERDICTS))], axis=1)
    return [SplitSurvey(degree, arrays, i, tuple(tally)) for i, tally in enumerate(counts.tolist())]


def split_survey(r: Newman01) -> SplitSurvey:
    """Classify every nontrivial conjugate-closed split of r at DEFAULT_TOL.

    Subset/complement pairs are visited once (the lexicographically smaller
    unit mask is kept).  Returns r's view of its block's double-precision
    survey: its verdict counts are read off the block's arrays, and its
    SplitCandidates are built only when the view is read.

    One mask costs its whole block: the first call for a block solves and
    surveys all of its masks and keeps the arrays.  One mask took 12 ms at
    degree 12, and 0.46 s with 114 MB peak RSS at degree 24.  Callers that
    walk the masks in enumerate_01 order pay for each block once.
    """
    block, row = _block_row(r)
    entry = _block_survey(r.degree, block)[row]
    if isinstance(entry, str):
        raise NumericFailure(entry)
    return entry


def _retry_survey(r: Newman01) -> SplitSurvey:
    """split_survey's verdicts for r from the roots of its squarefree factors,
    at _RETRY_TOL.

    The units, planes and verdict rule are the double pass's, applied to r
    alone; only the roots and the tolerance differ, each simple root found
    once and listed with its multiplicity.  Raises NumericFailure when a
    factor's solve, the pairing or the imaginary residue fails.
    """
    units = _units(_roots_squarefree(r), _RETRY_TOL)
    if len(units) < 2:
        return _NO_SPLITS
    arrays, (failure,) = _classify(*_expand_group([units]), _RETRY_TOL)
    if failure is not None:
        raise NumericFailure(failure)
    return _surveys(r.degree, arrays)[0]


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
    escalated: int              # masks retried on their squarefree factors
    residual_unfair: int        # after escalation
    #: splits still indeterminate after escalation, plus one per mask whose
    #: escalation raised (that mask's splits are not counted one by one)
    residual_indeterminate: int


@dataclass(frozen=True)
class ScanReport:
    max_degree: int
    summaries: Tuple[DegreeSummary, ...]
    offenders: Tuple[Tuple[Newman01, SplitCandidate], ...]
    duration_seconds: float
    #: masks whose escalation raised NumericFailure, with its message; each
    #: also counts as one residual indeterminate of its degree
    retry_failures: Tuple[Tuple[Newman01, str], ...] = ()

    @property
    def total_unfair(self) -> int:
        return sum(s.residual_unfair for s in self.summaries)

    @property
    def total_residual_indeterminate(self) -> int:
        return sum(s.residual_indeterminate for s in self.summaries)

    def conjecture_holds(self) -> bool:
        return self.total_unfair == 0 and self.total_residual_indeterminate == 0

    def to_dict(self) -> dict:
        doc = {
            "max_degree": self.max_degree,
            "tol": DEFAULT_TOL,
            "degrees": [asdict(s) for s in self.summaries],
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
        if self.retry_failures:
            # absent when empty, so the document of a scan whose retries all
            # succeed is the same as before the key existed
            doc["retry_failures"] = [
                {"degree": r.degree, "bits": r.bits, "polynomial": str(r), "error": msg}
                for r, msg in self.retry_failures
            ]
        return doc


def _scan_block(degree: int, block: int):
    """The scan of one _BLOCK block of enumerate_01(degree): the block's
    eight DegreeSummary counts (degree excluded), its offenders and its
    retry failures, each in mask order.

    First-pass indeterminates (and any first-pass unfair verdict, which at
    these degrees only ever comes from a root-finder artifact) are retried
    by _retry_survey at _RETRY_TOL.  Both passes are counted off their
    surveys' tallies, so a SplitCandidate is built only for a retried mask
    that keeps an unfair or indeterminate split.  split_survey and
    _retry_survey are looked up as module globals on each call, so a wrapped
    or patched one is the one a pool worker calls too.
    """
    n_poly = n_split = n_fair = n_unfair = n_ind = n_esc = n_r_unf = n_r_ind = 0
    offenders: List[Tuple[Newman01, SplitCandidate]] = []
    retry_failures: List[Tuple[Newman01, str]] = []
    top = 1 << degree
    for inner in range(block * _BLOCK, min((block + 1) * _BLOCK, top >> 1)):
        r = Newman01(degree, 1 | (inner << 1) | top)
        n_poly += 1
        try:
            survey, lost = split_survey(r), False
        except NumericFailure:
            # double-precision pass lost the mask (typically repeated
            # roots blowing the imaginary-residue budget): escalate it
            survey, lost = _NO_SPLITS, True
        fair, unfair, ind = survey.tally
        n_split += fair + unfair + ind
        n_fair += fair
        n_unfair += unfair
        n_ind += ind
        if not (lost or unfair or ind):
            continue
        n_esc += 1
        try:
            retry = _retry_survey(r)
        except NumericFailure as exc:
            # the retry lost the mask as well: its splits stay
            # undecided, so the scan cannot report that the conjecture holds
            n_r_ind += 1
            retry_failures.append((r, str(exc)))
            continue
        fair, unfair, ind = retry.tally
        if lost:
            # first pass produced nothing; the retry is the record
            n_split += fair + unfair + ind
            n_fair += fair
        n_r_unf += unfair
        n_r_ind += ind
        if unfair or ind:
            offenders.extend((r, c) for c in retry if c.classification is not Classification.FAIR)
    counts = (n_poly, n_split, n_fair, n_unfair, n_ind, n_esc, n_r_unf, n_r_ind)
    return counts, offenders, retry_failures


def scan(
    max_degree: int,
    progress: Optional[Callable[[DegreeSummary], None]] = None,
    jobs: int = 1,
) -> ScanReport:
    """Run split_survey over every mask of degree 1..max_degree.

    The masks are scanned in blocks of _BLOCK, one _scan_block task each,
    and the blocks' results are summed in ascending (degree, block) order,
    so the report is the same for every jobs.  progress gets each degree's
    summary once its last block is in.  With jobs > 1 and some degree of
    more than one block (max_degree >= 8), the tasks run on one pool of
    min(jobs, blocks) worker processes, shut down before scan returns or
    raises.  The pool starts its workers as verify_range's does (forked on
    Linux), so they see the module as the caller left it, wrappers and
    patches included.

    Splits are classified at DEFAULT_TOL (1e-8), and flagged masks are
    retried on their squarefree factors at _RETRY_TOL (1e-10); whatever
    survives is listed as an offender.  A retry that raises NumericFailure
    is listed in retry_failures and counts as one residual indeterminate.
    jobs must be at least 1.
    """
    if not 1 <= max_degree <= MAX_DEGREE:
        raise CapacityError(f"max_degree must be in 1..{MAX_DEGREE}, got {max_degree}")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    t0 = time.monotonic()
    n_blocks = {d: ((1 << (d - 1)) + _BLOCK - 1) // _BLOCK for d in range(1, max_degree + 1)}
    blocks = [(d, b) for d, n in n_blocks.items() for b in range(n)]
    summaries: List[DegreeSummary] = []
    offenders: List[Tuple[Newman01, SplitCandidate]] = []
    retry_failures: List[Tuple[Newman01, str]] = []
    pool = None
    try:
        if jobs > 1 and n_blocks[max_degree] > 1:
            from concurrent.futures import ProcessPoolExecutor

            pool = ProcessPoolExecutor(max_workers=min(jobs, len(blocks)))
        results = (map if pool is None else pool.map)(_scan_block, [d for d, _ in blocks], [b for _, b in blocks])
        for (degree, block), (counts, offs, fails) in zip(blocks, results):
            totals = [a + b for a, b in zip(totals, counts)] if block else counts
            offenders.extend(offs)
            retry_failures.extend(fails)
            if block == n_blocks[degree] - 1:
                summary = DegreeSummary(degree, *totals)
                summaries.append(summary)
                if progress is not None:
                    progress(summary)
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    return ScanReport(
        max_degree=max_degree,
        summaries=tuple(summaries),
        offenders=tuple(offenders),
        duration_seconds=time.monotonic() - t0,
        retry_failures=tuple(retry_failures),
    )
