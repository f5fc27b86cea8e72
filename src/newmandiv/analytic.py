"""Root-level analysis of the recurrence x^5 + t x^3 + 1.

The cofactor sequence rides the linear recurrence y_n = -a y_{n-2} - y_{n-5},
whose characteristic polynomial is the quintic above (t = a).  Everything
the asymptotic argument needs lives here:

* the five roots, tracked by angular sector from their t = 0 positions
  (the fifth roots of -1): one real root alpha < 0, and two conjugate
  pairs represented by their upper-half members beta and gamma; at one t
  as a QuinticRoots (find_roots), along a grid as the columns of a
  RootTable (root_table);
* residue coefficients c_alpha, c_beta, c_gamma of the closed form
  y_n = c_alpha alpha^n + 2 Re(c_beta beta^n) + 2 Re(c_gamma gamma^n);
* an exact inverse for small Vandermonde systems (used to re-solve for
  residues from windows of sequence values);
* the balance-point estimate N(a) where the slow real mode and the growing
  beta mode exchange dominance;
* a battery of interval checks, each a quantitative inequality the
  asymptotic argument leans on, re-verified on dense grids with explicit
  margins.  _BATTERY declares each check once; its function returns only
  the margin, and check_estimates builds every CheckResult from the entry.
  Each check is a set of array expressions over root-table columns, written
  to round as the per-point scalar arithmetic did (see _mul), so every
  margin is the one a loop over QuinticRoots would give, to the bit.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, fields
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import CapacityError

__all__ = [
    "N_ESTIMATE_CONSTANT",
    "QuinticRoots",
    "RootTable",
    "ResidueCoeffs",
    "CheckResult",
    "EstimateGrids",
    "aberth_roots",
    "find_roots",
    "root_table",
    "root_velocity",
    "root_acceleration",
    "residue_coeffs",
    "y_closed_sequence",
    "estimate_N",
    "vandermonde_matrix",
    "vandermonde_inverse",
    "check_estimates",
]

#: leading constant of the balance-point estimate N(a) ~ C * ln(2.5/a) / a
N_ESTIMATE_CONSTANT = 5.0 / math.cos(math.pi / 10.0)

_FIFTH_ROOTS_OF_MINUS_ONE = tuple(
    cmath.exp(1j * math.pi * (2 * k + 1) / 5) for k in range(5)
)


# --------------------------------------------------------------------------
# general simultaneous root finder
# --------------------------------------------------------------------------


def _planes(rev: np.ndarray, deg: int) -> List[np.ndarray]:
    """Descending coefficients rev (one row per polynomial) as deg+1 planes of
    shape (rows, deg): plane k holds each row's k-th coefficient at each of
    its deg points, so Horner's rule adds arrays of one shape, not broadcasts."""
    return list(np.repeat(rev.T[:, :, None], deg, axis=2))


def _horner(planes: List[np.ndarray], x: np.ndarray) -> np.ndarray:
    """np.polyval row by row, with its operations in its order."""
    y = np.zeros(x.shape, x.dtype)
    for c in planes:
        y = y * x + c
    return y


#: aberth_roots's backward-stable residual test and its iteration cap
_ABERTH_TOL = 1e-14
_ABERTH_MAX_ITER = 200


def aberth_roots(coeffs: Sequence[complex], seeds: Sequence[complex]) -> np.ndarray:
    """All roots at once (Ehrlich–Aberth iteration).

    coeffs are ascending (coeffs[k] multiplies x^k) with nonzero leading
    term; seeds must be pairwise distinct and of the same length as the
    degree.  Stops once every point satisfies the backward-stable test
    |p(z)| <= tol * sum_k |c_k| |z|^k with tol = _ABERTH_TOL (1e-14) — i.e.
    z is an exact root of some polynomial whose coefficients differ
    relatively by at most tol — and raises ArithmeticError if that takes
    more than _ABERTH_MAX_ITER (200) steps.  (A plain absolute residual
    bound is unreachable for roots of modulus above 1 at larger degrees:
    evaluation noise alone scales with the coefficient-magnitude sum.)

    Batched form: coeffs of shape (m, d+1) and seeds of shape (m, d) give
    roots of shape (m, d).  Each row runs the arithmetic of its own 1-D
    call and is frozen once it passes the test, so row i equals
    aberth_roots(coeffs[i], seeds[i]) bit for bit; one row that does not
    converge raises ArithmeticError for the whole batch.
    """
    c = np.asarray(coeffs, dtype=complex)
    z = np.array(seeds, dtype=complex)
    batched = c.ndim == 2
    if not batched:
        c, z = c[None], z[None]
    if c.ndim != 2 or c.shape[1] < 2 or np.any(c[:, -1] == 0):
        raise ValueError("need polynomials of degree >= 1 with nonzero leading terms")
    deg = c.shape[1] - 1
    if z.shape != (len(c), deg):
        raise ValueError(f"need {deg} seeds per polynomial, got seeds of shape {np.shape(seeds)}")
    dc = c[:, 1:] * np.arange(1, deg + 1)
    # p, p' and the coefficient moduli of the backward-stable test
    p, dp, ap = (_planes(r, deg) for r in (c[:, ::-1], dc[:, ::-1], np.abs(c[:, ::-1])))
    out = np.empty_like(z)
    live = np.arange(len(z))  # the rows of out that z still holds
    for it in range(_ABERTH_MAX_ITER + 1):
        pv = _horner(p, z)
        ok = np.abs(pv) <= _ABERTH_TOL * _horner(ap, np.abs(z))
        if ok.all():
            out[live] = z
            return out if batched else out[0]
        done = ok.all(axis=1)
        if done.any():  # freeze the converged rows and iterate on the rest
            out[live[done]] = z[done]
            keep = ~done
            live, z, pv = live[keep], z[keep], pv[keep]
            p, dp, ap = ([x[keep] for x in planes] for planes in (p, dp, ap))
        if it == _ABERTH_MAX_ITER:
            break
        dv = _horner(dp, z)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = np.where(dv != 0, pv / dv, 0.1 + 0.1j)
            # C order makes each row's sum the contiguous pairwise sum of a 1-D
            # call; from seeds laid out batch axis innermost (a broadcast seed
            # vector copies that way) numpy would lay diff out so too and add
            # in another order
            diff = np.subtract(z[:, :, None], z[:, None, :], order="C")
            diff.reshape(len(z), -1)[:, :: deg + 1] = 1.0
            s = np.add.reduce(1.0 / diff, axis=2) - 1.0  # drop the 1/1 diagonal placeholder
            denom = 1.0 - newton * s
            step = np.where(np.abs(denom) > 1e-300, newton / denom, newton)
        z = z - step
    raise ArithmeticError(
        f"root iteration did not reach residual {_ABERTH_TOL:g} in {_ABERTH_MAX_ITER} steps"
    )


# --------------------------------------------------------------------------
# the quintic x^5 + t x^3 + 1
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class QuinticRoots:
    """Roots of x^5 + t x^3 + 1 sorted into their angular sectors.

    alpha: the real root (negative); beta: the upper-half root with
    argument in (2 pi/5, 4 pi/5), the pair that eventually outgrows 1 in
    modulus; gamma: the upper-half root with argument in (0, 2 pi/5).
    residual bounds max |p(root)|.
    """

    t: float
    alpha: float
    beta: complex
    gamma: complex
    residual: float

    def all_roots(self) -> Tuple[complex, complex, complex, complex, complex]:
        return (
            complex(self.alpha),
            self.beta,
            self.beta.conjugate(),
            self.gamma,
            self.gamma.conjugate(),
        )


@dataclass(frozen=True, eq=False)
class RootTable:
    """Roots of x^5 + t x^3 + 1 at many t, as columns: row i holds the
    QuinticRoots fields at t[i].  t, alpha and residual are float64 columns;
    beta and gamma are complex128 columns."""

    t: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    residual: np.ndarray

    def __len__(self) -> int:
        return len(self.t)

    def rows(self, select) -> "RootTable":
        """The rows that select (a mask or an index array) picks."""
        return RootTable(*(getattr(self, f.name)[select] for f in fields(self)))

    def five(self) -> np.ndarray:
        """All five roots of each row, shape (rows, 5), in all_roots order."""
        return np.stack([self.alpha.astype(complex), self.beta, self.beta.conj(),
                         self.gamma, self.gamma.conj()], axis=1)


# Complex arithmetic on columns that rounds as the scalar arithmetic does.
# Sums, differences and negations are exact per part, so numpy's complex
# arrays give them as scalars do.  Products, moduli and CPython's quotient
# are written out on the real and imaginary float64 planes: numpy's array
# loops may fuse a product's multiply and add (AVX-512 FMA), compute np.abs
# and z**2 otherwise, and numpy divides by multiplying with the reciprocal
# of the denominator where CPython divides by it.  numpy's array division
# is its scalar division, so columns that were numpy scalars use "/".


def _complex(re, im) -> np.ndarray:
    z = np.empty(np.broadcast(re, im).shape, dtype=complex)
    z.real, z.imag = re, im
    return z


def _abs(z) -> np.ndarray:
    """|z| as abs() of a complex scalar: hypot of the parts."""
    return np.hypot(z.real, z.imag)


def _scale(s, z) -> np.ndarray:
    """s * z for real s, one product per part."""
    return _complex(s * z.real, s * z.imag)


def _mul(a, b) -> np.ndarray:
    """a * b with the four products and two sums of the scalar product."""
    return _complex(a.real * b.real - a.imag * b.imag, a.real * b.imag + a.imag * b.real)


def _pow(z, n: int) -> np.ndarray:
    """z ** n for 1 <= n < 100 by the binary powering of CPython's complex
    power and numpy's scalar one: the same squares and products, in order."""
    r, p = None, z
    while True:
        if n & 1:
            r = p if r is None else _mul(r, p)
        n >>= 1
        if not n:
            return r
        p = _mul(p, p)


def _py_div(a, b) -> np.ndarray:
    """a / b as CPython divides complex numbers: Smith's method, which
    divides by the scaled denominator.  A real b gives each part over b."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    by_real = np.abs(br) >= np.abs(bi)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(by_real, bi / br, br / bi)
        denom = np.where(by_real, br + bi * ratio, br * ratio + bi)
        re = np.where(by_real, ar + ai * ratio, ar * ratio + ai) / denom
        im = np.where(by_real, ai - ar * ratio, ai * ratio - ar) / denom
    return _complex(re, im)


def _sq(x) -> np.ndarray:
    """x ** 2 of each float as Python rounds it: libm's pow, which differs
    from x * x in the last place for about 1 value in 1,000."""
    return np.array([v**2 for v in np.ravel(x).tolist()]).reshape(np.shape(x))


def _polish(z: np.ndarray, t) -> np.ndarray:
    """Two Newton sweeps on x^5 + t x^3 + 1; they tighten the residual floor.

    z is a table of root rows and t the column of their parameters.
    """
    for _ in range(2):
        pv = z**5 + t * z**3 + 1
        dv = 5 * z**4 + 3 * t * z**2
        z = z - pv / dv
    return z


_ALPHA_EDGE, _BETA_EDGE = 4 * math.pi / 5, 2 * math.pi / 5


def _sectors(ts: np.ndarray, z: np.ndarray) -> RootTable:
    """Sort rows of polished double-precision roots into alpha, beta, gamma.

    A root with |arg| > 4 pi/5 is alpha, one with arg in (2 pi/5, 4 pi/5)
    beta and one with arg in (0, 2 pi/5) gamma; where a row holds two roots
    in a sector, the later column is kept.  The first row in order that
    leaves a sector empty, or whose alpha is more than 1e-12 off the real
    axis, raises ArithmeticError.  For t in [0, 1] every root lies more
    than 0.4 rad from every edge, far beyond the last-place error of
    np.arctan2.
    """
    ang = np.arctan2(z.imag, z.real)
    masks = (np.abs(ang) > _ALPHA_EDGE, (_BETA_EDGE < ang) & (ang < _ALPHA_EDGE), (0 < ang) & (ang < _BETA_EDGE))
    found = np.logical_and.reduce([m.any(axis=1) for m in masks])
    rows, last = np.arange(len(z)), z.shape[1] - 1
    alpha_c, beta, gamma = (z[rows, last - np.argmax(m[:, ::-1], axis=1)] for m in masks)
    bad = np.flatnonzero(~found | (np.abs(alpha_c.imag) > 1e-12))
    if len(bad):
        i = bad[0]
        if not found[i]:
            raise ArithmeticError(f"sector classification failed at t={float(ts[i])}: {z[i]}")
        raise ArithmeticError(f"real root drifted off the axis at t={float(ts[i])}: {alpha_c[i]}")
    alpha = alpha_c.real
    three = np.stack([alpha.astype(complex), beta, gamma], axis=1)
    value = _pow(three, 5) + _scale(ts[:, None], _pow(three, 3)) + 1
    return RootTable(t=ts, alpha=alpha, beta=beta, gamma=gamma, residual=np.max(_abs(value), axis=1))


def find_roots(t: float) -> QuinticRoots:
    """Roots of x^5 + t x^3 + 1 for 0 <= t <= 1: root_table at one point."""
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t must lie in [0, 1], got {t}")
    table = root_table([t])
    return QuinticRoots(t=float(table.t[0]), alpha=table.alpha[0], beta=table.beta[0],
                        gamma=table.gamma[0], residual=table.residual[0])


def root_table(ts: Sequence[float]) -> RootTable:
    """Roots of x^5 + t x^3 + 1 for every t in ts, in double precision, as
    the columns of a RootTable.

    One batched Aberth solve, seeded at the exact t = 0 roots (fifth roots of
    -1), then two Newton sweeps over the whole table, then _sectors.
    """
    ts = np.asarray(ts, dtype=float)
    if not np.all((0.0 <= ts) & (ts <= 1.0)):
        raise ValueError(f"t must lie in [0, 1], got values in [{ts.min()}, {ts.max()}]")
    coeffs = np.zeros((len(ts), 6), dtype=complex)
    coeffs[:, 0] = coeffs[:, 5] = 1.0
    coeffs[:, 3] = ts
    seeds = np.broadcast_to(_FIFTH_ROOTS_OF_MINUS_ONE, (len(ts), 5))
    return _sectors(ts, _polish(aberth_roots(coeffs, seeds), ts[:, None]))


def root_velocity(rho: complex, t: float) -> complex:
    """d rho / dt along the root branch: -rho / (5 rho^2 + 3 t)."""
    return -rho / (5 * rho**2 + 3 * t)


def root_acceleration(rho: complex, t: float) -> complex:
    """d^2 rho / dt^2 along the root branch: 2 rho (5 rho^2 + 6 t) / (5 rho^2 + 3 t)^3."""
    return 2 * rho * (5 * rho**2 + 6 * t) / (5 * rho**2 + 3 * t) ** 3


# --------------------------------------------------------------------------
# residues of the closed form
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ResidueCoeffs:
    """Coefficients of y_n = c_alpha alpha^n + 2 Re(c_beta beta^n + c_gamma gamma^n)."""

    a: float
    c_alpha: float
    c_beta: complex
    c_gamma: complex


def _residue(rho, a, div):
    """-a / (2 rho^5 - 3) * rho^2 / (rho^2 - 1) on columns, dividing by div:
    _py_div for the real root, numpy's "/" for beta and gamma, as the scalar
    residue divided a Python complex and numpy complex scalars."""
    rho2 = _pow(rho, 2)
    return div(_mul(div(-a, _scale(2, _pow(rho, 5)) - 3), rho2), rho2 - 1)


def _residue_table(table: RootTable) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Columns c_alpha, c_beta, c_gamma of the residues at a = table.t, for
    the start values y_0..y_4 = (-s, 1-s, -s, 1-s, -s), s = 1/(2+a).

    Requires a > 0: at a = 0 all roots sit on the unit circle and alpha = -1
    makes rho^2 - 1 vanish — the expansion degenerates.  So it does in
    double precision once alpha rounds to -1, below about a = 4e-16.  The
    first row in order that breaks either is a ValueError naming its a.
    The real root's residue keeps an imaginary part of exactly 0 in this
    arithmetic, so c_alpha is its real part, a float64 column.
    """
    a = table.t
    bad = np.flatnonzero(~(a > 0.0) | (table.alpha * table.alpha == 1.0))
    if len(bad):
        a = float(a[bad[0]])
        if not a > 0.0:
            raise ValueError(f"residues need 0 < a <= 1, got {a}")
        raise ValueError(
            f"residues at a = {a:g} are out of reach in double precision: the real root alpha"
            f" rounds to -1, where the residue divides by alpha^2 - 1 = 0"
        )
    return (
        _residue(table.alpha.astype(complex), a, _py_div).real,
        _residue(table.beta, a, np.divide),
        _residue(table.gamma, a, np.divide),
    )


def _residues(roots: QuinticRoots) -> ResidueCoeffs:
    """Residues from the roots at a = roots.t: _residue_table at one row."""
    table = RootTable(*(np.array([getattr(roots, f.name)]) for f in fields(roots)))
    c_alpha, c_beta, c_gamma = _residue_table(table)
    return ResidueCoeffs(a=roots.t, c_alpha=float(c_alpha[0]), c_beta=c_beta[0], c_gamma=c_gamma[0])


def residue_coeffs(a: float) -> ResidueCoeffs:
    """Residues of the closed form at 0 < a <= 1, in double precision."""
    return _residues(find_roots(a))


def y_closed_sequence(a: float, n_max: int) -> np.ndarray:
    """y_0..y_{n_max} evaluated from the closed form (double precision)."""
    roots = find_roots(a)
    res = _residues(roots)
    ns = np.arange(n_max + 1)
    return (
        res.c_alpha * roots.alpha**ns
        + 2 * np.real(res.c_beta * roots.beta**ns)
        + 2 * np.real(res.c_gamma * roots.gamma**ns)
    )


# --------------------------------------------------------------------------
# balance-point estimate
# --------------------------------------------------------------------------


def estimate_N(a: float) -> float:
    """Estimated index where the growing mode overtakes: C ln(2.5/a) / a.

    Valid in the small-coefficient regime 0 < a <= 0.005 (the constant
    C = 5 / cos(pi/10) absorbs the slope of ln|beta| in a).
    """
    if not 0.0 < a <= 0.005:
        raise ValueError(f"estimate is calibrated for 0 < a <= 0.005, got {a}")
    est = N_ESTIMATE_CONSTANT * math.log(2.5 / a) / a
    if not math.isfinite(est):
        raise ValueError(f"estimate N(a) is not a finite double at a = {a}")
    return est


# --------------------------------------------------------------------------
# Vandermonde systems
# --------------------------------------------------------------------------

_MAX_NODES = 12


def vandermonde_matrix(nodes: Sequence[complex]) -> np.ndarray:
    """V with V[i, j] = nodes[j]^i (power-by-node convention)."""
    z = np.asarray(nodes, dtype=complex)
    return z[None, :] ** np.arange(len(z))[:, None]


def sample_node_set(rng: np.random.Generator, max_nodes: int = 8) -> np.ndarray:
    """A random well-conditioned node set for inverse self-checks.

    Nodes live in the annulus 0.6 <= |z| <= 1.5 (the regime the recurrence
    roots occupy) with pairwise separation >= 0.4, resampling rejected
    candidates; sets like these keep the exact-form inverse well inside a
    1e-10 reconstruction error.
    """
    k = int(rng.integers(1, max_nodes + 1))
    nodes: List[complex] = []
    while len(nodes) < k:
        z = rng.uniform(0.6, 1.5) * np.exp(2j * math.pi * rng.uniform())
        if all(abs(z - w) >= 0.4 for w in nodes):
            nodes.append(complex(z))
    return np.array(nodes)


def vandermonde_inverse(nodes: Sequence[complex]) -> np.ndarray:
    """Exact-form inverse of vandermonde_matrix(nodes).

    Row j holds the coefficients of the Lagrange basis polynomial
    L_j = prod_{m != j} (x - rho_m) / (rho_j - rho_m), computed by synthetic
    division of the master polynomial — no linear solve, so conditioning
    enters only through the node geometry itself.
    """
    z = np.asarray(nodes, dtype=complex)
    k = len(z)
    if not 1 <= k <= _MAX_NODES:
        raise CapacityError(f"node count must be 1..{_MAX_NODES}, got {k}")
    if k > 1:
        sep = min(
            abs(z[i] - z[j]) for i in range(k) for j in range(i + 1, k)
        )
        if sep < 1e-12 * max(1.0, float(np.max(np.abs(z)))):
            raise ValueError(f"nodes nearly coincide (separation {sep:.3g}): singular system")

    # master polynomial prod (x - rho_m), ascending coefficients
    master = np.array([1.0 + 0.0j])
    for r in z:
        master = np.convolve(master, np.array([-r, 1.0]))

    inv = np.empty((k, k), dtype=complex)
    for j in range(k):
        # synthetic division: q = master / (x - rho_j), ascending
        q = np.empty(k, dtype=complex)
        acc = master[k]
        q[k - 1] = acc
        for i in range(k - 1, 0, -1):
            acc = master[i] + z[j] * acc
            q[i - 1] = acc
        dprod = np.prod(z[j] - np.delete(z, j)) if k > 1 else 1.0
        inv[j, :] = q / dprod
    return inv


# --------------------------------------------------------------------------
# the interval-check battery
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    """One verified inequality: its statement, sample set, and margin.

    worst_margin is (bound - observed) in the check's own scaling, as its
    function in _BATTERY returns it; check_estimates sets passed for every
    check alike: the check holds iff the margin is strictly positive.
    """

    check_id: str
    name: str
    statement: str
    grid: str
    worst_margin: float
    passed: bool


@dataclass(frozen=True)
class EstimateGrids:
    """Sample grids: (start, stop, step) for each regime.

    unit and small lie inside [0, 1]; large lies inside (0, 1], because the
    residues of check (c) degenerate at a = 0.  unit and large hold at least
    two points, because checks (a) and (e) difference along them.  small
    holds a point above 0, because checks (g), (h) and (j) skip t = 0 and
    would otherwise pass without a sample.  No grid
    holds more than _MAX_GRID_POINTS (10^5) points, so that a mistyped step
    is a CapacityError, not an allocation of gigabytes; the defaults hold at
    most 1,001.
    """

    unit: Tuple[float, float, float] = (0.0, 1.0, 1e-3)       # t over the whole interval
    large: Tuple[float, float, float] = (0.005, 0.999, 1e-3)  # a bounded away from 0
    small: Tuple[float, float, float] = (1e-5, 0.005, 1e-5)   # the small-a regime

    def __post_init__(self):
        for name in ("unit", "large", "small"):
            start, stop, step = getattr(self, name)
            if not (step > 0 and stop >= start):
                raise ValueError(f"grid {name}={start}:{stop}:{step} needs step > 0 and stop >= start")
            if name == "large" and not (0 < start and stop <= 1):
                raise ValueError(f"grid large={start}:{stop}:{step} must lie inside (0, 1]")
            if not (0 <= start and stop <= 1):
                raise ValueError(f"grid {name}={start}:{stop}:{step} must lie inside [0, 1]")
            # _grid_size > cap, tested on the unrounded quotient, which a
            # step near the smallest float makes inf
            if (stop - start) / step + 1e-9 >= _MAX_GRID_POINTS:
                raise CapacityError(f"grid {name}={start}:{stop}:{step} has more than {_MAX_GRID_POINTS} points")
            # (a) and (e) take successive differences along unit and large
            if name != "small" and _grid_size(start, stop, step) < 2:
                raise ValueError(f"grid {name}={start}:{stop}:{step} needs at least two points")
            # (g), (h) and (j) sample small without t = 0
            if name == "small" and start == 0 and _grid_size(start, stop, step) < 2:
                raise ValueError(f"grid small={start}:{stop}:{step} needs a point above 0")


#: points per estimate grid
_MAX_GRID_POINTS = 10**5


def _grid_size(start: float, stop: float, step: float) -> int:
    # never overshoot stop when step does not divide the range exactly
    return int(math.floor((stop - start) / step + 1e-9)) + 1


def _grid(spec: Tuple[float, float, float]) -> np.ndarray:
    start, stop, step = spec
    return start + step * np.arange(_grid_size(start, stop, step))


#: step of the finite-difference cross-check in (l)
_FD_STEP = 1e-6


def _fd_inner(grids: EstimateGrids) -> np.ndarray:
    """Mask of the small-grid points t that check (l) cross-checks by finite
    differences: h <= t <= stop - h, so that t - h >= 0 and t + h <= stop."""
    ts = _grid(grids.small)
    return (_FD_STEP <= ts) & (ts <= grids.small[1] - _FD_STEP)


def _root_tables(grids: EstimateGrids, ids: Sequence[str]) -> Dict[str, RootTable]:
    """One RootTable per grid that the checks ids read (_BATTERY names them).

    "small±h" holds the roots at t - h for every small-grid point t that
    _fd_inner marks, then those at t + h.

    Every table is solved here, before the first check runs, and not on
    its first read: root_table's temporary arrays are then freed before
    check (d) first imports numpy.random (about 7 MB), instead of adding to
    that peak.  Solving each table on its first read gave the same report
    but about 1.2 MB more peak RSS for `newmandiv estimates`.
    """
    tables = {}
    for name in sorted({g for cid in ids for g in _BATTERY[cid]["reads"]}):
        if name == "small±h":
            ts = _grid(grids.small)[_fd_inner(grids)]
            ts = np.concatenate([ts - _FD_STEP, ts + _FD_STEP])
        else:
            ts = _grid(getattr(grids, name))
        tables[name] = root_table(ts)
    return tables


def _least(*margins: np.ndarray) -> float:
    """The least entry of the margin arrays; inf when they are all empty."""
    return min((float(np.min(m)) for m in margins if np.size(m)), default=math.inf)


def _check_a(grids, tables):
    unit = tables["unit"]
    aa, bb, gg = np.abs(unit.alpha), _abs(unit.beta), _abs(unit.gamma)
    return _least(
        aa[:-1] - aa[1:],  # |alpha| strictly decreasing
        bb[1:] - bb[:-1],  # |beta| strictly increasing
        gg[:-1] - gg[1:],  # |gamma| strictly decreasing
    )


def _check_b(grids, tables):
    large = tables["large"]
    aa, bb, gg = np.abs(large.alpha), _abs(large.beta), _abs(large.gamma)
    return _least(aa - 0.8375, 0.999002 - aa, bb - 1.000809, 1.1872 - bb, gg - 0.9203, 0.999692 - gg)


def _check_c(grids, tables):
    c_alpha, c_beta, c_gamma = _residue_table(tables["large"])
    return _least(2.0 - np.abs(c_alpha), _abs(c_beta) - 1.0 / 2007.0, 1.0 - _abs(c_gamma))


def _check_d(grids, tables):
    rng = np.random.default_rng(20260817)
    n = 20000
    zr = rng.uniform(0.1, 2.0, n)
    zth = rng.uniform(0.0, 2 * math.pi, n)
    z = zr * np.exp(1j * zth)
    wr = rng.uniform(1.0, 2.0, n)
    wth = rng.uniform(0.05, math.pi - 0.05, n)
    w = wr * np.exp(1j * wth)
    lhs = np.maximum(2 * np.abs(z.real), 2 * np.abs((z * w).real))
    rhs = np.abs(z) * np.abs(w.imag) / np.abs(w)
    return float(np.min(lhs - rhs))


def _check_e(grids, tables):
    ib = tables["large"].beta.imag
    return _least(ib[1:] - ib[:-1], ib - 0.95)


def _check_f(grids, tables):
    unit = tables["unit"]
    fifth = np.exp(2j * math.pi * np.arange(5) / 5)
    # np.abs here, as the scalar check took it of each row's 5 x 5 array
    d = np.abs(unit.five()[:, :, None] - fifth)
    return _least(d - 0.1, _abs(unit.gamma - 1) - 0.2)


#: the five roots at t = 0, the 5 rho(0) of (g), and Re(rho(0)^3) of (h)
_R0 = np.array(_FIFTH_ROOTS_OF_MINUS_ONE)
_FIVE_R0 = np.array([5 * r0 for r0 in _FIFTH_ROOTS_OF_MINUS_ONE])
_RE_R0_CUBED = np.array([(r0**3).real for r0 in _FIFTH_ROOTS_OF_MINUS_ONE])

_EPS = np.finfo(float).eps


def _tracked(table: RootTable) -> np.ndarray:
    """rho(t) of each branch, shape (rows, 5): the root of the row nearest
    to rho(0) = _R0[k] (the first of all_roots on a tie)."""
    five = table.five()
    nearest = np.argmin(_abs(five[:, :, None] - _R0), axis=1)
    return np.take_along_axis(five, nearest, axis=1)


def _root_error(table: RootTable, rho: np.ndarray) -> np.ndarray:
    """First-order bound on the error of computed roots rho (one row per
    table row): the row's residual, plus the rounding of evaluating it,
    over |p'(rho)| = |5 rho^4 + 3 t rho^2|."""
    t, m = table.t[:, None], np.abs(rho)
    noise = 4 * _EPS * (m**5 + t * m**3 + 1)
    return (table.residual[:, None] + noise) / np.abs(5 * rho**4 + 3 * t * rho**2)


def _small_positive(grids, tables) -> RootTable:
    """The small-grid rows without t = 0, where t-scaled margins exist.

    A point too small for them is a ValueError that names the grid and the
    point: (g) and (h) divide by t^2, which is 0 below about 1.5e-162, and
    (j) by ln|beta|, which is 0 once |beta| rounds to 1 (about t < 1e-16).
    A larger point can still be too small for one of them, where the
    check's margin there measures rounding: each check refuses it through
    _decided when the sign of its margin lies inside the rounding bound.
    The bound is the root error to first order (_root_error: the residual,
    plus the rounding of evaluating it, over |5 rho^4 + 3 t rho^2|), plus 4
    eps times the magnitudes the check's expression adds, scaled as the
    margin: over t^2 in (g) and (h), relative to ln|beta| in (j).  It is at
    most 2.7e-7 for t >= 1e-4 and 2.2e-5 at t = 1e-5, against least margins
    of 6.5e-4 or more on the default grid.
    """
    small = tables["small"].rows(tables["small"].t > 0)
    t = small.t
    bad = np.flatnonzero((t * t == 0) | (_abs(small.beta) == 1))
    if len(bad):
        t = t[bad[0]]
        start, stop, step = grids.small
        why = "t^2 is 0" if t * t == 0 else "|beta| rounds to 1"
        raise ValueError(
            f"grid small={start}:{stop}:{step} has the point t = {t:g}, too small for"
            f" checks (g), (h) and (j): {why}"
        )
    return small


def _decided(grids, cid: str, t: np.ndarray, *terms: Tuple[np.ndarray, np.ndarray]) -> float:
    """The margin of small-grid check cid, once rounding decides its sign at
    every point t.

    Each term is a pair of arrays with one row per point: margins and the
    bounds on their rounding error.  A point's margin is the least margin of
    its rows, so its exact value lies in [lo, hi], the least of margin -
    bound and of margin + bound.  The first point where lo <= 0 < hi, so
    that double precision cannot tell whether the check holds there, is a
    ValueError naming the grid, the point and the check.
    """
    def by_point(x):
        return np.min(np.reshape(x, (len(t), -1)), axis=1)

    lo = np.min([by_point(m - b) for m, b in terms], axis=0)
    hi = np.min([by_point(m + b) for m, b in terms], axis=0)
    undecided = np.flatnonzero((lo <= 0) & (0 < hi))
    if len(undecided):
        i = undecided[0]
        start, stop, step = grids.small
        raise ValueError(
            f"grid small={start}:{stop}:{step} has the point t = {t[i]:g}, too small for check ({cid}):"
            f" rounding puts its margin anywhere in [{lo[i]:.3g}, {hi[i]:.3g}]"
        )
    return _least(*(m for m, _ in terms))


def _check_g(grids, tables):
    """Bound: the root error, plus 4 eps times the moduli that the numerator
    adds, over t^2 (err2) and over t (err1)."""
    small = _small_positive(grids, tables)
    rt, t = _tracked(small), small.t[:, None]
    step = rt - _R0
    t2 = _sq(t)
    err2 = _abs(step + t / _FIVE_R0) / t2
    err1 = _abs(step) / t
    delta, m = _root_error(small, rt), np.abs(rt)
    return _decided(
        grids, "g", small.t,
        (0.04065 - err2, (delta + 4 * _EPS * (m + 1 + t / 5)) / t2),
        (0.2009 - err1, (delta + 4 * _EPS * (m + 1)) / t),
    )


def _check_h(grids, tables):
    """Bound: 2 |rho| times the root error, plus 4 eps times the terms that
    the numerator adds, over t^2."""
    small = _small_positive(grids, tables)
    rt, t = _tracked(small), small.t[:, None]
    m, t2 = _abs(rt), _sq(t)
    err = np.abs(_sq(m) - 1 - (2 * t / 5) * _RE_R0_CUBED) / t2
    bound = 2 * m * _root_error(small, rt) + 4 * _EPS * (m * m + 1 + t)
    return _decided(grids, "h", small.t, (0.13 - err, bound / t2))


def _check_i(grids, tables):
    xs = np.concatenate([-_grid((1e-5, 0.01, 1e-5)), _grid((1e-5, 0.01, 1e-5))])
    log_err = np.abs(np.log1p(xs) - xs) / xs**2
    inv_err = np.abs(1.0 / (1.0 + xs) - 1.0) / np.abs(xs)
    return min(float(np.min(0.512 - log_err)), float(np.min(1.02 - inv_err)))


def _logs(x: np.ndarray) -> np.ndarray:
    """math.log of each entry: np.log may differ from it in the last place."""
    return np.array([math.log(v) for v in np.ravel(x).tolist()]).reshape(np.shape(x))


def _check_j(grids, tables):
    """Bound: each logarithm is off by at most e = root error / |rho| +
    4 eps (1 + |ln|rho||); a ratio r = ln|rho| / ln|beta| by at most
    (e_rho + |r| e_beta) / |ln|beta|| + 4 eps |r|."""
    small = _small_positive(grids, tables)
    three = np.stack([small.alpha.astype(complex), small.beta, small.gamma], axis=1)
    m = _abs(three)
    logs = _logs(m)
    e = _root_error(small, three) / m + 4 * _EPS * (1 + np.abs(logs))
    lb = logs[:, 1]
    ra, rg = logs[:, 0] / lb, logs[:, 2] / lb

    def bound(r, k):
        return (e[:, k] + np.abs(r) * e[:, 1]) / np.abs(lb) + 4 * _EPS * np.abs(r)

    return _decided(
        grids, "j", small.t,
        (0.008 - np.abs(ra - (-1.236)), bound(ra, 0)),
        (0.005 - np.abs(rg - (-0.382)), bound(rg, 2)),
    )


def _check_k(grids, tables):
    unit = tables["unit"]
    five, t = unit.five(), unit.t[:, None]
    lhs = _pow(five, 10) - 1
    rhs = _scale(2 * t, _pow(five, 3)) + _scale(_sq(t), _pow(five, 6))
    return _least(1e-10 - _abs(lhs - rhs))


def _velocity(rho, t, div):
    """root_velocity on columns, dividing by div (see _residue)."""
    return div(-rho, _scale(5, _pow(rho, 2)) + 3 * t)


def _acceleration(rho, t, div):
    """root_acceleration on columns, dividing by div (see _residue)."""
    five_rho2 = _scale(5, _pow(rho, 2))
    return div(_mul(_scale(2, rho), five_rho2 + 6 * t), _pow(five_rho2 + 3 * t, 3))


def _check_l(grids, tables):
    h = _FD_STEP
    fd_tol = 1e-4
    small = tables["small"]
    t = small.t
    margins = []
    for rho, div in ((small.alpha.astype(complex), _py_div), (small.beta, np.divide), (small.gamma, np.divide)):
        m = _abs(rho)
        margins += [m - 0.9990009, 1.0008097 - m,
                    0.2009 - _abs(_velocity(rho, t, div)), 0.0813 - _abs(_acceleration(rho, t, div))]
    # three-point finite-difference cross-check of both derivative formulas,
    # in CPython's complex arithmetic, at the _fd_inner points
    inner = _fd_inner(grids)
    shifted = tables["small±h"]
    half = len(shifted) // 2
    for key in ("alpha", "beta", "gamma"):
        a_, c_ = (getattr(shifted, key)[part].astype(complex) for part in (slice(half), slice(half, None)))
        b_, tb = getattr(small, key)[inner].astype(complex), t[inner]
        fd1 = _py_div(c_ - a_, 2 * h)
        fd2 = _py_div(c_ - _scale(2, b_) + a_, h**2)
        margins += [fd_tol - _abs(fd1 - _velocity(b_, tb, _py_div)),
                    fd_tol * 50 - _abs(fd2 - _acceleration(b_, tb, _py_div))]
    return _least(*margins)


def _check_m(grids, tables):
    unit = tables["unit"]
    return _least(5 * _pow(unit.gamma, 2).real + 3 * unit.t)


#: the battery in report order.  Each check id maps to its margin function
#: check(grids, tables), its name and statement, the root tables it reads
#: (_root_tables solves them) and its sample set: a str.format template
#: filled with the (start, stop, step) of the grid of the first table read.
_BATTERY = {
    "a": dict(check=_check_a, name="moduli-monotonic",
              statement="|alpha|, |gamma| strictly decrease and |beta| strictly increases in t",
              reads=("unit",), sample="t in [{0}, {1}] step {2}"),
    "b": dict(check=_check_b, name="moduli-range",
              statement="0.8375<=|alpha|<=0.999002, 1.000809<=|beta|<=1.1872, 0.9203<=|gamma|<=0.999692",
              reads=("large",), sample="a in [{0}, {1}] step {2}"),
    "c": dict(check=_check_c, name="residue-bounds",
              statement="|c_alpha| <= 2, |c_beta| >= 1/2007, |c_gamma| <= 1",
              reads=("large",), sample="a in [{0}, {1}] step {2}"),
    "d": dict(check=_check_d, name="projection-bound",
              statement="max(2|Re z|, 2|Re zw|) >= |z| |Im w| / |w| for |w| >= 1",
              reads=(), sample="20000 seeded random samples, |z| in [0.1,2], |w| in [1,2], "
                                "arg w in [0.05, pi-0.05]"),
    "e": dict(check=_check_e, name="beta-imag",
              statement="Im beta strictly increases in t and stays >= 0.95",
              reads=("large",), sample="a in [{0}, {1}] step {2}"),
    "f": dict(check=_check_f, name="unity-separation",
              statement="every root stays >= 1/10 from all fifth roots of unity; |gamma - 1| >= 0.2",
              reads=("unit",), sample="t in [{0}, {1}] step {2}"),
    "g": dict(check=_check_g, name="taylor-root",
              statement="|rho(t) - rho(0) + t/(5 rho(0))| <= 0.04065 t^2 and |rho(t)-rho(0)| <= 0.2009 t",
              reads=("small",), sample="t in (0, {1}] step {2}, all five branches (t^2-scaled margin)"),
    "h": dict(check=_check_h, name="modulus-taylor",
              statement="| |rho(t)|^2 - 1 - (2t/5) Re(rho(0)^3) | <= 0.13 t^2",
              reads=("small",), sample="t in (0, {1}] step {2}, all five branches (t^2-scaled margin)"),
    "i": dict(check=_check_i, name="scalar-taylor",
              statement="|log(1+x) - x| <= 0.512 x^2 and |1/(1+x) - 1| <= 1.02 |x| for |x| <= 0.01",
              reads=(), sample="x in ±[1e-5, 0.01] step 1e-5 (x^2- and |x|-scaled margins)"),
    "j": dict(check=_check_j, name="exponent-ratio",
              statement="ln|alpha|/ln|beta| in -1.236±0.008 and ln|gamma|/ln|beta| in -0.382±0.005",
              reads=("small",), sample="a in (0, {1}] step {2}"),
    "k": dict(check=_check_k, name="root-identity",
              statement="rho^10 - 1 = 2t rho^3 + t^2 rho^6 on every branch (residual < 1e-10)",
              reads=("unit",), sample="t in [{0}, {1}] step {2}"),
    "l": dict(check=_check_l, name="derivative-bounds",
              statement="0.9990009<=|rho|<=1.0008097, |rho'|<=0.2009, |rho''|<=0.0813; "
                        "closed forms agree with finite differences",
              reads=("small", "small±h"), sample="t in [{0}, {1}] step {2}"),
    "m": dict(check=_check_m, name="gamma-denominator",
              statement="Re(5 gamma^2 + 3t) > 0 (the gamma-branch derivative denominator never degenerates)",
              reads=("unit",), sample="t in [{0}, {1}] step {2}"),
}


def check_estimates(
    grids: Optional[EstimateGrids] = None,
    only: Optional[Sequence[str]] = None,
) -> List[CheckResult]:
    """Run the inequality battery; every margin must come back positive.

    grids overrides the sample densities; only restricts to a subset of
    check ids (letters a..m).  Each grid the selected checks read is solved
    once, by root_table, before the first check runs, and the checks share
    its table.
    """
    grids = grids or EstimateGrids()
    ids = list(_BATTERY) if only is None else list(only)
    for cid in ids:
        if cid not in _BATTERY:
            raise ValueError(f"unknown check id {cid!r}; valid: {sorted(_BATTERY)}")
    tables = _root_tables(grids, ids)
    results = []
    for cid in ids:
        entry = _BATTERY[cid]
        margin = float(entry["check"](grids, tables))
        spec = getattr(grids, entry["reads"][0]) if entry["reads"] else ()
        results.append(CheckResult(cid, entry["name"], entry["statement"], grid=entry["sample"].format(*spec),
                                   worst_margin=margin, passed=margin > 0))
    return results
