"""Root-level analysis of the recurrence x^5 + t x^3 + 1.

The cofactor sequence rides the linear recurrence y_n = -a y_{n-2} - y_{n-5},
whose characteristic polynomial is the quintic above (t = a).  Everything
the asymptotic argument needs lives here:

* the five roots, tracked by angular sector from their t = 0 positions
  (the fifth roots of -1): one real root alpha < 0, and two conjugate
  pairs represented by their upper-half members beta and gamma;
* residue coefficients c_alpha, c_beta, c_gamma of the closed form
  y_n = c_alpha alpha^n + 2 Re(c_beta beta^n) + 2 Re(c_gamma gamma^n);
* an exact inverse for small Vandermonde systems (used to re-solve for
  residues from windows of sequence values);
* the balance-point estimate N(a) where the slow real mode and the growing
  beta mode exchange dominance;
* a battery of interval checks, each a quantitative inequality the
  asymptotic argument leans on, re-verified on dense grids with explicit
  margins.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .modpoly import CapacityError

__all__ = [
    "N_ESTIMATE_CONSTANT",
    "QuinticRoots",
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


def _polish(z: np.ndarray, t) -> np.ndarray:
    """Two Newton sweeps on x^5 + t x^3 + 1; they tighten the residual floor.

    z is a table of root rows and t the column of their parameters.
    """
    for _ in range(2):
        pv = z**5 + t * z**3 + 1
        dv = 5 * z**4 + 3 * t * z**2
        z = z - pv / dv
    return z


def _sectors(t: float, z: np.ndarray) -> QuinticRoots:
    """Sort one row of polished double-precision roots into alpha, beta, gamma."""
    by_sector: Dict[str, complex] = {}
    for r in z:
        ang = cmath.phase(r)
        if abs(ang) > 4 * math.pi / 5:
            by_sector["alpha"] = r
        elif 2 * math.pi / 5 < ang < 4 * math.pi / 5:
            by_sector["beta"] = r
        elif 0 < ang < 2 * math.pi / 5:
            by_sector["gamma"] = r
    if set(by_sector) != {"alpha", "beta", "gamma"}:
        raise ArithmeticError(f"sector classification failed at t={t}: {z}")
    alpha_c, beta, gamma = by_sector["alpha"], by_sector["beta"], by_sector["gamma"]
    if abs(alpha_c.imag) > 1e-12:
        raise ArithmeticError(f"real root drifted off the axis at t={t}: {alpha_c}")
    alpha = alpha_c.real
    resid = max(abs(r**5 + t * r**3 + 1) for r in (complex(alpha), beta, gamma))
    return QuinticRoots(t=t, alpha=alpha, beta=beta, gamma=gamma, residual=resid)


def find_roots(t: float) -> QuinticRoots:
    """Roots of x^5 + t x^3 + 1 for 0 <= t <= 1: root_table at one point."""
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t must lie in [0, 1], got {t}")
    return root_table([t])[0]


def root_table(ts: Sequence[float]) -> List[QuinticRoots]:
    """Roots of x^5 + t x^3 + 1 for every t in ts, in double precision.

    One batched Aberth solve, seeded at the exact t = 0 roots (fifth roots of
    -1), then two Newton sweeps over the whole table.
    """
    ts = np.asarray(ts, dtype=float)
    if not np.all((0.0 <= ts) & (ts <= 1.0)):
        raise ValueError(f"t must lie in [0, 1], got values in [{ts.min()}, {ts.max()}]")
    coeffs = np.zeros((len(ts), 6), dtype=complex)
    coeffs[:, 0] = coeffs[:, 5] = 1.0
    coeffs[:, 3] = ts
    seeds = np.broadcast_to(_FIFTH_ROOTS_OF_MINUS_ONE, (len(ts), 5))
    z = _polish(aberth_roots(coeffs, seeds), ts[:, None])
    return [_sectors(float(t), row) for t, row in zip(ts, z)]


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


def _residue(rho, a):
    return -a / (2 * rho**5 - 3) * rho**2 / (rho**2 - 1)


def _residues(roots: QuinticRoots) -> ResidueCoeffs:
    """Residues from the roots at a = roots.t, for the start values
    y_0..y_4 = (-s, 1-s, -s, 1-s, -s), s = 1/(2+a).

    Requires a > 0: at a = 0 all roots sit on the unit circle and alpha = -1
    makes rho^2 - 1 vanish — the expansion degenerates.  So it does in
    double precision once alpha rounds to -1, below about a = 4e-16.
    """
    a = roots.t
    if not a > 0.0:
        raise ValueError(f"residues need 0 < a <= 1, got {a}")
    if roots.alpha**2 == 1.0:
        raise ValueError(
            f"residues at a = {a:g} are out of reach in double precision: the real root alpha"
            f" rounds to -1, where the residue divides by alpha^2 - 1 = 0"
        )
    c_alpha = _residue(complex(roots.alpha), a)
    if abs(c_alpha.imag) > 1e-12 * (1 + abs(c_alpha)):
        raise ArithmeticError(f"real residue drifted complex at a={a}")
    return ResidueCoeffs(
        a=a,
        c_alpha=c_alpha.real,
        c_beta=_residue(roots.beta, a),
        c_gamma=_residue(roots.gamma, a),
    )


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

    worst_margin is (bound - observed) in the check's own scaling; the
    check holds iff the margin is strictly positive.
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


def _result(check_id, name, statement, grid_desc, margin) -> CheckResult:
    return CheckResult(
        check_id=check_id,
        name=name,
        statement=statement,
        grid=grid_desc,
        worst_margin=float(margin),
        passed=bool(margin > 0),
    )


#: step of the finite-difference cross-check in (l)
_FD_STEP = 1e-6

#: the root tables each check reads
_TABLES = {
    "a": ("unit",),
    "b": ("large",),
    "c": ("large",),
    "e": ("large",),
    "f": ("unit",),
    "g": ("small",),
    "h": ("small",),
    "j": ("small",),
    "k": ("unit",),
    "l": ("small", "small±h"),
    "m": ("unit",),
}


def _root_tables(grids: EstimateGrids, ids: Sequence[str]) -> Dict[str, List[QuinticRoots]]:
    """One root table per grid that the checks ids read.

    "small±h" holds the roots at t - h for every small-grid t of the
    finite-difference check in (l), then those at t + h.
    """
    tables = {}
    for name in sorted({g for cid in ids for g in _TABLES.get(cid, ())}):
        if name == "small±h":
            ts = _grid(grids.small)
            ts = ts[(_FD_STEP <= ts) & (ts <= grids.small[1] - _FD_STEP)]
            ts = np.concatenate([ts - _FD_STEP, ts + _FD_STEP])
        else:
            ts = _grid(getattr(grids, name))
        tables[name] = root_table(ts)
    return tables


def _check_a(grids, tables):
    rr = tables["unit"]
    aa = np.array([abs(r.alpha) for r in rr])
    bb = np.array([abs(r.beta) for r in rr])
    gg = np.array([abs(r.gamma) for r in rr])
    margin = min(
        float(np.min(aa[:-1] - aa[1:])),  # |alpha| strictly decreasing
        float(np.min(bb[1:] - bb[:-1])),  # |beta| strictly increasing
        float(np.min(gg[:-1] - gg[1:])),  # |gamma| strictly decreasing
    )
    return _result(
        "a",
        "moduli-monotonic",
        "|alpha|, |gamma| strictly decrease and |beta| strictly increases in t",
        f"t in [{grids.unit[0]}, {grids.unit[1]}] step {grids.unit[2]}",
        margin,
    )


def _check_b(grids, tables):
    rr = tables["large"]
    aa = np.array([abs(r.alpha) for r in rr])
    bb = np.array([abs(r.beta) for r in rr])
    gg = np.array([abs(r.gamma) for r in rr])
    margin = min(
        float(np.min(aa - 0.8375)),
        float(np.min(0.999002 - aa)),
        float(np.min(bb - 1.000809)),
        float(np.min(1.1872 - bb)),
        float(np.min(gg - 0.9203)),
        float(np.min(0.999692 - gg)),
    )
    return _result(
        "b",
        "moduli-range",
        "0.8375<=|alpha|<=0.999002, 1.000809<=|beta|<=1.1872, 0.9203<=|gamma|<=0.999692",
        f"a in [{grids.large[0]}, {grids.large[1]}] step {grids.large[2]}",
        margin,
    )


def _check_c(grids, tables):
    margin = math.inf
    for r in tables["large"]:
        res = _residues(r)
        margin = min(
            margin,
            2.0 - abs(res.c_alpha),
            abs(res.c_beta) - 1.0 / 2007.0,
            1.0 - abs(res.c_gamma),
        )
    return _result(
        "c",
        "residue-bounds",
        "|c_alpha| <= 2, |c_beta| >= 1/2007, |c_gamma| <= 1",
        f"a in [{grids.large[0]}, {grids.large[1]}] step {grids.large[2]}",
        margin,
    )


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
    margin = float(np.min(lhs - rhs))
    return _result(
        "d",
        "projection-bound",
        "max(2|Re z|, 2|Re zw|) >= |z| |Im w| / |w| for |w| >= 1",
        f"{n} seeded random samples, |z| in [0.1,2], |w| in [1,2], arg w in [0.05, pi-0.05]",
        margin,
    )


def _check_e(grids, tables):
    ib = np.array([r.beta.imag for r in tables["large"]])
    margin = min(float(np.min(ib[1:] - ib[:-1])), float(np.min(ib - 0.95)))
    return _result(
        "e",
        "beta-imag",
        "Im beta strictly increases in t and stays >= 0.95",
        f"a in [{grids.large[0]}, {grids.large[1]}] step {grids.large[2]}",
        margin,
    )


def _check_f(grids, tables):
    fifth = np.exp(2j * math.pi * np.arange(5) / 5)
    margin = math.inf
    for r in tables["unit"]:
        roots = np.array(r.all_roots())
        d = np.min(np.abs(roots[:, None] - fifth[None, :]))
        margin = min(margin, d - 0.1, abs(r.gamma - 1) - 0.2)
    return _result(
        "f",
        "unity-separation",
        "every root stays >= 1/10 from all fifth roots of unity; |gamma - 1| >= 0.2",
        f"t in [{grids.unit[0]}, {grids.unit[1]}] step {grids.unit[2]}",
        margin,
    )


def _track_from_zero(r: QuinticRoots) -> List[Tuple[complex, complex]]:
    """(rho(0), rho(t)) matched by angular sector."""
    pairs = []
    for r0 in _FIFTH_ROOTS_OF_MINUS_ONE:
        rt = min(r.all_roots(), key=lambda x: abs(x - r0))
        pairs.append((r0, rt))
    return pairs


def _small_positive(grids, tables) -> List[Tuple[float, QuinticRoots]]:
    """(t, roots) over the small grid without t = 0, where t-scaled margins exist.

    A point too small for them is a ValueError that names the grid and the
    point: (g) and (h) divide by t^2, which is 0 below about 1.5e-162, and
    (j) by ln|beta|, which is 0 once |beta| rounds to 1 (about t < 1e-16).
    """
    points = [(t, r) for t, r in zip(_grid(grids.small), tables["small"]) if t > 0]
    for t, r in points:
        if t * t == 0 or abs(r.beta) == 1:
            start, stop, step = grids.small
            why = "t^2 is 0" if t * t == 0 else "|beta| rounds to 1"
            raise ValueError(
                f"grid small={start}:{stop}:{step} has the point t = {t:g}, too small for"
                f" checks (g), (h) and (j): {why}"
            )
    return points


def _check_g(grids, tables):
    margin = math.inf
    for t, r in _small_positive(grids, tables):
        for r0, rt in _track_from_zero(r):
            err2 = abs(rt - r0 + t / (5 * r0)) / t**2
            err1 = abs(rt - r0) / t
            margin = min(margin, 0.04065 - err2, 0.2009 - err1)
    return _result(
        "g",
        "taylor-root",
        "|rho(t) - rho(0) + t/(5 rho(0))| <= 0.04065 t^2 and |rho(t)-rho(0)| <= 0.2009 t",
        f"t in ({0}, {grids.small[1]}] step {grids.small[2]}, all five branches (t^2-scaled margin)",
        margin,
    )


def _check_h(grids, tables):
    margin = math.inf
    for t, r in _small_positive(grids, tables):
        for r0, rt in _track_from_zero(r):
            err = abs(abs(rt) ** 2 - 1 - (2 * t / 5) * (r0**3).real) / t**2
            margin = min(margin, 0.13 - err)
    return _result(
        "h",
        "modulus-taylor",
        "| |rho(t)|^2 - 1 - (2t/5) Re(rho(0)^3) | <= 0.13 t^2",
        f"t in (0, {grids.small[1]}] step {grids.small[2]}, all five branches (t^2-scaled margin)",
        margin,
    )


def _check_i(grids, tables):
    xs = np.concatenate([-_grid((1e-5, 0.01, 1e-5)), _grid((1e-5, 0.01, 1e-5))])
    log_err = np.abs(np.log1p(xs) - xs) / xs**2
    inv_err = np.abs(1.0 / (1.0 + xs) - 1.0) / np.abs(xs)
    margin = min(float(np.min(0.512 - log_err)), float(np.min(1.02 - inv_err)))
    return _result(
        "i",
        "scalar-taylor",
        "|log(1+x) - x| <= 0.512 x^2 and |1/(1+x) - 1| <= 1.02 |x| for |x| <= 0.01",
        "x in ±[1e-5, 0.01] step 1e-5 (x^2- and |x|-scaled margins)",
        margin,
    )


def _check_j(grids, tables):
    margin = math.inf
    for _, r in _small_positive(grids, tables):
        lb = math.log(abs(r.beta))
        ra = math.log(abs(r.alpha)) / lb
        rg = math.log(abs(r.gamma)) / lb
        margin = min(
            margin,
            0.008 - abs(ra - (-1.236)),
            0.005 - abs(rg - (-0.382)),
        )
    return _result(
        "j",
        "exponent-ratio",
        "ln|alpha|/ln|beta| in -1.236±0.008 and ln|gamma|/ln|beta| in -0.382±0.005",
        f"a in (0, {grids.small[1]}] step {grids.small[2]}",
        margin,
    )


def _check_k(grids, tables):
    margin = math.inf
    for t, r in zip(_grid(grids.unit), tables["unit"]):
        for rho in r.all_roots():
            lhs = rho**10 - 1
            rhs = 2 * t * rho**3 + t**2 * rho**6
            margin = min(margin, 1e-10 - abs(lhs - rhs))
    return _result(
        "k",
        "root-identity",
        "rho^10 - 1 = 2t rho^3 + t^2 rho^6 on every branch (residual < 1e-10)",
        f"t in [{grids.unit[0]}, {grids.unit[1]}] step {grids.unit[2]}",
        margin,
    )


def _check_l(grids, tables):
    margin = math.inf
    h = _FD_STEP
    fd_tol = 1e-4
    shifted = tables["small±h"]
    minus = iter(shifted[: len(shifted) // 2])
    plus = iter(shifted[len(shifted) // 2:])
    for t, r in zip(_grid(grids.small), tables["small"]):
        t = float(t)
        for rho in (complex(r.alpha), r.beta, r.gamma):
            margin = min(
                margin,
                abs(rho) - 0.9990009,
                1.0008097 - abs(rho),
                0.2009 - abs(root_velocity(rho, t)),
                0.0813 - abs(root_acceleration(rho, t)),
            )
        # three-point finite-difference cross-check of both derivative formulas
        if h <= t <= grids.small[1] - h:
            rm, r0, rp = next(minus), r, next(plus)
            for key in ("alpha", "beta", "gamma"):
                a_, b_, c_ = (
                    complex(getattr(rm, key)),
                    complex(getattr(r0, key)),
                    complex(getattr(rp, key)),
                )
                fd1 = (c_ - a_) / (2 * h)
                fd2 = (c_ - 2 * b_ + a_) / h**2
                margin = min(
                    margin,
                    fd_tol - abs(fd1 - root_velocity(b_, t)),
                    fd_tol * 50 - abs(fd2 - root_acceleration(b_, t)),
                )
    return _result(
        "l",
        "derivative-bounds",
        "0.9990009<=|rho|<=1.0008097, |rho'|<=0.2009, |rho''|<=0.0813; "
        "closed forms agree with finite differences",
        f"t in [{grids.small[0]}, {grids.small[1]}] step {grids.small[2]}",
        margin,
    )


def _check_m(grids, tables):
    margin = math.inf
    for t, r in zip(_grid(grids.unit), tables["unit"]):
        margin = min(margin, (5 * r.gamma**2 + 3 * t).real)
    return _result(
        "m",
        "gamma-denominator",
        "Re(5 gamma^2 + 3t) > 0 (the gamma-branch derivative denominator never degenerates)",
        f"t in [{grids.unit[0]}, {grids.unit[1]}] step {grids.unit[2]}",
        margin,
    )


_CHECKS = {
    "a": _check_a,
    "b": _check_b,
    "c": _check_c,
    "d": _check_d,
    "e": _check_e,
    "f": _check_f,
    "g": _check_g,
    "h": _check_h,
    "i": _check_i,
    "j": _check_j,
    "k": _check_k,
    "l": _check_l,
    "m": _check_m,
}


def check_estimates(
    grids: Optional[EstimateGrids] = None,
    only: Optional[Sequence[str]] = None,
) -> List[CheckResult]:
    """Run the inequality battery; every margin must come back positive.

    grids overrides the sample densities; only restricts to a subset of
    check ids (letters a..m).  Each grid the selected checks read is solved
    once, by root_table, and the checks share its table.
    """
    grids = grids or EstimateGrids()
    ids = list(_CHECKS) if only is None else list(only)
    for cid in ids:
        if cid not in _CHECKS:
            raise ValueError(f"unknown check id {cid!r}; valid: {sorted(_CHECKS)}")
    tables = _root_tables(grids, ids)
    return [_CHECKS[cid](grids, tables) for cid in ids]
