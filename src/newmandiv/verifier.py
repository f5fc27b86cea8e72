"""Case-by-case verification that no coefficient pattern survives.

For each n >= 11 the obstruction is a nonzero resultant

    R_n = Res(B_{n-2}, B_{n-5}) != 0,

which rules out a common root of the two window polynomials in (0, 1) and
with it the only way the cofactor sequence could keep every dividend
coefficient equal to 1 at position n.  Certificates are produced mod p:
when p divides neither leading coefficient, Res(B_{n-2} mod p, B_{n-5} mod p)
equals R_n mod p, so a nonzero value mod p proves R_n != 0 exactly.  An n
whose leading coefficient dies mod p is *skipped* for that prime and must
wait for a later one; the first prime (in ascending order) that proves a
case is recorded as its witness.

Over a field a resultant is nonzero exactly when the two polynomials are
coprime, so the batch pass never forms the resultant: one packed walk of
the window (``bseq.b_pairs``) feeds each admissible pair, checked against
the leading-coefficient law, to ``modpoly.coprime``, the same Euclid kernel
for every prime.  Euclid is skipped where it is certain to fail: a pair
that shares a root c in GF(p)* has (t - c) in its gcd, and one walk of the
values B_n(c) at every such c (``bseq.b_values``) marks those n first.  c = 0 is
never a shared root, since exactly one member of each pair has constant
term 1.  The marking walk costs (p - 1) * max(ns) scalar steps, so a pass
runs it once, and only when its admissible cases ns number at least p - 1;
a large prime skips it and runs Euclid on every case.  ``resultant_mod``
(the remainder-sequence resultant on the same walk's pair, unpacked) and
``verify_exact_small`` (exact Sylvester determinant on the exact walk) are
the independent single-case paths the tests hold it to.

Cases n = 5..10 are handled directly: one member of each pair is the zero
polynomial or has no root in (0, 1) at all, so no common root can exist.
That no-root check is exact (Descartes' rule of signs in integers).

A run resumes from a checkpoint file, replaced whole at each pass boundary
and re-checked claim by claim on load.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

from .bseq import b_leading, b_pairs, b_values
from .modpoly import (
    CapacityError,
    IntPoly,
    PackedPoly,
    Prime,
    coprime,
    resultant_prs,
    resultant_sylvester,
)

__all__ = [
    "BASE_CASE_WITNESS",
    "DEFAULT_PRIMES",
    "FIRST_RESULTANT_INDEX",
    "CheckpointMismatch",
    "BaseCase",
    "ClaimTable",
    "PrimePass",
    "VerifyReport",
    "skip_rule",
    "base_cases",
    "check_base_case",
    "resultant_mod",
    "verify_exact_small",
    "verify_range",
]

#: witness label for the directly-argued small cases
BASE_CASE_WITNESS = "case-analysis"

#: smallest n whose claim is certified by a resultant
FIRST_RESULTANT_INDEX = 11

#: primes that settle every case at least to n = 10^4
DEFAULT_PRIMES = (2, 3, 5, 7, 11, 13, 17)

Witness = Union[int, str]


class CheckpointMismatch(ValueError):
    """Checkpoint file disagrees with the requested run parameters."""


# --------------------------------------------------------------------------
# skip rule
# --------------------------------------------------------------------------


def skip_rule(n: int, p: int) -> bool:
    """True when the mod-p certificate is inadmissible at n.

    Inadmissible means p divides the leading coefficient of B_{n-2} or
    B_{n-5}, as b_leading gives it; reduction then drops the degree and the
    reduced resultant no longer determines R_n mod p.
    """
    if n < FIRST_RESULTANT_INDEX:
        raise ValueError(f"skip rule applies from n = {FIRST_RESULTANT_INDEX}, got {n}")
    return b_leading(n - 2)[1] % p == 0 or b_leading(n - 5)[1] % p == 0


# --------------------------------------------------------------------------
# claim table
# --------------------------------------------------------------------------


@dataclass
class ClaimTable:
    """Proof status for every case 5 <= n <= max_n.

    witness[n] is the ascending-first prime that proved n, or
    BASE_CASE_WITNESS for the directly-argued small cases; n absent means
    still unproven.  A recorded witness is never overwritten, which is what
    makes sequential and parallel runs agree.
    """

    max_n: int
    witness: Dict[int, Witness] = field(default_factory=dict)

    def __post_init__(self):
        if self.max_n < 5:
            raise ValueError("claims start at n = 5")

    def mark(self, n: int, w: Witness) -> None:
        if not 5 <= n <= self.max_n:
            raise ValueError(f"n = {n} outside claim range 5..{self.max_n}")
        self.witness.setdefault(n, w)

    def is_proven(self, n: int) -> bool:
        return n in self.witness

    def unproven(self) -> List[int]:
        return [n for n in range(5, self.max_n + 1) if n not in self.witness]

    def all_proven(self) -> bool:
        return len(self.witness) == self.max_n - 4

    def proved_up_to(self) -> int:
        """Largest m with every case 5..m proven (4 if n=5 is open)."""
        m = 5
        while m <= self.max_n and m in self.witness:
            m += 1
        return m - 1


# --------------------------------------------------------------------------
# base cases n = 5..10
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class BaseCase:
    """One directly-argued case: the pair (B_{n-2}, B_{n-5}) plus the member
    that visibly has no root in the open interval (0, 1)."""

    n: int
    pair: Tuple[IntPoly, IntPoly]
    no_root_witness: IntPoly


# which member of the pair carries the no-root argument (0 = B_{n-2})
_BASE_WITNESS_SLOT = {5: 1, 6: 0, 7: 1, 8: 0, 9: 0, 10: 0}


def base_cases() -> List[BaseCase]:
    """The six small cases, with exact window polynomials."""
    return [
        BaseCase(n, (f, g), (f, g)[_BASE_WITNESS_SLOT[n]]) for n, f, g in b_pairs(None, 10)
    ]


def check_base_case(case: BaseCase) -> bool:
    """Exactly check that the witness polynomial has no root in (0, 1).

    t = 1/(1+y) maps (0, 1) onto y > 0, so the roots of f in (0, 1) are the
    positive roots of (1+y)^d f(1/(1+y)), d = deg f, whose coefficients are
    integers.  By Descartes' rule of signs no sign change among them means
    no such root.  Any sign change returns False, even where the rule only
    gives an upper bound, so a witness with a root is never passed; the zero
    polynomial is not a witness.
    """
    cs = case.no_root_witness.coeffs
    d = len(cs) - 1
    moved = [sum(c * math.comb(d - k, j) for k, c in enumerate(cs)) for j in range(d + 1)]
    signs = {x > 0 for x in moved if x}
    return len(signs) == 1


# --------------------------------------------------------------------------
# per-prime computation
# --------------------------------------------------------------------------


def _check_leading(n: int, p: int, f: PackedPoly, g: PackedPoly) -> None:
    """Raise ArithmeticError unless B_{n-2} and B_{n-5} mod p keep the
    degree and leading coefficient that b_leading predicts.

    At an admissible n both leading coefficients survive mod p, which is
    what makes coprimality of the reduced pair equal to R_n != 0 mod p.
    """
    for m, poly in ((n - 2, f), (n - 5, g)):
        deg, lead = b_leading(m)
        if poly.degree() != deg or poly.leading() != lead % p:
            raise ArithmeticError(
                f"B_{m} mod {p} breaks the leading law at n={n}: "
                f"degree {poly.degree()}, expected {deg} with leading {lead % p}"
            )


def _shared_roots(p: int, ns: Sequence[int]) -> Set[int]:
    """The n of ns at which B_{n-2} and B_{n-5} mod p vanish together at
    some c in GF(p)*: (t - c) divides their gcd, so Euclid cannot prove n.
    One walk of the values (``b_values``) through max(ns); the values lie in
    [0, p), so both vanish at c exactly when their max does."""
    want = set(ns)
    return {n for n, f, g in b_values(Prime(p), max(ns)) if n in want and 0 in map(max, f, g)}


def _run_chunk(p: int, ns: Sequence[int], marked: Set[int]) -> List[int]:
    """Decide the admissible cases in ns for prime p; returns those proved.

    Walks the packed window once (``b_pairs``), up through max(ns).  At each
    requested n the pair (B_{n-2}, B_{n-5}) is checked against the leading
    law and proved when the two are coprime over GF(p); with both leading
    coefficients intact that is exactly R_n != 0 mod p.  The n in marked
    (the pass's ``_shared_roots``) fail without Euclid; the verdicts are the
    same.
    """
    if not ns:
        return []
    want = set(ns)
    proved: List[int] = []
    for n, f, g in b_pairs(Prime(p), max(ns)):
        if n in want:
            _check_leading(n, p, f, g)
            if n not in marked and coprime(f, g):
                proved.append(n)
    return proved


def resultant_mod(n: int, prime: Prime) -> int:
    """Res(B_{n-2} mod p, B_{n-5} mod p), the reduced-pair resultant.

    Equals R_n mod p exactly when skip_rule(n, p) is False; at a skipped n
    the value is still well-defined but certifies nothing.  Single-case
    diagnostic path: the last pair of one ``b_pairs`` walk, unpacked, goes
    to the remainder-sequence resultant, not to the packed kernel.
    """
    if n < FIRST_RESULTANT_INDEX:
        raise ValueError(f"resultants start at n = {FIRST_RESULTANT_INDEX}")
    for _, f, g in b_pairs(prime, n):
        pass
    return resultant_prs(f.unpack(), g.unpack())


def verify_exact_small(lo: int = 11, hi: int = 60) -> Dict[int, int]:
    """Exact integer R_n for lo <= n <= hi via the Sylvester determinant.

    Oracle path: independent of the mod-p machinery (Bareiss elimination on
    exact integers).  Capped to n <= 60 where the determinant stays cheap.
    """
    if not (FIRST_RESULTANT_INDEX <= lo <= hi <= 60):
        raise CapacityError(f"exact range must sit inside 11..60, got {lo}..{hi}")
    return {n: resultant_sylvester(f, g) for n, f, g in b_pairs(None, hi) if n >= lo}


# --------------------------------------------------------------------------
# checkpointing
# --------------------------------------------------------------------------


def _header(max_n: int, primes: Sequence[int]) -> List[str]:
    return [
        "# verify-resultants checkpoint v1",
        f"max_n={max_n}",
        "primes=" + ",".join(str(p) for p in primes),
        "# n status witness",
    ]


def _write_checkpoint(
    path: str, max_n: int, primes: Sequence[int], table: ClaimTable, done: Sequence[int]
) -> None:
    """Replace path whole: the header, one ``n proven <witness>`` line per
    claim of table in ascending n, and one ``# pass p=<p> complete`` line per
    completed pass.  The text goes to path + ".tmp", is synced, and is
    renamed onto path, so a crash leaves the old file or the new one."""
    lines = _header(max_n, primes)
    lines += [f"{n} proven {table.witness[n]}" for n in sorted(table.witness)]
    lines += [f"# pass p={p} complete" for p in done]
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write("\n".join(lines) + "\n")
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def _read_checkpoint(path: str, max_n: int, primes: Sequence[int], table: ClaimTable) -> List[int]:
    """Mark the claims of path in table; return its completed passes.

    An absent file records nothing.  Nothing is trusted unchecked: the
    header must name this run's max_n and primes; a prime witnesses only an
    admissible n >= 11, the case analysis only n <= 10; and the k-th pass
    marker must name the k-th prime, since passes finish in that order and
    a skipped pass is never recomputed.  _write_checkpoint always ends the
    file with a newline, so a file that does not is rejected.
    """
    if not os.path.exists(path):
        return []
    with open(path) as fh:
        text = fh.read()
    lines = text.splitlines()
    header = _header(max_n, primes)
    if lines[: len(header)] != header:
        raise CheckpointMismatch(
            f"{path} was written for different parameters "
            f"(wanted max_n={max_n}, primes={list(primes)})"
        )
    if not text.endswith("\n"):
        raise CheckpointMismatch(f"{path} does not end in a newline, so it was not written whole")
    done: List[int] = []
    for ln in lines[len(header) :]:
        if not ln.strip():
            continue
        if ln.startswith("# pass"):
            k = len(done)
            if k >= len(primes) or ln != f"# pass p={primes[k]} complete":
                due = f"the marker of p={primes[k]}" if k < len(primes) else "no further marker"
                raise CheckpointMismatch(f"pass marker {ln!r} where {due} was due")
            done.append(primes[k])
        else:
            table.mark(*_parse_claim(ln, max_n, primes))
    return done


def _parse_claim(ln: str, max_n: int, primes: Sequence[int]) -> Tuple[int, Witness]:
    parts = ln.split()
    if len(parts) != 3 or parts[1] != "proven" or not parts[0].isdigit():
        raise CheckpointMismatch(f"unreadable checkpoint line: {ln!r}")
    n = int(parts[0])
    if not 5 <= n <= max_n:
        raise CheckpointMismatch(f"case outside 5..{max_n}: {ln!r}")
    if parts[2] == BASE_CASE_WITNESS:
        if n >= FIRST_RESULTANT_INDEX:
            raise CheckpointMismatch(f"case analysis covers only n <= 10: {ln!r}")
        return n, BASE_CASE_WITNESS
    if not parts[2].isdigit() or int(parts[2]) not in primes:
        raise CheckpointMismatch(f"witness not in prime list: {ln!r}")
    w = int(parts[2])
    if n < FIRST_RESULTANT_INDEX or skip_rule(n, w):
        raise CheckpointMismatch(f"witness {w} is inadmissible at n={n}: {ln!r}")
    return n, w


# --------------------------------------------------------------------------
# driver
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class PrimePass:
    prime: int
    candidates: int  # unproven cases entering the pass
    skipped: int
    #: admissible cases the pass decided, counting those that failed on a
    #: shared root in GF(p)* with no Euclid run
    computed: int
    proved: int
    first_unproven_after: Optional[int]
    proved_up_to_after: int
    duration_seconds: float


@dataclass
class VerifyReport:
    max_n: int
    primes: List[int]
    table: ClaimTable
    passes: List[PrimePass]
    duration_seconds: float

    def all_proven(self) -> bool:
        return self.table.all_proven()

    def unproven(self) -> List[int]:
        return self.table.unproven()

    def to_dict(self) -> dict:
        return {
            "max_n": self.max_n,
            "primes": list(self.primes),
            "all_proven": self.all_proven(),
            "unproven": self.unproven(),
            "witnesses": {str(n): self.table.witness[n] for n in sorted(self.table.witness)},
            "passes": [asdict(ps) for ps in self.passes],
            "duration_seconds": self.duration_seconds,
        }


#: largest max_n: the case list alone is about 36 MB, the sweep weeks long
_MAX_N = 10**6


def verify_range(
    max_n: int,
    primes: Sequence[int] = DEFAULT_PRIMES,
    jobs: int = 1,
    checkpoint: Optional[str] = None,
    progress: Optional[Callable[[PrimePass], None]] = None,
) -> VerifyReport:
    """Settle every case 5 <= n <= max_n with the given ascending primes
    (at least one).

    One pass per prime: resultants are computed only for cases no earlier
    prime settled and the skip rule admits, so later (more expensive) primes
    see only the stragglers.  Each pass marks its shared roots here, once;
    with jobs > 1 a pass of at least 32 cases ns is dealt to k = min(jobs,
    len(ns)) workers, every k-th case to each, which balances them because
    consecutive cases cost nearly the same.  Passes are barriers, so
    witnesses match the sequential run exactly.  progress gets each pass's
    PrimePass once the pass is recorded.

    A checkpoint file's claims and completed passes are loaded first, and
    the file is replaced whole after the base cases and after each pass.
    """
    t0 = time.perf_counter()
    if max_n < 5:
        raise ValueError("max_n must be at least 5")
    if max_n > _MAX_N:
        raise CapacityError(f"max_n must be at most {_MAX_N}, got {max_n}")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    plist = [int(p) for p in primes]
    if not plist:
        raise ValueError("no primes given")
    for q in plist:
        Prime(q)  # validates primality and range
    if plist != sorted(set(plist)):
        raise ValueError("primes must be strictly ascending")

    table = ClaimTable(max_n)
    done: List[int] = []
    if checkpoint is not None:
        done = _read_checkpoint(checkpoint, max_n, plist, table)

    for case in base_cases():
        if case.n > max_n or table.is_proven(case.n):
            continue
        if not check_base_case(case):
            raise ArithmeticError(f"base case n={case.n} failed its no-root check")
        table.mark(case.n, BASE_CASE_WITNESS)
    if checkpoint is not None:
        _write_checkpoint(checkpoint, max_n, plist, table, done)

    passes: List[PrimePass] = []
    pool = None  # one worker pool per run, started by the first pass that needs one
    try:
        for p in plist:
            if p in done:
                continue
            t1 = time.perf_counter()
            cands = [n for n in table.unproven() if n >= FIRST_RESULTANT_INDEX]
            ns = [n for n in cands if not skip_rule(n, p)]
            marked = _shared_roots(p, ns) if p - 1 <= len(ns) else set()
            k = min(jobs, len(ns)) if jobs > 1 and len(ns) >= 32 else 1
            if k > 1 and pool is None:
                from concurrent.futures import ProcessPoolExecutor

                # every later pass's cases are a subset of cands, so no pass
                # has work for more workers than this
                pool = ProcessPoolExecutor(max_workers=min(jobs, len(cands)))
            chunks = [ns[i::k] for i in range(k)]
            parts = (map if k == 1 else pool.map)(_run_chunk, [p] * k, chunks, [marked] * k)
            proved = sorted(n for part in parts for n in part)
            for n in proved:
                table.mark(n, p)
            rest = table.unproven()
            ps = PrimePass(
                prime=p,
                candidates=len(cands),
                skipped=len(cands) - len(ns),
                computed=len(ns),
                proved=len(proved),
                first_unproven_after=rest[0] if rest else None,
                proved_up_to_after=table.proved_up_to(),
                duration_seconds=time.perf_counter() - t1,
            )
            passes.append(ps)
            done.append(p)
            if checkpoint is not None:
                _write_checkpoint(checkpoint, max_n, plist, table, done)
            if progress is not None:
                progress(ps)
    finally:
        if pool is not None:
            pool.shutdown()

    return VerifyReport(
        max_n=max_n,
        primes=plist,
        table=table,
        passes=passes,
        duration_seconds=time.perf_counter() - t0,
    )
