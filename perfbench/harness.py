"""Workloads, subprocess measurement and reference checks for the newmandiv benchmark.

Every CLI invocation runs as its own process in a fresh temporary working
directory under ``.perfbench_tmp/`` in the checkout, with bytecode writing
off. Its wall time, CPU time (the process plus the pool workers it reaped)
and peak resident set come from ``wait4``. Its manifest is checked against
``reference.json``: exit code, digest, the spot checks below, and for every
verify invocation that the witness table is the serial run's.
"""

from __future__ import annotations

import glob
import hashlib
import importlib.metadata
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")
TRACER = os.path.join(HERE, "tracer.py")

#: pool size of the parallel verify workload; never above nproc on the 2-core reference machine
JOBS = 2
#: checkpoint name; the CLI digests it as a parameter, so it never varies
CHECKPOINT = "verify.ckpt"
#: set-up probes per run (cheap ``roots`` invocations)
PROBES = 6
#: a run kills whatever still runs this long after it started, so it ends within 180 s
RUN_DEADLINE_S = 170.0


class NotMeasurable(RuntimeError):
    """newmandiv did not run far enough to be measured."""


@dataclass(frozen=True)
class Profile:
    max_n: int
    max_degree: int
    grids: tuple  # --grid overrides passed to ``estimates``
    witness_spots: Dict[str, int]


PROFILES = {
    "full": Profile(2000, 11, (), {"11": 3, "40": 13, "1855": 17}),
    # the benchmark's own tests run this one; it finishes in seconds
    "tiny": Profile(200, 6, ("unit=0:1:0.02", "large=0.005:0.999:0.02", "small=0.0001:0.005:0.0001"),
                    {"11": 3, "40": 13}),
}

#: workload -> the invocations it runs, in order
WORKLOADS = {
    "verify-serial": ("verify-serial",),
    "verify-parallel": ("verify-parallel", "verify-resume"),
    "scan": ("scan",),
    "analysis": ("estimates", "simulate-all-ones", "simulate-counterfactual"),
}


def cli_args(profile: Profile) -> Dict[str, List[str]]:
    verify = ["verify-resultants", "--max-n", str(profile.max_n), "--primes", "2..17"]
    parallel = verify + ["--jobs", str(JOBS), "--checkpoint", CHECKPOINT]
    return {
        "verify-serial": verify + ["--jobs", "1"],
        "verify-parallel": parallel,
        "verify-resume": parallel,  # same command, run where the completed checkpoint sits
        "scan": ["search", "--max-degree", str(profile.max_degree)],
        "estimates": ["estimates"] + [a for g in profile.grids for a in ("--grid", g)],
        "simulate-all-ones": ["simulate", "--a", "0.3"],
        "simulate-counterfactual": ["simulate", "--a", "0.003", "--mode", "counterfactual"],
    }


def spot_checks(key: str, profile: Profile) -> Dict[str, object]:
    """Dotted report paths and the values they must hold."""
    if key.startswith("verify"):
        spots = {f"witnesses.{n}": w for n, w in profile.witness_spots.items()}
        return {"all_proven": True, **spots}
    if key == "scan":
        return {"conjecture_holds": True}
    if key == "estimates":
        return {"all_passed": True}
    return {}


def witnesses_sha256(report: dict) -> str:
    return hashlib.sha256(json.dumps(report.get("witnesses"), sort_keys=True).encode()).hexdigest()


def _lookup(doc: dict, path: str):
    for part in path.split("."):
        if not isinstance(doc, dict) or part not in doc:
            return None
        doc = doc[part]
    return doc


# --------------------------------------------------------------------------
# one process
# --------------------------------------------------------------------------


@dataclass
class Invocation:
    key: str
    workdir: str
    start: float
    end: float
    cpu_s: float
    rss_mb: float
    exit_code: int
    stdout_bytes: int
    doc: Optional[dict]
    failures: List[str] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return self.end - self.start

    @property
    def setup_s(self) -> Optional[float]:
        """Process wall time the manifest does not account for: start, imports, output."""
        if self.doc is None:
            return None
        return self.wall_s - self.doc["manifest"]["duration_seconds"]


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def spawn(key: str, argv: List[str], workdir: str, env: Dict[str, str], timeout: float) -> Invocation:
    """Run argv in workdir, killed after timeout seconds; stdout and stderr go to files there."""
    with open(os.path.join(workdir, "stdout.json"), "wb") as out, \
            open(os.path.join(workdir, "stderr.txt"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=workdir, env=env, stdout=out, stderr=err,
                                start_new_session=True)
        timer = threading.Timer(timeout, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        _kill_group(proc.pid)  # pool workers a failed process may have left
    with open(os.path.join(workdir, "stdout.json"), "rb") as fh:
        raw = fh.read()
    try:
        doc = json.loads(raw)
    except ValueError:
        doc = None
    return Invocation(
        key=key,
        workdir=workdir,
        start=start,
        end=end,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
        exit_code=proc.returncode,
        stdout_bytes=len(raw),
        doc=doc if isinstance(doc, dict) and "manifest" in doc else None,
    )


# --------------------------------------------------------------------------
# checks
# --------------------------------------------------------------------------


def check(inv: Invocation, reference: dict, profile: Profile) -> List[str]:
    """Every way inv differs from its reference outcome (empty = correct)."""
    ref = reference[inv.key]
    failures = []
    if inv.exit_code != ref["exit_code"]:
        failures.append(f"exit code {inv.exit_code}, expected {ref['exit_code']}")
    if inv.doc is None:
        return failures + ["no manifest on stdout"]
    digest = inv.doc["manifest"]["digest"]
    if digest != ref["digest"]:
        failures.append(f"digest {digest[:16]}, expected {ref['digest'][:16]}")
    report = inv.doc["report"]
    for path, want in spot_checks(inv.key, profile).items():
        got = _lookup(report, path)
        if got != want:
            failures.append(f"{path} = {got!r}, expected {want!r}")
    if inv.key.startswith("verify"):
        if witnesses_sha256(report) != reference["verify-serial"]["witnesses_sha256"]:
            failures.append("witness table differs from the serial run's")
    return failures


def check_probe(inv: Invocation) -> List[str]:
    if inv.exit_code != 0 or inv.doc is None:
        return [f"set-up probe exit code {inv.exit_code}"]
    residual = inv.doc["report"]["residual"]
    return [] if residual < 1e-9 else [f"set-up probe residual {residual:.3g}"]


# --------------------------------------------------------------------------
# a run
# --------------------------------------------------------------------------


class Runner:
    """Spawns and checks invocations of one profile; owns the run's scratch directory."""

    def __init__(self, root: str, profile: Profile, reference: Optional[dict]):
        self.profile = profile
        self.reference = reference
        self.args = cli_args(profile)
        scratch_parent = os.path.join(root, ".perfbench_tmp")
        os.makedirs(scratch_parent, exist_ok=True)
        self.scratch = tempfile.mkdtemp(prefix="run-", dir=scratch_parent)
        src = os.path.join(root, "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""),
                        PYTHONDONTWRITEBYTECODE="1")
        self.invocations: List[Invocation] = []
        self.deadline = time.perf_counter() + RUN_DEADLINE_S

    def _spawn(self, key: str, argv: List[str], workdir: str) -> Invocation:
        return spawn(key, argv, workdir, self.env, max(1.0, self.deadline - time.perf_counter()))

    def close(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.scratch))  # only when no other run is using it
        except OSError:
            pass

    def fresh_dir(self, key: str) -> str:
        return tempfile.mkdtemp(prefix=key + "-", dir=self.scratch)

    def probe(self, t: str) -> Invocation:
        argv = [sys.executable, "-m", "newmandiv.cli", "roots", "--t", t]
        inv = self._spawn("probe", argv, self.fresh_dir("probe"))
        inv.failures = check_probe(inv)
        self.invocations.append(inv)
        shutil.rmtree(inv.workdir, ignore_errors=True)
        return inv

    def workload(self, name: str, traced: bool = False) -> List[Invocation]:
        """One repetition of the workload's invocations, each in a fresh directory.

        traced runs each invocation under the tracer and leaves its directory
        (spans, checkpoint) for the caller to read and remove.
        """
        out: List[Invocation] = []
        for key in WORKLOADS[name]:
            workdir = self.fresh_dir(key)
            checkpoint = os.path.join(out[-1].workdir, CHECKPOINT) if out else ""
            if key == "verify-resume" and os.path.exists(checkpoint):
                shutil.copy(checkpoint, workdir)
            head = [sys.executable, TRACER, "--spans-dir", workdir, "--"] if traced \
                else [sys.executable, "-m", "newmandiv.cli"]
            inv = self._spawn(key, head + self.args[key], workdir)
            if self.reference is not None:  # None while the reference is being recorded
                inv.failures = check(inv, self.reference, self.profile)
            out.append(inv)
        self.invocations.extend(out)
        if not traced:
            for inv in out:
                shutil.rmtree(inv.workdir, ignore_errors=True)
        return out

    def estimate_checks(self, ids: str) -> List[dict]:
        """Time each estimate check alone under the tracer; returns the spans."""
        workdir = self.fresh_dir("checks")
        argv = [sys.executable, TRACER, "--spans-dir", workdir, "--checks", ids]
        argv += [a for g in self.profile.grids for a in ("--grid", g)]
        inv = self._spawn("checks", argv, workdir)
        if inv.exit_code != 0:
            raise NotMeasurable(f"traced estimate checks exited with {inv.exit_code}")
        spans = load_spans(workdir)
        shutil.rmtree(workdir, ignore_errors=True)
        return spans


def load_spans(directory: str) -> List[dict]:
    """Every span the traced processes wrote into directory."""
    spans: List[dict] = []
    for path in sorted(glob.glob(os.path.join(directory, "spans-*.jsonl"))):
        with open(path) as fh:
            spans.extend(json.loads(line) for line in fh if line.strip())
    return spans


def rep_wall(invs: List[Invocation]) -> float:
    """Spawn of the first process to exit of the last."""
    return invs[-1].end - invs[0].start


def end_to_end(reps: List[List[Invocation]], probes: List[Invocation]) -> Dict[str, float]:
    """Medians over repetitions; setup_s is the invocation count times the
    median per-process set-up over every CLI process of the run."""
    setups = [inv.setup_s for inv in probes + [i for rep in reps for i in rep]
              if inv.setup_s is not None]
    return {
        "wall_s": statistics.median(rep_wall(rep) for rep in reps),
        "setup_s": len(reps[0]) * statistics.median(setups),
        "cpu_s": statistics.median(sum(i.cpu_s for i in rep) for rep in reps),
        "peak_rss_mb": statistics.median(max(i.rss_mb for i in rep) for rep in reps),
    }


def probe_values(seed: int) -> List[str]:
    """Seeded inputs of the set-up probes: values of t for ``roots --t``."""
    rng = random.Random(seed)
    return [f"{rng.uniform(0.05, 1.0):.6f}" for _ in range(PROBES)]


# --------------------------------------------------------------------------
# machine
# --------------------------------------------------------------------------


def _git(root: str, *args: str) -> Optional[str]:
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        return subprocess.run(["git", "--no-optional-locks", *args], cwd=root, capture_output=True,
                              text=True, timeout=30, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def _cpu_model() -> Optional[str]:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _version(dist: str) -> Optional[str]:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def machine(root: str) -> dict:
    status = _git(root, "status", "--porcelain", "--untracked-files=no")
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "mpmath": _version("mpmath"),
        "git_commit": _git(root, "rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
    }
