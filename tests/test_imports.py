"""Import discipline: a process loads only the libraries its work needs.

Each test runs a fresh interpreter, because the test process itself has
numpy and mpmath (an oracle of the tests) loaded long before any test
starts. A module set to None in sys.modules cannot be imported, so a run
that would need it fails.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import newmandiv
from newmandiv.cli import main


def run_isolated(code, blocked=(), openblas_threads=None):
    """Run code in a fresh interpreter with the blocked modules unimportable
    and OPENBLAS_NUM_THREADS set to openblas_threads, or unset with None (an
    in-process main call sets it in this process)."""
    prelude = "import sys\n" + "".join(f"sys.modules[{m!r}] = None\n" for m in blocked)
    src = str(Path(newmandiv.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env.pop("OPENBLAS_NUM_THREADS", None)
    if openblas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas_threads
    return subprocess.run(
        [sys.executable, "-c", prelude + code], capture_output=True, text=True, env=env, timeout=120
    )


def run_cli_isolated(argv, blocked):
    return run_isolated(
        f"from newmandiv.cli import main\nsys.exit(main({list(argv)!r}))\n", blocked
    )


def test_importing_the_cli_loads_no_numpy_or_mpmath():
    # nor any layer module, nor the mod-p kernel: main loads the one layer
    # its subcommand runs
    unwanted = ["numpy", "mpmath"] + [
        f"newmandiv.{m}" for m in ("analytic", "modpoly", "search", "simulate", "verifier")
    ]
    out = run_isolated(
        "import newmandiv.cli\n"
        f"loaded = [m for m in {unwanted!r} if m in sys.modules]\n"
        "assert not loaded, loaded\n"
    )
    assert out.returncode == 0, out.stderr


def test_verify_resultants_runs_without_numpy_or_mpmath():
    out = run_isolated(
        "from newmandiv.cli import main\n"
        "code = main(['verify-resultants', '--max-n', '60', '--jobs', '2'])\n"
        "assert 'concurrent.futures' not in sys.modules  # no pass has 32 cases\n"
        "sys.exit(code)\n",
        blocked=("numpy", "mpmath"),
    )
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["report"]["witnesses"]["40"] == 13


@pytest.mark.parametrize(
    "argv",
    [
        ["estimates"],
        ["roots", "--t", "0.5"],
        ["simulate", "--a", "0.3"],
        ["simulate", "--a", "0.003", "--mode", "counterfactual"],
        ["estimate-N", "--a", "0.003"],
        ["vandermonde-check", "--nodes", "1,-1,0.6+0.8j"],
    ],
)
def test_double_precision_subcommands_run_without_mpmath_or_modpoly(argv, capsys):
    # the analysis layers need neither mpmath nor the mod-p kernel
    out = run_cli_isolated(argv, blocked=("mpmath", "newmandiv.modpoly"))
    assert out.returncode == main(argv) == 0, out.stderr
    expected = json.loads(capsys.readouterr().out)["manifest"]["digest"]
    assert json.loads(out.stdout)["manifest"]["digest"] == expected


def test_escalating_search_runs_without_mpmath(capsys):
    # the scan to degree 6 retries 1+x+x^3+x^4 and 1+x+x^5+x^6, both with a
    # repeated root, and reaches its verdict without mpmath
    argv = ["search", "--max-degree", "6"]
    out = run_cli_isolated(argv, blocked=("mpmath",))
    assert out.returncode == main(argv) == 0, out.stderr
    doc = json.loads(capsys.readouterr().out)
    assert [d["escalated"] for d in doc["report"]["degrees"]] == [0, 0, 0, 1, 0, 1]
    assert json.loads(out.stdout)["manifest"]["digest"] == doc["manifest"]["digest"]


def test_all_ones_simulate_runs_without_numpy(capsys):
    # the all-ones recurrence is plain float arithmetic
    argv = ["simulate", "--a", "0.3"]
    out = run_cli_isolated(argv, blocked=("numpy", "mpmath"))
    assert out.returncode == main(argv) == 0, out.stderr
    expected = json.loads(capsys.readouterr().out)["manifest"]["digest"]
    assert json.loads(out.stdout)["manifest"]["digest"] == expected


def test_all_ones_simulate_trace_runs_without_numpy(capsys, tmp_path):
    # the trace is rendered from the tuples of floats that collect keeps
    path = tmp_path / "trace.txt"
    argv = ["simulate", "--a", "0.3", "--trace", str(path)]
    out = run_cli_isolated(argv, blocked=("numpy", "mpmath"))
    assert out.returncode == 0, out.stderr
    isolated = path.read_bytes()
    assert main(argv) == 0
    expected = json.loads(capsys.readouterr().out)["manifest"]["digest"]
    assert json.loads(out.stdout)["manifest"]["digest"] == expected
    assert path.read_bytes() == isolated


@pytest.mark.parametrize("given, kept", [(None, "1"), ("2", "2")], ids=["unset", "caller-set"])
def test_main_loads_numpy_with_one_blas_thread_unless_the_caller_chose(given, kept):
    # OpenBLAS starts one worker thread per extra core when numpy loads,
    # unless OPENBLAS_NUM_THREADS says otherwise; main says 1, and keeps a
    # value the caller set
    out = run_isolated(
        "import os\n"
        "from newmandiv.cli import main\n"
        "assert main(['roots', '--t', '0.5']) == 0\n"
        "assert 'numpy' in sys.modules\n"
        "tasks = len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') else None\n"
        "print(os.environ.get('OPENBLAS_NUM_THREADS'), tasks, file=sys.stderr)\n",
        openblas_threads=given,
    )
    assert out.returncode == 0, out.stderr
    value, tasks = out.stderr.splitlines()[-1].split()
    assert value == kept, f"OPENBLAS_NUM_THREADS {value}, {tasks} threads"
    if given is None:
        if tasks == "None":
            pytest.skip("no /proc/self/task to count the process's threads")
        assert int(tasks) == 1
