"""The benchmark's recorded outcomes, replayed in process.

perfbench/reference.json holds the exit code and digest of every benchmark
run. Replaying the cheap ones here shows a digest drift in the test suite
before the benchmark runs. The file is only read.
"""

import json
from pathlib import Path

import pytest

from newmandiv.cli import main

REFERENCE = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "reference.json").read_text()
)

# verify-resume reads the checkpoint verify-parallel leaves, so it runs after it
TINY = [
    "verify-serial",
    "verify-parallel",
    "verify-resume",
    "scan",
    "estimates",
    "simulate-all-ones",
    "simulate-counterfactual",
]
# the full-profile runs that take seconds, not minutes
FULL = ["estimates", "simulate-all-ones", "simulate-counterfactual"]


def test_tiny_runs_every_tiny_entry():
    assert sorted(TINY) == sorted(REFERENCE["tiny"])


@pytest.mark.parametrize("profile, keys", [("tiny", TINY), ("full", FULL)], ids=["tiny", "full"])
def test_reference_outcomes_replay(profile, keys, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for key in keys:
        ref = REFERENCE[profile][key]
        code = main(list(ref["argv"]))
        doc = json.loads(capsys.readouterr().out)
        assert (code, doc["manifest"]["digest"]) == (ref["exit_code"], ref["digest"]), key
