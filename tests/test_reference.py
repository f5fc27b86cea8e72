"""The benchmark's recorded outcomes, replayed in process.

perfbench/reference.json holds the exit code and digest of every benchmark
run, in a tiny and a full profile. Replaying every entry of both here shows
a digest drift in the test suite before the benchmark runs; the full
profile takes a few seconds. The file is only read.
"""

import json
from pathlib import Path

import pytest

from newmandiv.cli import main

REFERENCE = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "reference.json").read_text()
)

# verify-resume reads the checkpoint verify-parallel leaves, so it runs after it
KEYS = [
    "verify-serial",
    "verify-parallel",
    "verify-resume",
    "scan",
    "estimates",
    "simulate-all-ones",
    "simulate-counterfactual",
]


def test_keys_cover_every_entry():
    assert sorted(REFERENCE) == ["full", "tiny"]
    for entries in REFERENCE.values():
        assert sorted(KEYS) == sorted(entries)


@pytest.mark.parametrize("profile", ["tiny", "full"])
def test_reference_outcomes_replay(profile, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for key in KEYS:
        ref = REFERENCE[profile][key]
        code = main(list(ref["argv"]))
        doc = json.loads(capsys.readouterr().out)
        assert (code, doc["manifest"]["digest"]) == (ref["exit_code"], ref["digest"]), key
