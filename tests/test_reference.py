"""The benchmark's recorded outcomes, replayed in process.

perfbench/reference.json holds the exit code and digest of every benchmark
run, in a tiny and a full profile. Replaying every entry of both here shows
a digest drift in the test suite before the benchmark runs; the full
profile takes a few seconds. The file is only read.
"""

import ast
import importlib
import json
from pathlib import Path

import pytest

from newmandiv import analytic, search
from newmandiv.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())

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


# ----------------------------------------------------------------------
# the hooks the traced benchmark (perfbench/run.py --trace 1) relies on
# ----------------------------------------------------------------------


def _wrap_targets():
    """(module, attribute) of every rec.wrap(module, "attribute", ...) call
    in perfbench/tracer.py, which is parsed, not imported."""
    tree = ast.parse((PERFBENCH / "tracer.py").read_text())
    return [
        (node.args[0].id, node.args[1].value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "wrap"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "rec"
    ]


def test_tracer_wrap_targets_exist():
    targets = _wrap_targets()
    assert ("search", "split_survey") in targets
    for module, attr in targets:
        value = getattr(importlib.import_module(f"newmandiv.{module}"), attr, None)
        assert callable(value), f"{module}.{attr}"


def test_layers_check_ids_are_the_battery():
    # perfbench/layers.py (parsed, not imported) times each check id alone
    # and reads one metric per id, in report order
    tree = ast.parse((PERFBENCH / "layers.py").read_text())
    values = [
        node.value.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["CHECK_IDS"]
    ]
    assert values == ["".join(analytic._BATTERY)]


def test_scan_surveys_each_mask_once(monkeypatch):
    # perfbench/layers.py divides the escalation share by the number of
    # traced split_survey calls: one per mask, 2^(d-1) masks of degree d
    calls = []
    survey = search.split_survey
    monkeypatch.setattr(search, "split_survey", lambda r: calls.append(r) or survey(r))
    search.scan(8, jobs=1)
    assert len(calls) == 255 == len(set(calls))
