"""The benchmark's workloads run and pass their own checks on small inputs.

``perfbench/workloads.py`` reads betsim's results through attributes
(``MacroSnapshot.mean``, ``ReturnSeries.samples``, ``grain_tracks``),
builds ``ModelSpec`` and ``SuperstatConfig`` objects itself and drives
``cli.dispatch`` on its committed configs.  This test imports it read
only, runs one pass of each workload with ``smoke=True`` and asserts
that every operation's check finds no problem, so a change of what the
benchmark reads fails here and not only in a benchmark run.  It also runs
the simulation operations, and ``cli``'s returns and inference commands,
at full size on seed 0 and compares their output digests with
``perfbench/references.json``, which every benchmark run checks: a change
of any byte they write fails here first.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
WORKLOADS_PY = PERFBENCH / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_smoke_pass_checks_clean(tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    workload = workloads.WORKLOADS[name](3, tmp_path, True)
    for label, fn in workload.ops():
        check = workload.check(workloads.Op(label, 0.0, fn()))
        assert check.problems == [], (label, check.problems)


# cli's ingest is left out: its returns are np.log of price ratios, whose
# last bits differ between numpy's AVX-512 loops and the others, so its
# reference holds only on hosts like the one that recorded it (ROADMAP,
# direction 13); fit-variance reads what gen-returns writes, so the
# returns writer and reader are checked byte for byte all the same
@pytest.mark.parametrize("name, labels", [
    ("sweep", ("replicate0", "replicate1")),
    ("cli", ("sim-conservative", "sim-dissipative", "gen-returns", "fit-variance", "compare-models")),
], ids=["sweep", "cli"])
def test_full_size_outputs_match_the_reference_digests(tmp_path, monkeypatch, name, labels):
    references = json.loads((PERFBENCH / "references.json").read_text())[name]["0"]
    monkeypatch.chdir(tmp_path)
    workload = workloads.WORKLOADS[name](0, tmp_path, False)
    for label, fn in workload.ops():
        if label in labels:
            check = workload.check(workloads.Op(label, 0.0, fn()))
            assert check.problems == [], (label, check.problems)
            assert check.digest == references[label], label
