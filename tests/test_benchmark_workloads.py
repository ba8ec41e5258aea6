"""The benchmark's workloads run and pass their own checks on small inputs.

``perfbench/workloads.py`` reads betsim's results through attributes
(``MacroSnapshot.mean``, ``ReturnSeries.samples``, ``grain_tracks``),
builds ``ModelSpec`` and ``SuperstatConfig`` objects itself and drives
``cli.dispatch`` on its committed configs.  This test imports it read
only, runs one pass of each workload with ``smoke=True`` and asserts
that every operation's check finds no problem, so a change of what the
benchmark reads fails here and not only in a benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


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
