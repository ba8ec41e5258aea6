"""The benchmark's traced run finds every betsim function it names.

``perfbench/tracer.py`` wraps each public function of a betsim module
whose ``__module__`` is that module, and records it as ``<module>.<name>``
(plus ``core.EnsembleState.posteriors``, wrapped on its class).
``perfbench/run.py`` then looks the names up in that record, so a name
that no longer matches raises ``KeyError`` only in a traced run.  This
test reads ``perfbench/run.py`` as text and checks every such name.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

RUN_PY = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
LOOKUPS = ("calls", "self_s", "per_call_us")


def _traced_names() -> list[str]:
    tree = ast.parse(RUN_PY.read_text())
    names = set()
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in LOOKUPS
            and node.args
            and isinstance(node.args[0], ast.Constant)
        ):
            names.add(node.args[0].value)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id in ("IO_FUNCS", "LOGLIKS")
            for target in node.targets
        ):
            values = ast.literal_eval(node.value)
            prefix = "io." if node.targets[0].id == "IO_FUNCS" else ""
            names.update(prefix + value for value in values)
    return sorted(names)


def test_run_py_names_functions():
    names = _traced_names()
    assert "conservative.step_conservative" in names
    assert "io.emit_grains_csv" in names and "inference.exponential_loglik" in names


@pytest.mark.parametrize("name", _traced_names())
def test_traced_name_is_a_public_betsim_function(name):
    module_name, *path = name.split(".")
    obj = importlib.import_module(f"betsim.{module_name}")
    for part in path:
        assert not part.startswith("_"), name
        obj = getattr(obj, part)
    assert inspect.isfunction(obj), name
    assert obj.__module__ == f"betsim.{module_name}", (name, obj.__module__)
