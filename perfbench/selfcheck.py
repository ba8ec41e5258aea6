"""Self-checks of the benchmark itself, on tiny (smoke) inputs.

    python3 perfbench/selfcheck.py

Checks that:
  * BENCHMARK.json names exactly the metrics run.py reports;
  * the tracer restores every betsim function it wrapped;
  * two traced runs give identical counts, and each traced run's outputs
    match its untraced pass (run.py fails an operation otherwise);
  * a smoke run of each workload finishes within a minute with no failure;
  * in a directory holding only BENCHMARK.json and perfbench/, the benchmark
    exits non-zero without printing a result.
Exits 0 when all hold, 1 otherwise.
"""
from __future__ import annotations

import inspect
import json
import shutil
import subprocess
import sys
import time

import run  # pins the BLAS threads before numpy is imported

# exact counters; retained bytes come from tracemalloc and may drift
NOT_EXACT = ("dissipative.retained_bytes_per_step",)


def bench(*args, cwd=run.ROOT):
    argv = [sys.executable, "perfbench/run.py", "--seed", "3", "--seconds", "1", *args]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    try:
        result = json.loads(last[0])
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result, time.perf_counter() - t0, proc.stderr


def main() -> int:
    problems = []
    sys.path.insert(0, str(run.SRC))
    import tracer
    import workloads

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    if [m["name"] for m in spec["end_to_end"]] != [n for n, _ in run.END_TO_END]:
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    catalogue = run.per_layer_catalogue(workloads.CLI_COMMANDS)
    if [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] != catalogue:
        problems.append("BENCHMARK.json per_layer differs from run.per_layer_catalogue")

    before = {
        (short, name): obj
        for short, mod in tracer.betsim_modules().items()
        for name, obj in vars(mod).items()
        if inspect.isfunction(obj)
    }
    with tracer.Tracer():
        wrapped = tracer.leftover_wrappers()
    # dissipative binds core's macro_snapshot by name; it must be wrapped there too
    for needed in ("core.EnsembleState.posteriors", "dissipative.macro_snapshot", "cli.log_evidence"):
        if needed not in wrapped:
            problems.append(f"the tracer did not wrap {needed}")
    after = {
        (short, name): obj
        for short, mod in tracer.betsim_modules().items()
        for name, obj in vars(mod).items()
        if inspect.isfunction(obj)
    }
    if after != before or tracer.leftover_wrappers():
        problems.append("the tracer left betsim functions wrapped")

    for name in run.WORKLOAD_NAMES:
        code, result, secs, err = bench("--workload", name, "--trace", "0", "--smoke")
        if code != 0 or not result or not result["correct"] or secs > 60:
            problems.append(f"{name} smoke run: exit {code}, {secs:.0f}s, {result}, {err[-500:]}")
        counts = []
        for _ in range(2):
            code, result, _, err = bench("--workload", name, "--trace", "1", "--smoke")
            if code != 0 or not result or not result["correct"]:
                problems.append(f"{name} traced smoke run failed: {result} {err[-500:]}")
                break
            counts.append({
                k: m["value"] for k, m in result["metrics"].items()
                if m["unit"] in ("count", "B") and k not in NOT_EXACT
            })
        if len(counts) == 2 and counts[0] != counts[1]:
            diff = sorted(k for k in counts[0] if counts[0][k] != counts[1].get(k))
            problems.append(f"{name}: traced counts differ between runs: {diff}")
        print(f"{name}: checked", flush=True)

    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    code, result, _, _ = bench("--workload", "sweep", "--trace", "0", cwd=bare)
    shutil.rmtree(bare)
    if code == 0 or result is not None:
        problems.append(f"bare directory run exited {code} with result {result}")

    for p in problems:
        print(f"FAIL {p}")
    print("selfcheck", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
