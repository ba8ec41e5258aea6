"""betsim benchmark: one workload, seeded inputs, checked outputs, one JSON line.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run from the repository root.  A run measures set-up (fresh-process imports
of betsim), then runs passes of the workload back to back, one client, until
``--seconds`` have elapsed (at least two passes), checking every operation's
output after its pass.  A calibration probe between imports and between
operations scales the reported times to a reference machine speed (see
``Calibration``).  With ``--trace 0`` the last line holds the end-to-end
metrics; with ``--trace 1`` one untraced pass, one traced pass and one
tracemalloc pass give the per-layer metrics (not scaled).  Human-readable lines
(every metric with its unit, the environment, failures) come first, and the
full result is written to ``.perfbench_work/``.  ``--workload all`` runs every
workload in turn and prints one table.
"""
from __future__ import annotations

import os

# numpy links a threaded BLAS; pin it before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCES = HERE / "references.json"
WORKLOAD_NAMES = ("sweep", "cli", "evidence")

SETUP_SAMPLES = 5
CAL_REF_S = 0.05  # probe time that defines the reference machine speed
PROBE_EVERY_S = 0.5  # operation time between two calibration probes
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import betsim, betsim.cli; "
    "print(time.perf_counter() - t, betsim.__file__)"
)

# gated end-to-end metrics, reported by every workload (BENCHMARK.json)
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))

IO_FUNCS = (
    "emit_trajectory_csv", "emit_histogram_csv", "emit_microstates_csv", "emit_grains_csv",
    "emit_returns_csv", "emit_fit_csv", "emit_models_csv", "read_returns_csv", "ingest_price_csv",
)
READERS = ("read_returns_csv", "ingest_price_csv")
LOGLIKS = ("inference.gaussian_variance_loglik", "inference.exponential_loglik")


def per_layer_catalogue(commands) -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    cat = [
        ("rng.stream.calls", "count", "lower"),
        ("rng.stream.us_per_call", "us", "lower"),
        ("conservative.step.calls", "count", "lower"),
        ("conservative.step.self_s", "s", "lower"),
        ("conservative.run.self_s", "s", "lower"),
        ("core.macro_snapshot.calls", "count", "lower"),
        ("core.macro_snapshot.self_s", "s", "lower"),
        ("core.posteriors_per_population_step", "count", "lower"),
        ("core.sorts_per_population_step", "count", "lower"),
        ("dissipative.step.self_s", "s", "lower"),
        ("dissipative.pooled.calls", "count", "lower"),
        ("dissipative.pooled.self_s", "s", "lower"),
        ("dissipative.us_per_step", "us", "lower"),
        ("dissipative.retained_bytes_per_step", "B", "lower"),
        ("superstat.generate.self_s", "s", "lower"),
        ("superstat.samples", "count", "lower"),
        ("inference.evidence.calls", "count", "lower"),
        ("inference.evidence.self_s", "s", "lower"),
        ("inference.loglik.calls", "count", "lower"),
        ("inference.loglik.nodes", "count", "lower"),
        ("inference.nodes_per_evidence", "count", "lower"),
        ("inference.loglik.bytes_computed", "B", "lower"),
    ]
    for fn in IO_FUNCS:
        cat += [(f"io.{fn}.self_s", "s", "lower"), (f"io.{fn}.rows", "count", "lower"),
                (f"io.{fn}.bytes", "B", "lower")]
    cat += [
        ("io.write_mb_per_s", "MB/s", "higher"),
        ("io.read_rows_per_s", "rows/s", "higher"),
        ("config.parse.self_s", "s", "lower"),
    ]
    for cmd in commands:
        cat += [(f"cli.{cmd}.self_s", "s", "lower"), (f"cli.{cmd}.peak_alloc_mb", "MB", "lower")]
    cat.append(("trace.overhead_s", "s", "lower"))
    return cat


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": git_commit(),
        "src_sha256": src_digest(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def src_digest() -> str:
    """SHA-256 over betsim's sources, which identifies the code outside a git checkout."""
    h = hashlib.sha256()
    for path in sorted((SRC / "betsim").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def measure_setup(samples: int, probe) -> tuple[list[float], list[float]]:
    """Seconds to import betsim and betsim.cli in fresh interpreters, and
    the mean calibration time around each import."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times, cal = [], [probe()]
    for _ in range(samples):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=120, check=True,
        ).stdout.split()
        cal.append(probe())
        if not Path(out[1]).resolve().is_relative_to(SRC):
            raise RuntimeError(f"imported betsim from {out[1]}, not from {SRC}")
        times.append(float(out[0]))
    return times, [(a + b) / 2 for a, b in zip(cal, cal[1:])]


class Pass:
    def __init__(self, wall: float, ops: list):
        self.wall = wall
        self.ops = ops

    @property
    def scaled(self) -> float:
        """Pass time at the reference machine speed."""
        return sum(op.seconds * op.factor for op in self.ops)


class Calibration:
    """Machine-speed probe: a fixed mix of interpreter, small-array and
    large-array work, none of it betsim.

    On a shared 2-vCPU virtual machine the speed available to a process
    swings by up to 2x over tens of seconds (host contention), and the probe
    slows with it.  A time multiplied by
    ``CAL_REF_S / probe time`` is the time at the reference speed, at which
    the probe takes ``CAL_REF_S``.  A slower betsim still shows in full; a
    slower machine mostly cancels.
    """

    def __init__(self):
        import numpy as np

        self.np = np
        self.big = np.random.default_rng(0).random(1 << 20)  # 8 MiB, beyond L2
        self.small = self.big[:2000].copy()

    def __call__(self) -> float:
        np = self.np
        t0 = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc += i * i
        for _ in range(600):
            np.sort(self.small)
            self.small.mean()
        for _ in range(9):
            float((self.big * self.big).sum())
        return time.perf_counter() - t0


class Bench:
    """Runs passes of one workload and keeps the failure tally."""

    def __init__(self, workload, references: dict):
        self.wl = workload
        self.refs = references
        self.first: dict[str, str] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.calibrations: list[float] = []

    def run_pass(self, tracer=None, probe=None) -> Pass:
        """One pass.  With ``probe``, the calibration runs before the first
        operation and after every PROBE_EVERY_S of operations, and each
        operation is scaled by the mean of the two probes around it."""
        from workloads import Op

        planned = self.wl.ops()
        gc.collect()
        ops: list = []
        with tracer if tracer is not None else nullcontext():
            cal = [probe()] if probe else []
            unscaled, since = 0, 0.0
            for run_id, (label, fn) in enumerate(planned):
                if tracer is not None:
                    tracer.run_id = run_id
                t0 = time.perf_counter()
                try:
                    out, err = fn(), None
                except Exception as exc:  # a failed operation is counted, not fatal
                    out, err = None, f"{type(exc).__name__}: {exc}"
                ops.append(Op(label, time.perf_counter() - t0, out, err))
                since += ops[-1].seconds
                if probe and (since >= PROBE_EVERY_S or run_id == len(planned) - 1):
                    cal.append(probe())
                    for op in ops[unscaled:]:
                        op.factor = CAL_REF_S / ((cal[-2] + cal[-1]) / 2)
                    unscaled, since = len(ops), 0.0
        self.calibrations += cal
        for op in ops:
            self._check(op)
        return Pass(sum(op.seconds for op in ops), ops)

    def _check(self, op) -> None:
        self.attempted += 1
        problems = [op.error] if op.error else []
        if not problems:
            try:
                check = self.wl.check(op)
            except Exception as exc:  # an unreadable output is a failed check
                problems.append(f"check raised {type(exc).__name__}: {exc}")
            else:
                problems += check.problems
                op.counts = check.counts
                first = self.first.setdefault(op.label, check.digest)
                if check.digest != first:
                    problems.append("output differs from the first pass")
                ref = self.refs.get(op.label)
                if ref is not None and check.digest != ref:
                    problems.append("output digest differs from the recorded reference")
        op.output = None  # results were kept until the pass ended
        if problems:
            self.failures.append(f"{op.label}: {'; '.join(problems)}")


def layer_metrics(tracer, s: dict, labels: list[str], population_steps: int, commands) -> dict:
    """Derive the per-layer metrics from one traced pass and its span summary."""
    index = {name: i for i, name in enumerate(tracer.names)}

    def calls(name):
        return int(s["calls"][index[name]])

    def self_s(name):
        return float(s["self_s"][index[name]])

    def per_call_us(name):
        return float(s["incl_s"][index[name]]) / calls(name) * 1e6 if calls(name) else 0.0

    table = tracer.span_table()
    rows, nbytes = defaultdict(int), defaultdict(int)
    nodes = computed = samples = 0
    for span, payload in tracer.notes:
        name = tracer.names[table[span, 0]]
        if name.startswith("io."):
            data = Path(payload).read_bytes()
            rows[name] += data.count(b"\n") - 1
            nbytes[name] += len(data)
        elif name in LOGLIKS:
            nodes += payload[0]
            computed += 8 * payload[1]
        elif name == "superstat.generate_returns":
            samples += payload
    evidence_calls = calls("inference.log_evidence")
    pop = max(population_steps, 1)
    m = {
        "rng.stream.calls": calls("rng.stream"),
        "rng.stream.us_per_call": per_call_us("rng.stream"),
        "conservative.step.calls": calls("conservative.step_conservative"),
        "conservative.step.self_s": self_s("conservative.step_conservative"),
        "conservative.run.self_s": self_s("conservative.run_conservative"),
        "core.macro_snapshot.calls": calls("core.macro_snapshot"),
        "core.macro_snapshot.self_s": self_s("core.macro_snapshot"),
        "core.posteriors_per_population_step":
            calls("core.EnsembleState.posteriors") / pop if population_steps else 0.0,
        "core.sorts_per_population_step":
            (calls("core.heterogeneous_pair_count") + calls("core.distinct_posterior_classes")) / pop
            if population_steps else 0.0,
        "dissipative.step.self_s": self_s("dissipative.step_dissipative"),
        "dissipative.pooled.calls": calls("dissipative.superposed_distribution"),
        "dissipative.pooled.self_s": self_s("dissipative.superposed_distribution"),
        "dissipative.us_per_step": per_call_us("dissipative.step_dissipative"),
        "dissipative.retained_bytes_per_step": 0.0,
        "superstat.generate.self_s": self_s("superstat.generate_returns"),
        "superstat.samples": samples,
        "inference.evidence.calls": evidence_calls,
        "inference.evidence.self_s": self_s("inference.log_evidence"),
        "inference.loglik.calls": sum(calls(n) for n in LOGLIKS),
        "inference.loglik.nodes": nodes,
        "inference.nodes_per_evidence": nodes / evidence_calls if evidence_calls else 0.0,
        "inference.loglik.bytes_computed": computed,
    }
    for fn in IO_FUNCS:
        name = f"io.{fn}"
        m[f"{name}.self_s"] = self_s(name)
        m[f"{name}.rows"] = rows[name]
        m[f"{name}.bytes"] = nbytes[name]
    write_s = sum(self_s(f"io.{fn}") for fn in IO_FUNCS if fn not in READERS)
    write_b = sum(nbytes[f"io.{fn}"] for fn in IO_FUNCS if fn not in READERS)
    read_s = sum(self_s(f"io.{fn}") for fn in READERS)
    m["io.write_mb_per_s"] = write_b / (1 << 20) / write_s if write_s else 0.0
    m["io.read_rows_per_s"] = sum(rows[f"io.{fn}"] for fn in READERS) / read_s if read_s else 0.0
    m["config.parse.self_s"] = self_s("config.parse_config")
    for cmd in commands:
        m[f"cli.{cmd}.self_s"] = sum(
            s["by_run"].get(("cli.dispatch", run_id), 0.0)
            for run_id, label in enumerate(labels) if label == cmd
        )
        m[f"cli.{cmd}.peak_alloc_mb"] = 0.0
    return m


def run_workload(args) -> int:
    probe = Calibration()
    setup, setup_cal = measure_setup(SETUP_SAMPLES, probe)
    sys.path.insert(0, str(SRC))
    import tracer as tracing
    import workloads

    tag = f"{args.workload}-{args.seed}" + ("-smoke" if args.smoke else "")
    work = WORK / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    os.chdir(work)
    t0 = time.perf_counter()
    wl = workloads.WORKLOADS[args.workload](args.seed, work, args.smoke)
    inputs_s = time.perf_counter() - t0
    refs = {}
    if not args.smoke and REFERENCES.is_file():
        refs = json.loads(REFERENCES.read_text()).get(args.workload, {}).get(str(args.seed), {})
    bench = Bench(wl, refs)

    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "env": environment(),
        "setup_samples_s": setup, "setup_calibration_s": setup_cal,
        "inputs_s": inputs_s, "references": bool(refs),
    }
    if args.trace:
        plain = bench.run_pass()
        tr = tracing.Tracer()
        traced = bench.run_pass(tr)
        left = tracing.leftover_wrappers()
        if left:
            bench.failures.append(f"wrappers not restored: {left}")
        pop = sum(op.counts.get("population_steps", 0) for op in traced.ops)
        summary = tr.summary()
        layers = layer_metrics(tr, summary, [op.label for op in traced.ops], pop, workloads.CLI_COMMANDS)
        layers.update(wl.memory_metrics())
        layers["trace.overhead_s"] = traced.wall - plain.wall
        tr.save(WORK / f"spans-{tag}.npz")
        result["functions"] = {
            name: {"calls": int(summary["calls"][i]), "self_s": float(summary["self_s"][i]),
                   "incl_s": float(summary["incl_s"][i])}
            for i, name in enumerate(tr.names) if summary["calls"][i]
        }
        units = {name: unit for name, unit, _ in per_layer_catalogue(workloads.CLI_COMMANDS)}
        reported = {name: {"value": layers[name], "unit": units[name]} for name in units}
        result["pass_wall_s"] = {"untraced": plain.wall, "traced": traced.wall}
        extra = {}
    else:
        passes, start = [], time.perf_counter()
        while len(passes) < 2 or time.perf_counter() - start < args.seconds:
            passes.append(bench.run_pass(probe=probe))
        walls = [p.wall for p in passes]
        e2e = {
            "setup_s": statistics.median(t * CAL_REF_S / c for t, c in zip(setup, setup_cal)),
            "wall_s": statistics.median(p.scaled for p in passes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        reported = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
        extra = {
            "failed_frac": {"value": len(bench.failures) / bench.attempted, "unit": "ratio"},
            "setup_s.raw": {"value": statistics.median(setup), "unit": "s"},
            "wall_s.raw": {"value": statistics.median(walls), "unit": "s"},
            "calibration_s": {"value": statistics.median(bench.calibrations), "unit": "s"},
            **{k: {"value": v, "unit": u} for k, (v, u) in wl.end_to_end(passes).items()},
        }
        result["pass_wall_s"] = walls
        result["calibration_s"] = bench.calibrations
    result.update(
        attempted=bench.attempted, failed=len(bench.failures), failures=bench.failures,
        metrics=reported, workload_metrics=extra,
    )
    os.chdir(ROOT)
    shutil.rmtree(work, ignore_errors=True)
    (WORK / f"result-{tag}-trace{args.trace}.json").write_text(json.dumps(result, indent=1))

    env = result["env"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace} python={env['python']} "
          f"numpy={env['numpy']} scipy={env['scipy']} nproc={env['nproc']} commit={env['commit']}")
    print(f"# attempted={bench.attempted} failed={len(bench.failures)} "
          f"passes={len(result['pass_wall_s'])} references={'yes' if refs else 'no'}")
    for line in bench.failures:
        print(f"# FAILED {line}")
    for name, m in {**reported, **extra}.items():
        print(f"{name:<40} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": reported,
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; one table of every metric."""
    rows, total, failed = [], 0, 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            argv.append("--smoke")
        subprocess.run(argv, cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=900)
        tag = f"{name}-{args.seed}" + ("-smoke" if args.smoke else "")
        res = json.loads((WORK / f"result-{tag}-trace{args.trace}.json").read_text())
        total += res["attempted"]
        failed += res["failed"]
        for metric, m in {**res["metrics"], **res["workload_metrics"]}.items():
            rows.append((name, metric, m["value"], m["unit"]))
    for wl, metric, value, unit in rows:
        print(f"{wl:<9} {metric:<40} {value:>16.6g} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": total, "failed": failed}))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, for the self-checks")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    if not (SRC / "betsim" / "__init__.py").is_file():
        print(f"error: betsim sources not found under {SRC}", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
