"""The benchmark's three workloads: seeded inputs, operations, output checks.

A workload is built from the workload seed.  The benchmark's own numpy
generator makes every input (replicate seeds, price file, positive series,
evidence data sets); betsim receives only those generated inputs.

``ops()`` lists one pass of operations, run back to back by one client
(closed loop).  ``check(op)`` verifies one operation's output after the pass
and returns its digest; run.py compares digests with the recorded
references and across passes.  betsim is always called through its module
attributes (``dissipative.run_dissipative``, never a name imported here), so
the tracer's wrappers see every call.
"""
from __future__ import annotations

import contextlib
import csv
import functools
import gc
import hashlib
import io
import math
import shutil
import statistics
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.special import gammaln

from betsim import cli, dissipative, inference, superstat
from betsim import config as bconfig
from betsim import io as bio
from betsim import rng as brng

CONFIG_DIR = Path(__file__).resolve().parent / "configs"
MIB = float(1 << 20)


@dataclass
class Op:
    """One timed operation and, until its pass is checked, its output."""

    label: str
    seconds: float
    output: object = None
    error: str | None = None
    counts: dict = field(default_factory=dict)
    factor: float = 1.0  # scales ``seconds`` to the reference machine speed


@dataclass
class Check:
    """Outcome of checking one operation's output."""

    digest: str
    problems: list[str]
    counts: dict = field(default_factory=dict)


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else repr(p).encode())
    return h.hexdigest()


def closed_form_log_evidence(n: int, sq_sum: float, alpha: float, beta: float) -> float:
    """Conjugate evidence of a known-mean Gaussian under InvGamma(alpha, beta)."""
    a2, b2 = alpha + n / 2.0, beta + sq_sum / 2.0
    return float(
        -n / 2.0 * math.log(2 * math.pi) + alpha * math.log(beta)
        + gammaln(a2) - gammaln(alpha) - a2 * math.log(b2)
    )


def _evidence_problem(got: float, n: int, sq_sum: float, alpha: float, beta: float) -> list[str]:
    # the tolerance of the package's conjugate-correctness acceptance check
    want = closed_form_log_evidence(n, sq_sum, alpha, beta)
    if not math.isfinite(got) or abs(got - want) > 1e-6 * max(1.0, abs(want)):
        return [f"gaussian log_evidence {got!r} vs closed form {want!r}"]
    return []


def _median(values) -> float:
    return float(statistics.median(values)) if values else float("nan")


# ---------------------------------------------------------------------------
# sweep: replicates of the acceptance ordering runs


SWEEP_GRAINS = (750, 225, 150, 425)


def grain_means(result, gid: int) -> np.ndarray:
    """Mean-posterior series of one grain.

    This and :func:`pooled_columns` are the benchmark's only readers of a
    ``DissipativeResult``; they use just the accessors the acceptance tests
    use, so a change of the result type touches only these two functions.
    """
    return np.array([s.mean_posterior for s in result.grain_tracks[gid].snapshots])


def pooled_columns(result) -> tuple[np.ndarray, np.ndarray]:
    """Pooled moments/entropy per step, and the histogram counts per step."""
    pooled = [result.pooled[k] for k in range(len(result.pooled))]
    stats = np.array(
        [(p.mean, p.variance, p.skewness, p.excess_kurtosis, p.entropy) for p in pooled]
    )
    return stats, np.array([p.counts for p in pooled], dtype=np.int64)


def _sweep_replicate(cfg):
    result = dissipative.run_dissipative(cfg)
    conv = [
        dissipative.convergence_time(grain_means(result, g), eps_eq=0.05, sustain=50)
        for g in range(len(cfg.grain_sizes))
    ]
    return result, conv


class Sweep:
    name = "sweep"

    def __init__(self, seed: int, work: Path, smoke: bool):
        self.steps = 100 if smoke else 1000
        rng = np.random.default_rng([seed, 1])
        self.configs = [
            dissipative.DissipativeConfig(
                steps=self.steps, grain_sizes=SWEEP_GRAINS, seed=int(s), bets_per_grain=1
            )
            for s in rng.integers(0, 2**63, size=2)
        ]

    def ops(self):
        return [
            (f"replicate{r}", functools.partial(_sweep_replicate, cfg))
            for r, cfg in enumerate(self.configs)
        ]

    def check(self, op: Op) -> Check:
        result, conv = op.output
        means = [grain_means(result, g) for g in range(len(SWEEP_GRAINS))]
        stats, counts = pooled_columns(result)
        problems = []
        if any(m.size != self.steps + 1 for m in means) or len(counts) != self.steps + 1:
            problems.append("trajectory length differs from steps + 1")
        if (counts.sum(axis=1) != sum(SWEEP_GRAINS)).any():
            problems.append("histogram counts do not sum to the living population")
        if any(not ((m >= 0) & (m <= 1)).all() for m in means):
            problems.append("mean posterior outside [0, 1]")
        digest = _sha(*(m.tobytes() for m in means), stats.tobytes(), counts.tobytes(), conv)
        snapshots = sum(m.size for m in means)
        return Check(digest, problems, {
            "grain_steps": snapshots - len(means),
            "population_steps": snapshots,
        })

    def end_to_end(self, passes) -> dict:
        steps = sum(op.counts["grain_steps"] for op in passes[0].ops)
        return {"grain_steps_per_s": (steps / _median([p.scaled for p in passes]), "1/s")}

    def memory_metrics(self) -> dict:
        """Bytes a kept result holds per step, from one replicate."""
        cfg = self.configs[0]
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = dissipative.run_dissipative(cfg)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        del result
        return {"dissipative.retained_bytes_per_step": retained / cfg.steps}


# ---------------------------------------------------------------------------
# cli: the six subcommands in pipeline order, in this process


# (command, config file, whether the workload seed is passed as --seed)
CLI_JOBS = (
    ("sim-conservative", "sim_conservative.ini", True),
    ("sim-dissipative", "sim_dissipative.ini", True),
    ("gen-returns", "gen_returns.ini", True),
    ("fit-variance", "fit_variance.ini", False),
    ("compare-models", "compare_models.ini", False),
    ("ingest", "ingest.ini", False),
)
CLI_COMMANDS = tuple(job[0] for job in CLI_JOBS)


def _write_series(path: Path, header: str, values: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8", newline="") as out:
        out.write(header + "\n")
        out.writelines(f"{i},{float(v)!r}\n" for i, v in enumerate(values))


def _rows(path: Path) -> int:
    return path.read_bytes().count(b"\n") - 1


def _read_table(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.DictReader(handle))


def _dispatch(argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.dispatch(argv)
    if code != 0:
        raise RuntimeError(f"exit {code}: {err.getvalue().strip()}")
    return argv


class Cli:
    """Runs in the work directory: the configs name their inputs relative to it."""

    name = "cli"

    def __init__(self, seed: int, work: Path, smoke: bool):
        self.cfg_dir = CONFIG_DIR / ("smoke" if smoke else "full")
        self.work = work
        self._verdicts: dict[tuple[str, str], tuple[list, dict]] = {}
        self.cfg = {
            cmd: bconfig.parse_config((self.cfg_dir / name).read_text(encoding="utf-8"))
            for cmd, name, _ in CLI_JOBS
        }
        rng = np.random.default_rng([seed, 2])
        self.seeds = {cmd: int(rng.integers(0, 2**63)) for cmd, _, seeded in CLI_JOBS if seeded}
        n = 20_000 if smoke else 300_000
        self.positive = rng.exponential(0.8, 2 * n)
        self.prices = 100.0 * np.exp(np.cumsum(rng.normal(0.0, 0.01, n)))
        _write_series(work / "positive.csv", "i,value", self.positive)
        _write_series(work / "prices.csv", "t,price", self.prices)
        sup = self.cfg["gen-returns"].superstat.with_seed(self.seeds["gen-returns"])
        self.returns = superstat.generate_returns(
            sup.model(), sup.n, sup.tau, brng.stream(sup.seed, brng.RETURNS),
            slow_mixing=sup.slow_mixing,
        ).samples

    def ops(self):
        shutil.rmtree(self.work / "out", ignore_errors=True)
        planned = []
        for cmd, name, seeded in CLI_JOBS:
            argv = [cmd, "--config", str(self.cfg_dir / name), "--out", f"out/{cmd}"]
            if seeded:
                argv += ["--seed", str(self.seeds[cmd])]
            planned.append((cmd, functools.partial(_dispatch, argv)))
        return planned

    def check(self, op: Op) -> Check:
        out = self.work / "out" / op.label
        files = sorted(p.name for p in out.iterdir())
        digest = _sha(*((name, hashlib.sha256((out / name).read_bytes()).digest()) for name in files))
        # identical bytes get the identical verdict, so each output is checked once
        key = (op.label, digest)
        if key not in self._verdicts:
            self._verdicts[key] = getattr(self, "_check_" + op.label.replace("-", "_"))(out)
        problems, counts = self._verdicts[key]
        return Check(digest, list(problems), counts)

    def _check_sim_conservative(self, out: Path):
        c = self.cfg["sim-conservative"].conservative
        rows = _rows(out / "trajectory.csv")
        problems = []
        if rows != c.steps + 1:
            problems.append(f"trajectory.csv has {rows} rows, expected {c.steps + 1}")
        if _rows(out / "microstates.csv") != (c.steps + 1) * c.n_microstates:
            problems.append("microstates.csv row count differs from (steps + 1) * n_microstates")
        return problems, {"population_steps": rows}

    def _check_sim_dissipative(self, out: Path):
        total = self.cfg["sim-dissipative"].dissipative.steps
        grains: dict[int, list[int]] = {}  # id -> [size, birth, last step]
        for row in _read_table(out / "grains.csv"):
            g = grains.setdefault(int(row["grain"]), [int(row["size"]), int(row["birth_step"]), 0])
            g[2] = max(g[2], int(row["step"]))
        problems = []
        for path in sorted(out.glob("histogram_*.csv")):
            step = int(path.stem.partition("_")[2])
            counted = sum(int(r["count"]) for r in _read_table(path))
            # a grain snapshotted at `step` but absent later was removed at
            # `step`, before the pooled histogram; at the last step a
            # removal cannot be seen in grains.csv, so allow any one
            alive = [g for g in grains.values() if g[1] <= step <= g[2]]
            living = sum(g[0] for g in alive if not (g[2] == step < total))
            allowed = {living} | ({living - g[0] for g in alive} if step == total else set())
            if counted not in allowed:
                problems.append(f"{path.name}: counts sum to {counted}, living population {living}")
        if not any(out.glob("histogram_*.csv")):
            problems.append("no histogram files written")
        return problems, {"population_steps": _rows(out / "grains.csv")}

    def _check_gen_returns(self, out: Path):
        back = bio.read_returns_csv(str(out / "returns.csv")).samples
        if back.shape != self.returns.shape or not np.array_equal(back, self.returns):
            return ["returns.csv does not round-trip to the generated series"], {}
        return [], {}

    def _check_fit_variance(self, out: Path):
        fit = {r["quantity"]: float(r["value"]) for r in _read_table(out / "fit.csv")}
        inf = self.cfg["fit-variance"].inference
        x = self.returns - inf.mu
        return _evidence_problem(
            fit["log_evidence"], x.size, float(x @ x), inf.prior_alpha, inf.prior_beta
        ), {}

    def _check_compare_models(self, out: Path):
        rows = _read_table(out / "models.csv")
        inf = self.cfg["compare-models"].inference
        problems = []
        total = sum(float(r["posterior_prob"]) for r in rows)
        if abs(total - 1.0) > 1e-9:
            problems.append(f"model posteriors sum to {total!r}")
        x = self.positive - inf.mu
        for r, alpha, beta in zip(rows, inf.model_alphas, inf.model_betas):
            if r["likelihood"] == inference.GAUSSIAN_KNOWN_MEAN:
                problems += _evidence_problem(float(r["log_evidence"]), x.size, float(x @ x), alpha, beta)
        return problems, {}

    def _check_ingest(self, out: Path):
        tau = self.cfg["ingest"].superstat.tau
        rows = _rows(out / "returns.csv")
        if rows != self.prices.size - tau:
            return [f"returns.csv has {rows} rows, expected {self.prices.size - tau}"], {}
        return [], {}

    def end_to_end(self, passes) -> dict:
        return {
            f"cli.{cmd}_s": (_median([op.seconds * op.factor for p in passes for op in p.ops if op.label == cmd]), "s")
            for cmd in CLI_COMMANDS
        }

    def memory_metrics(self) -> dict:
        """Peak traced allocation of each command above what was live before it."""
        metrics = {}
        tracemalloc.start()
        try:
            for label, fn in self.ops():
                gc.collect()
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                fn()
                metrics[f"cli.{label}.peak_alloc_mb"] = (tracemalloc.get_traced_memory()[1] - base) / MIB
        finally:
            tracemalloc.stop()
        return metrics


# ---------------------------------------------------------------------------
# evidence: in-memory model comparison and Gaussian evidence


PRIOR = inference.InvGammaParams(3.0, 2.0)
MODELS = (
    inference.ModelSpec(id="gaussian", likelihood_kind=inference.GAUSSIAN_KNOWN_MEAN, prior=PRIOR),
    inference.ModelSpec(id="exponential", likelihood_kind=inference.EXPONENTIAL, prior=PRIOR),
)
MODEL_PRIORS = (0.5, 0.5)


def _model_posteriors(data):
    return inference.model_posteriors(MODELS, MODEL_PRIORS, data)


def _gaussian_evidence(data):
    return inference.log_evidence(MODELS[0], data)


class Evidence:
    name = "evidence"

    # (label, n, data sets): model comparison on positive series at three
    # sizes, plus the Gaussian evidence alone on signed series
    FULL = (("mp-n1e4", 10**4, 200), ("mp-n1e6", 10**6, 4), ("mp-n1e7", 10**7, 2), ("le-n1e4", 10**4, 50))
    SMOKE = (("mp-n1e4", 10**4, 20), ("mp-n1e6", 10**6, 1), ("mp-n1e7", 10**7, 1), ("le-n1e4", 10**4, 5))

    def __init__(self, seed: int, work: Path, smoke: bool):
        rng = np.random.default_rng([seed, 3])
        self.items = []  # (label, DataSet, n, sum of squares)
        for label, n, count in self.SMOKE if smoke else self.FULL:
            for i in range(count):
                x = rng.exponential(0.8, n) if label.startswith("mp") else rng.normal(0.0, 1.3, n)
                self.items.append((f"{label}-{i}", inference.DataSet(x), n, float(x @ x)))
                del x

    def ops(self):
        return [
            (label, functools.partial(_model_posteriors if label.startswith("mp") else _gaussian_evidence, data))
            for label, data, _, _ in self.items
        ]

    def check(self, op: Op) -> Check:
        _, _, n, sq_sum = next(item for item in self.items if item[0] == op.label)
        if op.label.startswith("le"):
            value = op.output
            return Check(_sha(value), _evidence_problem(value, n, sq_sum, PRIOR.alpha, PRIOR.beta))
        posts = op.output
        problems = []
        total = sum(p.posterior_prob for p in posts)
        if abs(total - 1.0) > 1e-12:
            problems.append(f"model posteriors sum to {total!r}")
        if not all(math.isfinite(p.log_evidence) for p in posts[1:]):
            problems.append("non-finite exponential log_evidence")
        problems += _evidence_problem(posts[0].log_evidence, n, sq_sum, PRIOR.alpha, PRIOR.beta)
        return Check(_sha([(p.model_id, p.log_evidence, p.posterior_prob) for p in posts]), problems)

    def end_to_end(self, passes) -> dict:
        def times(prefix):
            return [op.seconds * op.factor * 1e3 for p in passes for op in p.ops if op.label.startswith(prefix)]

        small = times("mp-n1e4-")
        return {
            "evidence.n1e4_ms.p50": (float(np.percentile(small, 50)), "ms"),
            "evidence.n1e4_ms.p90": (float(np.percentile(small, 90)), "ms"),
            "evidence.n1e4_ms.samples": (len(small), "count"),
            "evidence.n1e7_ms": (_median(times("mp-n1e7-")), "ms"),
            "evidence.n1e7_ms.samples": (len(times("mp-n1e7-")), "count"),
        }

    def memory_metrics(self) -> dict:
        return {}


WORKLOADS = {w.name: w for w in (Sweep, Cli, Evidence)}
