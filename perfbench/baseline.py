"""Run every workload on several seeds and write one BENCH_*.json summary.

    python3 perfbench/baseline.py --seeds 1-10 --seconds 30 --out perfbench/results/BENCH_seed.json

For each workload: one untraced run per seed, then one traced run on the
first seed.  For every end-to-end and workload metric the summary holds the
median over seeds, the quartiles (``statistics.quantiles(values, n=4)``),
their distance as a share of the median, and every run's value; the traced
run's per-layer metrics are stored as reported.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import run


def one_run(workload: str, seed: int, seconds: str, trace: int) -> dict:
    argv = [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", seconds, "--trace", str(trace)]
    subprocess.run(argv, cwd=run.ROOT, check=True, stdout=subprocess.DEVNULL, timeout=900)
    return json.loads((run.WORK / f"result-{workload}-{seed}-trace{trace}.json").read_text())


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "runs": values}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="1-10", help="inclusive range")
    p.add_argument("--seconds", default="30")
    p.add_argument("--workloads", default=",".join(run.WORKLOAD_NAMES))
    p.add_argument("--out", required=True)
    args = p.parse_args()
    lo, _, hi = args.seeds.partition("-")
    seeds = list(range(int(lo), int(hi or lo) + 1))
    report = {"seeds": seeds, "seconds": float(args.seconds), "workloads": {}}
    for workload in args.workloads.split(","):
        runs = [one_run(workload, s, args.seconds, 0) for s in seeds]
        metrics: dict[str, dict] = {}
        for res in runs:
            for name, m in {**res["metrics"], **res["workload_metrics"]}.items():
                metrics.setdefault(name, {"unit": m["unit"], "values": []})["values"].append(m["value"])
        traced = one_run(workload, seeds[0], args.seconds, 1)
        report["env"] = runs[0]["env"]
        report["workloads"][workload] = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "references_checked": sum(r["references"] for r in runs),
            "end_to_end": {n: {"unit": m["unit"], **summarize(m["values"])} for n, m in metrics.items()},
            "per_layer": traced["metrics"],
            "traced_failed": traced["failed"],
        }
        for name, m in report["workloads"][workload]["end_to_end"].items():
            print(f"{workload:<9} {name:<28} median {m['median']:>12.6g} {m['unit']:<6} "
                  f"spread {m['spread']:.4f}", flush=True)
    with open(args.out, "w", encoding="utf-8") as out:
        json.dump(report, out, indent=1)
        out.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
