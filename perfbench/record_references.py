"""Record the reference output digests that run.py checks against.

    python3 perfbench/record_references.py --seeds 0-19

Runs one untraced pass of ``sweep`` and ``cli`` per seed and writes every
operation's digest to ``perfbench/references.json``.  Record them once, at a
commit whose outputs are known good; a run whose seed is listed there fails
any operation whose digest differs.  ``evidence`` has no references: its
outputs are floats checked against the closed form, and a quadrature change
may move their last bits.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import run  # pins the BLAS threads before numpy is imported

RECORDED = ("sweep", "cli")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-19")
    lo, _, hi = p.parse_args().seeds.partition("-")
    sys.path.insert(0, str(run.SRC))
    import workloads

    refs = json.loads(run.REFERENCES.read_text()) if run.REFERENCES.is_file() else {}
    for name in RECORDED:
        for seed in range(int(lo), int(hi or lo) + 1):
            work = run.WORK / f"record-{name}-{seed}"
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            os.chdir(work)
            bench = run.Bench(workloads.WORKLOADS[name](seed, work, False), {})
            bench.run_pass()
            os.chdir(run.ROOT)
            shutil.rmtree(work)
            if bench.failures:
                print(f"{name} seed {seed}: {bench.failures}", file=sys.stderr)
                return 1
            refs.setdefault(name, {})[str(seed)] = bench.first
            print(f"{name} seed {seed}: {len(bench.first)} digests")
    run.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
