"""Run one workload on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload NAME --seeds 1-10 [--seconds S] [--trace 0|1]

For every metric: the median over the runs and the interquartile distance
as a share of the median (`statistics.quantiles(values, n=4)`), next to the
metric's bound from BENCHMARK.json. Also the failed share of every run.
Runs are made one after another from the checkout root.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import stats

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    runs = []
    for seed in args.seeds:
        cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
               "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if done.returncode != 0:
            print(f"seed {seed}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        runs.append(result)
        values = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} {values}", flush=True)

    shares = sorted({r["failed"] / r["attempted"] for r in runs})
    print(f"failed shares: {shares}")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        spread = stats.relative_spread(values) if med else float("nan")
        bound = bounds.get(name)
        note = "" if bound is None else f"  bound {bound}  spread/bound {spread / bound:.2f}"
        print(f"{name:28s} median {med:.6g}  spread {spread:.4f}{note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
