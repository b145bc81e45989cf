#!/usr/bin/env python3
"""Benchmark a change against its parent in alternating pairs of perfbench runs.

The parent revision is extracted with `git archive` into a temporary
directory (no worktree, no branch); the change is this checkout's working
tree. For every pair and workload the two sides run one after the other,

    python3 perfbench/run.py --workload NAME --seed 1 --seconds 50 --trace 0

each from the root of its own tree, so each imports its own `src/`. The
seed, the run length, the workloads and the number of pairs are fixed, so
that every BENCH file compares like with like. The parent runs first in the
even pairs (0, 2, ...) and second in the odd ones, so ten pairs give five of
each order. Before the pairs, each tree builds its compiled kernel once, so
that no run times a build. A parent whose `src/` equals the change's is
refused: the change would be compared with itself.

The output keeps the format of the earlier BENCH_<n>.json files: the parent
sha, the change's `src/` tree hash, the command, the host, and per workload
the change run nearest the median `cw_per_s` of the change's runs. It adds
`runs`, every run of both sides in the order they ran, and `medians`, each
side's median of every end-to-end metric.

Run from the repository root:

    python tools/bench_pairs.py --out BENCH_15.json --note "what the change does"

`--parent` names another parent revision than HEAD, for a change already
committed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("bg1_waterfall_int8", "bg1_highsnr_f32_crc_2w")
SEED = 1
SECONDS = 50
PAIRS = 10
COMMAND = f"python3 perfbench/run.py --workload NAME --seed {SEED} --seconds {SECONDS} --trace 0"


def git(*args: str, env: dict | None = None) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True, env=env).stdout.strip()


def extract(rev: str, dest: Path) -> None:
    """The committed files of `rev`, written into `dest` by `git archive`."""
    archive = subprocess.Popen(["git", "archive", "--format=tar", rev], cwd=ROOT,
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait():
        raise RuntimeError(f"git archive {rev} failed")


def working_src_tree() -> str:
    """The git tree hash of this checkout's `src/` as it stands, committed or not."""
    with tempfile.TemporaryDirectory() as tmp:
        env = {**os.environ, "GIT_INDEX_FILE": str(Path(tmp) / "index")}
        git("read-tree", "HEAD", env=env)
        git("add", "-A", "src", env=env)
        return git("write-tree", "--prefix=src/", env=env)


def host() -> str:
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next(line.split(":", 1)[1].strip() for line in fh
                         if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    import numpy

    return (f"{os.cpu_count()}-core {model}; Python {platform.python_version()}, "
            f"numpy {numpy.__version__}")


def build_kernel(tree: Path) -> None:
    """Build (or find cached) the tree's compiled kernel before any run is timed."""
    code = ("import sys; sys.path.insert(0, 'src'); from ldpclab import native; "
            "sys.exit(native.load() is None)")
    if subprocess.run([sys.executable, "-c", code], cwd=tree).returncode:
        print(f"bench_pairs: no compiled kernel in {tree}; its runs take the numpy paths",
              file=sys.stderr)


def run_once(tree: Path, workload: str) -> dict:
    """One perfbench run from `tree`; its last line of output, parsed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", str(SECONDS), "--trace", "0"]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def nearest_median(results: list) -> dict:
    """The result whose cw_per_s is nearest the median of all of them."""
    mid = statistics.median(r["metrics"]["cw_per_s"]["value"] for r in results)
    return min(results, key=lambda r: abs(r["metrics"]["cw_per_s"]["value"] - mid))


def medians(results: list) -> dict:
    names = results[0]["metrics"]
    return {k: statistics.median(r["metrics"][k]["value"] for r in results) for k in names}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", required=True, type=Path, help="the BENCH_<n>.json to write")
    p.add_argument("--parent", default="HEAD", help="the parent revision (default HEAD)")
    p.add_argument("--note", default="", help="what the change is, for the record")
    args = p.parse_args(argv)

    parent_sha = git("rev-parse", "--verify", f"{args.parent}^{{commit}}")
    src_tree = working_src_tree()
    if git("rev-parse", f"{parent_sha}:src") == src_tree:
        p.error(f"src/ at {args.parent} equals this checkout's src/: "
                "name the change's parent with --parent")
    record = {
        "git_sha": parent_sha,
        "src_tree": src_tree,
        "note": args.note,
        "command": COMMAND,
        "host": host(),
        "workloads": {},
        "medians": {},
        "runs": [],
    }
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        extract(parent_sha, Path(tmp))
        trees = {"parent": Path(tmp), "change": ROOT}
        for tree in trees.values():
            build_kernel(tree)
        for pair in range(PAIRS):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for workload in WORKLOADS:
                for side in order:
                    result = run_once(trees[side], workload)
                    record["runs"].append({"pair": pair, "first": order[0], "side": side,
                                           "workload": workload, **result})
                    print(f"pair {pair} {workload} {side}: "
                          f"{result['metrics']['cw_per_s']['value']:.1f} cw/s, "
                          f"correct={result['correct']} failed={result['failed']}",
                          file=sys.stderr, flush=True)
    for workload in WORKLOADS:
        runs = {side: [{k: r[k] for k in ("correct", "attempted", "failed", "metrics")}
                       for r in record["runs"] if r["workload"] == workload and r["side"] == side]
                for side in ("parent", "change")}
        record["workloads"][workload] = nearest_median(runs["change"])
        record["medians"][workload] = {side: medians(r) for side, r in runs.items()}
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
