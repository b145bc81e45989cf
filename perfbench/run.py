"""ldpclab benchmark: end-to-end figures untraced, per-layer figures traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from its
`src/` directory, never from an installed copy. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics. `--trace 0` reports the end-to-end metrics, `--trace 1` the
per-layer ones and writes its spans to perfbench/out/. See README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import stats
from tracing import Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

# Set-up is timed in the measuring process and in this many fresh ones,
# spread over the run: on a shared host a cold set-up varies by tens of
# percent from moment to moment.
FRESH_SETUPS = 6
SETUP_TIMEOUT_S = 120
LOAD_SAMPLES = 5


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--setup-only", action="store_true",
                   help="time set-up in this fresh process and exit")
    return p.parse_args(argv)


def import_library():
    """Import ldpclab from this checkout's src/, or exit with status 1."""
    if not (SRC / "ldpclab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no ldpclab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import ldpclab

    if Path(ldpclab.__file__).resolve().parent != (SRC / "ldpclab").resolve():
        sys.exit(f"perfbench: imported ldpclab from {ldpclab.__file__}, not {SRC}")
    return ldpclab


def measure(workload, state, seconds: float, workers: int, tracer=None,
            between=None) -> list:
    """Whole rounds until their summed wall time is nearest to `seconds`.

    `between(share)` runs after each round, outside the timed wall, with the
    share of `seconds` measured so far.
    """
    rounds = []
    timed = 0.0
    while True:
        rounds.append(workload.run_round(state, len(rounds), workers, tracer))
        timed += rounds[-1].wall
        if between is not None:
            between(timed / seconds)
        # Stop at the round boundary nearest to `seconds`: sweep rounds last
        # up to half a minute, and overshooting by a whole one would stretch
        # the run.
        if timed + rounds[-1].wall / 2 >= seconds:
            return rounds


def peak_rss_mb() -> float:
    """Largest resident set of this process and of its waited-for children."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def fresh_setup_s(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
           "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=SETUP_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"set-up process failed: {done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def end_to_end(n_c: int, rounds: list, rss_mb: float, setups: list) -> dict:
    cw_per_s = sum(r.codewords for r in rounds) / sum(r.wall for r in rounds)
    return {
        "cw_per_s": (cw_per_s, "cw/s"),
        "coded_mbps": (stats.coded_mbps(n_c, cw_per_s), "Mb/s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }


def per_layer(ldpclab, workload, state, seconds: float) -> tuple[dict, list]:
    """Untraced phases, then one traced phase on a single worker."""
    loads = []
    for _ in range(LOAD_SAMPLES):
        t0 = time.perf_counter()
        ldpclab.load_basegraph(workload.bg_id, workload.z)
        loads.append(time.perf_counter() - t0)

    plain_workers = [workload.workers] + ([1] if workload.workers > 1 else [])
    budget = seconds / (len(plain_workers) + 1)
    plain = [measure(workload, state, budget, w) for w in plain_workers]
    tracer = Tracer()
    tracer.install()
    try:
        traced = measure(workload, state, budget, 1, tracer)
    finally:
        tracer.uninstall()
    tracer.write(OUT / f"spans-{workload.name}-seed{state['seed']}.json")

    def wall_per_cw(rounds):
        return sum(r.wall for r in rounds) / sum(r.codewords for r in rounds)

    traced_wall = sum(r.wall for r in traced)
    metrics = layer_metrics(tracer, sum(r.codewords for r in traced), traced_wall)
    metrics["basegraph.load_ms"] = (1e3 * statistics.median(loads), "ms")
    first = plain[0]
    metrics["harness.pool_busy_share"] = (
        sum(r.busy for r in first) / (workload.workers * sum(r.wall for r in first)),
        "share")
    metrics["trace.overhead_pct"] = (
        100.0 * (wall_per_cw(traced) / wall_per_cw(plain[-1]) - 1.0), "%")
    return metrics, [r for phase in plain for r in phase] + traced


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        sys.exit("perfbench: --seconds must be positive")
    ldpclab = import_library()
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {sorted(WORKLOADS)}")

    t0 = time.perf_counter()
    state = workload.setup(args.seed)
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    if args.trace:
        metrics, rounds = per_layer(ldpclab, workload, state, args.seconds)
    else:
        setups = [setup_s]

        def setups_due(share: float) -> None:
            # Fresh set-up k of FRESH_SETUPS is due at share k / (FRESH_SETUPS + 1).
            while (len(setups) <= FRESH_SETUPS
                   and len(setups) <= share * (FRESH_SETUPS + 1)):
                setups.append(fresh_setup_s(args))

        rounds = measure(workload, state, args.seconds, workload.workers,
                         between=setups_due)
        setups_due(1.0)
        metrics = end_to_end(state["params"].n_c, rounds, peak_rss_mb(), setups)
    problems = [p for r in rounds for p in r.problems] + workload.check(state)

    for p in problems:
        print(f"perfbench: check failed: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r.codewords for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
