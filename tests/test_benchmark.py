"""The benchmark's contract, run as BENCHMARK.json declares it.

Each workload, traced and untraced, must end its standard output with one
strict-JSON result that is correct, fails no codeword and names every metric
BENCHMARK.json lists for that mode: a run whose last line is anything else
gives the benchmark nothing to compare.
"""

import json
import math
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN_TIMEOUT_S = 300


def _not_strict(constant):
    raise ValueError(f"{constant} is not strict JSON")


@pytest.mark.parametrize("trace", [0, 1], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", [w["name"] for w in CONTRACT["workloads"]])
def test_benchmark_run_ends_in_a_full_result(workload, trace):
    done = subprocess.run(
        [*CONTRACT["command"], "--workload", workload, "--seed", "1", "--seconds", "1",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines, done.stderr
    result = json.loads(lines[-1], parse_constant=_not_strict)
    assert result["correct"] is True, done.stderr
    assert result["failed"] == 0 and result["attempted"] > 0
    metrics = result["metrics"]
    wanted = {m["name"] for m in CONTRACT["per_layer" if trace else "end_to_end"]}
    assert wanted <= set(metrics), sorted(wanted - set(metrics))
    for name in wanted:
        value = metrics[name]["value"]
        assert isinstance(value, (int, float)) and not isinstance(value, bool), name
        assert math.isfinite(value), name
