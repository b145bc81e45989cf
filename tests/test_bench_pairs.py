"""What tools/bench_pairs.py records: each perfbench run's steal share, and
the spread of each side's runs with the pairs the change wins."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


def _tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_steal_share_of_two_cpu_lines():
    """steal's growth over that of user..steal; guest and guest_nice, which
    user and nice already hold, do not count."""
    tool = _tool()
    before = "cpu  100 5 50 800 10 1 4 30 7 0\n"
    # user +60, nice +0, system +20, idle +100, iowait +5, irq +1, softirq +4,
    # steal +10: 10 of 200; guest +40 adds nothing
    after = "cpu  160 5 70 900 15 2 8 40 47 0\n"
    assert tool.steal_share(before, after) == pytest.approx(10 / 200)
    assert tool.steal_share(before, before) is None          # no time passed
    assert tool.steal_share(None, after) is None
    assert tool.steal_share(before, None) is None


def test_cpu_line_reads_the_aggregate_line():
    line = _tool().cpu_line()
    assert line is None or line.split()[0] == "cpu" and len(line.split()) >= 9


BENCH = {"workloads": [{"name": "w1"}, {"name": "w2"}],
         "end_to_end": [{"name": "cw_per_s", "better": "higher"},
                        {"name": "peak_rss_mb", "better": "lower"}]}


def _runs(parent: dict, change: dict) -> list:
    """Synthetic runs, in the order bench_pairs runs them: per workload, the
    metric values of each pair on each side."""
    sides, runs = {"parent": parent, "change": change}, []
    for pair in range(len(parent["w1"]["cw_per_s"])):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for workload in ("w1", "w2"):
            for side in order:
                metrics = {name: {"value": v[pair]}
                           for name, v in sides[side][workload].items()}
                runs.append({"pair": pair, "first": order[0], "side": side,
                             "workload": workload, "metrics": metrics})
    return runs


def test_spread_gives_quartiles_and_wins_in_each_metrics_direction():
    tool = _tool()
    parent = {"w1": {"cw_per_s": [10, 20, 30, 40, 50], "peak_rss_mb": [5, 5, 5, 5, 5]},
              "w2": {"cw_per_s": [1, 2, 3, 4, 5], "peak_rss_mb": [9, 9, 9, 9, 9]}}
    change = {"w1": {"cw_per_s": [11, 19, 30, 41, 51], "peak_rss_mb": [4, 6, 5, 4, 4]},
              "w2": {"cw_per_s": [0, 1, 2, 3, 4], "peak_rss_mb": [9, 9, 9, 9, 8]}}
    got = tool.spread(_runs(parent, change), BENCH)
    assert set(got) == {"w1", "w2"} and all(set(m) == {"cw_per_s", "peak_rss_mb"}
                                            for m in got.values())
    w1 = got["w1"]["cw_per_s"]
    # statistics.quantiles' default (exclusive) method on five values
    assert w1["parent"] == [15, 45] and w1["change"] == [15, 46]
    # higher is better: 11 > 10, 41 > 40, 51 > 50 win; 30 = 30 is a tie
    assert (w1["change_wins"], w1["pairs"]) == (3, 5)
    # lower is better: 4 < 5 three times; 6 > 5 loses, 5 = 5 ties
    assert got["w1"]["peak_rss_mb"]["change_wins"] == 3
    assert got["w2"]["cw_per_s"]["change_wins"] == 0
    assert got["w2"]["peak_rss_mb"] == {"parent": [9, 9], "change": [8.5, 9],
                                        "change_wins": 1, "pairs": 5}
