"""The steal share tools/bench_pairs.py records with each perfbench run."""

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
