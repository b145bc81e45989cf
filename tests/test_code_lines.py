"""The code-line count of tools/code_lines.py: its rules and a run over the package."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "code_lines.py"


def _tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_python_lines_skip_comments_docstrings_and_blank_lines():
    text = '''"""Module docstring,
over two lines."""

import os  # a comment on a code line


def f(x):
    """One line."""
    # a comment line
    s = """a string that is
not a docstring"""
    return (x +
            1)
'''
    # import, def, the two lines of s, the two lines of the return
    assert _tool().python_lines(text) == 6


def test_c_lines_skip_comments_and_bare_continuations():
    text = '''/* a comment
 * over lines */
#define TWICE(x) \\
    /* inside the macro */ \\
    ((x) + (x))

int f(void) { return TWICE(1); }  // trailing
const char *s = "/* not a comment */";
'''
    assert _tool().c_lines(text) == 4


def test_the_tool_counts_every_module_and_the_kernel():
    done = subprocess.run([sys.executable, str(TOOL)], capture_output=True, text=True,
                          check=True)
    counts = dict(line.split("\t") for line in done.stdout.splitlines())
    modules = {f"src/ldpclab/{p.name}" for p in (ROOT / "src" / "ldpclab").glob("*.py")}
    assert set(counts) == modules | {"src/ldpclab/_layer.c", "python", "c", "total"}
    assert all(int(counts[m]) > 0 for m in modules)
    assert int(counts["python"]) == sum(int(counts[m]) for m in modules)
    assert int(counts["c"]) == int(counts["src/ldpclab/_layer.c"])
    assert int(counts["total"]) == int(counts["python"]) + int(counts["c"])
