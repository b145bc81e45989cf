#!/usr/bin/env python3
"""Count the code lines of the package: each module of `src/ldpclab` and the kernel.

A Python line counts when it holds a token other than a comment or a
docstring (a string that stands alone as a statement), found with
`tokenize`; blank lines do not count. A C line counts when something other
than white space and a macro's line-continuation backslash is left once the
comments are stripped. The script counts the tree it sits in, and prints one
line per file, then the Python total, the C total and the sum:

    python tools/code_lines.py

To count another checkout, run its own copy of this script.
"""

from __future__ import annotations

import io
import re
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ldpclab"
KERNEL = PACKAGE / "_layer.c"

# tokens that are no code of their own, besides comments and blank-line NLs
_LAYOUT = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING,
           tokenize.ENDMARKER}
# a string or character literal, so that "/*" inside one is not a comment,
# or a comment
_C_TOKEN = re.compile(r'"(?:\\.|[^"\\\n])*"|\'(?:\\.|[^\'\\\n])*\'|/\*.*?\*/|//[^\n]*', re.S)


def python_lines(text: str) -> int:
    """Lines of `text` that hold Python code other than comments and docstrings."""
    tokens = [t for t in tokenize.generate_tokens(io.StringIO(text).readline)
              if t.type not in (tokenize.COMMENT, tokenize.NL)]
    lines = set()
    for i, tok in enumerate(tokens):
        if tok.type in _LAYOUT:
            continue
        before = tokens[i - 1].type if i else tokenize.NEWLINE
        after = tokens[i + 1].type if i + 1 < len(tokens) else tokenize.NEWLINE
        if (tok.type == tokenize.STRING and after == tokenize.NEWLINE
                and before in (tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
                               tokenize.ENCODING)):
            continue                        # a docstring
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def c_lines(text: str) -> int:
    """Lines of C `text` with code left once its comments are stripped."""
    def strip(m: re.Match) -> str:
        s = m.group(0)
        # a comment keeps its line breaks, so the lines after it keep their places
        return "\n" * s.count("\n") if s.startswith("/") else s
    return sum(1 for line in _C_TOKEN.sub(strip, text).splitlines()
               if line.strip().rstrip("\\").strip())


def main() -> int:
    counts = [(path, python_lines(path.read_text())) for path in sorted(PACKAGE.glob("*.py"))]
    python = sum(n for _, n in counts)
    c = c_lines(KERNEL.read_text())
    for path, n in counts + [(KERNEL, c)]:
        print(f"{path.relative_to(ROOT)}\t{n}")
    print(f"python\t{python}")
    print(f"c\t{c}")
    print(f"total\t{python + c}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
