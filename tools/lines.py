"""Line counts of the package: raw, and code-only as ROADMAP quotes them.

Usage: ``python tools/lines.py [PACKAGE_DIR]`` (default ``src/chebfrolov``).

For each ``.py`` and ``.c`` file it prints the raw line count and the
code-only count, then the totals.  Code-only lines of Python are the lines
that hold a token other than a comment, a line break, an indent or a
docstring (a string that is a statement of its own); of C, the lines that
hold anything outside a comment.
"""

from __future__ import annotations

import io
import re
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.COMMENT}
_C_COMMENT = re.compile(r"/\*.*?\*/|//[^\n]*|\"(?:\\.|[^\"\\\n])*\"", re.S)


def python_code_lines(text: str) -> int:
    """Lines holding a token that is neither layout, a comment nor a docstring."""
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type in _LAYOUT or tok.type == tokenize.ENDMARKER:
            if tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER) and statement:
                if not (len(statement) == 1 and statement[0].type == tokenize.STRING):
                    for t in statement:
                        lines.update(range(t.start[0], t.end[0] + 1))
                statement = []
            continue
        statement.append(tok)
    return len(lines)


def c_code_lines(text: str) -> int:
    """Lines holding anything but whitespace once comments are removed."""

    def blank(match: re.Match) -> str:
        token = match.group()
        return token if token.startswith('"') else re.sub(r"[^\n]", " ", token)

    return sum(1 for line in _C_COMMENT.sub(blank, text).splitlines() if line.strip())


def main(argv: list[str]) -> int:
    root = Path(argv[1] if len(argv) > 1 else Path(__file__).resolve().parent.parent / "src" / "chebfrolov")
    totals = {".py": [0, 0], ".c": [0, 0]}
    print(f"{'file':<20} {'raw':>6} {'code':>6}")
    for path in sorted(p for p in root.iterdir() if p.suffix in totals):
        text = path.read_text()
        code = (python_code_lines if path.suffix == ".py" else c_code_lines)(text)
        raw = len(text.splitlines())
        totals[path.suffix][0] += raw
        totals[path.suffix][1] += code
        print(f"{path.name:<20} {raw:>6} {code:>6}")
    for suffix, label in ((".py", "Python"), (".c", "C")):
        print(f"{label:<20} {totals[suffix][0]:>6} {totals[suffix][1]:>6}")
    raw, code = (sum(t[i] for t in totals.values()) for i in (0, 1))
    print(f"{'total':<20} {raw:>6} {code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
