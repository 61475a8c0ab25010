"""``tools/lines.py``, the line counter that ROADMAP and CHANGES.md quote."""

import importlib.util
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("lines", _ROOT / "tools" / "lines.py")
lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(lines)

PYTHON = '''\
"""A module docstring,
over two lines."""

# a comment
import math  # a trailing comment


def f(
    a,
    b,
):
    """A function docstring."""

    return math.hypot(a,
                      b)


TEXT = """a string that is not a statement of its own
spans its lines"""
'''


C = """\
/* a block comment
   over two lines */
#include <stdio.h>

// a line comment
static const char *open = "/*";
static int after_the_string; /* a trailing comment */
/* the comment that a string's /* must not reach */
int main(void)
{
    return after_the_string; // done
}
"""


def test_python_code_lines_skip_docstrings_comments_and_blank_lines():
    # import, the four lines of def f(...):, the two of the return, the two of TEXT
    assert lines.python_code_lines(PYTHON) == 9


def test_a_python_string_statement_is_no_code():
    assert lines.python_code_lines('"""Only a docstring."""\n') == 0
    assert lines.python_code_lines('x = 1\n"a string statement"\ny = (\n    2)\n') == 3


def test_c_code_lines_skip_comments_but_not_strings():
    # include, the two declarations, and the four lines of main
    assert lines.c_code_lines(C) == 7


def test_file_rows_add_up_to_the_totals(capsys):
    package = _ROOT / "src" / "chebfrolov"
    assert lines.main(["lines.py", str(package)]) == 0
    rows = {}
    for line in capsys.readouterr().out.splitlines()[1:]:
        name, raw, code = line.rsplit(maxsplit=2)
        rows[name] = (int(raw), int(code))
    files = {name: row for name, row in rows.items() if "." in name}
    assert sorted(files) == sorted(p.name for p in package.iterdir() if p.suffix in (".py", ".c"))
    for label, suffix in (("Python", ".py"), ("C", ".c")):
        group = [row for name, row in files.items() if name.endswith(suffix)]
        assert rows[label] == (sum(r for r, _ in group), sum(c for _, c in group))
    assert rows["total"] == tuple(map(sum, zip(rows["Python"], rows["C"])))
    text = (package / "verify.py").read_text()
    assert files["verify.py"] == (len(text.splitlines()), lines.python_code_lines(text))
