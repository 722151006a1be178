"""tools/code_lines.py counts the code lines of src/hseom's modules."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SOURCE = '''"""A module docstring,
over two lines."""

import math  # a trailing comment leaves a code line

# a comment line


def f(x):
    """One line."""
    text = """a string that is
    not a docstring"""
    return math.sqrt(x), text


class C:
    """Over
    three lines."""

    value = (1,
             2)
'''


def _tree(root: Path, source: str) -> Path:
    package = root / "src" / "hseom"
    package.mkdir(parents=True)
    (package / "a.py").write_text(source)
    (package / "b.py").write_text("x = 1\n")
    return root


def _report(*trees):
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "code_lines.py"),
         *map(str, trees)], capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_counts_lines_outside_comments_and_docstrings(tmp_path):
    # import, def, the two lines of the plain string, return, class, and
    # the two lines of the tuple
    tree = _tree(tmp_path / "one", SOURCE)
    assert _report(tree) == ["a.py: 8", "b.py: 1", "total: 9"]


def test_two_trees_give_the_change(tmp_path):
    parent = _tree(tmp_path / "parent", SOURCE)
    change = _tree(tmp_path / "change", SOURCE.replace(
        "    return math.sqrt(x), text\n", "    y = x\n    return y\n"))
    assert _report(parent, change) == [
        "a.py: 8 -> 9 (+1)", "b.py: 1 -> 1 (+0)", "total: 9 -> 10 (+1)"]
