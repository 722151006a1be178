"""Count the code lines of every module of src/hseom in one or two trees.

Usage:

    python tools/code_lines.py TREE [CHANGE_TREE]

A code line is a line that holds a token which is neither a comment nor
part of a docstring, the string that opens a module, class or function
body.  Blank lines, comments and docstrings do not count; a line of code
with a trailing comment does.  For one tree the report lists each module
of ``src/hseom`` with its count, then the total.  For two it lists each
module's count in both and the change, then the totals, so
``code_lines.py PARENT CHANGE`` measures what a change adds or removes.
"""

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
            tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING,
            tokenize.ENDMARKER}


def docstring_lines(source: str) -> set:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) \
                    and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines holding a token outside comments and docstrings."""
    docs = docstring_lines(source)
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _SKIPPED:
            continue
        spanned = range(token.start[0], token.end[0] + 1)
        lines.update(line for line in spanned if line not in docs)
    return len(lines)


def count_tree(tree: Path) -> dict:
    """Module name -> code lines, for every module of the tree's src/hseom."""
    return {path.name: code_lines(path.read_text())
            for path in sorted((tree / "src" / "hseom").glob("*.py"))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("trees", type=Path, nargs="+", metavar="TREE",
                        help="one source tree, or a parent and a change")
    args = parser.parse_args(argv)
    if len(args.trees) > 2:
        parser.error("give one or two trees")
    counts = [count_tree(tree) for tree in args.trees]
    if not any(counts):
        parser.error("no src/hseom modules in the trees given")
    names = sorted(set().union(*counts))
    for name in names + ["total"]:
        row = [sum(tree.values()) if name == "total" else tree.get(name, 0)
               for tree in counts]
        if len(row) == 1:
            print(f"{name}: {row[0]}")
        else:
            print(f"{name}: {row[0]} -> {row[1]} ({row[1] - row[0]:+d})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
