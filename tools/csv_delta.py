"""Compare the outputs of every shipped config between two source trees.

Usage:

    python tools/csv_delta.py PARENT_TREE CHANGE_TREE [--only NAME ...]

Each tree is a checkout of this repository.  Every ``configs/*.ini`` of
either tree (or only the stems NAME given, such as ``dephasing``) runs as
the experiment its ``[experiment] kind`` names, once per tree, with that
tree's own ``src`` on ``PYTHONPATH`` and its own copy of the config, into a
temporary directory.  For each CSV the report reads ``identical`` when the
two files match byte for byte, and otherwise the largest absolute
difference over the cells that are numbers in both.  For each manifest it
lists every ``key = value`` entry that differs, other than the timing
keys (those ending in ``_s``).  Exits 1 when a run fails or a config is
missing from one tree, 0 otherwise, whatever the differences.
"""

import argparse
import configparser
import csv
import os
import subprocess
import sys
import tempfile
from pathlib import Path


def run_config(tree: Path, config: Path, out: Path) -> str:
    """Run one config with the tree's own package; returns '' or the
    error output of a failed run."""
    parser = configparser.ConfigParser()
    parser.read(config)
    kind = parser["experiment"]["kind"]
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "hseom", kind, "--config", str(config),
         "--out", str(out)], cwd=tree, env=env, capture_output=True,
        text=True)
    if done.returncode:
        return f"exit {done.returncode}: {done.stderr.strip()}"
    return ""


def csv_delta(parent: Path, change: Path) -> str:
    """'identical', or the largest absolute difference of numeric cells."""
    if parent.read_bytes() == change.read_bytes():
        return "identical"
    with parent.open() as a, change.open() as b:
        rows_a, rows_b = list(csv.reader(a)), list(csv.reader(b))
    if [len(row) for row in rows_a] != [len(row) for row in rows_b]:
        return "differs in shape"
    largest, text = 0.0, 0
    for row_a, row_b in zip(rows_a, rows_b):
        for cell_a, cell_b in zip(row_a, row_b):
            try:
                largest = max(largest, abs(complex(cell_a) - complex(cell_b)))
            except ValueError:
                text += cell_a != cell_b
    report = f"max |diff| = {largest:.3e}"
    return report + (f", {text} text cells differ" if text else "")


def manifest_entries(path: Path) -> dict:
    """The key = value lines of a manifest, above its config echo."""
    head = path.read_text().split("--- config ---")[0]
    return dict(line.split(" = ", 1) for line in head.splitlines()
                if " = " in line)


def manifest_delta(parent: Path, change: Path) -> list:
    """'key: parent -> change' for every non-timing entry that differs."""
    a, b = manifest_entries(parent), manifest_entries(change)
    return [f"{key}: {a.get(key)} -> {b.get(key)}"
            for key in sorted(a.keys() | b.keys())
            if not key.endswith("_s") and a.get(key) != b.get(key)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path, help="the parent source tree")
    parser.add_argument("change", type=Path, help="the changed source tree")
    parser.add_argument("--only", nargs="+", metavar="NAME",
                        help="config stems to run; default all")
    args = parser.parse_args(argv)
    trees = (args.parent.resolve(), args.change.resolve())
    names = sorted({path.stem for tree in trees
                    for path in (tree / "configs").glob("*.ini")})
    if args.only:
        names = [name for name in names if name in args.only]
        missing = sorted(set(args.only) - set(names))
        if missing:
            parser.error(f"no config named {', '.join(missing)}")
    failed = False
    with tempfile.TemporaryDirectory() as scratch:
        for name in names:
            outs = [Path(scratch) / side / name for side in ("parent",
                                                            "change")]
            errors = []
            for tree, out in zip(trees, outs):
                config = tree / "configs" / f"{name}.ini"
                errors.append(run_config(tree, config, out)
                              if config.exists() else f"no {config}")
            if any(errors):
                failed = True
                for side, error in zip(("parent", "change"), errors):
                    if error:
                        print(f"{name}: {side} failed: {error}")
                continue
            files = sorted({path.name for out in outs
                            for path in out.glob("*.csv")})
            for file in files:
                pair = [out / file for out in outs]
                delta = csv_delta(*pair) if all(p.exists() for p in pair) \
                    else "missing on one side"
                print(f"{name}/{file}: {delta}")
            for line in manifest_delta(*(out / "manifest" for out in outs)):
                print(f"{name}/manifest {line}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
