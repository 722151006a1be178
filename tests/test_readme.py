"""The library snippet and the step table in README.md are current."""

import itertools
import re
from pathlib import Path

import numpy as np
import pytest

from hseom.cli import preflight
from hseom.presets import preset

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_snippet_runs():
    section = README.read_text().split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    result = namespace["result"]
    assert result.times.shape == result.values.shape == (41,)
    assert abs(result.values[0] - 1.0) < 1e-6   # sigma_x^2 = 1 at lag 0
    assert 0.8 * np.pi < namespace["peak"] < 1.2 * np.pi


def test_readme_step_table_matches_preflight():
    # every row rebuilt from the preflight of its preset: dt as 1/n, the
    # step's norm to three places, column-steps and products
    lines = README.read_text().split("| preset | dt |", 1)[1].splitlines()
    rows = list(itertools.takewhile(bool, lines[2:]))
    assert len(rows) == 9
    for row in rows:
        name = row.split("|")[1].strip()
        report = preflight(preset(name))
        n = round(1.0 / report["dt"])
        assert report["dt"] == pytest.approx(1.0 / n, rel=1e-12), name
        assert row == (f"| {name} | 1/{n} | {report['dt_norm']:.3f} | "
                       f"{report['estimated_steps']:,} | "
                       f"{report['estimated_products']:,} |")
