"""The library snippet in README.md runs as written."""

import re
from pathlib import Path

import numpy as np

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
