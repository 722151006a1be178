"""The names the traced benchmark wraps or imports still exist.

perfbench/child.py replaces package functions by name for its per-layer
spans, and perfbench/run.py's micro-probes read engine attributes by name.
Both run here in a fresh process, so a renamed or deleted entry point
fails this test instead of the benchmark.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROBE = """
import sys
from types import SimpleNamespace
sys.path[:0] = ["perfbench"]
import numpy as np
import run
from child import install
from spans import Tracer
from hseom import (BathSpec, ContourEngine, OhmicCircular, build_space,
                   compute_coefficients, pspin_annealing, spin_boson)

tracer = Tracer()
install(tracer, True, {})
spec = BathSpec(OhmicCircular(zeta=0.2, nu=2.0), 3.0, 2.0, 4)
engine = ContourEngine(build_space(4, 2), compute_coefficients(spec),
                       spin_boson(1.0))
assert engine.flat_generator.nnz > 0
y = np.zeros((engine.num_awf * engine.dim, 3), dtype=complex)
y[0] = 1.0
engine.integrate_span(y, 0, 2, 0.01, 1.0)
engine.backward_batch(y, np.array([2, 1, 0]), 0.01)
engine.apply_all_rows(y, engine.model.V)
names = [span[0] for span in tracer.spans]
for name in ("dynamics.engine_init", "dynamics.integrate_span",
             "dynamics.backward_batch", "dynamics.apply_all_rows",
             "models.apply"):
    assert name in names, name
assert tracer.counts["dynamics.column_steps"] == 3 * 2 + 3, tracer.counts

# the --trace 1 micro-probes, each timed call made once
run.per_call = lambda fn: (fn(), 1e-6)[1]
anneal = ContourEngine(build_space(4, 2), engine.expansion,
                       pspin_annealing(2, Gamma=1.0, p=3, t_f=1.0))
for probed in (engine, anneal):
    out = run.probe_metrics(SimpleNamespace(engine=probed, dt=0.01), 0, 3)
    assert out["dynamics.generator_stored"] > 0, out
    assert set(out) >= {"dynamics.matvec_us", "dynamics.spmm_us",
                        "dynamics.rk4_step_ms",
                        "models.pauli_sum_apply_us"}, out
print("hooks ok")
"""


def test_traced_benchmark_install_finds_every_name():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, "-c", PROBE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "hooks ok" in done.stdout
