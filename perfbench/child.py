"""One hseom subcommand in a fresh process, with spans at layer boundaries.

    python3 perfbench/child.py TRACE OUT_DIR SUBCOMMAND CONFIG

runs ``hseom SUBCOMMAND --config CONFIG --out OUT_DIR`` through
``hseom.cli.main`` and writes OUT_DIR/spans.json and OUT_DIR/result.npz
(the arrays the observable calls returned, for the correctness checks).
With TRACE = 0 the only spans are the set-up call and the observable
calls, which give setup_s and solve_s; with TRACE = 1 every public entry
point of every layer is wrapped where its caller looks it up.  The
package's files are not edited; its functions are replaced in memory.
"""

from __future__ import annotations

import json
import signal
import sys
from pathlib import Path

import numpy as np

from spans import Tracer

# an operation that runs longer is killed by SIGALRM and counts as failed
TIME_LIMIT_S = 150
# observable calls per subcommand, looked up in hseom.cli
SOLVE_CALLS = ("response_function", "half_fourier", "annealing_populations",
               "rdm_trajectory")


def _count_span(args, tracer):
    y = args["y"]
    tracer.counts["dynamics.column_steps"] += \
        (y.shape[1] if y.ndim == 2 else 1) * args["n_steps"]


def _count_batch(args, tracer):
    tracer.counts["dynamics.column_steps"] += int(np.sum(args["steps"]))
    tracer.counts["dynamics.widest_batch"] = max(
        tracer.counts["dynamics.widest_batch"], args["columns"].shape[1])


def install(tracer: Tracer, traced: bool, results: dict) -> None:
    import hseom.cli as cli
    import hseom.dynamics as dynamics
    import hseom.models as models
    import hseom.presets as presets

    def keep(name, fn):
        def kept(*args, **kwargs):
            out = fn(*args, **kwargs)
            results[name] = out
            return out
        return kept

    tracer.patch(cli, "build_components", "presets.build_components")
    for name in SOLVE_CALLS:
        setattr(cli, name, tracer.wrap(f"observables.{name}",
                                       keep(name, getattr(cli, name))))
    if not traced:
        return
    for name in ("parse_config_file", "validate_config"):
        tracer.patch(cli, name, f"config.{name}")
    for name in ("write_csv", "line_plot", "write_manifest"):
        tracer.patch(cli, name, f"reporting.{name}")
    tracer.patch(presets, "compute_coefficients", "bath.compute_coefficients")
    tracer.patch(presets, "build_space", "hierarchy.build_space")
    tracer.patch(dynamics, "build_coupling_matrices",
                 "dynamics.build_coupling_matrices")
    engine = dynamics.ContourEngine
    tracer.patch(engine, "__init__", "dynamics.engine_init")
    tracer.patch(engine, "integrate_span", "dynamics.integrate_span",
                 _count_span)
    tracer.patch(engine, "backward_batch", "dynamics.backward_batch",
                 _count_batch)
    tracer.patch(engine, "apply_all_rows", "dynamics.apply_all_rows")
    for cls in (models.DenseOperator, models.DiagonalOperator,
                models.PauliSumOperator, models.ScaledSumOperator):
        tracer.patch(cls, "apply", "models.apply")


def arrays_of(name: str, value) -> dict:
    """The ndarray fields of a returned tuple or result object."""
    items = dict(enumerate(value)) if isinstance(value, tuple) \
        else vars(value)
    return {f"{name}.{key}": item for key, item in items.items()
            if isinstance(item, np.ndarray)}


def peak_rss_kb() -> int:
    """High-water resident set of this process image (VmHWM).

    ru_maxrss would not do: on Linux it keeps the launching process's
    high-water mark across fork and exec.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv) -> int:
    signal.alarm(TIME_LIMIT_S)
    traced, out, command, config = argv
    import hseom.cli as cli

    tracer = Tracer()
    results: dict = {}
    install(tracer, traced == "1", results)
    code = tracer.wrap("cli.main", cli.main)(
        [command, "--config", config, "--out", out])
    arrays = {}
    for name, value in results.items():
        arrays.update(arrays_of(name, value))
    np.savez(Path(out) / "result.npz", **arrays)
    record = tracer.dump()
    record["hseom_file"] = sys.modules["hseom"].__file__
    record["peak_rss_kb"] = peak_rss_kb()
    (Path(out) / "spans.json").write_text(json.dumps(record))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
