"""Benchmark of the three hseom experiment paths, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding src/ and
configs/).  One operation is one execution of the workload's subcommand
in a fresh process (perfbench/child.py).  Operations repeat while
another one still fits in S seconds, at least once; the correctness
checks then run on every operation's output.  With --trace 0 the last
line of standard output is a JSON object with the end-to-end metrics
(medians over the run); with --trace 1 each round runs the subcommand
untraced and traced and the object carries the per-layer metrics.  No input is random: the
seed only fills the vectors of the micro-probes.  See perfbench/README.md.
"""

from __future__ import annotations

import os
import sys

# BLAS threads are fixed before numpy loads, here and in every child
THREADS = str(min(2, os.cpu_count() or 1))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = THREADS

import argparse
import collections
import compileall
import json
import shutil
import statistics
import subprocess
import time
import timeit
from pathlib import Path

import numpy as np

from spans import layer_of, self_times, solve_roots, subtree

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# workload -> (subcommand, shipped config)
WORKLOADS = {
    "respond-circular": ("respond", "configs/respond_circular.ini"),
    "anneal-large": ("anneal", "configs/anneal_large.ini"),
    "dephasing": ("rdm", "configs/dephasing.ini"),
}
# each set-up sample is at least SETUP_MIN calls and SETUP_SECONDS long
SETUP_MIN, SETUP_SECONDS = 3, 0.75
IMPORT_REPEATS = 3
IMPORT_PROBE = ("import time; t = time.perf_counter(); import hseom; "
                "print(time.perf_counter() - t)")

END_TO_END_UNITS = {"setup_s": "s", "solve_s": "s", "wall_s": "s",
                    "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "bath.compute_coefficients_s": "s",
    "hierarchy.build_space_s": "s",
    "dynamics.build_coupling_matrices_s": "s",
    "dynamics.engine_init_s": "s",
    "dynamics.generator_stored": "count",
    "dynamics.generator_nonzero": "count",
    "dynamics.matvec_us": "us",
    "dynamics.spmm_us": "us",
    "dynamics.rk4_step_ms": "ms",
    "dynamics.integrate_span_s": "s",
    "dynamics.integrate_span_calls": "count",
    "dynamics.backward_batch_s": "s",
    "dynamics.backward_batch_calls": "count",
    "dynamics.apply_all_rows_s": "s",
    "dynamics.column_steps": "count",
    "dynamics.self_s": "s",
    "models.apply_s": "s",
    "models.apply_calls": "count",
    "models.pauli_sum_apply_us": "us",
    "observables.self_s": "s",
    "reporting.write_s": "s",
    "config.parse_s": "s",
    "cli.import_s": "s",
    "trace.solve_s": "s",
    "trace.overhead_s": "s",
}


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def run_op(workload: str, index: int, traced: bool) -> dict:
    """One fresh-process execution of the workload's subcommand."""
    command, config = WORKLOADS[workload]
    out = OUT / workload / f"op{index:03d}{'-traced' if traced else ''}"
    out.mkdir(parents=True)
    argv = [sys.executable, str(HERE / "child.py"), "1" if traced else "0",
            str(out), command, config]
    with open(out / "stdout.txt", "wb") as so, \
            open(out / "stderr.txt", "wb") as se:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=so, stderr=se, cwd=ROOT,
                                env=_child_env())
        # a blocking wait returns at exit; the child bounds its own time
        code = proc.wait()
        wall = time.perf_counter() - started
    op = {"dir": out, "code": code, "wall_s": wall}
    if code == 0:
        with np.load(out / "result.npz") as data:
            op["arrays"] = dict(data)
        op["record"] = json.loads((out / "spans.json").read_text())
        hseom_file = Path(op["record"]["hseom_file"]).resolve()
        if SRC.resolve() not in hseom_file.parents:
            raise RuntimeError(f"child imported hseom from {hseom_file}")
    return op


def solve_seconds(record: dict) -> float:
    spans = record["spans"]
    return sum(spans[i][2] - spans[i][1] for i in solve_roots(spans))


def span_metrics(record: dict) -> dict:
    """Per-layer figures of one traced operation, from its spans."""
    spans = record["spans"]
    own = self_times(spans)
    inside = subtree(spans, solve_roots(spans))
    solve_self = collections.Counter()
    for i in inside:
        solve_self[layer_of(spans[i][0])] += own[i]

    def total(name):
        """Inclusive seconds of the spans called name, or of a layer."""
        return sum((end - start for span, start, end, _ in spans
                    if name in (span, layer_of(span))), 0.0)

    def calls(name):
        return sum(1 for span, *_ in spans if span == name)

    return {
        "bath.compute_coefficients_s": total("bath.compute_coefficients"),
        "hierarchy.build_space_s": total("hierarchy.build_space"),
        "dynamics.build_coupling_matrices_s":
            total("dynamics.build_coupling_matrices"),
        "dynamics.engine_init_s": sum(
            (own[i] for i, (span, *_) in enumerate(spans)
             if span == "dynamics.engine_init"), 0.0),
        "dynamics.integrate_span_s": total("dynamics.integrate_span"),
        "dynamics.integrate_span_calls": calls("dynamics.integrate_span"),
        "dynamics.backward_batch_s": total("dynamics.backward_batch"),
        "dynamics.backward_batch_calls": calls("dynamics.backward_batch"),
        "dynamics.apply_all_rows_s": total("dynamics.apply_all_rows"),
        "dynamics.column_steps":
            record["counts"].get("dynamics.column_steps", 0),
        "dynamics.self_s": solve_self["dynamics"],
        "models.apply_s": solve_self["models"],
        "models.apply_calls": sum(1 for i in inside
                                  if spans[i][0] == "models.apply"),
        "observables.self_s": solve_self["observables"],
        "reporting.write_s": total("reporting"),
        "config.parse_s": total("config"),
        "trace.solve_s": solve_seconds(record),
    }


def per_call(fn) -> float:
    """Median seconds per call over five samples of at least 0.2 s each."""
    fn()  # warm-up
    timer = timeit.Timer(fn)
    number, _ = timer.autorange()
    return statistics.median(timer.repeat(repeat=5, number=number)) / number


def probe_metrics(comps, seed: int, widest_batch: int) -> dict:
    """Micro-probes on the workload's own engine, vectors from the seed."""
    from hseom.models import PauliSumOperator

    rng = np.random.default_rng(seed)

    def vector(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    engine = comps.engine
    size = engine.num_awf * engine.dim
    out = {"dynamics.generator_stored": 0, "dynamics.generator_nonzero": 0,
           "dynamics.matvec_us": 0.0, "dynamics.spmm_us": 0.0}
    G = engine.flat_generator
    if G is not None:
        x, X = vector(size), vector(size, max(widest_batch, 1))
        out["dynamics.generator_stored"] = int(G.nnz)
        out["dynamics.generator_nonzero"] = int(np.count_nonzero(G.data))
        out["dynamics.matvec_us"] = per_call(lambda: G @ x) * 1e6
        out["dynamics.spmm_us"] = per_call(lambda: G @ X) * 1e6
    y = vector(size)
    y /= np.linalg.norm(y)
    out["dynamics.rk4_step_ms"] = per_call(
        lambda: engine.integrate_span(y, 0, 1, comps.dt, 1.0,
                                      tau_of=lambda s: s)) * 1e3
    ham = engine.model.hamiltonian_at(0.0)
    paulis = [op for op in [ham] + [op for _, op in getattr(ham, "parts", ())]
              if isinstance(op, PauliSumOperator)]
    out["models.pauli_sum_apply_us"] = 0.0
    if paulis:
        stack = vector(engine.num_awf, engine.dim)
        out["models.pauli_sum_apply_us"] = \
            per_call(lambda: paulis[0].apply(stack)) * 1e6
    return out


def import_seconds() -> float:
    times = []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT,
                              env=_child_env(), capture_output=True,
                              text=True, timeout=60, check=True)
        times.append(float(done.stdout.strip()))
    return statistics.median(times)


def judge(ops, reference, check) -> tuple:
    """(failed operations, whether every completed operation was right)."""
    failed, correct = 0, True
    for op in ops:
        if op["code"] != 0:
            failed += 1
            print(f"{op['dir']}: exit code {op['code']}", file=sys.stderr)
            continue
        problems = check(op["arrays"], reference)
        if problems:
            failed += 1
            correct = False
            for line in problems:
                print(f"{op['dir']}: {line}", file=sys.stderr)
    return failed, correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    command, config = WORKLOADS[args.workload]
    if not (SRC / "hseom" / "__init__.py").is_file() \
            or not (ROOT / config).is_file():
        print(f"no hseom checkout here ({ROOT}): need src/hseom and {config}",
              file=sys.stderr)
        return 2
    compileall.compile_dir(str(SRC / "hseom"), quiet=1)
    sys.path.insert(0, str(SRC))
    from hseom import build_components, parse_config_file
    from checks import CHECKS, REFERENCES

    shutil.rmtree(OUT / args.workload, ignore_errors=True)
    cfg = parse_config_file(ROOT / config)

    def set_up(times: list):
        """Time build_components until the sample is long enough."""
        first = len(times)
        while len(times) - first < SETUP_MIN \
                or sum(times[first:]) < SETUP_SECONDS:
            started = time.perf_counter()
            built = build_components(cfg)
            times.append(time.perf_counter() - started)
        return built

    # set-up is timed before, between and after the operations, so its
    # median samples the same stretch of machine time as theirs
    setups: list = []
    comps = build_components(cfg) if args.trace else None
    plain, traced = [], []
    started = time.perf_counter()
    while True:
        began = time.perf_counter()
        if not args.trace:
            comps = set_up(setups)
        plain.append(run_op(args.workload, len(plain) + len(traced), False))
        if args.trace:
            traced.append(run_op(args.workload, len(plain) + len(traced),
                                 True))
        now = time.perf_counter()
        if now - started + (now - began) > args.seconds:
            break  # another round would run past the measuring time
    if not args.trace:
        set_up(setups)
    ops = plain + traced

    failed, correct = judge(ops, REFERENCES[command](comps, cfg),
                            CHECKS[command])
    good_plain = [op for op in plain if op["code"] == 0]
    good_traced = [op for op in traced if op["code"] == 0]
    if not good_plain or (args.trace and not good_traced):
        print("no operation completed; nothing to report", file=sys.stderr)
        return 1

    if args.trace:
        per_op = [span_metrics(op["record"]) for op in good_traced]
        values = {name: statistics.median(m[name] for m in per_op)
                  for name in per_op[0]}
        values["trace.overhead_s"] = values["trace.solve_s"] - \
            statistics.median(solve_seconds(op["record"])
                              for op in good_plain)
        widest = max(op["record"]["counts"].get("dynamics.widest_batch", 0)
                     for op in good_traced)
        values.update(probe_metrics(comps, args.seed, widest))
        values["cli.import_s"] = import_seconds()
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in PER_LAYER_UNITS.items()}
    else:
        values = {
            "setup_s": statistics.median(setups),
            "solve_s": statistics.median(solve_seconds(op["record"])
                                         for op in good_plain),
            "wall_s": statistics.median(op["wall_s"] for op in good_plain),
            "peak_rss_mb": statistics.median(op["record"]["peak_rss_kb"]
                                             for op in good_plain) / 1024.0,
        }
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in values.items()}

    print(json.dumps({"correct": correct, "attempted": len(ops),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
