"""Config-driven experiment runner.

Subcommands: bath-fit, respond, anneal, rdm, validate, preflight.
Exit codes: 0 success, 2 config error, 3 numerical failure, 4 resource
refusal.  SVG plots are rendered from the CSV files after writing them,
so the plots can never show anything the tables do not contain.  The
manifest of a respond, anneal or rdm run is its observable's metadata
(the sweep record) with the step, its degree, the attempts and the
expansion error, written by :func:`_record`.  A run at the default step
whose trace fails is rerun at the smaller step the failure names
(:func:`_solve`).
"""

from __future__ import annotations

import argparse
import math
import sys
import time
import warnings
from pathlib import Path
from typing import Dict, Optional

import numpy as np
import scipy

from .bath import (BathExpansion, BathSpec, OhmicCircular, alpha_quadrature,
                   alpha_reconstruct, alpha_theta, build_eta,
                   compute_coefficients, reconstruction_error, tail_mass,
                   write_expansion)
from .config import (RunConfig, horizon_of, parse_config_file,
                     serialize_config, validate_config)
from .dynamics import ContourEngine
from .errors import (ConfigError, HorizonWarning, HseomError,
                     NumericalError, ResourceLimitError, TraceError)
from .hierarchy import awf_count, build_space, capped_count
from .models import (DenseOperator, PureState, SystemModel, pure_dephasing,
                     spin_boson)
from .observables import (annealing_populations, half_fourier,
                          rdm_trajectory, response_function)
from .oracles import assemble_generator, dephasing_exact, pspin_register
from .presets import build_bath_spec, build_components, preset
from .reporting import line_plot, read_csv, write_csv, write_manifest

__all__ = ["main", "preflight"]

try:
    from importlib.metadata import version as _dist_version
    _VERSION = _dist_version("hseom")
except Exception:  # not installed, e.g. run from a checkout
    _VERSION = "0+unknown"

# copies of the flat state that one integrate_span holds beside its
# caller's: its own copy, the running Taylor factor, one product and, for a
# schedule, the system-axis copy that H(tau) acts on.  tracemalloc read 3.0
# for a fixed G and, above the schedule's H(tau) (see _state_bytes), 4.0
# for a schedule: 4.52 on 21 AWFs of a 1,024-state system, whose H(tau)
# is 0.52 of a state
_WORKSPACE_FACTOR = 4
# Python objects of the index enumeration per index, above its tables, at
# the peak of build_space: tracemalloc read 129-166 B at (K, N_max) =
# (20, 3), (80, 3), (12, 5), (40, 3) and (200, 2)
_ENUMERATION_BYTES = 170
_BYTE_BUDGET = 2 * 1024 ** 3
# largest relative error of the K-term alpha(t) over a run's horizon that
# passes without a HorizonWarning
EXPANSION_TOL = 1e-2
# runs of an observable at the default step, the first included, before a
# failed trace exits 3
MAX_ATTEMPTS = 3


def _model_dim(cfg: RunConfig) -> int:
    if cfg.get("model", "kind") == "pspin":
        # the Ncal + 1 permutation-symmetric states
        return int(cfg.require("model", "Ncal")) + 1
    return 2


def _system_entries(cfg: RunConfig, dim: int):
    """Upper bounds on the stored entries of H(0), H(t_f) and V."""
    if cfg.get("model", "kind") == "pspin":
        # the driver moves k by one up or down; target and coupling are
        # diagonal
        return 2 * int(cfg.require("model", "Ncal")), dim, dim
    return dim * dim, dim * dim, dim * dim


def _ramp_entries(cfg: RunConfig, dim: int) -> int:
    """An upper bound on the stored entries of a schedule's H(0) and
    H(t_f) on their one pattern (:class:`ContourEngine`); 0 for a fixed
    model, whose H folds into G_c."""
    if cfg.get("model", "kind") != "pspin":
        return 0
    h_start, h_end, _ = _system_entries(cfg, dim)
    return h_start + h_end


def _generator_bytes(cfg: RunConfig, num: int, dim: int) -> int:
    """CSR bytes of the generator's parts, each stored once: the
    transpose engine reads them all through CSC views.

    The entry counts are upper bounds read off the index moves: for each
    k, awf_count(K, N_max - 1) indices have n_k > 0, so each of the
    2K - 2 entries of eta adds at most that many exchange blocks, and each
    raise, plus the one lowering (phi_k(0) = delta_k0), as many coupling
    blocks.  A schedule keeps H(0) and H(t_f) as two more dim x dim parts,
    each with the union of the two patterns.
    """
    K = cfg.require("bath", "K")
    n_max = cfg.require("hierarchy", "n_max")
    movable = awf_count(K, n_max - 1) if n_max > 0 else 0
    h_start, _, v = _system_entries(cfg, dim)
    fixed = (2 * K - 2) * movable * dim + (K + 1) * movable * v
    ramp = _ramp_entries(cfg, dim)
    if ramp:
        parts = [(fixed, num * dim)] + [(ramp, dim)] * 2
    else:
        parts = [(fixed + num * h_start, num * dim)]
    total = 0
    for nnz, rows in parts:
        index = 4 if max(rows, nnz) < 2 ** 31 else 8
        total += nnz * (16 + index) + (rows + 1) * index
    return total


def _state_bytes(num: int, dim: int, ramp: int = 0) -> int:
    """Bytes of the flat states alive at the peak of a solve.

    The forward and the transpose sweep run at once, each a span with its
    caller's state and ``_WORKSPACE_FACTOR`` copies, and for a schedule
    the data of its H(tau), ``ramp`` entries; the observable holds at
    most three more states: the start vector, and respond's two states
    at t0.
    """
    return 16 * (num * dim * (2 * (1 + _WORKSPACE_FACTOR) + 3) + 2 * ramp)


def _refuse_oversize(cfg: RunConfig) -> Dict[str, object]:
    """Validate and size a config; nothing is built.

    Returns the AWF count, the system dimension and ``estimated_bytes``:
    the states of both sweeps with their workspace (:func:`_state_bytes`),
    the sparse generator's parts (:func:`_generator_bytes`), and the
    hierarchy's tables (``indices``, ``levels``, ``raise_table`` and
    ``lower_table``, 10 K + 2 bytes per index) with the peak of their
    enumeration.
    Raises ResourceLimitError when the estimate exceeds the byte budget or
    the index count exceeds ``hierarchy.MAX_INDICES``.
    """
    validate_config(cfg)
    if cfg.experiment in ("bath-fit", "validate"):
        k = cfg.get("bath", "K", 0)
        return {"awf_count": 0, "dim": 0, "estimated_bytes": int(k) * 16}
    K = cfg.require("bath", "K")
    num = capped_count(K, cfg.require("hierarchy", "n_max"))
    dim = _model_dim(cfg)
    total = (_state_bytes(num, dim, _ramp_entries(cfg, dim))
             + _generator_bytes(cfg, num, dim)
             + num * (10 * K + 2 + _ENUMERATION_BYTES))
    if total > _BYTE_BUDGET:
        raise ResourceLimitError(
            f"estimated {total} bytes exceed the {_BYTE_BUDGET} byte budget")
    return {"awf_count": num, "dim": dim, "estimated_bytes": total}


def _build(cfg: RunConfig):
    """:func:`build_components`, then the expansion check.

    ``expansion_error`` is the largest |alpha(t) - sum_k c_k J_k(Omega t)|
    over [0, horizon], relative to the largest |alpha(t)|, with alpha(t)
    from :func:`alpha_theta`, on at least 41 points spaced at most
    pi / (2 Omega), a quarter of the shortest period in alpha.  Above
    ``EXPANSION_TOL`` it warns ``HorizonWarning``.  The check stays
    outside ``build_components``, so that a set-up time is the build's
    alone.
    """
    comps = build_components(cfg)
    spec, horizon = comps.bath_spec, horizon_of(cfg)
    points = max(41, math.ceil(2.0 * spec.Omega * horizon / math.pi) + 1)
    err = reconstruction_error(spec, comps.expansion,
                               np.linspace(0.0, horizon, points))
    if err > EXPANSION_TOL:
        warnings.warn(
            f"K = {spec.K} leaves a relative error {err:.2e} in alpha(t) "
            f"over the horizon {horizon:g}, above {EXPANSION_TOL:g}; raise "
            f"K", HorizonWarning, stacklevel=2)
    comps.expansion_error = err
    return comps


def _solve(cfg: RunConfig, comps, observable):
    """``observable(dt)`` at ``comps.dt``; returns (result, attempts).

    When the config leaves ``[integrator] dt`` unset and the trace fails
    (TraceError), the observable runs again at the smaller step the error
    names, up to ``MAX_ATTEMPTS`` runs in all; an explicit step is never
    changed.  The observable stops at its first failed record, so a
    failed attempt costs only the sweep up to there.
    """
    dt = comps.dt
    for attempt in range(1, MAX_ATTEMPTS + 1):
        try:
            return observable(dt), attempt
        except TraceError as exc:
            if cfg.get("integrator", "dt") is not None \
                    or attempt == MAX_ATTEMPTS:
                raise
            print(f"retrying at dt = {exc.retry_dt!r}: {exc}",
                  file=sys.stderr)
            dt = exc.retry_dt


def _record(comps, metadata, attempts: int) -> Dict[str, str]:
    """Manifest entries: the observable's metadata, with the ``dt`` it ran
    at; ``dt_norm``, that dt times the norm bound, the smaller of the
    bounds on ||G||_1 and ||G||_inf; the expansion error; each as the repr
    of a float, but for the counts: the ``products`` the metadata holds,
    the attempts :func:`_solve` took, the ``step_degree``, the degree
    of every Taylor factor of the step (8), and the size of the problem:
    ``awf_count``, the system ``dim`` and ``generator_entries``, the
    entries the engine stores over its ``generator_parts``.
    ``products`` counts the sparse products of the attempt that ran to
    the end; a retried run's failed attempts are not in it."""
    engine = comps.engine
    entries = {key: str(value) if isinstance(value, int)
               else repr(float(value)) for key, value in
               {**metadata,
                "dt_norm": metadata["dt"] * engine.norm_bound,
                "expansion_error": comps.expansion_error}.items()}
    entries["attempts"] = str(attempts)
    entries["step_degree"] = str(engine.step_degree)
    entries["awf_count"] = str(engine.num_awf)
    entries["dim"] = str(engine.dim)
    entries["generator_entries"] = str(
        sum(part.nnz for part in engine.generator_parts))
    return entries


def preflight(cfg: RunConfig) -> Dict[str, object]:
    """Resource report: AWF count, bytes, step, steps and expansion error.

    The refusals of :func:`_refuse_oversize` come first, before anything
    is allocated.  A propagation experiment is then built, because its
    default dt comes from the generator's norm bound; the report gives
    that ``dt``, ``dt_norm`` = dt * :attr:`ContourEngine.norm_bound` (the
    smaller of the 1-norm and inf-norm bounds), ``estimated_steps``, the
    column-steps the run takes (a forward and a transpose sweep to its last
    point per initial-state component), ``estimated_products``, the sparse
    products those steps take (:attr:`ContourEngine.step_products` each),
    and the ``expansion_error`` that :func:`_build` measures and warns
    about.  Step, steps and products are those of the first attempt: a
    run whose trace fails at the default step is rerun at a smaller one
    (:func:`_solve`), which only the run's manifest reports.
    """
    report = _refuse_oversize(cfg)
    if cfg.experiment in ("bath-fit", "validate"):
        return {**report, "estimated_steps": 0, "estimated_products": 0}
    comps = _build(cfg)
    steps = 2 * int(round(horizon_of(cfg) / comps.dt)) \
        * len(comps.init.components())
    return {**report, "estimated_steps": steps,
            "estimated_products": steps * comps.engine.step_products,
            "dt": comps.dt, "dt_norm": comps.dt_norm,
            "expansion_error": comps.expansion_error}


def _load_config(args) -> RunConfig:
    if args.config is None:
        raise ConfigError("--config is required for this subcommand")
    return parse_config_file(args.config)


def _start(args, kind: str):
    """The shared prelude of the experiment subcommands.

    Loads the config and runs the refusals of :func:`preflight`, which
    validate it and refuse it before anything is allocated when it is over
    budget; then checks the experiment kind, starts the clock and makes
    the output directory.  Returns (cfg, out, started).
    """
    cfg = _load_config(args)
    _refuse_oversize(cfg)
    if cfg.experiment != kind:
        raise ConfigError(f"config is for {cfg.experiment!r}, expected "
                          f"{kind!r}", section="experiment", key="kind")
    started = time.perf_counter()
    out = _out_dir(args, cfg)
    return cfg, out, started


def _out_dir(args, cfg: RunConfig) -> Path:
    name = args.out or cfg.get("output", "directory", ".")
    path = Path(name)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _finish(out: Path, cfg: RunConfig, started: float,
            extra: Optional[Dict[str, str]] = None) -> None:
    entries = {
        "version": _VERSION,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }
    entries.update(extra or {})
    entries["wall_time_s"] = f"{time.perf_counter() - started:.3f}"
    write_manifest(out / "manifest", entries,
                   config_text=serialize_config(cfg))


def _plot_from_csv(csv_path: Path, svg_path: Path, columns, *,
                   negate=(), xlabel="", ylabel="", title="") -> None:
    header, data = read_csv(csv_path)
    x = data[:, 0]
    series = []
    for name in columns:
        idx = header.index(name)
        y = -data[:, idx] if name in negate else data[:, idx]
        label = f"-{name}" if name in negate else name
        series.append((label, y))
    line_plot(svg_path, x, series, xlabel=xlabel or header[0],
              ylabel=ylabel, title=title)


def _cmd_bath_fit(args) -> int:
    cfg, out, started = _start(args, "bath-fit")
    spec = build_bath_spec(cfg)
    expansion = compute_coefficients(spec)
    write_expansion(out / "expansion.txt", spec, expansion)
    t_max = cfg.require("run", "t_max")
    ts = np.linspace(0.0, t_max, 401) if t_max > 0 else np.array([0.0])
    exact = alpha_theta(spec, ts)
    fit = alpha_reconstruct(expansion, ts)
    write_csv(out / "alpha_fit.csv",
              ["t", "re_alpha", "im_alpha", "re_fit", "im_fit"],
              [ts, exact.real, exact.imag, fit.real, fit.imag])
    _plot_from_csv(out / "alpha_fit.csv", out / "bath.svg",
                   ["re_alpha", "im_alpha", "re_fit", "im_fit"],
                   ylabel="alpha(t)", title="bath correlation, K-term fit")
    err = float(np.abs(exact - fit).max() / np.abs(exact).max())
    _finish(out, cfg, started, {
        "max_rel_error": repr(err),
        "tail_mass": repr(float(tail_mass(spec))),
    })
    print(f"expansion written: K = {spec.K}, max relative error {err:.3e}")
    return 0


def _cmd_respond(args) -> int:
    cfg, out, started = _start(args, "respond")
    comps = _build(cfg)
    taus = cfg.require("run", "tau").values()
    t0 = cfg.require("run", "t0")
    result, attempts = _solve(
        cfg, comps, lambda dt: response_function(comps.engine, taus, t0, dt))
    write_csv(out / "response_t.csv", ["tau", "R"],
              [result.times, result.values.imag])
    omegas = cfg.require("run", "omega").values()
    # the response function is the imaginary part of the correlator
    transform = half_fourier(result, omegas, part="imag",
                             window_time=cfg.get("run", "window_time"))
    write_csv(out / "response_w.csv", ["omega", "re", "im"],
              [omegas, transform.values.real, transform.values.imag])
    _plot_from_csv(out / "response_w.csv", out / "response.svg",
                   ["im"], negate=("im",), xlabel="omega",
                   ylabel="-Im of transform", title="response spectrum")
    _finish(out, cfg, started, _record(comps, result.metadata, attempts))
    peak = omegas[int(np.argmax(-transform.values.imag))]
    print(f"response computed over {len(taus)} delays; "
          f"spectral peak near omega = {peak:.4f}")
    return 0


def _cmd_anneal(args) -> int:
    cfg, out, started = _start(args, "anneal")
    comps = _build(cfg)
    record = cfg.require("run", "record").values()
    trace, attempts = _solve(cfg, comps, lambda dt: annealing_populations(
        comps.engine, comps.init, dt, record))
    write_csv(out / "populations.csv",
              ["t", "P_ground", "P_e_rep", "P_e_sum"],
              [trace.times, trace.p_ground, trace.p_excited_rep,
               trace.p_excited_sum])
    _plot_from_csv(out / "populations.csv", out / "populations.svg",
                   ["P_ground", "P_e_rep", "P_e_sum"], xlabel="t",
                   ylabel="population", title="target-basis populations")
    _finish(out, cfg, started, _record(comps, trace.metadata, attempts))
    print(f"annealing populations recorded at {len(record)} times; "
          f"final P_ground = {trace.p_ground[-1]:.4f}")
    return 0


def _cmd_rdm(args) -> int:
    cfg, out, started = _start(args, "rdm")
    comps = _build(cfg)
    record = cfg.require("run", "record").values()
    (times, rho, metadata), attempts = _solve(
        cfg, comps, lambda dt: rdm_trajectory(comps.engine, comps.init, dt,
                                              record))
    d = rho.shape[1]
    header = ["t"]
    cols = [times]
    for i in range(d):
        for j in range(d):
            header += [f"re_rho_{i}{j}", f"im_rho_{i}{j}"]
            cols += [rho[:, i, j].real, rho[:, i, j].imag]
    write_csv(out / "rho_t.csv", header, cols)
    diag = [f"re_rho_{i}{i}" for i in range(d)]
    _plot_from_csv(out / "rho_t.csv", out / "rho.svg", diag, xlabel="t",
                   ylabel="population", title="reduced density matrix diagonal")
    _finish(out, cfg, started, _record(comps, metadata, attempts))
    print(f"density matrix recorded at {len(times)} times; hermiticity "
          f"residual {metadata['max_hermiticity_error']:.2e}, trace residual "
          f"{metadata['max_trace_error']:.2e}")
    return 0


def _validate_rows():
    """Oracle-versus-engine residual table.  Small instances, seconds."""
    rows = []
    rng = np.random.default_rng(7)

    def random_model(dim: int) -> SystemModel:
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal(
            (dim, dim))
        h = 0.5 * (a + a.conj().T)
        b = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal(
            (dim, dim))
        v = 0.5 * (b + b.conj().T)
        return SystemModel(dim=dim, V=DenseOperator(v), time_dependent=False,
                           _ham_at=lambda tau, m=DenseOperator(h): m)

    for dim, K, n_max in ((2, 3, 2), (2, 5, 1), (4, 2, 2)):
        spec = BathSpec(OhmicCircular(zeta=0.3, nu=2.0), 3.0, 2.0, K)
        expansion = compute_coefficients(spec)
        space = build_space(K, n_max)
        model = random_model(dim)
        engine = ContourEngine(space, expansion, model)
        worst = 0.0
        for sign in (1.0, -1.0):
            gen = assemble_generator(space, expansion, model, 0.37, sign)
            stack = rng.standard_normal(
                (space.num_indices, dim)) + 1j * rng.standard_normal(
                    (space.num_indices, dim))
            lhs = engine._deriv_flat(stack.ravel(), 0.37, sign)
            rhs = gen @ stack.ravel()
            scale = max(1.0, float(np.abs(rhs).max()))
            worst = max(worst, float(np.abs(lhs - rhs).max()) / scale)
        rows.append((f"rhs_vs_generator_d{dim}_K{K}_N{n_max}",
                     worst, 1e-13))

    # zero-coupling contour: the full round trip is the identity map
    K = 2
    expansion = BathExpansion(Omega=3.0, K=K, c=np.zeros(K, complex),
                              eta=build_eta(K, 3.0))
    space = build_space(K, 2)
    model = spin_boson(1.0)
    engine = ContourEngine(space, expansion, model)
    psi0 = np.array([1.0, 1.0]) / np.sqrt(2.0)
    _, final = engine.run(psi0, 1.0, 1e-3)
    rows.append(("closed_contour_identity",
                 float(np.abs(final[0] - psi0).max()), 1e-9))

    # commuting coupling against the exact decay factor
    spec = BathSpec(OhmicCircular(zeta=0.1, nu=3.0), 3.0, 3.0, 8)
    expansion = compute_coefficients(spec)
    space = build_space(8, 4)
    model = pure_dephasing(1.0)
    engine = ContourEngine(space, expansion, model)
    t = 1.0
    rho = rdm_trajectory(
        engine, PureState(np.array([1.0, 1.0]) / np.sqrt(2.0)), 0.0125,
        np.array([0.0, t])).rho
    decay = dephasing_exact(spec, 0.5, t)
    # coherence rho_01 evolves as rho_01(0) * D(t) * e^{-i(E0-E1)t}
    h = model.hamiltonian_at(0.0).to_dense()
    expected = 0.5 * decay * np.exp(-1j * (h[0, 0] - h[1, 1]).real * t)
    rows.append(("dephasing_vs_exact",
                 float(abs(rho[1][0, 1] - expected)), 1e-4))

    # expansion fidelity on the shipped response bath
    cfg = preset("bath-fit-circular")
    spec = build_bath_spec(cfg)
    expansion = compute_coefficients(spec)
    # against the adaptive reference, not the theta rule the runs use
    ts = np.linspace(0.0, 2.0, 41)
    exact = np.array([alpha_quadrature(spec, t) for t in ts])
    err = np.abs(exact - alpha_reconstruct(expansion, ts)).max() \
        / np.abs(exact).max()
    rows.append(("expansion_fidelity", float(err), 1e-4))

    # the anneal on the symmetric states against the full register
    cfg = preset("anneal-intermediate").replace("model", "Ncal", 3)
    comps = build_components(cfg)
    gamma, p, t_f = (cfg.require("model", key)
                     for key in ("Gamma", "p", "t_f"))
    register = ContourEngine(comps.space, comps.expansion,
                             pspin_register(3, gamma, p, t_f))
    record = cfg.require("run", "record").values()
    ours = annealing_populations(comps.engine, comps.init, comps.dt, record)
    full = annealing_populations(register, PureState(np.full(8, 8 ** -0.5)),
                                 comps.dt, record)
    rows.append(("anneal_symmetric_vs_register", max(
        float(np.abs(getattr(ours, key) - getattr(full, key)).max())
        for key in ("p_ground", "p_excited_rep", "p_excited_sum", "trace")),
        1e-12))
    return rows


def _cmd_validate(args) -> int:
    if args.config is not None:
        validate_config(parse_config_file(args.config))
    rows = _validate_rows()
    width = max(len(name) for name, _, _ in rows)
    ok = True
    print(f"{'check'.ljust(width)}  {'residual':>12}  {'threshold':>10}  "
          "status")
    for name, residual, threshold in rows:
        good = residual <= threshold
        ok = ok and good
        print(f"{name.ljust(width)}  {residual:12.3e}  {threshold:10.0e}  "
              f"{'pass' if good else 'FAIL'}")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_csv(out / "validate.csv",
                  ["check", "residual", "threshold"],
                  [np.array([r[0] for r in rows], dtype=object),
                   np.array([r[1] for r in rows]),
                   np.array([r[2] for r in rows])])
    if not ok:
        raise NumericalError("one or more oracle checks exceeded threshold")
    return 0


def _cmd_preflight(args) -> int:
    cfg = _load_config(args)
    report = preflight(cfg)
    for key, value in report.items():
        print(f"{key} = {value}")
    return 0


_HANDLERS = {
    "bath-fit": _cmd_bath_fit,
    "respond": _cmd_respond,
    "anneal": _cmd_anneal,
    "rdm": _cmd_rdm,
    "validate": _cmd_validate,
    "preflight": _cmd_preflight,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hseom",
        description="Hierarchical wave-function dynamics for a qubit or "
                    "spin system in a bosonic environment.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _HANDLERS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="path to the run configuration")
        p.add_argument("--out", help="output directory")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource refusal: {exc}", file=sys.stderr)
        return 4
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except HseomError as exc:  # pragma: no cover - safety net
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
