"""Physical outputs assembled from contour runs.

Every quantity here is a contour value: propagate forward to the turning
point, insert an operator, return along the backward branch with a
possible second insertion, and read an inner product off the final
physical row.  Only :func:`two_body_correlation` walks that contour
literally.  The other helpers read each value as <a(n) | (I x O) y(n)>
between a forward sweep y and an adjoint sweep a (see
:meth:`ContourEngine.adjoint`), both started from e0 x v, so one pair of
sweeps serves every record time.  The cost is one forward and one adjoint
sweep per initial-state component, O(horizon) whatever the number of
record times; results are averaged over the initial mixture.
"""

from __future__ import annotations

import dataclasses
import warnings
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .dynamics import (ContourEngine, ContourPlan, WaveStack, _GRID_TOL,
                       _step_of)
from .errors import ConfigError, EquilibrationWarning
from .models import (DenseOperator, InitialState, LocalizedWithTransform,
                     Operator, SIGMA_X)

__all__ = [
    "CorrelationResult", "Spectrum", "PopulationTrace",
    "two_body_correlation", "operator_expectations",
    "reduced_density_matrix", "rdm_trajectory", "response_function",
    "half_fourier", "annealing_populations",
]


@dataclasses.dataclass(eq=False)
class CorrelationResult:
    """A correlation series on a strictly increasing time grid."""

    times: np.ndarray
    values: np.ndarray
    metadata: Dict = dataclasses.field(default_factory=dict)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=complex)
        if self.times.shape != self.values.shape:
            raise ValueError("times and values must have matching shapes")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("time grid must be strictly increasing")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("correlation values must be finite")


@dataclasses.dataclass(eq=False)
class Spectrum:
    omegas: np.ndarray
    values: np.ndarray
    metadata: Dict = dataclasses.field(default_factory=dict)

    def __post_init__(self):
        self.omegas = np.asarray(self.omegas, dtype=float)
        self.values = np.asarray(self.values, dtype=complex)
        if not np.all(np.isfinite(self.values)):
            raise ValueError("spectrum values must be finite")


@dataclasses.dataclass(eq=False)
class PopulationTrace:
    """Populations of the target-Hamiltonian eigenstates along a schedule."""

    times: np.ndarray
    p_ground: np.ndarray
    p_excited_rep: np.ndarray
    p_excited_sum: np.ndarray
    trace: np.ndarray
    metadata: Dict = dataclasses.field(default_factory=dict)


def _advance_together(engine: ContourEngine, adjoint: ContourEngine,
                      v: np.ndarray, dt: float, steps: Sequence[int],
                      peaks: Dict[str, float]):
    """Forward and adjoint stacks of the component v at each grid step.

    ``steps`` must be non-decreasing.  Both sweeps start from e0 x v and
    advance side by side, segment by segment, so no snapshots are kept.
    Yields (index into steps, y, a) with <a, (I x O) y> = tr{O rho_v(t)};
    ``peaks`` keeps the largest entry of each sweep under "c1_max_abs"
    and "adjoint_max_abs".
    """
    y = a = engine.initial_stack(v).ravel()
    prev = 0
    for r, step in enumerate(steps):
        if step > prev:
            y, _, top = engine.integrate_span(
                y, prev, step - prev, dt, +1.0, tau_of=lambda s: s)
            peaks["c1_max_abs"] = max(peaks["c1_max_abs"], top)
            a, _, top = adjoint.integrate_span(
                a, prev, step - prev, dt, -1.0, tau_of=lambda s: s)
            peaks["adjoint_max_abs"] = max(peaks["adjoint_max_abs"], top)
            prev = step
        yield r, y, a


def _density_matrices(engine: ContourEngine, init: InitialState, dt: float,
                      steps: Sequence[int]) -> np.ndarray:
    """rho_S at each grid step: sum over components of Y^T conj(A).

    With Y and A the [num_awf, dim] forward and adjoint stacks,
    tr{|j><i| rho} = <A, (I x |j><i|) Y> = sum_r Y[r, i] conj(A[r, j]).
    """
    d = engine.dim
    adjoint = engine.adjoint()
    peaks = {"c1_max_abs": 0.0, "adjoint_max_abs": 0.0}
    rho = np.zeros((len(steps), d, d), dtype=complex)
    for w, v in init.components():
        for r, y, a in _advance_together(engine, adjoint, v, dt, steps,
                                         peaks):
            rho[r] += w * (y.reshape(-1, d).T @ a.reshape(-1, d).conj())
    return rho


def two_body_correlation(engine: ContourEngine, A: Optional[Operator],
                         B: Optional[Operator], t: float, t_prime: float,
                         init: InitialState, dt: float) -> complex:
    """tr{A(t) rho_S(0) B(t')} through the full contour.

    A localized initial state runs the contour once, from C|k>.  Any other
    initial state runs it once per populated basis column of rho_S(0) and
    sums the diagonal overlaps; both routes must agree, which the test
    suite uses as a cross-check of the transformation-matrix identity.
    ``A`` is inserted at the turning point s = t and ``B`` at s = 2t - t';
    pass None for either to mean the identity.
    """
    plan = ContourPlan.correlation(t=t, t_prime=t_prime, dt=dt, A=A, B=B)
    if isinstance(init, LocalizedWithTransform):
        v = init.initial_vector()
        traj = engine.run(plan, WaveStack(engine.initial_stack(v), 0.0, None))
        return complex(np.vdot(v, traj.final.data[0]))
    rho0 = init.density()
    total = 0.0 + 0.0j
    for col in range(engine.dim):
        start = rho0[:, col]
        if np.abs(start).max() == 0.0:
            continue
        traj = engine.run(plan,
                          WaveStack(engine.initial_stack(start), 0.0, None))
        total += traj.final.data[0][col]
    return complex(total)


def operator_expectations(engine: ContourEngine, t: float,
                          init: InitialState, dt: float,
                          operators: Sequence[Optional[Operator]]):
    """tr{A_i(t) rho(t)} for several A_i from one pair of sweeps.

    One forward and one adjoint sweep to t per initial-state component;
    every requested operator is then one inner product between them.
    None means the identity, i.e. the trace.  Returns (values, stats dict)
    with the largest entry of each sweep.
    """
    n = _step_of(t, dt, t, "t")
    adjoint = engine.adjoint()
    peaks = {"c1_max_abs": 0.0, "adjoint_max_abs": 0.0}
    total = np.zeros(len(operators), dtype=complex)
    for w, v in init.components():
        for _, y, a in _advance_together(engine, adjoint, v, dt, [n],
                                         peaks):
            total += w * np.array([
                np.vdot(a, y if op is None else engine.apply_all_rows(y, op))
                for op in operators])
    return total, peaks


def reduced_density_matrix(engine: ContourEngine, t: float,
                           init: InitialState, dt: float) -> np.ndarray:
    """rho_S(t) from one forward and one adjoint sweep per component.

    rho_ij is the contour value with |j><i| inserted at the turning point
    and the identity on the way back.
    """
    return _density_matrices(engine, init, dt,
                             [_step_of(t, dt, t, "t")])[0]


def rdm_trajectory(engine: ContourEngine, init: InitialState, dt: float,
                   record_times) -> Tuple[np.ndarray, np.ndarray]:
    """rho_S(t) on a grid of record times, time-independent models only.

    One forward and one adjoint sweep per initial-state component serve
    every record time.  Returns (times, rho) with rho of shape
    [n_times, dim, dim].
    """
    if engine.model.time_dependent:
        raise ConfigError("rdm_trajectory needs a time-independent model; "
                          "use annealing_populations for schedules",
                          section="model")
    times = np.asarray(record_times, dtype=float)
    if np.any(np.diff(times) <= 0):
        raise ConfigError("record times must be strictly increasing",
                          section="plan", key="record_times")
    steps = [_step_of(t, dt, t, "record time") for t in times]
    return times, _density_matrices(engine, init, dt, steps)


def response_function(engine: ContourEngine, taus, t0: float, dt: float,
                      *, drift_tolerance: float = 0.05) -> CorrelationResult:
    """First-order response of the dissipative qubit after equilibration.

    Psi(t0 + tau; t0) is the contour from |1><1| with sigma_x at the
    turning point t0 + tau and again tau later on the way back.  Three
    single-column sweeps give every lag: forward to t0 + max(tau) with a
    snapshot at each t0 + tau_m; adjoint over [0, t0]; then, after
    sigma_x, the adjoint continued over [t0, t0 + max(tau)] with a
    snapshot at each lag.  Then
    Psi(tau_m) = <a2(t0 + tau_m) | sigma_x y(t0 + tau_m)>.  The result
    values are the complex correlators; the physical response is their
    imaginary part.

    The population P_1 at 0.8 t0 and at t0 comes from the first adjoint
    sweep; their difference is the equilibration drift, recorded in the
    metadata and warned about above ``drift_tolerance``.
    """
    if engine.dim != 2 or engine.model.time_dependent:
        raise ConfigError("response_function expects the time-independent "
                          "two-level model", section="model")
    taus = np.asarray(taus, dtype=float)
    if taus.ndim != 1 or taus.size < 2:
        raise ConfigError("need a 1-D grid of at least two lag times",
                          section="plan", key="taus")
    spacing = np.diff(taus)
    if np.any(spacing <= 0) or np.abs(spacing - spacing[0]).max() > 1e-9:
        raise ConfigError("lag grid must be uniform and increasing",
                          section="plan", key="taus")
    if taus[0] != 0.0:
        raise ConfigError("lag grid must start at 0", section="plan",
                          key="taus")
    n0 = _step_of(t0, dt, t0, "t0")
    turns = [n0 + _step_of(tau, dt, tau, "tau") for tau in taus]
    n_drift = int(round(0.8 * n0))

    sx = DenseOperator(SIGMA_X)
    proj1 = np.zeros((2, 2), dtype=complex)
    proj1[1, 1] = 1.0
    proj1 = DenseOperator(proj1)
    start = engine.initial_stack(np.array([0.0, 1.0], dtype=complex)).ravel()
    adjoint = engine.adjoint()

    def on(steps):
        return {step: step for step in steps}

    _, fwd, max_fwd = engine.integrate_span(
        start, 0, turns[-1], dt, +1.0, tau_of=lambda s: s,
        snap_steps=on(turns + [n_drift, n0]))
    a_t0, settle, max_adj = adjoint.integrate_span(
        start, 0, n0, dt, -1.0, tau_of=lambda s: s,
        snap_steps=on([n_drift, n0]))
    _, lagged, top = adjoint.integrate_span(
        adjoint.apply_all_rows(a_t0, sx), n0, turns[-1] - n0, dt, -1.0,
        tau_of=lambda s: s, snap_steps=on(turns))
    max_adj = max(max_adj, top)

    psi = np.array([np.vdot(lagged[n], engine.apply_all_rows(fwd[n], sx))
                    for n in turns])
    p1 = {n: np.vdot(settle[n], engine.apply_all_rows(fwd[n], proj1)).real
          for n in (n_drift, n0)}
    drift = abs(p1[n0] - p1[n_drift])
    if drift > drift_tolerance:
        warnings.warn(
            f"populations still drifting at t0 = {t0}: |dP| = {drift:.3e} "
            f"over the last fifth of the settling run", EquilibrationWarning,
            stacklevel=2)
    meta = {"t0": t0, "dt": dt, "drift": float(drift),
            "p1_at_t0": float(p1[n0]),
            "c1_max_abs": float(max_fwd), "adjoint_max_abs": float(max_adj)}
    return CorrelationResult(times=taus, values=psi, metadata=meta)


def half_fourier(result: CorrelationResult, omega_grid, *,
                 window_time: Optional[float] = None,
                 part: Optional[str] = None) -> Spectrum:
    """Trapezoidal int_0^T dt e^{-i omega t} f(t) w(t) on the result grid.

    ``part`` picks f from the stored values: None uses them as they are,
    "real"/"imag" select a component (the response function is the
    imaginary part of the stored correlator).  ``window_time`` switches on
    the exponential window w(t) = e^{-t/T_w} against finite-horizon
    ringing; default is no window.  Window and part are recorded in the
    spectrum metadata.
    """
    ts = result.times
    f = result.values
    if part == "imag":
        f = f.imag.astype(complex)
    elif part == "real":
        f = f.real.astype(complex)
    elif part is not None:
        raise ValueError("part must be None, 'real', or 'imag'")
    if window_time is not None:
        f = f * np.exp(-ts / window_time)
    omegas = np.asarray(omega_grid, dtype=float)
    trapezoid = np.ones(ts.size)
    trapezoid[0] = trapezoid[-1] = 0.5
    dt = ts[1] - ts[0]
    vals = (trapezoid * f * np.exp(-1j * np.outer(omegas, ts))).sum(axis=1) * dt
    return Spectrum(omegas=omegas, values=vals,
                    metadata={"window_time": window_time, "part": part,
                              "horizon": float(ts[-1])})


def annealing_populations(engine: ContourEngine, init: InitialState,
                          dt: float, record_times, *,
                          cluster_tol: float = 1e-8) -> PopulationTrace:
    """Populations of the target ground and first-excited states vs time.

    The target H(t_f) must be diagonal in the computational basis, as the
    p-spin target is, so its levels are read off the diagonal and each
    projector is a set of basis indices; a target that is not diagonal is
    refused.  Populations are measured against the ground level and the
    first excited level (one representative state, the lowest basis index
    of the level, and the degenerate cluster summed; for the p-spin target
    the cluster holds the Ncal single-flip states and the two conventions
    differ).  At t = 0 the uniform superposition gives
    P_ground = 1/2^Ncal.  The identity tracks the trace.  The forward and
    adjoint states advance together from one record time to the next; the
    adjoint of the scheduled backward branch is again a sweep forward in
    time, so each record time costs only its own segment.  Record times
    past t_f are refused: the schedule ends there.
    """
    if not engine.model.time_dependent:
        raise ConfigError("annealing_populations expects a scheduled model",
                          section="model")
    times = np.asarray(record_times, dtype=float)
    if np.any(np.diff(times) <= 0):
        raise ConfigError("record times must be strictly increasing",
                          section="plan", key="record_times")
    t_f = engine.model.t_f
    if np.any(times > t_f + _GRID_TOL * max(1.0, t_f)):
        raise ConfigError(f"record time {times.max()} lies past the end of "
                          f"the schedule, t_f = {t_f}", section="plan",
                          key="record_times")
    steps = [_step_of(t, dt, t, "record time") for t in times]

    target = engine.model.ramp[1]
    rows = np.repeat(np.arange(target.shape[0]), np.diff(target.indptr))
    if np.any(rows != target.indices):
        raise ConfigError("annealing populations need a target H(t_f) that "
                          "is diagonal in the computational basis",
                          section="model")
    energies = target.diagonal().real
    lowest = energies.min()
    scale = max(1.0, float(energies.max() - lowest))
    ground = np.nonzero(energies <= lowest + cluster_tol * scale)[0]
    above = energies > lowest + cluster_tol * scale
    levels = [ground]
    if above.any():
        e1 = energies[above].min()
        cluster = np.nonzero(np.abs(energies - e1) <= cluster_tol * scale)[0]
        levels += [cluster[:1], cluster]

    d = engine.dim
    pops = np.zeros((3, times.size))
    trace = np.zeros(times.size)
    adjoint = engine.adjoint()
    peaks = {"c1_max_abs": 0.0, "adjoint_max_abs": 0.0}
    for w, v in init.components():
        for r, y, a in _advance_together(engine, adjoint, v, dt, steps,
                                         peaks):
            Y, A = y.reshape(-1, d), a.reshape(-1, d)
            for i, idx in enumerate(levels):
                pops[i, r] += w * np.vdot(A[:, idx], Y[:, idx]).real
            trace[r] += w * np.vdot(a, y).real

    p_g, p_rep, p_sum = pops
    return PopulationTrace(times=times, p_ground=p_g, p_excited_rep=p_rep,
                           p_excited_sum=p_sum, trace=trace,
                           metadata={"dt": dt, "cluster_tol": cluster_tol,
                                     **peaks})
