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

The two sweeps of a pair share nothing mutable until they meet at a record
time, so they run concurrently: the adjoint on a worker thread, the
forward on the calling one, each doing the same float operations in the
same order as it would alone.  The reductions read between segments keep
threaded BLAS out: OpenBLAS runs a complex dot product of more than 10,000
entries on its own threads, which then spin for a while and take a core
from the next segment, so the trace of a large register is summed by
numpy instead of ``np.vdot``.

In continuous time the closed contour is the identity, so the trace of
every rho_S(t) is 1 and whatever a run measures beyond that is the
integrator's own error.  :func:`rdm_trajectory`,
:func:`annealing_populations` and :func:`response_function` refuse a
result whose trace leaves 1 by more than ``TRACE_TOL``.
"""

from __future__ import annotations

import dataclasses
import math
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from .dynamics import ContourEngine, _GRID_TOL, _step_of
from .errors import ConfigError, EquilibrationWarning, NumericalError
from .models import (DenseOperator, InitialState, LocalizedWithTransform,
                     Operator, SIGMA_X)

__all__ = [
    "CorrelationResult", "Spectrum", "PopulationTrace",
    "two_body_correlation", "rdm_trajectory", "response_function",
    "half_fourier", "annealing_populations", "TRACE_TOL",
]

# relative energy tolerance that groups the target's levels into clusters
_CLUSTER_TOL = 1e-8
# largest |tr rho_S - 1| a result may carry
TRACE_TOL = 1e-4
# the largest entries and the busy seconds that _advance_together keeps
_SWEEP_KEYS = ("c1_max_abs", "adjoint_max_abs", "top_level_max_abs",
               "forward_sweep_s", "adjoint_sweep_s")


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


def _timed(sweep, *args, **kwargs):
    """(sweep's result, its wall seconds), on the thread that runs it."""
    started = time.perf_counter()
    return sweep(*args, **kwargs), time.perf_counter() - started


def _advance_together(engine: ContourEngine, adjoint: ContourEngine,
                      y: np.ndarray, a: np.ndarray, step0: int, dt: float,
                      steps: Sequence[int], report: Dict[str, float],
                      visit: Callable[[int, np.ndarray, np.ndarray], None]):
    """Forward and adjoint flat states at each grid step, side by side.

    ``y`` and ``a`` are the states at grid step ``step0``; ``steps`` must
    be non-decreasing and not before it.  Both advance segment by segment,
    so no snapshots are kept, and ``visit(r, y, a)`` reads them at
    ``steps[r]``; started from e0 x v at step 0, <a, (I x O) y> =
    tr{O rho_v(t)}.  Returns the last (y, a).

    Each segment's adjoint span runs on one worker thread while the
    calling thread runs the forward span.  The two engines share the
    space, expansion and model read-only, and ``integrate_span`` copies
    its input, so the sweeps share no mutable state.  The worker's result,
    or its NumericalError, is read before ``visit`` runs, even when the
    forward span raises, and the worker has stopped by the time this
    returns or raises.

    ``report`` keeps the largest entry of each sweep under "c1_max_abs"
    and "adjoint_max_abs", the largest entry of the forward state's top
    hierarchy level at the visited steps under "top_level_max_abs" (a
    report of how much weight the truncation at N_max cuts off), and adds
    the seconds each side spent in its spans to "forward_sweep_s" and
    "adjoint_sweep_s": a solve near their maximum, not their sum, shows
    the overlap.  Only the calling thread writes it.
    """
    prev = step0
    with ThreadPoolExecutor(max_workers=1) as worker:
        for r, step in enumerate(steps):
            if step > prev:
                back = worker.submit(_timed, adjoint.integrate_span, a, prev,
                                     step - prev, dt, -1.0,
                                     tau_of=lambda s: s)
                try:
                    (y, top), busy = _timed(engine.integrate_span, y, prev,
                                            step - prev, dt, +1.0,
                                            tau_of=lambda s: s)
                finally:
                    (a, a_top), a_busy = back.result()
                report["c1_max_abs"] = max(report["c1_max_abs"], top)
                report["adjoint_max_abs"] = max(report["adjoint_max_abs"],
                                                a_top)
                report["forward_sweep_s"] += busy
                report["adjoint_sweep_s"] += a_busy
                prev = step
            report["top_level_max_abs"] = max(
                report["top_level_max_abs"], float(engine.level_norms(y)[-1]))
            visit(r, y, a)
    return y, a


def _record_steps(engine: ContourEngine, times: np.ndarray,
                  dt: float) -> list:
    """Grid steps of strictly increasing record times.

    A schedule ends at t_f, so for a scheduled model record times past it
    are refused: there the linear ramp would run on and drive the field
    negative.
    """
    if np.any(np.diff(times) <= 0):
        raise ConfigError("record times must be strictly increasing",
                          section="plan", key="record_times")
    t_f = engine.model.t_f
    if engine.model.time_dependent and np.any(
            times > t_f + _GRID_TOL * max(1.0, t_f)):
        raise ConfigError(f"record time {times.max()} lies past the end of "
                          f"the schedule, t_f = {t_f}", section="plan",
                          key="record_times")
    return [_step_of(t, dt, t, "record time") for t in times]


def _check_trace(error: float, dt: float, what: str) -> float:
    """Refuse a trace error above TRACE_TOL; returns the error.

    The message names a step to retry with: dt / n divides every grid dt
    does, and RK4's error falls as dt^4, so n is the whole number, at least
    2, that should bring the error under the tolerance.
    """
    if error > TRACE_TOL:
        n = max(2, math.ceil((error / TRACE_TOL) ** 0.25))
        raise NumericalError(
            f"{what} leaves 1 by {error:.2e}, more than {TRACE_TOL:g}, at "
            f"dt = {dt!r}; set [integrator] dt = {dt / n!r} (dt / {n}) or "
            f"a smaller divisor of the time grid")
    return error


def _density_matrices(engine: ContourEngine, init: InitialState, dt: float,
                      steps: Sequence[int]) -> np.ndarray:
    """rho_S at each grid step: sum over components of Y^T conj(A).

    With Y and A the [num_awf, dim] forward and adjoint stacks,
    tr{|j><i| rho} = <A, (I x |j><i|) Y> = sum_r Y[r, i] conj(A[r, j]).
    """
    d = engine.dim
    adjoint = engine.adjoint()
    report = dict.fromkeys(_SWEEP_KEYS, 0.0)
    rho = np.zeros((len(steps), d, d), dtype=complex)
    for w, v in init.components():
        def add(r, y, a):
            rho[r] += w * (y.reshape(-1, d).T @ a.reshape(-1, d).conj())

        start = engine.initial_stack(v).ravel()
        _advance_together(engine, adjoint, start, start, 0, dt, steps, report,
                          add)
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
    if isinstance(init, LocalizedWithTransform):
        v = init.initial_vector()
        _, final = engine.run(v, t, dt, A=A, B=B, t_prime=t_prime)
        return complex(np.vdot(v, final[0]))
    rho0 = init.density()
    total = 0.0 + 0.0j
    for col in range(engine.dim):
        start = rho0[:, col]
        if np.abs(start).max() == 0.0:
            continue
        _, final = engine.run(start, t, dt, A=A, B=B, t_prime=t_prime)
        total += final[0][col]
    return complex(total)


def rdm_trajectory(engine: ContourEngine, init: InitialState, dt: float,
                   record_times) -> Tuple[np.ndarray, np.ndarray]:
    """rho_S(t) on a grid of record times.

    One forward and one adjoint sweep per initial-state component serve
    every record time, for a fixed or a scheduled model; a schedule's
    record times must not pass t_f.  Returns (times, rho) with rho of
    shape [n_times, dim, dim]; raises NumericalError when a trace leaves 1
    by more than ``TRACE_TOL``.
    """
    times = np.asarray(record_times, dtype=float)
    rho = _density_matrices(engine, init, dt,
                            _record_steps(engine, times, dt))
    _check_trace(float(np.abs(np.trace(rho, axis1=1, axis2=2) - 1.0).max()),
                 dt, "tr rho")
    return times, rho


def response_function(engine: ContourEngine, taus, t0: float, dt: float,
                      *, drift_tolerance: float = 0.05) -> CorrelationResult:
    """First-order response of the dissipative qubit after equilibration.

    Psi(t0 + tau; t0) is the contour from |1><1| with sigma_x at the
    turning point t0 + tau and again tau later on the way back.  The
    forward and adjoint sweeps advance together over [0, t0]; sigma_x
    then acts on the adjoint, and both advance over [t0, t0 + max(tau)],
    giving Psi(tau_m) = <a(t0 + tau_m) | sigma_x y(t0 + tau_m)> at each
    lag.  The result values are the complex correlators; the physical
    response is their imaginary part.

    The population P_1 at 0.8 t0 and at t0 comes from the first leg; their
    difference is the equilibration drift, recorded in the metadata and
    warned about above ``drift_tolerance``.  Psi(0) = tr rho(t0) must be 1:
    |Psi(0) - 1| is recorded as ``max_trace_error`` and refused with
    NumericalError above ``TRACE_TOL``.
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

    sx = DenseOperator(SIGMA_X)
    proj1 = DenseOperator(np.diag([0.0, 1.0]).astype(complex))
    start = engine.initial_stack(np.array([0.0, 1.0], dtype=complex)).ravel()
    adjoint = engine.adjoint()
    report = dict.fromkeys(_SWEEP_KEYS, 0.0)

    p1 = []
    # the first leg leaves y and a at t0, where the lags start
    y, a = _advance_together(
        engine, adjoint, start, start, 0, dt, [int(round(0.8 * n0)), n0],
        report, lambda r, y, a: p1.append(
            np.vdot(a, engine.apply_all_rows(y, proj1)).real))
    psi = np.zeros(taus.size, dtype=complex)

    def at_lag(r, y, a):
        psi[r] = np.vdot(a, engine.apply_all_rows(y, sx))

    _advance_together(engine, adjoint, y, adjoint.apply_all_rows(a, sx), n0,
                      dt, turns, report, at_lag)
    trace_error = _check_trace(float(abs(psi[0] - 1.0)), dt,
                               "Psi(0) = tr rho(t0)")
    drift = abs(p1[1] - p1[0])
    if drift > drift_tolerance:
        warnings.warn(
            f"populations still drifting at t0 = {t0}: |dP| = {drift:.3e} "
            f"over the last fifth of the settling run", EquilibrationWarning,
            stacklevel=2)
    meta = {"t0": t0, "dt": dt, "drift": float(drift),
            "p1_at_t0": float(p1[1]), "max_trace_error": trace_error,
            **report}
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
                          dt: float, record_times) -> PopulationTrace:
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
    past t_f are refused: the schedule ends there.  Levels closer than
    ``_CLUSTER_TOL`` times the target's spectral width (at least 1) are
    one level.  A trace that leaves 1 by more than ``TRACE_TOL`` raises
    NumericalError.
    """
    if not engine.model.time_dependent:
        raise ConfigError("annealing_populations expects a scheduled model",
                          section="model")
    times = np.asarray(record_times, dtype=float)
    steps = _record_steps(engine, times, dt)

    target = engine.model.ramp[1]
    rows = np.repeat(np.arange(target.shape[0]), np.diff(target.indptr))
    if np.any(rows != target.indices):
        raise ConfigError("annealing populations need a target H(t_f) that "
                          "is diagonal in the computational basis",
                          section="model")
    energies = target.diagonal().real
    lowest = energies.min()
    scale = max(1.0, float(energies.max() - lowest))
    ground = np.nonzero(energies <= lowest + _CLUSTER_TOL * scale)[0]
    above = energies > lowest + _CLUSTER_TOL * scale
    levels = [ground]
    if above.any():
        e1 = energies[above].min()
        cluster = np.nonzero(np.abs(energies - e1) <= _CLUSTER_TOL * scale)[0]
        levels += [cluster[:1], cluster]

    d = engine.dim
    pops = np.zeros((3, times.size))
    trace = np.zeros(times.size)
    adjoint = engine.adjoint()
    report = dict.fromkeys(_SWEEP_KEYS, 0.0)
    for w, v in init.components():
        def add(r, y, a):
            Y, A = y.reshape(-1, d), a.reshape(-1, d)
            for i, idx in enumerate(levels):
                pops[i, r] += w * np.vdot(A[:, idx], Y[:, idx]).real
            # by numpy: np.vdot of this length spins BLAS threads (see top)
            trace[r] += w * (a.conj() * y).sum().real

        start = engine.initial_stack(v).ravel()
        _advance_together(engine, adjoint, start, start, 0, dt, steps, report,
                          add)

    trace_error = _check_trace(float(np.abs(trace - 1.0).max()), dt,
                               "tr rho")
    p_g, p_rep, p_sum = pops
    return PopulationTrace(times=times, p_ground=p_g, p_excited_rep=p_rep,
                           p_excited_sum=p_sum, trace=trace,
                           metadata={"dt": dt, "cluster_tol": _CLUSTER_TOL,
                                     "max_trace_error": trace_error,
                                     **report})
