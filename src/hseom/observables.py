"""Physical outputs assembled from contour runs.

Every quantity here is a contour value: propagate forward to the turning
point, insert an operator, return along the backward branch with a
possible second insertion, and read an inner product off the final
physical row.  Only :func:`two_body_correlation` walks that contour
literally.  The other helpers read every value off one reduced matrix,
rho_S = sum_r y_r a_r^T over the hierarchy rows r of a forward sweep y
from e0 x v and a transpose sweep a from conj(e0 x v) (see
:meth:`ContourEngine.transpose`), so that a^T (I x O) y = tr{O rho_S}
and one pair of sweeps serves every record time.  a is the conjugate of
the adjoint state, so its largest entry and its seconds are reported
under the adjoint's keys.  The cost is one forward and one transpose
sweep per component of the initial state, which is always a list of
weighted pure vectors; :func:`_pair_sums` sums a readout over those
weights, for :func:`rdm_trajectory` and :func:`annealing_populations`
alike.

Every result's metadata is its sweep record: ``dt``, ``max_trace_error``,
the largest entry of each sweep, the top hierarchy level's largest entry,
the seconds each side of the pair ran (``_SWEEP_KEYS``), the sparse
products both sides took (``products``) and the threads the pair ran on
(``sweep_threads``), with the observable's own keys beside them.

The two sweeps of a pair share nothing mutable until they meet at a record
time, so on a large generator they run concurrently: the transpose on a
worker thread, the forward on the calling one.  On a small one the
transpose runs on the calling thread after each forward span, since there
a sparse product is a few microseconds of C and the two Python-bound
sweeps would mostly wait on each other for the GIL (``_OVERLAP_ENTRIES``).
Either way each sweep does the same float operations in the same order as
it would alone, so every output is bit-identical whichever path runs, and
the metadata's ``sweep_threads`` says which one did.  Every readout is
one ``np.einsum`` over the rows, summed by numpy's own loops with no BLAS,
and the bath set-up before the sweeps calls none either.  So no output
depends on the BLAS thread count, and no OpenBLAS thread is woken to
busy-wait and take a core from the sweeps.

In continuous time the closed contour is the identity, so the trace of
every rho_S(t) is 1 and whatever a run measures beyond that is the
integrator's own error.  :func:`rdm_trajectory` and
:func:`annealing_populations` read the trace of each component's rho_v at
each record time, and :func:`response_function` reads Psi(0) = tr rho(t0)
before its lags; each stops at the first reading that leaves 1 by more
than ``TRACE_TOL``, so no sweep runs on past it, and raises a TraceError
that names a smaller step.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import math
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, NamedTuple, Optional, Sequence

import numpy as np

from .dynamics import ContourEngine, _GRID_TOL, _step_of
from .errors import (ConfigError, EquilibrationWarning, NumericalError,
                     TraceError)
from .models import (_LEVEL_TOL, DenseOperator, InitialState, Operator,
                     SIGMA_X)

__all__ = [
    "CorrelationResult", "Spectrum", "PopulationTrace", "RdmTrajectory",
    "two_body_correlation", "rdm_trajectory", "response_function",
    "half_fourier", "annealing_populations", "TRACE_TOL", "DRIFT_TOL",
]

# largest |tr rho_S - 1| a result may carry.  The trace is a proxy for
# the step's error, not a bound on the observable's: on the fixed
# presets, at the default Taylor step, the largest error of the outputs
# against a dt/4 reference runs from 1.0 to 5.2 times the trace error
# (5.2x on respond-circular, 2.2e-7 against 4.3e-8; 1.6x on rdm-circular,
# 5.0e-7 against 3.2e-7).  The Magnus step of a schedule keeps the trace
# far better than its outputs: at one step per record interval the
# shipped anneals miss their dt/4 reference by 6.1e-7 to 1.2e-6 while
# their traces leave 1 by 1.5e-12 to 6.4e-8
TRACE_TOL = 1e-4
# largest equilibration drift of P_1 a response passes without a warning
DRIFT_TOL = 0.05
# the largest entries and the busy seconds that _advance_together keeps;
# _sweep_report adds its count of sparse products and of sweep threads
_SWEEP_KEYS = ("c1_max_abs", "adjoint_max_abs", "top_level_max_abs",
               "forward_sweep_s", "adjoint_sweep_s")
# stored entries of G_c, the work of one sparse product, from which the
# transpose sweep runs on a worker thread beside the forward one.  Below
# it the two Python-bound sweeps mostly wait on each other for the GIL
# that each product releases.  Measured on 2 shared cores, one solve with
# each path in alternating pairs (medians, inline time over threaded):
# rdm 0.45-0.58 at 40-7,280 entries, 0.60-0.94 at 11,200, 1.14 at
# 13,600, 1.03-1.33 at 16,320-30,800 and 1.7-2.0 at 230,230-1,063,920;
# anneal 0.49-0.83 at 888-21,330 (888 is anneal-large), 0.73-0.92 at
# 33,852, 1.04-1.23 at 39,468 and 1.15-1.60 at 65,702-243,168.  A
# schedule's step holds more Python per product, so its crossover lies
# higher.  So every shipped anneal (384-3,584) runs inline and every
# fixed preset (30,800 and up) keeps the worker
_OVERLAP_ENTRIES = 1 << 14


def _sweep_report() -> Dict[str, float]:
    """A blank report for :func:`_advance_together` to fill."""
    return {**dict.fromkeys(_SWEEP_KEYS, 0.0), "products": 0,
            "sweep_threads": 1}


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


class RdmTrajectory(NamedTuple):
    """rho_S at each record time; index 0 and 1 are times and rho."""

    times: np.ndarray
    rho: np.ndarray
    metadata: Dict


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


def _reduced(y: np.ndarray, a: np.ndarray, d: int) -> np.ndarray:
    """rho_S = sum_r y_r a_r^T over the rows of two flat states.

    Entry [i, j] is a^T (I x |j><i|) y, so a^T (I x O) y = tr{O rho_S}.
    """
    return np.einsum("ri,rj->ij", y.reshape(-1, d), a.reshape(-1, d))


def _advance_together(engine: ContourEngine, transpose: ContourEngine,
                      y: np.ndarray, a: np.ndarray, step0: int, dt: float,
                      steps: Sequence[int], report: Dict[str, float],
                      visit: Callable[[int, np.ndarray, np.ndarray], None]):
    """Forward and transpose flat states at each grid step, side by side.

    ``y`` and ``a`` are the states at grid step ``step0``; ``steps`` must
    be non-decreasing and not before it.  Both advance segment by segment,
    so no snapshots are kept, and ``visit(r, y, a)`` reads them at
    ``steps[r]``; started from e0 x v and conj(e0 x v) at step 0,
    a^T (I x O) y = tr{O rho_v(t)}.  Returns the last (y, a).

    Each segment's transpose span runs on one worker thread while the
    calling thread runs the forward span, if G_c stores at least
    ``_OVERLAP_ENTRIES`` entries; otherwise it runs on the calling thread
    after the forward span.  The two engines share the space, expansion
    and model read-only, and ``integrate_span`` copies its input, so the
    sweeps share no mutable state and both paths give the same bits.  The
    transpose's result, or its NumericalError, is read before ``visit``
    runs, even when the forward span raises, and no worker outlives the
    call.

    ``report`` keeps the largest entry of each sweep under "c1_max_abs"
    and "adjoint_max_abs", the largest entry of the forward state's top
    hierarchy level at the visited steps under "top_level_max_abs" (a
    report of how much weight the truncation at N_max cuts off), and adds
    the seconds each side spent in its spans to "forward_sweep_s" and
    "adjoint_sweep_s": on two threads, a solve near their maximum, not
    their sum, shows the overlap.  It adds the sparse products both sides
    took to "products" (:attr:`ContourEngine.step_products` per step) and
    sets "sweep_threads" to the threads the pair ran on, 1 or 2.  Only the
    calling thread writes it.
    """
    prev = step0
    top_level = engine.space.level_slice(engine.space.N_max)
    threaded = engine.generator_parts[0].nnz >= _OVERLAP_ENTRIES
    report["sweep_threads"] = 2 if threaded else 1
    with ThreadPoolExecutor(max_workers=1) if threaded \
            else contextlib.nullcontext() as worker:
        for r, step in enumerate(steps):
            if step > prev:
                span = functools.partial(_timed, transpose.integrate_span,
                                         a, prev, step - prev, dt, -1.0,
                                         tau_of=lambda s: s)
                back = span if worker is None else worker.submit(span).result
                try:
                    (y, top), busy = _timed(engine.integrate_span, y, prev,
                                            step - prev, dt, +1.0,
                                            tau_of=lambda s: s)
                finally:
                    (a, a_top), a_busy = back()
                report["c1_max_abs"] = max(report["c1_max_abs"], top)
                report["adjoint_max_abs"] = max(report["adjoint_max_abs"],
                                                a_top)
                report["forward_sweep_s"] += busy
                report["adjoint_sweep_s"] += a_busy
                report["products"] += (step - prev) * (
                    engine.step_products + transpose.step_products)
                prev = step
            rows = y.reshape(engine.num_awf, engine.dim)[top_level]
            report["top_level_max_abs"] = max(report["top_level_max_abs"],
                                              float(np.abs(rows).max()))
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


def _lag_steps(taus: np.ndarray, t0: float, dt: float):
    """Grid steps of t0 and of each turning point t0 + tau; refuses a lag
    grid that is not uniform and increasing from 0."""
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
    return n0, [n0 + _step_of(tau, dt, tau, "tau") for tau in taus]


def _check_trace(error: float, dt: float, what: str) -> float:
    """Refuse a trace error above TRACE_TOL; returns the error.

    The TraceError names a step to retry with, as its message and as its
    ``retry_dt``: dt / n divides every grid dt does, and n is the whole
    number, at least 2, that brings the error under the tolerance if it
    falls as dt^4.  That is the law of a schedule's fourth-order Magnus
    step.  The single Taylor factor of a fixed G keeps the same n: its
    error falls as dt^8 in the asymptotic range, so n asks for at least
    the refinement needed, and a step that fails the trace lies outside
    that range anyway.  A NaN or infinite error names none.
    """
    if not error <= TRACE_TOL:
        if not math.isfinite(error):
            kind = "NaN" if math.isnan(error) else "infinite"
            raise NumericalError(f"{what} is {kind} at dt = {dt!r}")
        n = max(2, math.ceil((error / TRACE_TOL) ** 0.25))
        raise TraceError(
            f"{what} leaves 1 by {error:.2e}, more than {TRACE_TOL:g}, at "
            f"dt = {dt!r}; set [integrator] dt = {dt / n!r} (dt / {n}) or "
            f"a smaller divisor of the time grid", retry_dt=dt / n)
    return error


def _pair_sums(engine: ContourEngine, init: InitialState, dt: float,
               steps: Sequence[int],
               read: Callable[[np.ndarray, np.ndarray], np.ndarray],
               trace_of: Callable[[np.ndarray], complex]):
    """Weighted sums of ``read(y, a)`` over the initial state's components.

    Each component v starts one forward sweep from e0 x v and one
    transpose sweep from its conjugate, and ``read`` takes the pair at
    every grid step of ``steps``; ``trace_of`` picks tr rho_v out of what
    it read, which :func:`_check_trace` checks there, so the first reading
    that fails stops the sweeps.  Returns the sums stacked along the
    steps, the largest |tr rho_v - 1| as ``max_trace_error``, and the
    ``_SWEEP_KEYS`` report of :func:`_advance_together` over every
    component.
    """
    transpose = engine.transpose()
    report = _sweep_report()
    sums = [0.0] * len(steps)
    worst = 0.0
    for w, v in init.components():
        def add(r, y, a):
            nonlocal worst
            value = read(y, a)
            worst = max(worst, _check_trace(
                float(abs(trace_of(value) - 1.0)), dt, "tr rho"))
            sums[r] += w * value

        start = engine.initial_stack(v).ravel()
        _advance_together(engine, transpose, start, start.conj(), 0, dt,
                          steps, report, add)
    return np.array(sums), {"max_trace_error": worst, **report}


def two_body_correlation(engine: ContourEngine, A: Optional[Operator],
                         B: Optional[Operator], t: float, t_prime: float,
                         init: InitialState, dt: float) -> complex:
    """tr{A(t) rho_S(0) B(t')} through the full contour.

    The contour runs once per component v of the initial state, from
    e0 x v, and the weighted overlaps w <v | final physical row> are
    summed.  ``A`` is inserted at the turning point s = t and ``B`` at
    s = 2t - t'; pass None for either to mean the identity.
    """
    total = 0.0 + 0.0j
    for w, v in init.components():
        _, final = engine.run(v, t, dt, A=A, B=B, t_prime=t_prime)
        total += w * np.vdot(v, final[0])
    return complex(total)


def rdm_trajectory(engine: ContourEngine, init: InitialState, dt: float,
                   record_times) -> RdmTrajectory:
    """rho_S(t) on a grid of record times.

    One forward and one transpose sweep per initial-state component serve
    every record time, for a fixed or a scheduled model; a schedule's
    record times must not pass t_f.  Returns (times, rho, metadata) with
    rho of shape [n_times, dim, dim]; raises TraceError at the first
    record time where a component's trace leaves 1 by more than
    ``TRACE_TOL``.  The metadata holds ``dt``, the largest such error as
    ``max_trace_error``, the largest |rho - rho^dagger| entry as
    ``max_hermiticity_error``, and the sweep report.
    """
    times = np.asarray(record_times, dtype=float)
    d = engine.dim
    rho, report = _pair_sums(engine, init, dt,
                             _record_steps(engine, times, dt),
                             lambda y, a: _reduced(y, a, d), np.trace)
    herm = float(np.abs(rho - rho.conj().transpose(0, 2, 1)).max())
    return RdmTrajectory(times, rho, {
        "dt": dt, "max_hermiticity_error": herm, **report})


def response_function(engine: ContourEngine, taus, t0: float,
                      dt: float) -> CorrelationResult:
    """First-order response of the dissipative qubit after equilibration.

    Psi(t0 + tau; t0) is the contour from |1><1| with sigma_x at the
    turning point t0 + tau and again tau later on the way back.  The
    forward and transpose sweeps advance together over [0, t0]; sigma_x
    then acts on the transpose's state, and both advance over
    [t0, t0 + max(tau)], giving Psi(tau_m) = tr{sigma_x rho} of the
    pair's reduced matrix at each lag.  The result values are the complex
    correlators; the physical response is their imaginary part.

    The population P_1 = rho[1, 1] at 0.8 t0 and at t0 comes from the
    first leg; their difference is the equilibration drift, recorded in
    the metadata and warned about above ``DRIFT_TOL``.
    Psi(0) = tr rho(t0) must be 1: |Psi(0) - 1| is recorded as
    ``max_trace_error`` and refused with TraceError above ``TRACE_TOL``,
    before any lag is stepped.
    """
    if engine.dim != 2 or engine.model.time_dependent:
        raise ConfigError("response_function expects the time-independent "
                          "two-level model", section="model")
    taus = np.asarray(taus, dtype=float)
    n0, turns = _lag_steps(taus, t0, dt)

    start = engine.initial_stack(np.array([0.0, 1.0], dtype=complex)).ravel()
    transpose = engine.transpose()
    report = _sweep_report()

    p1 = []
    # the first leg leaves y and a at t0, where the lags start
    y, a = _advance_together(
        engine, transpose, start, start.conj(), 0, dt,
        [int(round(0.8 * n0)), n0], report,
        lambda r, y, a: p1.append(_reduced(y, a, 2)[1, 1].real))
    psi = np.zeros(taus.size, dtype=complex)

    def at_lag(r, y, a):
        psi[r] = np.trace(SIGMA_X @ _reduced(y, a, 2))
        if r == 0:  # lag 0 is t0 itself, read before any lag is stepped
            _check_trace(float(abs(psi[0] - 1.0)), dt, "Psi(0) = tr rho(t0)")

    # the transpose's state is the adjoint's conjugate, so an operator O
    # enters it as conj(O); sigma_x is real
    _advance_together(engine, transpose, y,
                      transpose.apply_all_rows(a, DenseOperator(SIGMA_X)),
                      n0, dt, turns, report, at_lag)
    trace_error = float(abs(psi[0] - 1.0))
    drift = abs(p1[1] - p1[0])
    if drift > DRIFT_TOL:
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
    spectrum metadata.  The grid must hold at least two times, uniform to
    1e-9 of its step.
    """
    ts = result.times
    if ts.size < 2:
        raise ValueError("the half Fourier transform needs at least two "
                         "times")
    spacing = np.diff(ts)
    dt = spacing[0]
    if np.abs(spacing - dt).max() > 1e-9 * dt:
        raise ValueError("the half Fourier transform needs a uniform time "
                         "grid")
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
    first excited level: the degenerate cluster summed (P_e_sum), and one
    representative state, the lowest basis index of the level, whose
    population is that of its basis state divided by the state's
    ``multiplicity`` (P_e_rep), so that it is one underlying state's
    population.  On the p-spin model's symmetric states at odd p the
    cluster is the one state k = Ncal - 1, which stands for the Ncal
    single-flip register states, so P_e_rep = P_e_sum / Ncal, as on the
    register, where the cluster holds those Ncal states.  All of them,
    and the trace, are sums over the diagonal of rho_S, which is all that
    is read.  At t = 0 the uniform superposition gives P_ground =
    1/2^Ncal.  The identity tracks the trace.  The forward and transpose
    states advance together from one record time to the next; the
    transpose of the scheduled backward branch is again a sweep forward
    in time, so each record time costs only its own segment.  Record
    times past t_f are refused: the schedule ends there.  Levels closer
    than ``_LEVEL_TOL`` times the target's spectral width (at least 1)
    are one level.  The first record time where a component's trace
    leaves 1 by more than ``TRACE_TOL`` raises TraceError; the largest
    such error is the metadata's ``max_trace_error``.
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
    ground = np.nonzero(energies <= lowest + _LEVEL_TOL * scale)[0]
    above = energies > lowest + _LEVEL_TOL * scale
    # with no excited level, its two populations are sums over no index
    levels = [ground, ground[:0], ground[:0]]
    if above.any():
        e1 = energies[above].min()
        cluster = np.nonzero(np.abs(energies - e1) <= _LEVEL_TOL * scale)[0]
        levels[1:] = [cluster[:1], cluster]

    d = engine.dim
    rep_states = engine.model.multiplicity[levels[1]]

    def read(y, a):
        diagonal = np.einsum("ri,ri->i", y.reshape(-1, d),
                             a.reshape(-1, d)).real
        ground, rep, cluster = (diagonal[idx] for idx in levels)
        return np.array([ground.sum(), (rep / rep_states).sum(),
                         cluster.sum(), diagonal.sum()])

    sums, report = _pair_sums(engine, init, dt, steps, read,
                              lambda row: row[-1])
    p_g, p_rep, p_sum, trace = sums.T
    return PopulationTrace(times=times, p_ground=p_g, p_excited_rep=p_rep,
                           p_excited_sum=p_sum, trace=trace,
                           metadata={"dt": dt, "cluster_tol": _LEVEL_TOL,
                                     **report})
