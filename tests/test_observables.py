"""Observable extraction: correlators, spectra, density matrices, populations."""

import sys
import threading

import numpy as np
import pytest

from hseom import (
    BathExpansion,
    ConfigError,
    ContourEngine,
    DenseOperator,
    EquilibrationWarning,
    MixedState,
    NumericalError,
    PureState,
    annealing_populations,
    build_eta,
    build_space,
    closed_system_propagate,
    half_fourier,
    pspin_annealing,
    pspin_register,
    pure_dephasing,
    rdm_trajectory,
    response_function,
    spin_boson,
    SystemModel,
    thermal_state,
    two_body_correlation,
    uniform_superposition,
)
from hseom import observables
from hseom.models import SIGMA_X, SIGMA_Z
from hseom.observables import (CorrelationResult, _advance_together,
                               _sweep_report)


def _zero_expansion(K=2, Omega=3.0):
    return BathExpansion(Omega=Omega, K=K, c=np.zeros(K, dtype=complex),
                         eta=build_eta(K, Omega))


def _closed_engine(model, n_max=1):
    return ContourEngine(build_space(2, n_max), _zero_expansion(), model)


def test_identity_correlator_is_trace(small_engine):
    psi0 = np.array([0.6, 0.8], dtype=complex)
    val = two_body_correlation(small_engine, None, None, 0.8, 0.3,
                               PureState(psi0), 0.01)
    assert abs(val - 1.0) < 1e-6


def test_two_body_correlation_sums_a_mixture_over_its_components(
        small_engine):
    parts = [(0.3, np.array([0.6, 0.8j])), (0.7, np.array([0.8, -0.6]))]
    sx, sz = DenseOperator(SIGMA_X), DenseOperator(SIGMA_Z)
    mixed = two_body_correlation(small_engine, sx, sz, 0.6, 0.2,
                                 MixedState(parts), 0.01)
    weighted = sum(w * two_body_correlation(small_engine, sx, sz, 0.6, 0.2,
                                            PureState(v), 0.01)
                   for w, v in parts)
    assert abs(mixed - weighted) < 1e-14


def test_closed_limit_matches_two_level_oracle():
    model = spin_boson(1.7)
    engine = _closed_engine(model)
    ket1 = np.array([0.0, 1.0], dtype=complex)
    t = 1.2
    got = two_body_correlation(engine, DenseOperator(SIGMA_X),
                               DenseOperator(SIGMA_X), t, 0.0,
                               PureState(ket1), 0.002)
    # tr{sx(t) |1><1| sx} via the eigendecomposition oracle
    left = closed_system_propagate(model, SIGMA_X @ ket1, t)
    right = SIGMA_X @ closed_system_propagate(model, ket1, t)
    exact = np.vdot(left, right)
    assert abs(got - exact) < 1e-8


def test_expectations_identity_and_projector(small_engine):
    psi0 = np.array([0.0, 1.0], dtype=complex)
    _, rho, _ = rdm_trajectory(small_engine, PureState(psi0), 0.01, [0.0, 0.5])
    assert abs(np.trace(rho[1]) - 1.0) < 1e-6        # trace preserved
    assert 0.0 < rho[1, 1, 1].real < 1.0             # population has moved
    # <sigma_z> of |1> is +1
    assert abs(np.trace(SIGMA_Z @ rho[0]) - 1.0) < 1e-12


def test_dephasing_keeps_populations(small_expansion):
    engine = ContourEngine(build_space(4, 3), small_expansion,
                           pure_dephasing(1.0))
    plus = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
    times, rho, _ = rdm_trajectory(engine, PureState(plus), 0.01,
                                   [0.5, 1.0])
    assert np.abs(rho[:, 0, 0] - 0.5).max() < 1e-8
    assert np.abs(rho[:, 1, 1] - 0.5).max() < 1e-8
    # coherence must genuinely decay, not just wobble
    assert abs(rho[1, 0, 1]) < abs(rho[0, 0, 1]) < 0.5


def test_rdm_at_zero_returns_initial_density(small_engine):
    psi0 = np.array([0.6, 0.8j], dtype=complex)
    _, (rho,), _ = rdm_trajectory(small_engine, PureState(psi0), 0.01, [0.0])
    assert np.abs(rho - np.outer(psi0, psi0.conj())).max() < 1e-10

    mix = MixedState([(0.25, np.array([1.0, 0.0], dtype=complex)),
                      (0.75, np.array([0.0, 1.0], dtype=complex))])
    _, (rho,), _ = rdm_trajectory(small_engine, mix, 0.01, [0.0])
    assert np.abs(rho - np.diag([0.25, 0.75])).max() < 1e-10


def test_rdm_trajectory_structure(small_engine):
    plus = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
    times, rho, _ = rdm_trajectory(small_engine, PureState(plus), 0.01,
                                   [0.25, 0.5, 1.0])
    assert times.shape == (3,) and rho.shape == (3, 2, 2)
    for r in rho:
        assert np.abs(r - r.conj().T).max() < 1e-8
        assert abs(np.trace(r) - 1.0) < 1e-8
    (single,) = rdm_trajectory(small_engine, PureState(plus), 0.01,
                               [0.5]).rho
    assert np.abs(rho[1] - single).max() < 1e-10


@pytest.mark.parametrize("mixed", [False, True])
def test_rdm_trajectory_matches_full_contour(small_engine, mixed):
    init = thermal_state(small_engine.model, 1.0) if mixed \
        else PureState(np.array([0.6, 0.8j]))
    record, dt = [0.0, 0.2, 0.5], 0.01
    _, rho, _ = rdm_trajectory(small_engine, init, dt, record)
    for r, t in enumerate(record):
        for i in range(2):
            for j in range(2):
                flip = np.zeros((2, 2), dtype=complex)
                flip[j, i] = 1.0
                exact = two_body_correlation(small_engine,
                                             DenseOperator(flip), None, t,
                                             0.0, init, dt)
                assert abs(rho[r, i, j] - exact) < 1e-12


def test_rdm_trajectory_matches_full_contour_on_a_schedule(
        small_expansion):
    # the scheduled discrete adjoint serves rho(t) as it serves the anneal
    model = pspin_annealing(2, Gamma=1.0, p=3, t_f=1.0)
    engine = ContourEngine(build_space(4, 1), small_expansion, model)
    init = uniform_superposition(2)
    record, dt = [0.0, 0.4, 1.0], 0.01
    _, rho, _ = rdm_trajectory(engine, init, dt, record)
    for r, t in enumerate(record):
        for i, j in ((0, 0), (1, 2), (2, 0)):
            flip = np.zeros((3, 3), dtype=complex)
            flip[j, i] = 1.0
            exact = two_body_correlation(engine, DenseOperator(flip), None,
                                         t, 0.0, init, dt)
            assert abs(rho[r, i, j] - exact) < 1e-12
    # the schedule ends at t_f, here as in the anneal
    with pytest.raises(ConfigError, match="past the end of the schedule"):
        rdm_trajectory(engine, init, dt, [0.5, 1.5])


def test_rdm_trajectory_rejects_bad_record_grids(small_engine):
    ket0 = PureState(np.array([1.0, 0.0]))
    # unordered, before the start of the contour, or on no forward grid
    for record, dt in (([0.5, 0.5], 0.01), ([-0.5, 0.0, 0.5], 0.01),
                       ([0.0, 0.5], -0.01), ([0.0, 0.5], 0.0)):
        with pytest.raises(ConfigError):
            rdm_trajectory(small_engine, ket0, dt, record)


def test_response_closed_limit_peaks_at_omega0():
    w0 = 2.0
    engine = _closed_engine(spin_boson(w0), n_max=0)
    taus = np.arange(0.0, 12.0 + 1e-12, 0.01)
    result = response_function(engine, taus, t0=1.0, dt=0.01)
    # |1><1| is an eigenstate, so the correlator is the bare phase e^{i w0 tau}
    assert np.abs(result.values - np.exp(1j * w0 * taus)).max() < 1e-8
    assert abs(result.metadata["drift"]) < 1e-10

    omegas = np.arange(0.5 * w0, 1.5 * w0 + 1e-12, 0.01 * w0)
    spec = half_fourier(result, omegas, part="imag")
    peak = omegas[np.abs(spec.values.imag).argmax()]
    assert abs(peak - w0) < 1e-9


def test_response_matches_full_contour(small_engine, monkeypatch):
    monkeypatch.setattr(observables, "DRIFT_TOL", 1.0)
    taus = np.arange(0.0, 0.6 + 1e-12, 0.05)
    t0, dt = 0.5, 0.01
    result = response_function(small_engine, taus, t0=t0, dt=dt)
    sx = DenseOperator(SIGMA_X)
    ket1 = PureState(np.array([0.0, 1.0]))
    for m in (0, 3, taus.size - 1):
        exact = two_body_correlation(small_engine, sx, sx, t0 + taus[m], t0,
                                     ket1, dt)
        assert abs(result.values[m] - exact) < 1e-12
    proj1 = DenseOperator(np.diag([0.0, 1.0]))
    p1 = two_body_correlation(small_engine, proj1, None, t0, 0.0, ket1, dt)
    assert abs(result.metadata["p1_at_t0"] - p1.real) < 1e-12
    assert result.metadata["adjoint_max_abs"] >= 1.0
    assert "c2_max_abs" not in result.metadata
    # the forward states it reads: at 0.8 t0 for the drift, and at t0 + tau
    top = small_engine.space.levels == small_engine.space.N_max
    peak = max(float(np.abs(small_engine.run(ket1.vector, t, dt)[0]
                            [top]).max()) for t in [0.8 * t0, *(t0 + taus)])
    assert result.metadata["top_level_max_abs"] == pytest.approx(
        peak, rel=1e-12)
    assert 0.0 < peak <= result.metadata["c1_max_abs"]


def test_response_warns_when_still_drifting(small_engine, monkeypatch):
    monkeypatch.setattr(observables, "DRIFT_TOL", 1e-12)
    taus = np.arange(0.0, 0.5 + 1e-12, 0.05)
    with pytest.warns(EquilibrationWarning):
        response_function(small_engine, taus, t0=0.5, dt=0.05)


def test_response_grid_validation(small_engine):
    with pytest.raises(ConfigError):
        response_function(small_engine, [0.1, 0.2, 0.3], t0=1.0, dt=0.05)
    with pytest.raises(ConfigError):
        response_function(small_engine, [0.0, 0.1, 0.3], t0=1.0, dt=0.05)
    with pytest.raises(ConfigError):
        response_function(small_engine, [0.0], t0=1.0, dt=0.05)


def test_half_fourier_exponential_integral():
    ts = np.arange(0.0, 40.0 + 1e-12, 0.002)
    result = CorrelationResult(times=ts, values=np.exp(-ts).astype(complex))
    spec = half_fourier(result, [0.0])
    assert abs(spec.values[0] - 1.0) < 1e-6


def test_half_fourier_lorentzian_extremum():
    w0, eta = 2.0, 0.05
    ts = np.arange(0.0, 200.0 + 1e-12, 0.01)
    result = CorrelationResult(
        times=ts, values=(np.sin(w0 * ts) * np.exp(-eta * ts)).astype(complex))
    omegas = np.arange(0.5 * w0, 1.5 * w0 + 1e-12, 0.005 * w0)
    spec = half_fourier(result, omegas)
    extremum = omegas[np.abs(spec.values.imag).argmax()]
    assert abs(extremum - w0) < 0.02 * w0


def test_half_fourier_zero_and_metadata():
    ts = np.arange(0.0, 1.0 + 1e-12, 0.1)
    zero = CorrelationResult(times=ts, values=np.zeros(ts.size, complex))
    spec = half_fourier(zero, [0.0, 1.0, 2.0], window_time=0.5, part="real")
    assert np.abs(spec.values).max() == 0.0
    assert spec.metadata["window_time"] == 0.5
    assert spec.metadata["part"] == "real"
    assert spec.metadata["horizon"] == 1.0
    with pytest.raises(ValueError):
        half_fourier(zero, [0.0], part="modulus")


def test_half_fourier_window_damps_ringing():
    ts = np.arange(0.0, 20.0 + 1e-12, 0.01)
    result = CorrelationResult(times=ts,
                               values=np.sin(3.0 * ts).astype(complex))
    omegas = np.array([2.0, 3.0, 4.0])
    bare = half_fourier(result, omegas)
    windowed = half_fourier(result, omegas, window_time=5.0)
    assert not np.allclose(bare.values, windowed.values)


def test_annealing_starts_at_uniform_overlap(small_expansion):
    model = pspin_annealing(2, Gamma=1.0, p=3, t_f=1.0)
    engine = ContourEngine(build_space(4, 1), small_expansion, model)
    trace = annealing_populations(engine, uniform_superposition(2),
                                  0.01, [0.0, 0.5, 1.0])
    assert abs(trace.p_ground[0] - 0.25) < 1e-10   # 1/2^N
    assert np.abs(trace.trace - 1.0).max() < 1e-6
    # the Ncal single-flip states are degenerate: the summed population is
    # Ncal times the representative at the symmetric initial condition
    assert abs(trace.p_excited_sum[0] - 2.0 * trace.p_excited_rep[0]) < 1e-10


def test_annealing_matches_full_contours(small_expansion):
    # the scheduled discrete adjoint against one full contour per record
    # time, with the projector inserted at the turning point, on the full
    # register, whose first excited level is a degenerate cluster
    model = pspin_register(2, Gamma=1.0, p=3, t_f=1.0)
    engine = ContourEngine(build_space(4, 2), small_expansion, model)
    init = PureState(np.full(4, 0.5))
    record, dt = [0.0, 0.3, 0.7, 1.0], 0.01
    trace = annealing_populations(engine, init, dt, record)
    energies, states = np.linalg.eigh(model.hamiltonian_at(1.0).to_dense())
    assert np.allclose(energies, [-2.0, 0.0, 0.0, 2.0])
    ground = DenseOperator(np.outer(states[:, 0], states[:, 0].conj()))
    flips = states[:, 1:3]
    cluster = DenseOperator(flips @ flips.conj().T)
    for r, t in enumerate(record):
        for got, op in ((trace.p_ground[r], ground),
                        (trace.p_excited_sum[r], cluster),
                        (trace.trace[r], None)):
            exact = two_body_correlation(engine, op, None, t, 0.0, init, dt)
            assert abs(got - exact.real) < 1e-12
    assert trace.metadata["c1_max_abs"] >= 0.5
    assert trace.metadata["adjoint_max_abs"] >= 0.5


def test_annealing_adiabatic_closed_limit():
    # slow closed-system schedule ends in the target ground state
    model = pspin_annealing(2, Gamma=1.0, p=3, t_f=30.0)
    engine = ContourEngine(build_space(2, 0), _zero_expansion(), model)
    trace = annealing_populations(engine, uniform_superposition(2),
                                  0.1, [30.0])
    assert trace.p_ground[0] > 0.95


def test_annealing_coupling_helps_at_p3(small_expansion):
    # four qubits, two couplings: the intermediate bath must not hurt
    results = {}
    for zeta in (0.01, 0.1):
        from hseom import BathSpec, OhmicCircular, compute_coefficients
        spec = BathSpec(OhmicCircular(zeta=zeta, nu=3.0), np.inf, 3.0, 5)
        engine = ContourEngine(build_space(5, 2), compute_coefficients(spec),
                               pspin_annealing(4, Gamma=1.0, p=3, t_f=1.0))
        trace = annealing_populations(
            engine, uniform_superposition(4), 0.01, [1.0])
        results[zeta] = trace.p_ground[0]
    assert results[0.1] >= results[0.01]


def test_annealing_refuses_record_times_past_t_f(small_expansion):
    # past t_f the linear ramp would run on and drive the field negative
    model = pspin_annealing(2, Gamma=1.0, p=3, t_f=1.0)
    engine = ContourEngine(build_space(4, 1), small_expansion, model)
    init = uniform_superposition(2)
    with pytest.raises(ConfigError, match="past the end of the schedule"):
        annealing_populations(engine, init, 0.01, [0.0, 1.0, 1.1])
    # the end of the schedule itself is a record time like any other
    assert annealing_populations(engine, init, 0.01, [1.0]).times[0] == 1.0


def test_annealing_rejects_fixed_models(small_engine):
    with pytest.raises(ConfigError):
        annealing_populations(small_engine,
                              PureState(np.array([1.0, 0.0])), 0.01, [0.5])


def test_annealing_rejects_a_target_that_is_not_diagonal(small_expansion):
    # the populations read levels off the diagonal of H(t_f)
    def ramp(tau):
        return DenseOperator((1.0 - tau) * SIGMA_Z + tau * SIGMA_X)

    model = SystemModel(dim=2, V=DenseOperator(SIGMA_Z), time_dependent=True,
                        _ham_at=ramp, t_f=1.0)
    engine = ContourEngine(build_space(4, 1), small_expansion, model)
    with pytest.raises(ConfigError):
        annealing_populations(engine, PureState(np.array([1.0, 0.0])),
                              0.01, [0.5])


def _small_anneal_engine(expansion, n_max=1):
    return ContourEngine(build_space(4, n_max), expansion,
                         pspin_annealing(2, Gamma=1.0, p=3, t_f=1.0))


@pytest.mark.parametrize("scheduled", [False, True])
def test_threaded_sweeps_match_sequential_spans(small_engine, small_expansion,
                                                scheduled, rng):
    # the adjoint span on the worker thread takes the same steps, bit for
    # bit, as the two sweeps run one after the other
    engine = _small_anneal_engine(small_expansion, 2) if scheduled \
        else small_engine
    adjoint = engine.adjoint()
    size = engine.num_awf * engine.dim
    y0, a0 = (rng.standard_normal(size) + 1j * rng.standard_normal(size)
              for _ in range(2))
    steps, dt = [0, 3, 3, 10, 25], 0.02
    seen = []
    report = _sweep_report()
    ends = _advance_together(engine, adjoint, y0, a0, 0, dt, steps, report,
                             lambda r, y, a: seen.append((r, y, a)))
    y, a, prev = y0, a0, 0
    for r, step in enumerate(steps):
        y, _ = engine.integrate_span(y, prev, step - prev, dt, +1.0,
                                     tau_of=lambda s: s)
        a, _ = adjoint.integrate_span(a, prev, step - prev, dt, -1.0,
                                      tau_of=lambda s: s)
        prev = step
        assert seen[r][0] == r
        assert np.array_equal(seen[r][1], y)
        assert np.array_equal(seen[r][2], a)
    assert np.array_equal(ends[0], y) and np.array_equal(ends[1], a)
    assert report["forward_sweep_s"] > 0.0 and report["adjoint_sweep_s"] > 0.0
    # both sweeps to step 25, each step eight degrees a Taylor factor:
    # one factor of G_c's product for a fixed G, two of G_c's and
    # H(tau)'s for a schedule
    assert report["products"] == 2 * 25 * (32 if scheduled else 8)


@pytest.mark.parametrize("observable", ["rdm", "anneal"])
def test_a_non_finite_adjoint_sweep_raises_and_stops_the_worker(
        small_engine, small_expansion, monkeypatch, observable):
    original = ContourEngine.adjoint

    def poisoned(self):
        twin = original(self)
        twin._G = twin._G.copy()
        twin._G.data[:] = np.nan
        return twin

    monkeypatch.setattr(ContourEngine, "adjoint", poisoned)
    before = threading.active_count()
    with pytest.raises(NumericalError, match="non-finite"):
        if observable == "rdm":
            rdm_trajectory(small_engine, PureState(np.array([0.6, 0.8])),
                           0.01, [0.0, 0.2, 0.5])
        else:
            annealing_populations(_small_anneal_engine(small_expansion),
                                  uniform_superposition(2), 0.01,
                                  [0.0, 0.2, 0.5])
    assert threading.active_count() == before


def test_observables_on_shared_engines_from_many_threads(small_engine,
                                                         small_expansion):
    # four callers share two engines while the interpreter switches
    # threads as often as it can; each must get the serial answer exactly
    anneal_engine = _small_anneal_engine(small_expansion)
    record = [0.0, 0.2, 0.5]

    def rdm():
        # rho alone: the metadata holds each call's sweep seconds
        return rdm_trajectory(small_engine, PureState(np.array([0.6, 0.8j])),
                              0.01, record)[1:2]

    def anneal():
        trace = annealing_populations(anneal_engine,
                                      uniform_superposition(2),
                                      0.01, record)
        return (trace.p_ground, trace.p_excited_rep, trace.p_excited_sum,
                trace.trace)

    calls = [rdm, anneal, rdm, anneal]
    expected = [call() for call in calls]
    got = [[] for _ in calls]

    def work(i):
        # an exception here fails the test as an unhandled thread exception
        for _ in range(3):
            got[i].append(calls[i]())

    before = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,))
                   for i in range(len(calls))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    for want, runs in zip(expected, got):
        assert len(runs) == 3
        for run in runs:
            assert all(np.array_equal(x, w) for x, w in zip(run, want))
    assert threading.active_count() == before
