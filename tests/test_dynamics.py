import math

import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import expm

from hseom import (BathExpansion, ConfigError, ContourEngine,
                   DenseOperator, NumericalError, assemble_generator,
                   build_components, build_eta, build_space, preset,
                   pspin_annealing, spin_boson, uniform_superposition)
from hseom.dynamics import TAYLOR_DEGREE
from hseom.models import SIGMA_X
from hseom.oracles import closed_system_propagate
from hseom.presets import TAYLOR_STEP_NORM, step_norm


def _free_expansion(K=2, Omega=3.0):
    return BathExpansion(Omega=Omega, K=K, c=np.zeros(K, dtype=complex),
                         eta=build_eta(K, Omega))


@pytest.fixture(scope="module")
def free_engine():
    return ContourEngine(build_space(2, 2), _free_expansion(), spin_boson(1.3))


def test_forward_branch_matches_exact_unitary(free_engine):
    model = spin_boson(1.3)
    psi0 = np.array([0.6, 0.8], dtype=complex)
    t = 1.0
    turn, _ = free_engine.run(psi0, t, 1e-3)
    exact = closed_system_propagate(model, psi0, t)
    assert np.abs(turn[0] - exact).max() < 1e-9


def test_full_contour_is_identity(free_engine):
    psi0 = np.array([1.0, 1.0]) / np.sqrt(2.0)
    _, final = free_engine.run(psi0, 1.0, 1e-3)
    assert np.abs(final[0] - psi0).max() < 1e-9
    # the auxiliary rows stay empty without coupling
    assert np.abs(final[1:]).max() < 1e-12


def test_full_contour_identity_with_coupling(circular_expansion):
    # C2 inverts C1 exactly whenever nothing is inserted at the turning
    # point, coupling or not; only integration error remains
    space = build_space(20, 2)
    engine = ContourEngine(space, circular_expansion, spin_boson(np.pi))
    psi0 = np.array([0.0, 1.0], dtype=complex)
    _, final = engine.run(psi0, 0.5, 0.0025)
    assert np.abs(final[0] - psi0).max() < 1e-9


def _errors_at_t(engine, psi0, dts, ref):
    # Probe the forward state at s = t.  The full round trip is useless
    # here: the backward branch retraces the same steps with the negated
    # generator, the leading error terms cancel, and the return appears to
    # converge at a higher order.
    return [np.abs(engine.run(psi0, 1.0, dt)[0].ravel() - ref).max()
            for dt in dts]


def _small_anneal(space, expansion):
    return ContourEngine(space, expansion,
                         pspin_annealing(2, Gamma=1.0, p=3, t_f=1.0))


def test_schedule_error_scales_fourth_order(small_space, small_expansion):
    # a schedule takes the fourth-order commutator-free Magnus step: two
    # Taylor factors at the stage points s + dt/6 and s + 5dt/6
    engine = _small_anneal(small_space, small_expansion)
    psi0 = uniform_superposition(2).vector
    ref = engine.run(psi0, 1.0, 0.0015625)[0].ravel()
    coarse, fine = _errors_at_t(engine, psi0, (0.05, 0.025), ref)
    assert 12.0 < coarse / fine < 20.0


def test_taylor_error_scales_eighth_order(small_engine):
    # a fixed G takes the degree-8 Taylor step, against the exact
    # exponential
    psi0 = np.array([1.0, 0.0], dtype=complex)
    exact = expm(small_engine.flat_generator.toarray()) \
        @ small_engine.initial_stack(psi0).ravel()
    coarse, fine = _errors_at_t(small_engine, psi0, (0.2, 0.1), exact)
    assert 0.75 * 2 ** 8 < coarse / fine < 1.25 * 2 ** 8


def _taylor(z, power=np.power):
    """The degree-TAYLOR_DEGREE Taylor polynomial of e^z, term by term:
    elementwise, or of a matrix with ``power=np.linalg.matrix_power``."""
    return sum(power(z, j) / math.factorial(j)
               for j in range(TAYLOR_DEGREE + 1))


def test_one_step_is_the_adjoints_adjoint(small_engine, small_space,
                                         small_expansion, rng):
    # a^T (S y) = (S^T a)^T y for one step S of either branch, with S^T
    # one step of the transpose engine at the largest default dt: what the
    # transpose sweeps of the observables rest on.  A schedule's
    # transpose step runs its clock the other way over the same interval
    # [0, dt]: the observables' case is a backward step on s -> 2t - s
    # from s = t = dt against a transpose step on s -> s from s = 0
    for engine in (small_engine, _small_anneal(small_space,
                                               small_expansion)):
        transpose = engine.transpose()
        size = engine.num_awf * engine.dim
        dt = step_norm(engine) / engine.norm_bound
        up, down = (0, lambda s: s), (1, lambda s: 2.0 * dt - s)
        for sign in (+1.0, -1.0):
            for (n_y, clock_y), (n_a, clock_a) in ((up, down), (down, up)):
                y = rng.standard_normal(size) + 1j * rng.standard_normal(size)
                a = rng.standard_normal(size) + 1j * rng.standard_normal(size)
                step_y, _ = engine.integrate_span(y, n_y, 1, dt, sign,
                                                  tau_of=clock_y)
                step_a, _ = transpose.integrate_span(a, n_a, 1, dt, sign,
                                                     tau_of=clock_a)
                lhs, rhs = np.dot(a, step_y), np.dot(step_a, y)
                assert abs(lhs - rhs) < 1e-13 * abs(lhs)


def test_taylor_step_is_stable_inside_its_bound(small_engine):
    # the boundary of the left half-disk of radius TAYLOR_STEP_NORM: the
    # half-circle and the imaginary segment; |p| <= 1 inside follows by the
    # maximum modulus principle
    angles = np.linspace(0.5 * np.pi, 1.5 * np.pi, 2001)
    circle = TAYLOR_STEP_NORM * np.exp(1j * angles)
    segment = 1j * np.linspace(-TAYLOR_STEP_NORM, TAYLOR_STEP_NORM, 2001)
    for z in (circle, segment):
        assert np.abs(_taylor(z)).max() <= 1.0 + 1e-12
    # the step is that polynomial of h G, h = +-dt, at the largest dt the
    # default step rule allows, and every eigenvalue of G keeps it bounded
    G = small_engine.flat_generator.toarray()
    dt = TAYLOR_STEP_NORM / small_engine.norm_bound
    eye = np.eye(G.shape[0], dtype=complex)
    for sign in (+1.0, -1.0):
        step, _ = small_engine.integrate_span(eye, 0, 1, dt, sign)
        polynomial = _taylor(sign * dt * G, np.linalg.matrix_power)
        assert np.abs(step - polynomial).max() < 1e-13
        z = sign * dt * np.linalg.eigvals(G)
        assert np.abs(_taylor(z)).max() <= 1.0 + 1e-12


def test_a_schedule_steps_by_two_taylor_factors(small_space,
                                                small_expansion):
    # one step is p((h/2) G(tau_b)) p((h/2) G(tau_a)), tau_a at s + dt/6
    # and tau_b at s + 5dt/6, h = +-dt, at the largest dt the default step
    # rule allows, and every eigenvalue of each exponent keeps it bounded
    engine = _small_anneal(small_space, small_expansion)
    dt = step_norm(engine) / engine.norm_bound
    eye = np.eye(engine.num_awf * engine.dim, dtype=complex)

    def clock(s):  # any map of s to the schedule's clock will do
        return 0.2 + s

    for sign in (+1.0, -1.0):
        step, _ = engine.integrate_span(eye, 0, 1, dt, sign, tau_of=clock)
        factors = [0.5 * sign * dt * engine._deriv_flat(eye, clock(s), 1.0)
                   for s in (dt / 6.0, 5.0 * dt / 6.0)]
        polynomial = _taylor(factors[1], np.linalg.matrix_power) \
            @ _taylor(factors[0], np.linalg.matrix_power)
        assert np.abs(step - polynomial).max() < 1e-13
        for exponent in factors:
            z = np.linalg.eigvals(exponent)
            assert np.abs(_taylor(z)).max() <= 1.0 + 1e-12


def test_rhs_is_linear(small_engine, rng):
    size = small_engine.num_awf * small_engine.dim
    x = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    y = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    a, b = 0.7 - 0.2j, -1.1 + 0.4j
    lhs = small_engine._deriv_flat(a * x + b * y, 0.3, +1.0)
    rhs = a * small_engine._deriv_flat(x, 0.3, +1.0) + \
        b * small_engine._deriv_flat(y, 0.3, +1.0)
    assert np.abs(lhs - rhs).max() < 1e-12


def test_branches_are_negatives(small_engine, rng):
    size = small_engine.num_awf * small_engine.dim
    x = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    fwd = small_engine._deriv_flat(x, 0.4, +1.0)
    bwd = small_engine._deriv_flat(x, 0.4, -1.0)
    assert np.abs(fwd + bwd).max() < 1e-13


@pytest.mark.parametrize("scheduled", [False, True])
def test_flat_generator_matches_oracle(scheduled, small_space,
                                       small_expansion):
    # G(0) as one matrix, against the entry-by-entry oracle; a fixed
    # model's generator is a single part, a schedule's three
    model = pspin_annealing(2, Gamma=1.0, p=3, t_f=1.0) if scheduled \
        else spin_boson(1.0)
    engine = ContourEngine(small_space, small_expansion, model)
    assert len(engine.generator_parts) == (3 if scheduled else 1)
    oracle = assemble_generator(small_space, small_expansion, model, 0.0,
                                1.0).toarray()
    flat = engine.flat_generator.toarray()
    assert np.abs(flat - oracle).max() < 1e-13 * np.abs(oracle).max()


@pytest.mark.parametrize("name", ["respond-circular", "dephasing",
                                  "anneal-weak"])
def test_flat_generator_stores_no_zeros(name):
    # G_c stores no zeros; a schedule's ramp pair shares one pattern, the
    # union of the two ends', so each stored entry is nonzero at one end
    engine = build_components(preset(name)).engine
    for twin in (engine, engine.transpose()):
        G, *ramp = twin.generator_parts
        assert G.nnz == np.count_nonzero(G.data)
        if ramp:
            start, end = ramp
            assert np.array_equal(start.indptr, end.indptr)
            assert np.array_equal(start.indices, end.indices)
            assert np.all((start.data != 0) | (end.data != 0))


def test_a_schedule_stores_no_hierarchy_sized_ramp(small_space,
                                                   small_expansion):
    # the schedule's H(0) and H(t_f) stay dim x dim, forward and
    # transpose: G_c is the one stored matrix with a row per hierarchy row
    # and state, and the engine and its transpose hold one copy of its
    # entries together
    engine = ContourEngine(small_space, small_expansion,
                           pspin_annealing(2, Gamma=1.0, p=3, t_f=1.0))
    size = engine.num_awf * engine.dim
    stored = []
    for twin in (engine, engine.transpose()):
        G, *ramp = twin.generator_parts
        assert G.shape == (size, size)
        assert [part.shape for part in ramp] == [(twin.dim, twin.dim)] * 2
        stored += [value for value in vars(twin).values()
                   if sparse.issparse(value)]
        stored += [part for value in vars(twin).values()
                   if isinstance(value, tuple) for part in value
                   if sparse.issparse(part)]
    buffers = {A.data.__array_interface__["data"][0] for A in stored
               if A.shape[0] == size}
    assert len(buffers) == 1


@pytest.mark.parametrize("scheduled", [False, True])
def test_the_adjoint_stores_no_generator_of_its_own(scheduled, small_space,
                                                    small_expansion):
    # the transpose engine, which the observables' adjoint sweeps run,
    # reads every part through its transpose, a view of the part's three
    # arrays
    model = pspin_annealing(2, Gamma=1.0, p=3, t_f=1.0) if scheduled \
        else spin_boson(1.0)
    engine = ContourEngine(small_space, small_expansion, model)
    transpose = engine.transpose()
    parts, parts_t = engine.generator_parts, transpose.generator_parts
    assert len(parts_t) == len(parts) == (3 if scheduled else 1)
    for part, part_t in zip(parts, parts_t):
        for name in ("data", "indices", "indptr"):
            assert np.shares_memory(getattr(part_t, name),
                                    getattr(part, name))
        assert np.array_equal(part_t.toarray(), part.toarray().T)
    # the transpose's assembled G(0) is the engine's transposed, and the
    # transpose's transpose is the engine again
    assert np.array_equal(transpose.flat_generator.toarray(),
                          engine.flat_generator.toarray().T)
    again = transpose.transpose()
    for part, part_again in zip(parts, again.generator_parts):
        assert part_again.format == part.format
        assert np.shares_memory(part_again.data, part.data)
    assert np.array_equal(again.flat_generator.toarray(),
                          engine.flat_generator.toarray())
    assert not hasattr(engine, "adjoint")


@pytest.mark.parametrize("scheduled", [False, True])
def test_adjoint_is_the_hermitian_conjugate(scheduled, small_space,
                                            small_expansion, rng):
    # u^T (G v) = (G^T u)^T v for a fixed and a scheduled model: the
    # transpose engine is G's adjoint under the bilinear pairing, which the
    # observables' adjoint sweeps read through
    model = pspin_annealing(2, Gamma=1.0, p=3, t_f=1.0) if scheduled \
        else spin_boson(1.0)
    engine = ContourEngine(small_space, small_expansion, model)
    transpose = engine.transpose()
    shape = (engine.num_awf * engine.dim, 3)
    u = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    for tau in (0.0, 0.37):
        lhs = np.sum(u * engine._deriv_flat(v, tau, +1.0), axis=0)
        rhs = np.sum(transpose._deriv_flat(u, tau, +1.0) * v, axis=0)
        assert np.abs(lhs - rhs).max() < 1e-12 * np.abs(lhs).max()


def test_apply_all_rows_acts_on_every_column(small_engine, rng):
    # a block of flat columns is the same as each column on its own
    m, d = small_engine.num_awf, small_engine.dim
    block = rng.standard_normal((m * d, 3)) + 1j * rng.standard_normal(
        (m * d, 3))
    op = DenseOperator(SIGMA_X)
    out = small_engine.apply_all_rows(block, op)
    for r in range(3):
        single = small_engine.apply_all_rows(block[:, r], op)
        assert np.array_equal(out[:, r], single)
        assert np.array_equal(single.reshape(m, d),
                              block[:, r].reshape(m, d) @ SIGMA_X.T)


def test_insertion_changes_the_return(small_engine):
    psi0 = np.array([1.0, 0.0], dtype=complex)
    _, final = small_engine.run(psi0, 0.5, 0.0125, A=small_engine.model.V)
    assert np.abs(final[0] - psi0).max() > 1e-3


def test_off_grid_times_are_rejected(small_engine):
    psi0 = np.array([1.0, 0.0], dtype=complex)
    with pytest.raises(ConfigError):
        small_engine.run(psi0, 1.0, 0.3)
    with pytest.raises(ConfigError):
        small_engine.run(psi0, 1.0, 0.01, t_prime=0.505)
    with pytest.raises(ConfigError):
        small_engine.run(psi0, 1.0, 0.01, t_prime=0.3333)


def test_run_refuses_times_off_the_contour(small_engine):
    psi0 = np.array([1.0, 0.0], dtype=complex)
    for t, dt, t_prime in ((-0.5, 0.01, 0.0), (1.0, 0.0, 0.0),
                           (1.0, -0.01, 0.0), (1.0, 0.01, -0.1),
                           (1.0, 0.01, 1.1)):
        with pytest.raises(ConfigError):
            small_engine.run(psi0, t, dt, t_prime=t_prime)


def test_non_finite_states_raise(small_engine):
    with pytest.raises(NumericalError):
        small_engine.run(np.full(2, np.nan, dtype=complex), 0.1, 0.05)


@pytest.mark.parametrize("scheduled", [False, True])
def test_spans_split_anywhere_bit_for_bit(scheduled, small_space,
                                          small_expansion, rng):
    # every step depends only on the state and its absolute step, which
    # is what makes the segmented observables exact
    model = pspin_annealing(2, Gamma=1.0, p=3, t_f=1.0) if scheduled \
        else spin_boson(1.0)
    engine = ContourEngine(small_space, small_expansion, model)
    size = engine.num_awf * engine.dim
    y0 = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    for sign in (+1.0, -1.0):
        whole, top = engine.integrate_span(y0, 3, 40, 0.0125, sign,
                                           tau_of=lambda s: s)
        part, top1 = engine.integrate_span(y0, 3, 17, 0.0125, sign,
                                           tau_of=lambda s: s)
        part, top2 = engine.integrate_span(part, 20, 23, 0.0125, sign,
                                           tau_of=lambda s: s)
        assert np.array_equal(whole, part)
        assert top == max(top1, top2)


def test_a_schedule_refuses_a_missing_clock(small_space, small_expansion,
                                            small_engine):
    # without tau_of a schedule would integrate with H frozen at tau = 0
    engine = ContourEngine(small_space, small_expansion,
                           pspin_annealing(2, Gamma=1.0, p=3, t_f=1.0))
    y = engine.initial_stack(uniform_superposition(2).vector).ravel()
    with pytest.raises(ConfigError, match="tau_of"):
        engine.integrate_span(y, 0, 2, 0.01, +1.0)
    with pytest.raises(ConfigError, match="tau_of"):
        engine.transpose().integrate_span(y, 0, 2, 0.01, -1.0)
    # a fixed model has no clock to read
    y = small_engine.initial_stack(np.array([1.0, 0.0])).ravel()
    fixed, _ = small_engine.integrate_span(y, 0, 2, 0.01, +1.0)
    clocked, _ = small_engine.integrate_span(y, 0, 2, 0.01, +1.0,
                                             tau_of=lambda s: s)
    assert np.array_equal(fixed, clocked)


def test_backward_batch_matches_single_runs(small_engine, rng):
    # several backward runs of unequal length on one clock agree with
    # doing each one alone
    m, d = small_engine.num_awf, small_engine.dim
    dt = 0.0125
    cols = []
    steps = [32, 16, 4]
    for _ in steps:
        cols.append((rng.standard_normal((m, d))
                     + 1j * rng.standard_normal((m, d))).ravel())
    columns = np.stack(cols, axis=1)
    batched, _ = small_engine.backward_batch(columns.copy(),
                                             np.array(steps), dt)
    for i, n in enumerate(steps):
        single, _ = small_engine.backward_batch(columns[:, [i]],
                                                np.array([n]), dt)
        assert np.abs(batched[:, i] - single[:, 0]).max() < 1e-12


def test_backward_batch_extracts_with_bras(small_engine, rng):
    m, d = small_engine.num_awf, small_engine.dim
    col = (rng.standard_normal((m, d)) + 1j * rng.standard_normal(
        (m, d))).ravel()
    columns = col[:, None].copy()
    steps = np.array([8])
    bras = np.array([[1.0, 2.0j]])
    finals, _ = small_engine.backward_batch(columns.copy(), steps, 0.0125)
    vals, _ = small_engine.backward_batch(columns.copy(), steps, 0.0125,
                                          bras=bras)
    expected = np.vdot(bras[0], finals[:d, 0])
    assert abs(vals[0] - expected) < 1e-13

