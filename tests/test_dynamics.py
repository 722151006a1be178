import numpy as np
import pytest

from hseom import (BathExpansion, Branch, ConfigError, ContourEngine,
                   DenseOperator, NumericalError, assemble_generator,
                   build_components, build_eta, build_space, preset,
                   pspin_annealing, spin_boson)
from hseom.models import SIGMA_X
from hseom.oracles import closed_system_propagate


def _free_expansion(K=2, Omega=3.0):
    phi0 = np.zeros(K)
    phi0[0] = 1.0
    return BathExpansion(Omega=Omega, K=K, c=np.zeros(K, dtype=complex),
                         eta=build_eta(K, Omega), phi_at_zero=phi0)


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


def test_rk4_error_scales_fourth_order(small_engine):
    # Probe the forward state at s = t.  The full round trip is useless
    # here: the backward branch retraces the same steps with the negated
    # generator, the leading error terms cancel, and the return appears to
    # converge at order five or better.
    psi0 = np.array([1.0, 0.0], dtype=complex)

    def mid_rwf(dt):
        turn, _ = small_engine.run(psi0, 1.0, dt)
        return turn[0]

    ref = mid_rwf(0.003125)
    err_coarse = np.abs(mid_rwf(0.05) - ref).max()
    err_fine = np.abs(mid_rwf(0.025) - ref).max()
    ratio = err_coarse / err_fine
    assert 12.0 < ratio < 20.0


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
                                Branch.C1).matrix.toarray()
    flat = engine.flat_generator.toarray()
    assert np.abs(flat - oracle).max() < 1e-13 * np.abs(oracle).max()


@pytest.mark.parametrize("name", ["respond-circular", "dephasing",
                                  "anneal-weak"])
def test_flat_generator_stores_no_zeros(name):
    engine = build_components(preset(name)).engine
    for G in engine.generator_parts + engine.adjoint().generator_parts:
        assert G.nnz == np.count_nonzero(G.data)


@pytest.mark.parametrize("scheduled", [False, True])
def test_adjoint_is_the_hermitian_conjugate(scheduled, small_space,
                                            small_expansion, rng):
    # <u, G v> = <G^H u, v> for a fixed and a scheduled model
    model = pspin_annealing(2, Gamma=1.0, p=3, t_f=1.0) if scheduled \
        else spin_boson(1.0)
    engine = ContourEngine(small_space, small_expansion, model)
    adjoint = engine.adjoint()
    shape = (engine.num_awf * engine.dim, 3)
    u = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    for tau in (0.0, 0.37):
        lhs = np.sum(u.conj() * engine._deriv_flat(v, tau, +1.0), axis=0)
        rhs = np.sum(adjoint._deriv_flat(u, tau, +1.0).conj() * v, axis=0)
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
    y = engine.initial_stack(np.full(4, 0.5, dtype=complex)).ravel()
    with pytest.raises(ConfigError, match="tau_of"):
        engine.integrate_span(y, 0, 2, 0.01, +1.0)
    with pytest.raises(ConfigError, match="tau_of"):
        engine.adjoint().integrate_span(y, 0, 2, 0.01, -1.0)
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

