import numpy as np
import pytest

from hseom import (BathExpansion, Branch, ConfigError, ContourEngine,
                   ContourPlan, DenseOperator, NumericalError, PureState,
                   assemble_generator, build_components, build_eta,
                   build_space, contour_clock, preset,
                   pspin_annealing, spin_boson)
from hseom.dynamics import WaveStack
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


def test_contour_clock():
    assert contour_clock(0.7, 2.0) == (0.7, Branch.C1, +1.0)
    assert contour_clock(2.0, 2.0) == (2.0, Branch.C1, +1.0)
    tau, branch, sign = contour_clock(3.1, 2.0)
    assert abs(tau - 0.9) < 1e-12
    assert branch is Branch.C2 and sign == -1.0
    with pytest.raises(ValueError):
        contour_clock(4.5, 2.0)


def test_forward_branch_matches_exact_unitary(free_engine):
    model = spin_boson(1.3)
    psi0 = np.array([0.6, 0.8], dtype=complex)
    t = 1.0
    plan = ContourPlan(t=t, dt=1e-3, record_times=(t,))
    traj = free_engine.run(plan, PureState(psi0))
    exact = closed_system_propagate(model, psi0, t)
    assert np.abs(traj.snapshots[0].rwf - exact).max() < 1e-9


def test_full_contour_is_identity(free_engine):
    psi0 = np.array([1.0, 1.0]) / np.sqrt(2.0)
    traj = free_engine.run(ContourPlan(t=1.0, dt=1e-3), PureState(psi0))
    assert np.abs(traj.final.data[0] - psi0).max() < 1e-9
    # the auxiliary rows stay empty without coupling
    assert np.abs(traj.final.data[1:]).max() < 1e-12


def test_full_contour_identity_with_coupling(circular_expansion):
    # C2 inverts C1 exactly whenever nothing is inserted at the turning
    # point, coupling or not; only integration error remains
    space = build_space(20, 2)
    engine = ContourEngine(space, circular_expansion, spin_boson(np.pi))
    psi0 = np.array([0.0, 1.0], dtype=complex)
    traj = engine.run(ContourPlan(t=0.5, dt=0.0025), PureState(psi0))
    assert np.abs(traj.final.data[0] - psi0).max() < 1e-9


def test_rk4_error_scales_fourth_order(small_engine):
    # Probe the forward snapshot at s = t.  The full round trip is useless
    # here: the backward branch retraces the same steps with the negated
    # generator, the leading error terms cancel, and the return appears to
    # converge at order five or better.
    psi0 = np.array([1.0, 0.0], dtype=complex)

    def mid_rwf(dt):
        plan = ContourPlan(t=1.0, dt=dt, record_times=(1.0,))
        traj = small_engine.run(plan, PureState(psi0))
        return traj.snapshots[0].rwf

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


def test_run_ends_on_the_backward_branch(small_space, small_expansion):
    engine = ContourEngine(small_space, small_expansion, spin_boson(1.0))
    psi0 = np.array([1.0, 0.0], dtype=complex)
    traj = engine.run(ContourPlan(t=0.25, dt=0.0125), PureState(psi0))
    assert traj.final.s == 0.5
    assert traj.final.branch is Branch.C2


def test_snapshots_carry_branch_and_time(small_engine):
    psi0 = np.array([1.0, 0.0], dtype=complex)
    plan = ContourPlan(t=0.5, dt=0.0125, record_times=(0.25, 0.5, 0.75),
                       record_full=True)
    traj = small_engine.run(plan, PureState(psi0))
    assert [snap.s for snap in traj.snapshots] == [0.25, 0.5, 0.75]
    assert [snap.branch for snap in traj.snapshots] == [
        Branch.C1, Branch.C1, Branch.C2]
    for snap in traj.snapshots:
        assert snap.stack.shape == (small_engine.num_awf, 2)
        assert np.array_equal(snap.stack[0], snap.rwf)


def test_insertion_changes_the_return(small_engine):
    psi0 = np.array([1.0, 0.0], dtype=complex)
    plan = ContourPlan.correlation(t=0.5, t_prime=0.0, dt=0.0125,
                                   A=small_engine.model.V)
    traj = small_engine.run(plan, PureState(psi0))
    assert np.abs(traj.final.data[0] - psi0).max() > 1e-3


def test_off_grid_times_are_rejected(small_engine):
    with pytest.raises(ConfigError):
        ContourPlan(t=1.0, dt=0.3)
    with pytest.raises(ConfigError):
        ContourPlan(t=1.0, dt=0.01, record_times=(0.505,))
    with pytest.raises(ConfigError):
        ContourPlan(t=1.0, dt=0.01, insertions=((0.3333, None),))


def test_non_finite_states_raise(small_engine):
    bad = np.full((small_engine.num_awf, 2), np.nan, dtype=complex)
    with pytest.raises(NumericalError):
        small_engine.run(ContourPlan(t=0.1, dt=0.05),
                         WaveStack(data=bad, s=0.0, branch=Branch.C1))


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

