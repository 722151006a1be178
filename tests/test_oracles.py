"""Cross-checks between the brute-force references and the production path.

The oracle generator and the engine RHS are written against the same
definitions by entirely separate code; agreement to near machine precision
on several (dim, K, N_max) instances is the core correctness argument.
"""

import numpy as np
import pytest
from scipy import integrate, sparse

from hseom import (
    BathSpec,
    Branch,
    ContourEngine,
    OhmicCircular,
    ResourceLimitError,
    assemble_generator,
    build_space,
    closed_schedule_propagate,
    closed_system_propagate,
    compute_coefficients,
    dephasing_exact,
    pspin_annealing,
    spin_boson,
)
from hseom.models import DenseOperator, SystemModel


def _expansion(K):
    spec = BathSpec(OhmicCircular(zeta=0.3, nu=2.0), 3.0, 2.0, K)
    return compute_coefficients(spec)


def _fixed_model(ham, v):
    op = DenseOperator(np.asarray(ham, dtype=complex))
    return SystemModel(dim=op.dim, V=DenseOperator(np.asarray(v, dtype=complex)),
                       time_dependent=False, _ham_at=lambda tau: op)


def _random_model(dim, rng):
    ham = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    v = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return _fixed_model(0.5 * (ham + ham.conj().T), 0.5 * (v + v.conj().T))


def _engine_vs_oracle(space, expansion, model, tau, branch, rng):
    """Largest entry of the engine's derivative minus the oracle's."""
    engine = ContourEngine(space, expansion, model)
    size = space.num_indices * model.dim
    flat = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    oracle = assemble_generator(space, expansion, model, tau, branch)
    via_matrix = oracle.apply(flat)
    via_engine = engine._deriv_flat(flat, tau, branch.sign)
    return float(np.abs(via_matrix - via_engine).max())


@pytest.mark.parametrize("dim,K,n_max", [(2, 3, 2), (2, 5, 1), (4, 2, 2)])
@pytest.mark.parametrize("branch", [Branch.C1, Branch.C2])
def test_generator_matches_engine_rhs(dim, K, n_max, branch, rng):
    model = _random_model(dim, rng)
    assert _engine_vs_oracle(build_space(K, n_max), _expansion(K), model,
                             0.0, branch, rng) < 1e-13


@pytest.mark.parametrize("branch", [Branch.C1, Branch.C2])
def test_generator_matches_engine_rhs_on_a_schedule(branch, rng):
    # interior tau, where both ramp parts of G(tau) carry weight
    model = pspin_annealing(2, Gamma=1.0, p=3, t_f=1.0)
    assert _engine_vs_oracle(build_space(3, 2), _expansion(3), model,
                             0.37, branch, rng) < 1e-13


def test_generator_branches_are_negatives(rng):
    space = build_space(3, 2)
    expansion = _expansion(3)
    model = _random_model(2, rng)
    g1 = assemble_generator(space, expansion, model, 0.0, Branch.C1)
    g2 = assemble_generator(space, expansion, model, 0.0, Branch.C2)
    diff = sparse.csr_matrix(g1.matrix + g2.matrix)
    assert np.abs(diff.toarray()).max() == 0.0


def test_generator_refuses_large_instances():
    space = build_space(12, 5)  # 6188 indices x dim 2 exceeds the cap
    expansion = _expansion(12)
    with pytest.raises(ResourceLimitError):
        assemble_generator(space, expansion, spin_boson(1.0), 0.0, Branch.C1)


def test_closed_system_matches_phases():
    # spin_boson puts the ground state at index 1: H = diag(+w0/2, -w0/2)
    w0 = 1.3
    psi0 = np.array([0.6, 0.8], dtype=complex)
    psi = closed_system_propagate(spin_boson(w0), psi0, 2.5)
    expected = psi0 * np.exp(-1j * np.array([+w0 / 2, -w0 / 2]) * 2.5)
    assert np.abs(psi - expected).max() < 1e-12


def test_closed_system_rejects_scheduled_models():
    model = pspin_annealing(2, Gamma=1.0, p=2, t_f=1.0)
    with pytest.raises(ValueError):
        closed_system_propagate(model, np.ones(4) / 2.0, 0.5)


def test_schedule_oracle_reduces_to_fixed_case():
    rng = np.random.default_rng(11)
    model = _random_model(3, rng)
    psi0 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    psi0 /= np.linalg.norm(psi0)
    a = closed_schedule_propagate(model, psi0, 1.7)
    b = closed_system_propagate(model, psi0, 1.7)
    assert np.abs(a - b).max() < 1e-9


def test_schedule_oracle_on_scheduled_model():
    # independent fine-step RK4 in the test, touching only hamiltonian_at
    model = pspin_annealing(2, Gamma=1.0, p=2, t_f=1.0)
    dim = model.dim
    psi0 = np.ones(dim, dtype=complex) / np.sqrt(dim)

    def deriv(tau, psi):
        return -1j * (model.hamiltonian_at(tau).to_dense() @ psi)

    dt = 1e-4
    psi = psi0.copy()
    tau = 0.0
    for _ in range(10000):
        k1 = deriv(tau, psi)
        k2 = deriv(tau + dt / 2, psi + dt / 2 * k1)
        k3 = deriv(tau + dt / 2, psi + dt / 2 * k2)
        k4 = deriv(tau + dt, psi + dt * k3)
        psi += dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        tau += dt

    via_oracle = closed_schedule_propagate(model, psi0, 1.0)
    assert abs(np.linalg.norm(via_oracle) - 1.0) < 1e-9
    assert np.abs(via_oracle - psi).max() < 1e-8


def test_dephasing_factor_limits():
    spec = BathSpec(OhmicCircular(zeta=0.1, nu=3.0), 3.0, 3.0, 8)
    assert dephasing_exact(spec, 0.5, 0.0) == 1.0 + 0.0j
    assert dephasing_exact(spec, 0.0, 1.2) == 1.0 + 0.0j
    with pytest.raises(ValueError):
        dephasing_exact(spec, 0.5, -0.1)


def test_dephasing_factor_against_riemann_sum():
    from hseom.bath import alpha_quadrature

    spec = BathSpec(OhmicCircular(zeta=0.1, nu=3.0), 3.0, 3.0, 8)
    v, t = 0.5, 1.5
    u = np.linspace(0.0, t, 201)
    re_alpha = np.array([alpha_quadrature(spec, ui).real for ui in u])
    weight = integrate.simpson((t - u) * re_alpha, x=u)
    expected = np.exp(-4.0 * v ** 2 * weight)
    got = dephasing_exact(spec, v, t)
    assert abs(got - expected) < 1e-6
    assert 0.0 < abs(got) <= 1.0


def test_dephasing_factor_decays_early():
    # Re alpha(0) > 0, so the factor must fall off the t = 0 plateau
    spec = BathSpec(OhmicCircular(zeta=0.1, nu=3.0), 3.0, 3.0, 8)
    values = [abs(dephasing_exact(spec, 0.5, t)) for t in (0.2, 0.4, 0.6)]
    assert values[0] > values[1] > values[2]


def test_closed_system_dim_guard():
    model = pspin_annealing(7, Gamma=1.0, p=3, t_f=1.0)
    frozen = _fixed_model(model.hamiltonian_at(0.0).to_dense(),
                          np.eye(model.dim))
    with pytest.raises(ResourceLimitError):
        closed_system_propagate(frozen, np.zeros(model.dim, dtype=complex),
                                1.0)
