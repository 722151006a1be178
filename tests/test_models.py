import math

import numpy as np
import pytest
from scipy import sparse

from hseom import (ConfigError, DenseOperator, MixedState, PureState,
                   ResourceLimitError, magnetization_values, pspin_annealing,
                   pure_dephasing, spin_boson, thermal_state,
                   uniform_superposition_transform)
from hseom.models import (SIGMA_X, SIGMA_Z, DiagonalOperator,
                          PauliSumOperator, PauliTerm, SystemModel)


def test_spin_boson_matrices():
    model = spin_boson(2.0)
    h = model.hamiltonian_at(0.0).matrix
    assert np.array_equal(h, np.diag([1.0, -1.0]))  # -(omega0/2) sigma_z
    v = model.V.matrix
    assert np.array_equal(v, -0.5 * SIGMA_X)
    assert not model.time_dependent


def test_pure_dephasing_coupling_commutes():
    model = pure_dephasing(1.0)
    h = model.hamiltonian_at(0.0).matrix
    v = model.V.matrix
    assert np.array_equal(v, 0.5 * SIGMA_Z)
    assert np.abs(h @ v - v @ h).max() == 0.0


def test_magnetization_values():
    assert np.array_equal(magnetization_values(2), [-2, 0, 0, 2])
    m3 = magnetization_values(3)
    assert m3[0] == -3 and m3[7] == 3
    assert sorted(m3) == [-3, -1, -1, -1, 1, 1, 1, 3]


def test_pspin_schedule_is_linear():
    model = pspin_annealing(3, 1.2, 3, 2.0)
    h0 = model.hamiltonian_at(0.0).to_dense()
    h1 = model.hamiltonian_at(2.0).to_dense()
    hm = model.hamiltonian_at(1.0).to_dense()
    assert np.abs(hm - 0.5 * (h0 + h1)).max() < 1e-14
    assert model.time_dependent


def _driver_by_kron(Ncal, Gamma):
    """-Gamma sum_i sigma_x^(i), built by explicit kron; site i at bit i."""
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    eye = np.eye(2)
    dim = 2 ** Ncal
    h0 = np.zeros((dim, dim))
    for i in range(Ncal):
        ops = [eye] * Ncal
        ops[i] = sx
        term = ops[0]
        for op in ops[1:]:
            term = np.kron(op, term)
        h0 -= Gamma * term
    return h0


def test_pspin_endpoints():
    Ncal, Gamma, p = 3, 0.7, 3
    model = pspin_annealing(Ncal, Gamma, p, 1.0)
    h0 = _driver_by_kron(Ncal, Gamma)
    assert np.abs(model.hamiltonian_at(0.0).to_dense() - h0).max() < 1e-14
    # target: -N (m/N)^p on the diagonal
    m = magnetization_values(Ncal).astype(float)
    h1 = np.diag(-Ncal * (m / Ncal) ** p)
    assert np.abs(model.hamiltonian_at(1.0).to_dense() - h1).max() < 1e-14
    # coupling is the magnetization itself
    assert np.array_equal(np.diag(model.V.to_dense()), m)


def test_pspin_large_uses_structured_operators():
    # the CSR forms the engine reads, against explicit kron and to_dense
    Ncal, p = 8, 5
    model = pspin_annealing(Ncal, 1.0, p, 1.0)
    assert model.dim == 256
    start, end = model.ramp
    h0 = _driver_by_kron(Ncal, 1.0)
    assert np.abs(start.toarray() - h0).max() < 1e-14
    assert np.abs(start.toarray()
                  - model.hamiltonian_at(0.0).to_dense()).max() < 1e-14
    m = magnetization_values(Ncal).astype(float)
    assert np.abs(end.toarray()
                  - np.diag(-Ncal * (m / Ncal) ** p)).max() < 1e-14
    assert np.array_equal(model.V_csr.toarray(), np.diag(m))
    # H(0) |00..0> = -Gamma sum_i |..1_i..>
    psi = np.zeros(256, dtype=complex)
    psi[0] = 1.0
    out = model.hamiltonian_at(0.0).apply(psi)
    hits = np.nonzero(out)[0]
    assert set(hits) == {1 << i for i in range(8)}
    assert np.allclose(out[hits], -1.0)


def test_pauli_sum_against_dense_kron():
    # two-site operator 0.3 XZ + 0.7 Y1, checked against explicit matrices
    op = PauliSumOperator(2, (
        PauliTerm(0.3, ((0, "X"), (1, "Z"))),
        PauliTerm(0.7, ((0, "Y"),)),
    ))
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]])
    sz = np.diag([-1.0, 1.0]).astype(complex)  # package convention
    eye = np.eye(2)
    expected = 0.3 * np.kron(sz, sx) + 0.7 * np.kron(eye, sy)
    assert np.abs(op.to_dense() - expected).max() < 1e-14
    # the CSR built from the masks and phases, never densified
    assert np.abs(op.to_csr().toarray() - expected).max() < 1e-14


def test_pspin_bounds():
    with pytest.raises(ResourceLimitError):
        pspin_annealing(17, 1.0, 3, 1.0)
    with pytest.raises(ResourceLimitError):
        pspin_annealing(0, 1.0, 3, 1.0)


def test_pure_state_requires_normalization():
    with pytest.raises(ConfigError):
        PureState(np.array([1.0, 1.0]))


def test_mixed_state_requires_unit_weights():
    e0 = np.array([1.0, 0.0])
    e1 = np.array([0.0, 1.0])
    with pytest.raises(ConfigError):
        MixedState([(0.6, e0), (0.6, e1)])
    mix = MixedState([(0.25, e0), (0.75, e1)])
    assert np.allclose(mix.density(), np.diag([0.25, 0.75]))


def test_uniform_superposition_transform_column():
    init = uniform_superposition_transform(3)
    assert sparse.issparse(init.C) and init.C.nnz == 8
    v = init.initial_vector()
    assert v.shape == (8,)
    assert np.allclose(v, 1.0 / math.sqrt(8.0))
    big = uniform_superposition_transform(12)
    assert sparse.issparse(big.C)
    assert np.allclose(big.initial_vector(), 1.0 / math.sqrt(4096.0))


def test_thermal_state_follows_boltzmann():
    model = spin_boson(1.0)
    state = thermal_state(model, 3.0)
    rho = state.density()
    # index 1 is the ground state of -(omega0/2) sigma_z
    ratio = rho[0, 0].real / rho[1, 1].real
    assert abs(ratio - math.exp(-3.0)) < 1e-12
    assert abs(np.trace(rho) - 1.0) < 1e-12


def test_nonhermitian_hamiltonian_is_rejected():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(ConfigError):
        SystemModel(dim=2, V=DenseOperator(np.eye(2)), time_dependent=False,
                    _ham_at=lambda tau: DenseOperator(bad))


def test_nonhermitian_operator_is_rejected_at_any_dimension():
    # the check is exact on the CSR form, so no size falls back to a probe
    diag = np.ones(128, dtype=complex)
    diag[77] = 1j
    with pytest.raises(ConfigError):
        SystemModel(dim=128, V=DiagonalOperator(np.ones(128)),
                    time_dependent=False,
                    _ham_at=lambda tau: DiagonalOperator(diag))


def test_schedule_off_the_linear_ramp_is_refused():
    h0, h1 = -SIGMA_X, -SIGMA_Z

    def quadratic(tau):
        r = tau ** 2
        return DenseOperator((1.0 - r) * h0 + r * h1)

    with pytest.raises(ConfigError):
        SystemModel(dim=2, V=DenseOperator(SIGMA_Z), time_dependent=True,
                    _ham_at=quadratic, t_f=1.0)

    def ramp(tau):
        return DenseOperator((1.0 - tau) * h0 + tau * h1)

    model = SystemModel(dim=2, V=DenseOperator(SIGMA_Z),
                        time_dependent=True, _ham_at=ramp, t_f=1.0)
    assert np.array_equal(model.ramp[1].toarray(), h1)
