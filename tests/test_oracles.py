"""Cross-checks between the brute-force references and the production path.

The oracle generator and the engine RHS are written against the same
definitions by entirely separate code; agreement to near machine precision
on several (dim, K, N_max) instances is the core correctness argument.
"""

import re
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate, sparse

from hseom import (
    BathSpec,
    ContourEngine,
    OhmicCircular,
    PureState,
    ResourceLimitError,
    annealing_populations,
    assemble_generator,
    build_components,
    build_space,
    closed_schedule_propagate,
    closed_system_propagate,
    compute_coefficients,
    dephasing_exact,
    parse_config_file,
    preset,
    pspin_annealing,
    pspin_register,
    serialize_config,
    spin_boson,
)
from hseom.cli import main
from hseom.models import DenseOperator, SystemModel
from hseom.reporting import read_csv

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


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


# sign +1 is the forward branch C1, -1 the backward branch C2; the ids
# name the branch
branches = pytest.mark.parametrize("sign", [1.0, -1.0],
                                   ids=["Branch.C1", "Branch.C2"])


def _engine_vs_oracle(space, expansion, model, tau, sign, rng):
    """Largest entry of the engine's derivative minus the oracle's."""
    engine = ContourEngine(space, expansion, model)
    size = space.num_indices * model.dim
    flat = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    oracle = assemble_generator(space, expansion, model, tau, sign)
    via_matrix = oracle @ flat
    via_engine = engine._deriv_flat(flat, tau, sign)
    return float(np.abs(via_matrix - via_engine).max())


@pytest.mark.parametrize("dim,K,n_max", [(2, 3, 2), (2, 5, 1), (4, 2, 2)])
@branches
def test_generator_matches_engine_rhs(dim, K, n_max, sign, rng):
    model = _random_model(dim, rng)
    assert _engine_vs_oracle(build_space(K, n_max), _expansion(K), model,
                             0.0, sign, rng) < 1e-13


@branches
def test_generator_matches_engine_rhs_on_a_schedule(sign, rng):
    # interior tau, where both ramp parts of G(tau) carry weight
    model = pspin_annealing(2, Gamma=1.0, p=3, t_f=1.0)
    assert _engine_vs_oracle(build_space(3, 2), _expansion(3), model,
                             0.37, sign, rng) < 1e-13


@branches
@pytest.mark.parametrize("at", [0.0, 0.37, 1.0])
@pytest.mark.parametrize("columns", [None, 3], ids=["state", "block"])
@pytest.mark.parametrize("n_max", [2, 0])
def test_scheduled_rhs_matches_the_oracle_through_the_ramp(n_max, at,
                                                           columns, sign,
                                                           rng):
    # H(tau) on the system axis, at both ends of the ramp and inside it,
    # on one flat state and on a block of flat columns, complex and real;
    # N_max = 0 leaves one hierarchy row, where the system axis is already
    # the leading one
    t_f = 2.5
    model = pspin_annealing(2, Gamma=1.0, p=3, t_f=t_f)
    space, expansion = build_space(3, n_max), _expansion(3)
    engine = ContourEngine(space, expansion, model)
    shape = (space.num_indices * model.dim,) + ((columns,) if columns
                                                 else ())
    flat = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    tau = at * t_f
    oracle = assemble_generator(space, expansion, model, tau, sign)
    for state in (flat, flat.real):
        kept = state.copy()
        via_engine = engine._deriv_flat(state, tau, sign)
        assert np.array_equal(state, kept)
        assert via_engine.shape == shape
        via_matrix = oracle @ state
        assert np.abs(via_matrix - via_engine).max() \
            < 1e-13 * np.abs(via_matrix).max()


def test_generator_branches_are_negatives(rng):
    space = build_space(3, 2)
    expansion = _expansion(3)
    model = _random_model(2, rng)
    g1 = assemble_generator(space, expansion, model, 0.0, 1.0)
    g2 = assemble_generator(space, expansion, model, 0.0, -1.0)
    diff = sparse.csr_matrix(g1 + g2)
    assert np.abs(diff.toarray()).max() == 0.0


def test_generator_refuses_large_instances():
    space = build_space(12, 5)  # 6188 indices x dim 2 exceeds the cap
    expansion = _expansion(12)
    with pytest.raises(ResourceLimitError):
        assemble_generator(space, expansion, spin_boson(1.0), 0.0, 1.0)


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
    # independent fine-step RK4 in the test on H(0) and H(t_f), read dense
    # once and ramped linearly, as SystemModel's contract has it
    model = pspin_annealing(2, Gamma=1.0, p=2, t_f=1.0)
    dim = model.dim
    psi0 = np.ones(dim, dtype=complex) / np.sqrt(dim)
    h0, h1 = (model.hamiltonian_at(tau).to_dense() for tau in (0.0, 1.0))
    for tau in (0.1, 0.5, 0.75):
        assert np.abs(model.hamiltonian_at(tau).to_dense()
                      - ((1.0 - tau) * h0 + tau * h1)).max() < 1e-15

    def deriv(tau, psi):
        return -1j * (((1.0 - tau) * h0 + tau * h1) @ psi)

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
    model = pspin_register(7, Gamma=1.0, p=3, t_f=1.0)
    frozen = _fixed_model(model.hamiltonian_at(0.0).to_dense(),
                          np.eye(model.dim))
    with pytest.raises(ResourceLimitError):
        closed_system_propagate(frozen, np.zeros(model.dim, dtype=complex),
                                1.0)



def _anneal_vs_register(cfg, tmp_path):
    """Largest difference of ``hseom anneal``'s P_ground, P_e_rep and
    P_e_sum, and of its trace, from the same anneal on the full register
    at the step the run took."""
    path = tmp_path / "run.ini"
    path.write_text(serialize_config(cfg))
    assert main(["anneal", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 0
    header, data = read_csv(tmp_path / "out" / "populations.csv")
    manifest = (tmp_path / "out" / "manifest").read_text()
    dt = float(re.search(r"^dt = (.*)$", manifest, re.M).group(1))
    comps = build_components(cfg)
    record = cfg.require("run", "record").values()
    Ncal = cfg.require("model", "Ncal")
    register = ContourEngine(comps.space, comps.expansion, pspin_register(
        Ncal, *(cfg.require("model", key) for key in ("Gamma", "p", "t_f"))))
    flat = PureState(np.full(2 ** Ncal, 2.0 ** (-Ncal / 2)))
    full = annealing_populations(register, flat, dt, record)
    ours = annealing_populations(comps.engine, comps.init, dt, record)
    assert np.array_equal(data[:, 0], full.times)
    return max([float(np.abs(data[:, header.index(column)]
                             - getattr(full, key)).max())
                for column, key in (("P_ground", "p_ground"),
                                    ("P_e_rep", "p_excited_rep"),
                                    ("P_e_sum", "p_excited_sum"))]
               + [float(np.abs(ours.trace - full.trace).max())])


@pytest.mark.parametrize("cfg", [
    preset("anneal-intermediate").replace("model", "Ncal", 3),
    parse_config_file(CONFIG_DIR / "anneal_large.ini")],
    ids=["intermediate-Ncal3", "anneal_large"])
def test_anneal_matches_the_full_register(cfg, tmp_path):
    # the run on the Ncal + 1 symmetric states against the 2^Ncal-state
    # register, whose representative excited state is its lowest-index
    # single flip
    assert _anneal_vs_register(cfg, tmp_path) < 1e-12
