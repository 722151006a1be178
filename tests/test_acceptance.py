"""End-to-end acceptance gate, one numbered criterion per test.

Each test prints a single machine-greppable verdict line.  Budgets are
asserted where a runtime bound is part of the criterion.  Criterion 7's
exponential-cutoff leg defaults to the reduced K = 40 basis with the
documented 20% tolerance; `pytest --full` switches to K = 80 and 10%.
"""

import contextlib
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
from scipy import signal

from hseom import (
    BathExpansion,
    BathSpec,
    Branch,
    ContourEngine,
    HorizonWarning,
    OhmicCircular,
    PureState,
    annealing_populations,
    assemble_generator,
    awf_count,
    build_eta,
    build_space,
    closed_system_propagate,
    compute_coefficients,
    dephasing_exact,
    half_fourier,
    rdm_trajectory,
    reconstruction_error,
    response_function,
    spin_boson,
    pspin_annealing,
    pure_dephasing,
)
from hseom.models import DenseOperator, SystemModel
from hseom.presets import build_components, preset

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@contextlib.contextmanager
def _quiet_horizon():
    # the horizon advisory is deliberately conservative; these presets are
    # convergence-checked, so keep the acceptance log free of it
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", HorizonWarning)
        yield


def test_criterion_01_awf_counts():
    started = time.perf_counter()
    expected = {(80, 3): 91881, (20, 3): 1771, (5, 3): 56, (5, 5): 252}
    ok = True
    for (K, N), count in expected.items():
        ok = ok and awf_count(K, N) == count
        ok = ok and build_space(K, N).num_indices == count
    elapsed = time.perf_counter() - started
    _report(1, ok and elapsed < 1.0,
            f"stack sizes {sorted(expected.values())} in {elapsed:.3f} s")


def test_criterion_02_circular_odd_coefficients():
    started = time.perf_counter()
    worst_pair = worst_rest = 0.0
    for zeta, nu, beta in ((0.35, 6.0, 3.0), (0.2, 2.5, np.inf),
                           (1.1, 1.7, 0.7)):
        spec = BathSpec(OhmicCircular(zeta=zeta, nu=nu), beta, nu, 12)
        c = compute_coefficients(spec).c
        target = -1j * np.pi * zeta * nu ** 2 / 8.0  # (-i)^k carries the -i
        worst_pair = max(worst_pair, abs(c[1] - target), abs(c[3] - target))
        rest = [abs(c[k]) for k in range(5, 12, 2)]
        worst_rest = max(worst_rest, max(rest))
    elapsed = time.perf_counter() - started
    ok = worst_pair < 1e-8 and worst_rest < 1e-8 and elapsed < 1.0
    _report(2, ok, f"c1,c3 off by {worst_pair:.1e}, other odd "
                   f"{worst_rest:.1e}, in {elapsed:.2f} s")


def test_criterion_03_expansion_fidelity():
    grid = np.linspace(0.0, 2.0, 41)
    worst = {}
    for name, density, Omega, K in (
            ("exponential", {"density": "ohmic_exponential",
                             "eta": np.e * 0.35 / 2.0, "gamma": 6.0}, 20.0, 80),
            ("circular", {"density": "ohmic_circular",
                          "zeta": 0.35, "nu": 6.0}, 6.0, 20)):
        from hseom.bath import OhmicExponential
        for beta in (3.0, np.inf):
            if density["density"] == "ohmic_circular":
                dens = OhmicCircular(zeta=density["zeta"], nu=density["nu"])
            else:
                dens = OhmicExponential(eta=density["eta"],
                                        gamma=density["gamma"])
            spec = BathSpec(dens, beta, Omega, K)
            with _quiet_horizon():
                expansion = compute_coefficients(spec)
            label = f"{name}/beta={'inf' if np.isinf(beta) else beta:}"
            worst[label] = reconstruction_error(spec, expansion, grid)
    ok = max(worst.values()) < 1e-4
    detail = ", ".join(f"{k} {v:.1e}" for k, v in worst.items())
    _report(3, ok, detail)


def test_criterion_04_closed_system_equivalence():
    K = 2
    expansion = BathExpansion(Omega=3.0, K=K, c=np.zeros(K, complex),
                              eta=build_eta(K, 3.0),
                              phi_at_zero=np.array([1.0, 0.0]))
    model = spin_boson(np.pi)
    engine = ContourEngine(build_space(K, 2), expansion, model)
    psi0 = np.array([0.6, 0.8], dtype=complex)
    t = 1.0
    turn, final = engine.run(psi0, t, 1e-3)
    exact = closed_system_propagate(model, psi0, t)
    err_forward = float(np.abs(turn[0] - exact).max())
    err_return = float(np.abs(final[0] - psi0).max())
    ok = err_forward <= 1e-9 and err_return <= 1e-9
    _report(4, ok, f"forward vs unitary {err_forward:.1e}, "
                   f"round trip {err_return:.1e} at dt = 1e-3")


def test_criterion_05_generator_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(3)
    worst = 0.0
    instances = []
    for dim, K, n_max in ((2, 3, 2), (2, 5, 1), (4, 2, 2)):
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal(
            (dim, dim))
        b = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal(
            (dim, dim))
        model = SystemModel(
            dim=dim, V=DenseOperator(0.5 * (b + b.conj().T)),
            time_dependent=False,
            _ham_at=lambda tau, m=DenseOperator(0.5 * (a + a.conj().T)): m)
        instances.append((model, K, n_max, 0.0))
    # a schedule at an interior time, where both ramp parts carry weight
    instances.append((pspin_annealing(2, Gamma=1.0, p=3, t_f=1.0), 3, 2,
                      0.37))
    for model, K, n_max, tau in instances:
        spec = BathSpec(OhmicCircular(zeta=0.3, nu=2.0), 3.0, 2.0, K)
        expansion = compute_coefficients(spec)
        space = build_space(K, n_max)
        engine = ContourEngine(space, expansion, model)
        size = space.num_indices * model.dim
        flat = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        for branch in (Branch.C1, Branch.C2):
            gen = assemble_generator(space, expansion, model, tau, branch)
            lhs = engine._deriv_flat(flat, tau, branch.sign)
            rhs = gen.apply(flat)
            scale = max(1.0, float(np.abs(rhs).max()))
            worst = max(worst, float(np.abs(lhs - rhs).max()) / scale)
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-13 and elapsed < 1.0
    _report(5, ok, f"max scaled residual {worst:.2e} over "
                   f"{len(instances)} instances (one scheduled) x 2 "
                   f"branches in {elapsed:.2f} s")


def test_criterion_06_dephasing_oracle():
    started = time.perf_counter()
    spec = BathSpec(OhmicCircular(zeta=0.1, nu=3.0), 3.0, 3.0, 12)
    with _quiet_horizon():
        expansion = compute_coefficients(spec)
    model = pure_dephasing(1.0)
    plus = PureState(np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0))
    times = np.array([0.5, 1.0, 1.5, 2.0])
    h = model.hamiltonian_at(0.0).matrix
    phase = np.exp(-1j * (h[0, 0] - h[1, 1]).real * times)
    exact = np.array([dephasing_exact(spec, 0.5, t) for t in times]) * phase
    exact *= 0.5  # rho_01(0) of the plus state

    coherences = {}
    for n_max in (5, 6):
        engine = ContourEngine(build_space(12, n_max), expansion, model)
        _, rho = rdm_trajectory(engine, plus, 0.0125, times)
        coherences[n_max] = rho[:, 0, 1]
    rel_err = float(np.abs(coherences[5] - exact).max()
                    / np.abs(exact).min())
    budge = float(np.abs(coherences[5] - coherences[6]).max())
    elapsed = time.perf_counter() - started
    ok = rel_err <= 1e-3 and budge <= 1e-4 and elapsed < 120.0
    _report(6, ok, f"relative error {rel_err:.1e}, N_max 5 -> 6 change "
                   f"{budge:.1e}, in {elapsed:.1f} s")


def _spectrum_for(preset_name):
    cfg = preset(preset_name)
    comps = build_components(cfg)
    taus = cfg.require("run", "tau").values()
    with _quiet_horizon():
        result = response_function(comps.engine, taus,
                                   cfg.require("run", "t0"), comps.dt)
    omegas = cfg.require("run", "omega").values()
    spec = half_fourier(result, omegas, part="imag")
    return omegas, -spec.values.imag


def test_criterion_07_response_spectra(full_mode):
    started = time.perf_counter()
    w0 = np.pi
    omegas, circ = _spectrum_for("respond-circular")

    peaks, props = signal.find_peaks(circ, height=0.5 * circ.max())
    peak_omega = omegas[int(np.argmax(circ))]
    in_window = 0.8 * w0 < peak_omega < 1.2 * w0
    single = len(peaks) == 1

    # Measured: the pointwise deviation is 18.6% at K = 40 and at K = 80
    # alike, so it is a property of the two cutoff forms at this coupling
    # (the exponential-cutoff bath carries a larger reorganization energy,
    # eta*gamma = 2.85 vs zeta*nu*pi/4 = 1.65, and redshifts the resonance
    # further), not of the expansion length.  The strict 10% gate under
    # --full therefore fails on physics; it is kept red rather than
    # weakened, and the reduced gate is the supported configuration.
    exp_name = "respond-exponential-full" if full_mode else \
        "respond-exponential"
    tol = 0.10 if full_mode else 0.20
    _, expo = _spectrum_for(exp_name)
    dev = float(np.abs(circ - expo).max() / circ.max())
    elapsed = time.perf_counter() - started
    ok = in_window and single and dev <= tol and elapsed < 1800.0
    _report(7, ok, f"peak at {peak_omega / w0:.3f} w0 ({len(peaks)} "
                   f"dominant), cutoff-form deviation {dev:.1%} "
                   f"(tol {tol:.0%}, {exp_name}), in {elapsed:.0f} s")


def _half_rise_time(t, p):
    half = p[-1] / 2.0
    for i in range(1, len(t)):
        if p[i - 1] < half <= p[i]:
            frac = (half - p[i - 1]) / (p[i] - p[i - 1])
            return float(t[i - 1] + frac * (t[i] - t[i - 1]))
    return float("inf")


def test_criterion_08_annealing_trend():
    started = time.perf_counter()
    traces = {}
    for name in ("anneal-weak", "anneal-intermediate", "anneal-strong"):
        cfg = preset(name)
        comps = build_components(cfg)
        record = cfg.require("run", "record").values()
        with _quiet_horizon():
            traces[name] = annealing_populations(comps.engine, comps.init,
                                                 comps.dt, record)
    final = {k: v.p_ground[-1] for k, v in traces.items()}
    rise = {k: _half_rise_time(v.times, v.p_ground)
            for k, v in traces.items()}
    elapsed = time.perf_counter() - started
    ordering = final["anneal-intermediate"] >= final["anneal-weak"]
    earlier = rise["anneal-strong"] < rise["anneal-intermediate"]
    ok = ordering and earlier and elapsed < 600.0
    _report(8, ok, f"P_ground(t_f) weak {final['anneal-weak']:.4f} <= "
                   f"intermediate {final['anneal-intermediate']:.4f}; "
                   f"half-rise strong {rise['anneal-strong']:.3f} < "
                   f"intermediate {rise['anneal-intermediate']:.3f}; "
                   f"in {elapsed:.0f} s")


def test_criterion_09_rdm_structure():
    started = time.perf_counter()
    cfg = preset("rdm-circular")
    comps = build_components(cfg)
    record = cfg.require("run", "record").values()
    with _quiet_horizon():
        _, rho = rdm_trajectory(comps.engine, comps.init, comps.dt, record)
    herm = float(max(np.abs(r - r.conj().T).max() for r in rho))
    tr = float(max(abs(np.trace(r) - 1.0) for r in rho))

    cfg = preset("thermal-ratio")
    comps = build_components(cfg)
    record = cfg.require("run", "record").values()
    with _quiet_horizon():
        _, rho_w = rdm_trajectory(comps.engine, comps.init, comps.dt, record)
    # excited population over ground population, settled value
    ratio = float(rho_w[-1, 0, 0].real / rho_w[-1, 1, 1].real)
    boltzmann = float(np.exp(-3.0 * 1.0))
    rel = abs(ratio - boltzmann) / boltzmann
    elapsed = time.perf_counter() - started
    ok = herm <= 1e-6 and tr <= 1e-6 and rel <= 0.10 and elapsed < 300.0
    _report(9, ok, f"hermiticity {herm:.1e}, trace {tr:.1e}, "
                   f"population ratio {ratio:.4f} vs e^-3 = "
                   f"{boltzmann:.4f} ({rel:.1%}), in {elapsed:.0f} s")


def test_criterion_10_deterministic_outputs(tmp_path):
    config = CONFIG_DIR / "anneal_weak.ini"
    outs = []
    for run in ("a", "b"):
        out = tmp_path / run
        proc = subprocess.run(
            [sys.executable, "-m", "hseom", "anneal",
             "--config", str(config), "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outs.append(out)
    csvs = sorted(p.name for p in outs[0].glob("*.csv"))
    identical = bool(csvs) and all(
        (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        for name in csvs)
    _report(10, identical,
            f"{len(csvs)} CSV file(s) byte-identical across two runs")
