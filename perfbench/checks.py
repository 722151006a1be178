"""Correctness checks on what one workload execution returned.

Each workload has a reference builder, run once per benchmark run after
the timed region, and a check that compares one execution's arrays with
it.  The references are independent computations (the definitional full
contour, a permutation-symmetric reduction of the register, an
expansion-free dephasing factor) or properties the method must have, never
a stored copy of earlier output.  A check returns the list of what failed;
an empty list is a pass.
"""

from __future__ import annotations

import math
from typing import Dict, List

import numpy as np
from scipy import signal

from hseom import (ContourEngine, DenseOperator, PureState, SystemModel,
                   annealing_populations, dephasing_exact,
                   two_body_correlation)
from hseom.models import SIGMA_X

# lags at which the batched response is compared with the full contour
RESPONSE_LAGS = (0.0, 2.0, 4.0)


def _fail(failures: List[str], ok: bool, message: str) -> None:
    if not ok:
        failures.append(message)


def _at(times: np.ndarray, value: float) -> int:
    i = int(np.argmin(np.abs(times - value)))
    if abs(times[i] - value) > 1e-9:
        raise ValueError(f"time {value} is not on the output grid")
    return i


# -- respond-circular -------------------------------------------------------

def respond_reference(comps, cfg) -> Dict:
    """Psi at a few lags from the full contour, which shares no batching."""
    t0 = cfg.require("run", "t0")
    sx = DenseOperator(SIGMA_X)
    ket1 = PureState(np.array([0.0, 1.0]))
    return {
        "omega0": cfg.require("model", "omega0"),
        "psi": {tau: two_body_correlation(comps.engine, sx, sx, t0 + tau, t0,
                                          ket1, comps.dt)
                for tau in RESPONSE_LAGS},
    }


def check_respond(arrays: Dict, ref: Dict) -> List[str]:
    failures: List[str] = []
    taus = arrays["response_function.times"]
    psi = arrays["response_function.values"]
    # sigma_x sigma_x = 1, so Psi(0) = tr rho(t0) = 1
    _fail(failures, abs(psi[_at(taus, 0.0)] - 1.0) <= 1e-6,
          f"Psi(0) = {psi[0]} is not 1 to 1e-6")
    for tau, value in ref["psi"].items():
        got = psi[_at(taus, tau)]
        _fail(failures, abs(got - value) <= 1e-10,
              f"Psi({tau}) = {got} differs from the full contour "
              f"{value} by {abs(got - value):.2e}")
    omegas = arrays["half_fourier.omegas"]
    response = -arrays["half_fourier.values"].imag
    peaks, _ = signal.find_peaks(response, height=0.5 * response.max())
    peak = omegas[int(np.argmax(response))] / ref["omega0"]
    _fail(failures, len(peaks) == 1 and 0.8 < peak < 1.2,
          f"{len(peaks)} dominant spectral peaks, highest at {peak:.3f} "
          "omega0; want one in (0.8, 1.2) omega0")
    return failures


# -- anneal-large -----------------------------------------------------------

def dicke_model(model, Ncal: int, Gamma: float, p: int) -> SystemModel:
    """The p-spin schedule on the Ncal + 1 permutation-symmetric states.

    Basis state k holds k up spins (sigma_z = +1), so m = 2k - Ncal.  The
    transverse field -Gamma sum_i sigma_i^x couples k to k +- 1 with the
    collective-spin matrix elements; the target and the coupling are
    diagonal in m.
    """
    k = np.arange(Ncal + 1)
    m = 2.0 * k - Ncal
    up = np.sqrt((Ncal - k[:-1]) * (k[:-1] + 1.0))
    h0 = -Gamma * (np.diag(up, -1) + np.diag(up, 1)).astype(complex)
    h1 = np.diag(-Ncal * (m / Ncal) ** p).astype(complex)
    t_f = model.t_f

    def ham_at(tau):
        r = tau / t_f
        return DenseOperator((1.0 - r) * h0 + r * h1)

    return SystemModel(dim=Ncal + 1, V=DenseOperator(np.diag(m)),
                       time_dependent=True, _ham_at=ham_at, t_f=t_f)


def anneal_reference(comps, cfg) -> Dict:
    """The same anneal on the symmetric subspace, same hierarchy and dt.

    The uniform start, the schedule and the coupling sum_i sigma_i^z are
    all invariant under qubit permutations, so the full-register run never
    leaves that subspace and its populations must agree.
    """
    Ncal = cfg.require("model", "Ncal")
    model = dicke_model(comps.model, Ncal, cfg.require("model", "Gamma"),
                        cfg.require("model", "p"))
    start = np.sqrt(np.array([math.comb(Ncal, k) for k in range(Ncal + 1)])
                    / 2.0 ** Ncal)
    engine = ContourEngine(comps.space, comps.expansion, model)
    trace = annealing_populations(engine, PureState(start), comps.dt,
                                  cfg.require("run", "record").values())
    return {"Ncal": Ncal, "times": trace.times, "p_ground": trace.p_ground,
            "p_excited_sum": trace.p_excited_sum}


def check_anneal(arrays: Dict, ref: Dict) -> List[str]:
    failures: List[str] = []
    name = "annealing_populations"
    times = arrays[f"{name}.times"]
    p_ground = arrays[f"{name}.p_ground"]
    p_sum = arrays[f"{name}.p_excited_sum"]
    p_rep = arrays[f"{name}.p_excited_rep"]
    trace = arrays[f"{name}.trace"]
    Ncal = ref["Ncal"]
    _fail(failures, np.array_equal(times, ref["times"]),
          "record times differ from the symmetric-subspace run")
    for label, got, want in (("P_ground", p_ground, ref["p_ground"]),
                             ("P_e_sum", p_sum, ref["p_excited_sum"])):
        dev = float(np.abs(got - want).max())
        _fail(failures, dev <= 1e-10,
              f"{label} differs from the symmetric-subspace run by {dev:.2e}")
    dev = float(np.abs(p_rep * Ncal - p_sum).max())
    _fail(failures, dev <= 1e-12,
          f"P_e_rep * Ncal differs from P_e_sum by {dev:.2e}")
    _fail(failures, abs(p_ground[0] - 2.0 ** -Ncal) <= 1e-12,
          f"P_ground(0) = {p_ground[0]!r}, want 2^-{Ncal}")
    dev = float(np.abs(trace - 1.0).max())
    _fail(failures, dev <= 1e-4, f"trace leaves 1 by {dev:.2e}")
    return failures


# -- dephasing --------------------------------------------------------------

def dephasing_reference(comps, cfg) -> Dict:
    """Expansion-free rho(t) for a coupling that commutes with H.

    Populations stay put; the coherence is rho_01(0) times the free phase
    times the exact bath factor from quadrature of alpha(t).
    """
    times = cfg.require("run", "record").values()
    h = comps.model.hamiltonian_at(0.0).to_dense()
    v = comps.model.V.to_dense()
    if np.abs(v - np.diag(np.diag(v))).max() or \
            np.abs(h - np.diag(np.diag(h))).max():
        raise ValueError("dephasing reference needs diagonal H and V")
    rho0 = comps.init.density()
    scale = 0.5 * float((v[1, 1] - v[0, 0]).real)  # V = scale sigma_z
    phase = np.exp(-1j * (h[0, 0] - h[1, 1]).real * times)
    factor = np.array([dephasing_exact(comps.bath_spec, scale, t)
                       for t in times])
    return {"times": times, "rho_01": rho0[0, 1] * factor * phase,
            "populations": np.diag(rho0).real}


def check_dephasing(arrays: Dict, ref: Dict) -> List[str]:
    failures: List[str] = []
    times = arrays["rdm_trajectory.0"]
    rho = arrays["rdm_trajectory.1"]
    _fail(failures, np.array_equal(times, ref["times"]),
          "record times differ from the configured grid")
    exact = ref["rho_01"]
    rel = float(np.abs(rho[:, 0, 1] - exact).max() / np.abs(exact).min())
    _fail(failures, rel <= 1e-3,
          f"coherence differs from the exact factor by {rel:.2e} relative")
    pops = np.stack([rho[:, i, i].real for i in range(rho.shape[1])], axis=1)
    dev = float(np.abs(pops - ref["populations"]).max())
    _fail(failures, dev <= 1e-8, f"populations move by {dev:.2e}")
    herm = float(np.abs(rho - rho.conj().transpose(0, 2, 1)).max())
    _fail(failures, herm <= 1e-6, f"rho is not Hermitian to {herm:.2e}")
    tr = float(np.abs(np.trace(rho, axis1=1, axis2=2) - 1.0).max())
    _fail(failures, tr <= 1e-6, f"trace leaves 1 by {tr:.2e}")
    return failures


REFERENCES = {"respond": respond_reference, "anneal": anneal_reference,
              "rdm": dephasing_reference}
CHECKS = {"respond": check_respond, "anneal": check_anneal,
          "rdm": check_dephasing}
