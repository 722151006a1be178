"""The benchmark's own tests: every correctness check rejects a wrong answer.

    python3 -m pytest perfbench -q

Each check is fed a consistent result that it must accept and then the same
result with one quantity perturbed just past its tolerance.
"""

import json
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import checks  # noqa: E402
import run  # noqa: E402
from spans import Tracer, self_times, solve_roots, subtree  # noqa: E402


def _copy(tree):
    if isinstance(tree, dict):
        return {key: _copy(value) for key, value in tree.items()}
    return tree.copy() if isinstance(tree, np.ndarray) else tree


# -- respond ----------------------------------------------------------------

def _respond_case():
    omega0 = np.pi
    taus = np.arange(41) * 0.1
    psi = np.exp(-1j * omega0 * taus - 0.3 * taus)
    omegas = np.arange(0.3, 2.2, 0.02) * omega0
    lorentz = 1.0 / (1.0 + ((omegas - omega0) / 0.3) ** 2)
    arrays = {"response_function.times": taus,
              "response_function.values": psi,
              "half_fourier.omegas": omegas,
              "half_fourier.values": -1j * lorentz}
    ref = {"omega0": omega0,
           "psi": {0.0: psi[0], 2.0: psi[20], 4.0: psi[40]}}
    return arrays, ref


def test_respond_check_accepts_consistent_result():
    assert checks.check_respond(*_respond_case()) == []


def _psi0_off(arrays, ref):
    arrays["response_function.values"][0] += 1e-3
    ref["psi"][0.0] = arrays["response_function.values"][0]


def _contour_off(arrays, ref):
    arrays["response_function.values"][20] += 1e-9


def _second_peak(arrays, ref):
    omegas = arrays["half_fourier.omegas"]
    arrays["half_fourier.values"] = arrays["half_fourier.values"] - 1j / (
        1.0 + ((omegas - 1.6 * np.pi) / 0.3) ** 2)


def _peak_moved(arrays, ref):
    omegas = arrays["half_fourier.omegas"]
    arrays["half_fourier.values"] = -1j / (
        1.0 + ((omegas - 1.3 * np.pi) / 0.3) ** 2)


@pytest.mark.parametrize("perturb", [_psi0_off, _contour_off, _second_peak,
                                     _peak_moved])
def test_respond_check_rejects(perturb):
    arrays, ref = _copy(_respond_case())
    perturb(arrays, ref)
    assert len(checks.check_respond(arrays, ref)) == 1


# -- anneal -----------------------------------------------------------------

def _anneal_case():
    Ncal = 10
    times = np.linspace(0.0, 1.0, 11)
    p_ground = 2.0 ** -Ncal + 0.01 * times ** 2
    p_sum = 0.01 + 0.1 * times
    arrays = {"annealing_populations.times": times,
              "annealing_populations.p_ground": p_ground,
              "annealing_populations.p_excited_sum": p_sum,
              "annealing_populations.p_excited_rep": p_sum / Ncal,
              "annealing_populations.trace": 1.0 + 1e-6 * times}
    ref = {"Ncal": Ncal, "times": times.copy(), "p_ground": p_ground.copy(),
           "p_excited_sum": p_sum.copy()}
    return arrays, ref


def test_anneal_check_accepts_consistent_result():
    assert checks.check_anneal(*_anneal_case()) == []


def _dicke_ground_off(arrays, ref):
    ref["p_ground"][5] += 1e-6


def _dicke_sum_off(arrays, ref):
    ref["p_excited_sum"][7] += 1e-9


def _rep_off(arrays, ref):
    arrays["annealing_populations.p_excited_rep"][3] += 1e-10


def _start_off(arrays, ref):
    arrays["annealing_populations.p_ground"][0] += 1e-9
    ref["p_ground"][0] += 1e-9


def _trace_off(arrays, ref):
    arrays["annealing_populations.trace"][-1] += 2e-4


@pytest.mark.parametrize("perturb", [_dicke_ground_off, _dicke_sum_off,
                                     _rep_off, _start_off, _trace_off])
def test_anneal_check_rejects(perturb):
    arrays, ref = _copy(_anneal_case())
    perturb(arrays, ref)
    assert len(checks.check_anneal(arrays, ref)) == 1


def test_dicke_reduction_matches_full_register():
    """The symmetric-subspace model reproduces a small full register."""
    from hseom import annealing_populations, build_components, preset

    cfg = preset("anneal-intermediate").replace("model", "Ncal", 3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        comps = build_components(cfg)
        full = annealing_populations(comps.engine, comps.init, comps.dt,
                                     cfg.require("run", "record").values())
        ref = checks.anneal_reference(comps, cfg)
    np.testing.assert_allclose(full.p_ground, ref["p_ground"], atol=1e-12)
    np.testing.assert_allclose(full.p_excited_sum, ref["p_excited_sum"],
                               atol=1e-12)


# -- dephasing --------------------------------------------------------------

def _dephasing_case():
    times = np.arange(5) * 0.5
    coherence = 0.5 * np.exp(-0.1 * times - 1j * times)
    rho = np.zeros((5, 2, 2), dtype=complex)
    rho[:, 0, 0] = rho[:, 1, 1] = 0.5
    rho[:, 0, 1] = coherence
    rho[:, 1, 0] = coherence.conj()
    arrays = {"rdm_trajectory.0": times, "rdm_trajectory.1": rho}
    ref = {"times": times.copy(), "rho_01": coherence.copy(),
           "populations": np.array([0.5, 0.5])}
    return arrays, ref


def test_dephasing_check_accepts_consistent_result():
    assert checks.check_dephasing(*_dephasing_case()) == []


def _coherence_scaled(arrays, ref):
    rho = arrays["rdm_trajectory.1"]
    rho[:, 0, 1] *= 1.01
    rho[:, 1, 0] *= 1.01


def _population_moved(arrays, ref):
    rho = arrays["rdm_trajectory.1"]
    rho[2, 0, 0] += 1e-7
    rho[2, 1, 1] -= 1e-7


def _not_hermitian(arrays, ref):
    arrays["rdm_trajectory.1"][3, 1, 0] += 1e-5


@pytest.mark.parametrize("perturb", [_coherence_scaled, _population_moved,
                                     _not_hermitian])
def test_dephasing_check_rejects(perturb):
    arrays, ref = _copy(_dephasing_case())
    perturb(arrays, ref)
    assert len(checks.check_dephasing(arrays, ref)) == 1


def test_dephasing_check_rejects_lost_trace():
    arrays, ref = _copy(_dephasing_case())
    arrays["rdm_trajectory.1"][4, 1, 1] -= 2e-6
    failures = checks.check_dephasing(arrays, ref)
    assert any("trace" in line for line in failures)


# -- spans and the metric tables --------------------------------------------

def test_self_times_account_for_the_solve_span():
    tracer = Tracer()
    inner = tracer.wrap("models.apply", lambda: sum(range(20000)))
    middle = tracer.wrap("dynamics.integrate_span",
                         lambda: [inner() for _ in range(3)])
    outer = tracer.wrap("observables.solve", lambda: (middle(), inner()))
    tracer.wrap("cli.main", outer)()
    spans = tracer.spans
    roots = solve_roots(spans)
    assert [spans[i][0] for i in roots] == ["observables.solve"]
    inside = subtree(spans, roots)
    assert len(inside) == 6
    own = self_times(spans)
    solve = spans[roots[0]][2] - spans[roots[0]][1]
    assert sum(own[i] for i in inside) == pytest.approx(solve, abs=1e-9)
    assert min(own) >= 0.0


def test_metric_tables_match_benchmark_json():
    spec = json.loads((Path(__file__).resolve().parents[1]
                       / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        run.PER_LAYER_UNITS
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
