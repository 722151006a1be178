"""The default time step, the generator norm bound it rests on, and the
trace refusal that checks the step after the run."""

import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from hseom import (BathSpec, ContourEngine, NumericalError, OhmicCircular,
                   PureState, build_space, compute_coefficients,
                   pspin_annealing, response_function, rdm_trajectory,
                   spin_boson)
from hseom.cli import main
from hseom.config import parse_config_file
from hseom.observables import TRACE_TOL, annealing_populations
from hseom.presets import (STEP_NORM, build_components, effective_dt,
                           grid_unit, preset)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SHIPPED_RUNS = sorted(
    path for path in CONFIG_DIR.glob("*.ini")
    if parse_config_file(path).experiment in ("respond", "anneal", "rdm"))


@pytest.fixture(scope="module")
def small_bath():
    return compute_coefficients(
        BathSpec(OhmicCircular(zeta=0.2, nu=2.0), 3.0, 2.0, 4))


# --------------------------------------------------------- the norm bound

@pytest.mark.parametrize("name", ["respond-circular", "dephasing",
                                  "anneal-weak", "anneal-strong"])
def test_norm_bound_covers_both_ends_of_the_generator(name):
    engine = build_components(preset(name)).engine
    parts = engine.generator_parts
    ends = [engine.flat_generator]
    if len(parts) == 3:
        ends.append(parts[0] + parts[2])  # G(t_f)
    for G in ends:
        exact = float(abs(G).sum(axis=0).max())
        assert exact <= engine.norm_bound * (1 + 1e-12)
    # on these models the column-sum bound is attained
    assert engine.norm_bound == pytest.approx(
        max(float(abs(G).sum(axis=0).max()) for G in ends), rel=1e-12)


@pytest.mark.parametrize("scheduled", [False, True])
def test_norm_bound_covers_the_spectrum(scheduled, small_bath):
    model = pspin_annealing(2, Gamma=1.0, p=3, t_f=1.0) if scheduled \
        else spin_boson(1.0)
    engine = ContourEngine(build_space(4, 2), small_bath, model)
    for tau in (0.0, 0.4, 1.0):
        G = engine._deriv_flat(np.eye(engine.num_awf * engine.dim), tau,
                               1.0)
        assert np.abs(np.linalg.eigvals(G)).max() <= engine.norm_bound
    assert engine.adjoint().norm_bound == engine.norm_bound


# ------------------------------------------------------- the default step

@pytest.mark.parametrize("path", SHIPPED_RUNS, ids=lambda p: p.stem)
def test_default_dt_divides_the_grid_and_bounds_the_norm(path):
    cfg = parse_config_file(path)
    comps = build_components(cfg)
    ratio = grid_unit(cfg) / comps.dt
    assert ratio == pytest.approx(round(ratio), abs=1e-9)
    assert comps.dt_norm == comps.dt * comps.engine.norm_bound
    assert comps.dt_norm <= STEP_NORM + 1e-12
    # the next larger divisor of the grid unit would break the bound
    if round(ratio) > 1:
        larger = grid_unit(cfg) / (round(ratio) - 1)
        assert larger * comps.engine.norm_bound > STEP_NORM


@pytest.mark.parametrize("name, steps_per_unit", [
    ("respond-circular", 70), ("respond-exponential", 230),
    ("anneal-weak", 30), ("anneal-intermediate", 30),
    ("anneal-strong", 90), ("anneal-large", 60),
    ("rdm-circular", 68), ("thermal-ratio", 20), ("dephasing", 50)])
def test_default_dt_per_preset(name, steps_per_unit):
    # per unit of time: the unit grid step is 0.1, 0.25 or 0.5
    assert build_components(preset(name)).dt == pytest.approx(
        1.0 / steps_per_unit, rel=1e-12)


def test_explicit_dt_overrides_the_default():
    cfg = preset("rdm-circular").replace("integrator", "dt", 0.0125)
    comps = build_components(cfg)
    assert comps.dt == 0.0125
    assert comps.dt_norm == 0.0125 * comps.engine.norm_bound
    assert effective_dt(cfg, 1e9) == 0.0125


def _outputs(cfg, comps, dt):
    record = cfg.require("run", "record").values()
    if cfg.experiment == "anneal":
        trace = annealing_populations(comps.engine, comps.init, dt, record)
        return np.stack([trace.p_ground, trace.p_excited_rep,
                         trace.p_excited_sum])
    return rdm_trajectory(comps.engine, comps.init, dt, record)[1]


@pytest.mark.parametrize("name", ["anneal-weak", "anneal-strong",
                                  "rdm-circular", "thermal-ratio"])
def test_default_dt_is_converged(name):
    cfg = preset(name)
    comps = build_components(cfg)
    got = _outputs(cfg, comps, comps.dt)
    reference = _outputs(cfg, comps, comps.dt / 4)
    assert np.abs(got - reference).max() < 1e-5


# ------------------------------------------------------- trace refusal

def test_rdm_refuses_a_lost_trace_and_names_a_step(small_bath):
    engine = ContourEngine(build_space(4, 2), small_bath, spin_boson(1.0))
    init = PureState(np.array([1.0, 1.0]) / np.sqrt(2.0))
    times = [0.0, 1.0, 2.0]
    with pytest.raises(NumericalError, match="tr rho leaves 1") as caught:
        rdm_trajectory(engine, init, 0.5, times)
    finer = float(re.search(r"dt = (\S+) \(dt / 2\)",
                            str(caught.value)).group(1))
    assert finer == 0.25
    # the step the message names is accepted
    _, rho = rdm_trajectory(engine, init, finer, times)
    assert np.abs(np.trace(rho, axis1=1, axis2=2) - 1).max() <= TRACE_TOL


def test_response_refuses_a_lost_trace(small_bath):
    engine = ContourEngine(build_space(4, 2), small_bath, spin_boson(1.0))
    taus = np.arange(3) * 0.5
    with pytest.raises(NumericalError, match=r"Psi\(0\)"):
        response_function(engine, taus, 1.0, 0.5)
    result = response_function(engine, taus, 1.0, 0.25)
    assert result.metadata["max_trace_error"] == abs(result.values[0] - 1)
    assert result.metadata["max_trace_error"] <= TRACE_TOL


def test_strong_transverse_field_exits_3(tmp_path, capsys):
    # Gamma = 40: the default dt is stable, but too coarse for the trace
    text = (CONFIG_DIR / "anneal_weak.ini").read_text()
    assert "Gamma = 1.0" in text
    path = tmp_path / "strong.ini"
    path.write_text(text.replace("Gamma = 1.0", "Gamma = 40.0"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(["anneal", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 3
    assert "set [integrator] dt" in capsys.readouterr().err
