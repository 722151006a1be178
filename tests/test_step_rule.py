"""The default time step, the generator norm bound it rests on, and the
trace check that stops a run at its first failed record and reruns a
default step at the smaller one it names."""

import math
import re
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

from hseom import (BathSpec, ConfigError, ContourEngine, NumericalError,
                   OhmicCircular, PureState, TraceError, build_space,
                   compute_coefficients, pspin_annealing, response_function,
                   rdm_trajectory, spin_boson)
from hseom.cli import main
from hseom.config import GridSpec, parse_config_file
from hseom.dynamics import (TAYLOR_STEP_NORM, _norm_bound,
                            build_coupling_matrices)
from hseom.observables import (TRACE_TOL, _check_trace,
                               annealing_populations)
from hseom.presets import build_components, effective_dt, grid_unit, preset

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SHIPPED_RUNS = sorted(
    path for path in CONFIG_DIR.glob("*.ini")
    if parse_config_file(path).experiment in ("respond", "anneal", "rdm"))


@pytest.fixture(scope="module")
def small_bath():
    return compute_coefficients(
        BathSpec(OhmicCircular(zeta=0.2, nu=2.0), 3.0, 2.0, 4))


# --------------------------------------------------------- the norm bound

def _sides(engine):
    """The column-sum and row-sum bounds the engine takes the smaller of."""
    E, B = build_coupling_matrices(engine.space, engine.expansion)
    return tuple(_norm_bound(E, B, engine.model, axis) for axis in (0, 1))


# the side that binds, 0 for columns and 1 for rows: the row side on the
# fixed presets, the column side on the anneals
BINDING = {"respond-circular": 1, "dephasing": 1, "anneal-weak": 0,
           "anneal-strong": 0, "anneal-large": 0}


@pytest.mark.parametrize("name", BINDING)
def test_norm_bound_covers_both_ends_of_the_generator(name):
    binding = BINDING[name]
    engine = build_components(preset(name)).engine
    parts = engine.generator_parts
    ends = [engine.flat_generator]
    if len(parts) == 3:  # G(t_f): G_c and -i H(t_f) on every row
        ends.append(parts[0] + sparse.kron(
            sparse.identity(engine.num_awf), parts[2], format="csr"))
    sides = _sides(engine)
    for axis, side in enumerate(sides):
        # ||G||_1 (axis 0) and ||G||_inf (axis 1) at both ends
        exact = [float(abs(G).sum(axis=axis).max()) for G in ends]
        assert max(exact) <= side * (1 + 1e-12)
        # on these models each side is attained
        assert side == pytest.approx(max(exact), rel=1e-12)
    assert engine.norm_bound == min(sides) == sides[binding] \
        < sides[1 - binding]


@pytest.mark.parametrize("scheduled", [False, True])
def test_norm_bound_covers_the_spectrum(scheduled, small_bath):
    model = pspin_annealing(2, Gamma=1.0, p=3, t_f=1.0) if scheduled \
        else spin_boson(1.0)
    engine = ContourEngine(build_space(4, 2), small_bath, model)
    # the row side binds on both engines (5.5 against 7.8 fixed, 10.0
    # against 10.3 scheduled), so the eigenvalues check it
    column, row = _sides(engine)
    assert engine.norm_bound == row < column
    for tau in (0.0, 0.4, 1.0):
        G = engine._deriv_flat(np.eye(engine.num_awf * engine.dim), tau,
                               1.0)
        assert np.abs(np.linalg.eigvals(G)).max() <= engine.norm_bound
    assert engine.transpose().norm_bound == engine.norm_bound


# ------------------------------------------------------- the default step

@pytest.mark.parametrize("path", SHIPPED_RUNS, ids=lambda p: p.stem)
def test_default_dt_divides_the_grid_and_bounds_the_norm(path):
    cfg = parse_config_file(path)
    comps = build_components(cfg)
    ratio = grid_unit(cfg) / comps.dt
    assert ratio == pytest.approx(round(ratio), abs=1e-9)
    assert comps.dt_norm == comps.dt * comps.engine.norm_bound
    # the bound on every Taylor factor's exponent: dt times the norm bound
    # for a fixed G, dt/2 times it for each of a schedule's two factors
    bound = comps.engine.step_norm
    assert bound == TAYLOR_STEP_NORM * (2 if cfg.experiment == "anneal"
                                        else 1)
    assert comps.dt_norm <= bound + 1e-12
    # the next larger divisor of the grid unit would break the bound
    if round(ratio) > 1:
        larger = grid_unit(cfg) / (round(ratio) - 1)
        assert larger * comps.engine.norm_bound > bound


# default steps per unit of time; the unit grid step is 0.1, 0.25 or 0.5
STEPS_PER_UNIT = {
    "respond-circular": 10, "respond-exponential": 30,
    "anneal-weak": 10, "anneal-intermediate": 10,
    "anneal-strong": 10, "anneal-large": 10,
    "rdm-circular": 8, "thermal-ratio": 4, "dephasing": 6}


@pytest.mark.parametrize("name", STEPS_PER_UNIT)
def test_default_dt_per_preset(name):
    assert build_components(preset(name)).dt == pytest.approx(
        1.0 / STEPS_PER_UNIT[name], rel=1e-12)


def test_a_grid_offset_divides_the_unit():
    # the unit is the spacing / q for the least q that puts the offset on
    # a whole number of units; the shipped grids start on their spacing
    record = preset("anneal-weak")
    assert grid_unit(record) == 0.1
    assert grid_unit(record.replace(
        "run", "record", GridSpec(0.05, 0.95, 0.1))) == 0.05
    lag = preset("respond-circular")
    assert grid_unit(lag) == 0.1
    assert grid_unit(lag.replace("run", "t0", 2.03)) == 0.1 / 10
    with pytest.raises(ConfigError, match=r"set \[integrator\] dt") as info:
        grid_unit(lag.replace("run", "t0", math.pi))
    assert (info.value.section, info.value.key) == ("run", "t0")


def test_explicit_dt_overrides_the_default():
    cfg = preset("rdm-circular").replace("integrator", "dt", 0.0125)
    comps = build_components(cfg)
    assert comps.dt == 0.0125
    assert comps.dt_norm == 0.0125 * comps.engine.norm_bound
    assert effective_dt(cfg, comps.engine) == 0.0125


def _outputs(cfg, comps, dt):
    if cfg.experiment == "respond":
        return response_function(comps.engine, cfg.require("run", "tau")
                                 .values(), cfg.require("run", "t0"),
                                 dt).values
    record = cfg.require("run", "record").values()
    if cfg.experiment == "anneal":
        trace = annealing_populations(comps.engine, comps.init, dt, record)
        return np.stack([trace.p_ground, trace.p_excited_rep,
                         trace.p_excited_sum])
    return rdm_trajectory(comps.engine, comps.init, dt, record)[1]


# every run preset but the two costly respond-exponential ones; the
# anneals step once per record interval, where the grid rather than
# TAYLOR_STEP_NORM caps the step
@pytest.mark.parametrize("name", [
    "anneal-weak", "anneal-strong", "rdm-circular", "thermal-ratio",
    "respond-circular", "dephasing", "anneal-intermediate", "anneal-large"])
def test_default_dt_is_converged(name):
    cfg = preset(name)
    comps = build_components(cfg)
    got = _outputs(cfg, comps, comps.dt)
    reference = _outputs(cfg, comps, comps.dt / 4)
    assert np.abs(got - reference).max() < 1e-5


# ------------------------------------------------------- trace refusal

# the Taylor step keeps this engine's trace within 1e-4 even a little past
# its stability radius 3.39: at dt = 1, dt * rho(G) = 4.2, it leaves 1 by
# 7.2e-5 at most.  At dt = 1.25, dt * rho(G) = 5.3, the trace is lost.
COARSE = 1.25


def test_rdm_refuses_a_lost_trace_and_names_a_step(small_bath):
    engine = ContourEngine(build_space(4, 2), small_bath, spin_boson(1.0))
    init = PureState(np.array([1.0, 1.0]) / np.sqrt(2.0))
    times = [0.0, COARSE, 2 * COARSE]
    with pytest.raises(NumericalError, match="tr rho leaves 1") as caught:
        rdm_trajectory(engine, init, COARSE, times)
    finer = float(re.search(r"dt = (\S+) \(dt / 2\)",
                            str(caught.value)).group(1))
    assert finer == COARSE / 2 == caught.value.retry_dt
    # the step the message names is accepted
    _, rho, _ = rdm_trajectory(engine, init, finer, times)
    assert np.abs(np.trace(rho, axis1=1, axis2=2) - 1).max() <= TRACE_TOL


def test_a_nan_trace_error_is_refused():
    # NaN compares false with every bound, so "error > TRACE_TOL" passed it
    with pytest.raises(NumericalError, match="NaN"):
        _check_trace(float("nan"), 0.1, "tr rho")


def test_an_infinite_trace_error_is_refused():
    # finite states can overflow in the readout; no step divides inf away
    with pytest.raises(NumericalError, match="infinite"):
        _check_trace(math.inf, 0.1, "tr rho")
    assert _check_trace(TRACE_TOL, 0.1, "tr rho") == TRACE_TOL


def test_response_refuses_a_lost_trace(small_bath):
    engine = ContourEngine(build_space(4, 2), small_bath, spin_boson(1.0))
    taus = np.arange(3) * COARSE
    with pytest.raises(NumericalError, match=r"Psi\(0\)"):
        response_function(engine, taus, 2 * COARSE, COARSE)
    result = response_function(engine, taus, 2 * COARSE, COARSE / 2)
    assert result.metadata["max_trace_error"] == abs(result.values[0] - 1)
    assert result.metadata["max_trace_error"] <= TRACE_TOL


def _spans_taken(monkeypatch):
    """Steps of every integrate_span call from now on, in call order."""
    taken = []
    original = ContourEngine.integrate_span

    def counted(self, y, step0, n_steps, *args, **kwargs):
        taken.append(n_steps)
        return original(self, y, step0, n_steps, *args, **kwargs)

    monkeypatch.setattr(ContourEngine, "integrate_span", counted)
    return taken


def test_a_lost_trace_stops_the_sweeps_at_its_record(small_bath,
                                                     monkeypatch):
    engine = ContourEngine(build_space(4, 2), small_bath, spin_boson(1.0))
    init = PureState(np.array([1.0, 1.0]) / np.sqrt(2.0))
    taken = _spans_taken(monkeypatch)
    with pytest.raises(TraceError, match=r"leaves 1 by .* dt = 1\.25;"):
        rdm_trajectory(engine, init, COARSE, [0.0, COARSE, 2 * COARSE])
    # the first record past t = 0 fails, so neither sweep steps on
    assert taken == [1, 1]
    # respond reads Psi(0) at t0 and steps no lag after it fails
    taken.clear()
    with pytest.raises(TraceError, match=r"Psi\(0\)"):
        response_function(engine, np.arange(3) * COARSE, 2 * COARSE,
                          COARSE)
    assert taken == [2, 2]


def _strong_field(tmp_path, extra=""):
    # Gamma = 40: the default dt is stable, but too coarse for the trace
    text = (CONFIG_DIR / "anneal_weak.ini").read_text()
    assert "Gamma = 1.0" in text
    path = tmp_path / "strong.ini"
    path.write_text(text.replace("Gamma = 1.0", "Gamma = 40.0") + extra)
    return path


def _run_counted(path, out, monkeypatch):
    """Exit code of an anneal run, and the dt of each observable call."""
    from hseom import cli
    calls = []
    original = cli.annealing_populations

    def counted(engine, init, dt, record):
        calls.append(dt)
        return original(engine, init, dt, record)

    monkeypatch.setattr(cli, "annealing_populations", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main(["anneal", "--config", str(path), "--out", str(out)])
    return code, calls


def test_strong_transverse_field_exits_3(tmp_path, capsys, monkeypatch):
    # an explicit step is never changed: dt = 1/30, coarser than the
    # default 1/40, set explicitly fails once and exits
    path = _strong_field(tmp_path, f"\n[integrator]\ndt = {1 / 30!r}\n")
    code, calls = _run_counted(path, tmp_path / "out", monkeypatch)
    assert code == 3
    assert calls == [1 / 30]
    assert "set [integrator] dt" in capsys.readouterr().err


def test_a_failed_default_step_is_retried(tmp_path, capsys, monkeypatch):
    path = _strong_field(tmp_path)
    threads = threading.active_count()
    code, calls = _run_counted(path, tmp_path / "out", monkeypatch)
    # the first record past t = 0 leaves 1 by 1.4e-2 at dt = 1/40, so the
    # dt^4 law names dt / 4, which passes
    assert code == 0
    assert calls == [1 / 40, 1 / 40 / 4]
    assert "retrying at dt" in capsys.readouterr().err
    # the early stop left no worker thread behind
    assert threading.active_count() == threads
    entries = {}
    for line in (tmp_path / "out" / "manifest").read_text() \
            .split("--- config ---")[0].splitlines():
        if " = " in line:
            key, value = line.split(" = ", 1)
            entries[key] = value
    # the manifest reports the step that ran, not the first one
    assert entries["attempts"] == "2"
    assert float(entries["dt"]) == calls[-1]
    engine = build_components(parse_config_file(path)).engine
    assert float(entries["dt_norm"]) == calls[-1] * engine.norm_bound
    assert float(entries["max_trace_error"]) <= TRACE_TOL
