"""Config file grammar, resource preflight, and the command-line surface."""

import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from hseom import ConfigError, HorizonWarning
from hseom.cli import main, preflight
from hseom.config import (GridSpec, horizon_of, parse_config,
                          parse_config_file, serialize_config,
                          validate_config)
from hseom.presets import PRESETS, build_components, preset
from hseom.reporting import (_ticks, line_plot, read_csv, write_csv,
                             write_manifest)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


# ---------------------------------------------------------------- config

@pytest.mark.parametrize("name", sorted(PRESETS))
def test_preset_round_trip(name):
    cfg = preset(name)
    text = serialize_config(cfg)
    again = parse_config(text)
    assert again.data == cfg.data
    assert serialize_config(again) == text


def test_shipped_configs_match_presets():
    for name, cfg in PRESETS.items():
        path = CONFIG_DIR / (name.replace("-", "_") + ".ini")
        assert parse_config(path.read_text()).data == cfg.data


def test_beta_inf_round_trip():
    cfg = preset("anneal-weak")
    assert math.isinf(cfg.require("bath", "beta_hbar"))
    assert "beta_hbar = inf" in serialize_config(cfg)


def test_parse_rejects_unknown_section():
    with pytest.raises(ConfigError):
        parse_config("[experiment]\nkind = rdm\n[nonsense]\nx = 1\n")


def test_parse_rejects_unknown_key():
    with pytest.raises(ConfigError):
        parse_config("[experiment]\nkind = rdm\n[bath]\ncolor = blue\n")


def test_parse_rejects_bad_value():
    with pytest.raises(ConfigError):
        parse_config("[experiment]\nkind = rdm\n[bath]\nzeta = lots\n")
    with pytest.raises(ConfigError):
        parse_config("[experiment]\nkind = rdm\n[run]\nrecord = 0:1\n")


def test_parse_requires_experiment_kind():
    with pytest.raises(ConfigError):
        parse_config("[bath]\nzeta = 0.1\n")


def test_validate_catches_missing_and_cross_field():
    base = preset("respond-circular")
    broken = dict(base.data)
    broken["run"] = {k: v for k, v in base.data["run"].items() if k != "tau"}
    with pytest.raises(ConfigError):
        validate_config(type(base)(broken))

    with pytest.raises(ConfigError):
        validate_config(base.replace("bath", "density", "drude"))
    with pytest.raises(ConfigError):
        validate_config(base.replace("model", "kind", "pspin"))
    with pytest.raises(ConfigError):
        validate_config(preset("anneal-weak").replace("model", "kind",
                                                      "spin_boson"))
    with pytest.raises(ConfigError):
        validate_config(preset("rdm-circular").replace("run", "init",
                                                       "soup"))
    with pytest.raises(ConfigError):
        validate_config(base.replace("experiment", "kind", "froth"))


def test_horizon_per_experiment():
    assert horizon_of(preset("respond-circular")) == pytest.approx(6.0)
    assert horizon_of(preset("anneal-weak")) == pytest.approx(1.0)
    assert horizon_of(preset("rdm-circular")) == pytest.approx(2.0)
    assert horizon_of(preset("bath-fit-circular")) == pytest.approx(2.0)
    # the last point the sweeps reach: the grid ends at 4.0 ...
    cfg = preset("respond-circular").replace("run", "tau",
                                             GridSpec(0.0, 4.04, 0.1))
    assert horizon_of(cfg) == pytest.approx(6.0)
    # ... and an anneal stops at its last record time, not at t_f
    cfg = preset("anneal-weak").replace("run", "record",
                                        GridSpec(0.0, 0.5, 0.1))
    assert horizon_of(cfg) == pytest.approx(0.5)


def test_grid_spec_rules():
    with pytest.raises(ConfigError):
        GridSpec(0.0, 1.0, 0.0)
    with pytest.raises(ConfigError):
        GridSpec(1.0, 0.0, 0.1)
    single = GridSpec(0.5, 0.5, 0.1)
    assert single.values().tolist() == [0.5]
    grid = GridSpec(0.0, 1.0, 0.25).values()
    assert grid.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]
    # a grid never runs past its stop, and keeps a stop that lies on it
    assert GridSpec(0.0, 1.0, 0.6).values().tolist() == [0.0, 0.6]
    tenths = GridSpec(0.0, 1.0, 0.1).values()
    assert tenths.size == 11 and tenths[-1] == pytest.approx(1.0)


def test_replace_copies():
    cfg = preset("anneal-weak")
    other = cfg.replace("bath", "zeta", 0.9)
    assert cfg.require("bath", "zeta") == 0.01
    assert other.require("bath", "zeta") == 0.9


# ------------------------------------------------------------- reporting

def test_csv_round_trip(tmp_path):
    path = tmp_path / "table.csv"
    x = np.array([0.0, 0.1, 1.0 / 3.0])
    y = np.array([1.0, -2.5e-17, 3.0])
    write_csv(path, ["x", "y"], [x, y])
    header, data = read_csv(path)
    assert header == ["x", "y"]
    assert data[:, 0].tolist() == x.tolist()   # repr round-trips exactly
    assert data[:, 1].tolist() == y.tolist()
    raw = path.read_text()
    assert "np.float64" not in raw


def test_csv_shape_errors(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "bad.csv", ["x"], [np.arange(3), np.arange(3)])
    with pytest.raises(ValueError):
        write_csv(tmp_path / "bad.csv", ["x", "y"],
                  [np.arange(3), np.arange(4)])


def test_line_plot_writes_svg(tmp_path):
    path = tmp_path / "plot.svg"
    x = np.linspace(0.0, 1.0, 20)
    line_plot(path, x, [("a", np.sin(x)), ("b", np.cos(x))],
              xlabel="t", ylabel="v", title="demo")
    text = path.read_text()
    assert text.startswith("<svg")
    assert text.count("<polyline") == 2
    assert "demo" in text


_FLAT_PLOT = """
import sys
import numpy as np
from hseom.reporting import _ticks, line_plot
line_plot(sys.argv[1], np.arange(2.0), [("p", np.array([0.5, 0.5 + 2.0**-52]))])
print(len(_ticks(0.5, 0.5 + 2.0**-52)))
"""


def test_line_plot_of_a_range_a_few_ulps_wide_returns(tmp_path):
    # a tick step below half an ulp of the tick once stalled the tick loop;
    # in a subprocess, so a regression fails on the timeout, not hangs
    path = tmp_path / "flat.svg"
    done = subprocess.run([sys.executable, "-c", _FLAT_PLOT, str(path)],
                          env=_child_env(), capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    assert 1 <= int(done.stdout) <= 10
    assert path.read_text().count("<polyline") == 1


def test_ticks_land_on_multiples_of_the_step():
    assert _ticks(-0.05, 1.05) == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert _ticks(0.0, 4.0) == [0.0, 1.0, 2.0, 3.0, 4.0]
    assert _ticks(2.0, 2.0) == [2.0]


def test_manifest_format(tmp_path):
    path = tmp_path / "manifest"
    write_manifest(path, {"a": "1", "b": "two"}, config_text="[x]\ny = 1\n")
    text = path.read_text()
    assert "a = 1\nb = two\n" in text
    assert text.endswith("--- config ---\n[x]\ny = 1\n")


# ------------------------------------------------------------------ CLI

def _manifest_entries(out) -> dict:
    """The key = value lines of a run's manifest, above its config echo."""
    return dict(line.split(" = ", 1) for line in
                (out / "manifest").read_text()
                .split("--- config ---")[0].splitlines())


def _csr_bytes(engine):
    """Stored bytes of an engine's generator parts and of its transpose's,
    each distinct buffer once: the transpose's parts are views of the
    engine's."""
    buffers = {array.__array_interface__["data"][0]: array.nbytes
               for G in engine.generator_parts
               + engine.transpose().generator_parts
               for array in (G.data, G.indices, G.indptr)}
    return sum(buffers.values())


def test_preflight_reports_resources():
    cfg = preset("respond-circular")
    report = preflight(cfg)
    assert report["awf_count"] == 1771
    assert report["dim"] == 2
    # the states of both sweeps, 13 copies: two spans of five (the
    # caller's state, the span's copy, the running factor, one product and
    # a schedule's system-axis copy) and three the observable holds; G_c,
    # stored once for both sweeps, and the hierarchy's tables
    state = 1771 * 2 * 16 * 13
    comps = build_components(cfg)
    # response_function starts from |1>, so comps.init is that state
    (w, v), = comps.init.components()
    assert w == 1.0 and np.array_equal(v, [0.0, 1.0])
    built = _csr_bytes(comps.engine)
    space = comps.space
    tables = sum(table.nbytes for table in (
        space.indices, space.levels, space.raise_table, space.lower_table))
    assert state + built + tables <= report["estimated_bytes"] \
        <= state + 2 * built + tables
    # a forward and a transpose sweep to t0 + 4 at dt = 1/10, each step
    # eight products of the Taylor step
    assert report["estimated_steps"] == 120
    assert report["estimated_products"] == 120 * 8
    assert report["dt"] == pytest.approx(1 / 10, rel=1e-12)
    assert report["dt_norm"] <= 3.35


def test_preflight_zero_horizon_means_zero_steps():
    cfg = preset("rdm-circular").replace("run", "record",
                                         GridSpec(0.0, 0.0, 0.25))
    report = preflight(cfg)
    assert report["estimated_steps"] == report["estimated_products"] == 0
    assert report["awf_count"] == 1771


# (preset, a change to it, the exit code of its run): each change below
# once passed preflight with a step, or a count of steps, that the run
# did not take: a record grid and a t0 off their spacing, whose default
# step must divide the offset too, and an explicit dt off the record grid,
# which the run refuses
PREFLIGHT_PLANS = [pytest.param(name, None, 0, id=name) for name in (
    "respond-circular", "rdm-circular", "thermal-ratio", "anneal-weak")] + [
    pytest.param("anneal-weak", ("run", "record", GridSpec(0.05, 0.95, 0.1)),
                 0, id="anneal-weak-record-offset"),
    pytest.param("respond-circular", ("run", "t0", 2.05), 0,
                 id="respond-circular-t0-offset"),
    pytest.param("anneal-weak", ("integrator", "dt", 0.03), 2,
                 id="anneal-weak-dt-off-grid")]


@pytest.mark.parametrize("name, change, code", PREFLIGHT_PLANS)
def test_preflight_steps_match_the_run(name, change, code, tmp_path,
                                       monkeypatch):
    # count the column-steps every integrate_span call actually takes, and
    # the column-products every derivative takes: G_c's, and a schedule's
    # H(tau) on the system axis
    from hseom.dynamics import ContourEngine
    taken, products = [], []
    span, deriv = ContourEngine.integrate_span, ContourEngine._deriv

    def columns(y):
        return y.shape[1] if y.ndim == 2 else 1

    def counted_span(self, y, step0, n_steps, *args, **kwargs):
        taken.append(columns(y) * n_steps)
        return span(self, y, step0, n_steps, *args, **kwargs)

    def counted_deriv(self, y, ham, scale):
        products.append(columns(y) * (1 if ham is None else 2))
        return deriv(self, y, ham, scale)

    monkeypatch.setattr(ContourEngine, "integrate_span", counted_span)
    monkeypatch.setattr(ContourEngine, "_deriv", counted_deriv)
    cfg = preset(name) if change is None else preset(name).replace(*change)
    path = tmp_path / "run.ini"
    path.write_text(serialize_config(cfg))
    assert main([cfg.experiment, "--config", str(path),
                 "--out", str(tmp_path / "out")]) == code
    if code:
        with pytest.raises(ConfigError, match="off the dt = 0.03 grid"):
            preflight(cfg)
        return
    report = preflight(cfg)
    assert sum(taken) == report["estimated_steps"]
    assert sum(products) == report["estimated_products"]
    # the run's manifest reports the step preflight announced, the bound
    # of the step that ran, and the products it took
    entries = _manifest_entries(tmp_path / "out")
    engine = build_components(cfg).engine
    assert float(entries["dt"]) == report["dt"]
    assert float(entries["dt_norm"]) == report["dt_norm"] \
        <= engine.step_norm
    assert entries["step_degree"] == str(engine.step_degree) == "8"
    assert entries["products"] == str(report["estimated_products"])
    assert entries["attempts"] == "1"
    assert float(entries["max_trace_error"]) < 1e-4
    assert float(entries["expansion_error"]) == report["expansion_error"]


def test_preflight_bytes_cover_the_built_generator():
    cfg = parse_config_file(CONFIG_DIR / "anneal_large.ini")
    report = preflight(cfg)
    comps = build_components(cfg)
    built = _csr_bytes(comps.engine)
    # 13 state copies of 21 AWFs on the 11 symmetric states, and each
    # sweep's H(tau) on the ramp's pattern: at most two transverse-field
    # entries and one target entry a row, 2 Ncal + 11 in all
    state = 21 * 11 * 16 * 13 + 2 * 16 * (2 * 10 + 11)
    space = comps.space
    tables = sum(table.nbytes for table in (
        space.indices, space.levels, space.raise_table, space.lower_table))
    assert state + built + tables <= report["estimated_bytes"] \
        <= state + 2 * built + tables


def test_state_bytes_bound_the_traced_solve(monkeypatch):
    # a wide system on a shallow hierarchy, where the states are most of
    # what a solve allocates: the state term of estimated_bytes bounds the
    # traced peak of the solve, both sweeps at once.  The transpose
    # engine is built before tracing, as the engine is.
    from hseom import cli
    from hseom.dynamics import ContourEngine
    from hseom.observables import annealing_populations
    from hseom.presets import _anneal
    cfg = _anneal(0.1, 1, Ncal=1023).replace("bath", "K", 2)
    report = cli._refuse_oversize(cfg)
    assert (report["awf_count"], report["dim"]) == (3, 1024)
    # each sweep's H(tau): two transverse-field entries and one target
    # entry a row
    state = cli._state_bytes(3, 1024, 2 * 1023 + 1024)
    assert state < report["estimated_bytes"]
    comps = build_components(cfg)
    transpose = comps.engine.transpose()
    monkeypatch.setattr(ContourEngine, "transpose", lambda self: transpose)
    # the default step leaves the trace by 2e-2 at this Ncal, and the peak
    # depends on neither the step nor the horizon: one record interval at
    # dt / 4, which holds the trace to 1.1e-7
    tracemalloc.start()
    try:
        annealing_populations(comps.engine, comps.init, comps.dt / 4,
                              [0.0, 0.1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= state


def test_preflight_refuses_over_budget_before_building(tmp_path,
                                                       monkeypatch):
    from hseom import ResourceLimitError
    from hseom import cli, presets
    from hseom.dynamics import ContourEngine
    from hseom.presets import _anneal

    def forbidden(*args, **kwargs):
        raise AssertionError("preflight built something")

    for owner, name in ((presets, "build_space"), (presets, "build_model"),
                        (cli, "build_components"),
                        (ContourEngine, "__init__")):
        monkeypatch.setattr(owner, name, forbidden)
    # 56 indices x 2^17 symmetric states: the states fit the 2 GiB budget,
    # the states and the generator together do not
    cfg = _anneal(0.1, 3, Ncal=2 ** 17 - 1)
    assert cli._state_bytes(56, 2 ** 17, 3 * 2 ** 17) < 2 * 1024 ** 3
    with pytest.raises(ResourceLimitError):
        preflight(cfg)
    # the run subcommand refuses it too, before building
    path = tmp_path / "huge.ini"
    path.write_text(serialize_config(cfg))
    assert main(["anneal", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 4


def test_preflight_refuses_over_cap(monkeypatch):
    from hseom import ResourceLimitError, hierarchy
    monkeypatch.setattr(hierarchy, "MAX_INDICES", 100)
    with pytest.raises(ResourceLimitError):
        preflight(preset("respond-circular"))


def test_preflight_counts_the_hierarchy_tables(tmp_path, monkeypatch):
    from hseom import ResourceLimitError, presets

    def forbidden(*args, **kwargs):
        raise AssertionError("a hierarchy was built")

    monkeypatch.setattr(presets, "build_space", forbidden)
    # 1,373,701 indices: the state and the generator fit the 2 GiB budget
    # at 1.80 GB, but indices, levels and the raise and lower tables take
    # 2,002 bytes per index, 2.75 GB
    cfg = parse_config_file(
        CONFIG_DIR / "respond_exponential_full.ini").replace("bath", "K", 200)
    with pytest.raises(ResourceLimitError):
        preflight(cfg)
    path = tmp_path / "wide.ini"
    path.write_text(serialize_config(cfg))
    assert main(["preflight", "--config", str(path)]) == 4
    assert main(["respond", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 4


def test_cli_preflight_exit_codes(tmp_path, capsys, monkeypatch):
    cfg_path = CONFIG_DIR / "respond_circular.ini"
    assert main(["preflight", "--config", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    assert "awf_count = 1771" in out
    assert "estimated_steps = 120" in out and "dt_norm = " in out
    assert "estimated_products = 960" in out
    # K = 20 follows alpha(t) over the 6 time units to 2.9e-4
    printed = dict(line.split(" = ", 1) for line in out.splitlines())
    assert 1e-4 < float(printed["expansion_error"]) < 1e-3

    from hseom import hierarchy
    monkeypatch.setattr(hierarchy, "MAX_INDICES", 100)
    assert main(["preflight", "--config", str(cfg_path)]) == 4


def test_cli_config_errors_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[experiment]\nkind = rdm\n[bath]\ncolor = blue\n")
    assert main(["rdm", "--config", str(bad)]) == 2
    assert main(["rdm"]) == 2  # --config missing
    # config kind must match the subcommand
    assert main(["respond", "--config",
                 str(CONFIG_DIR / "anneal_weak.ini")]) == 2
    # a key that nothing reads is refused, not silently ignored
    dead = tmp_path / "dead.ini"
    dead.write_text(serialize_config(preset("dephasing")).replace(
        "[run]\n", "[run]\nt = 5.0\n"))
    assert main(["preflight", "--config", str(dead)]) == 2
    # so is a key that the schema knows but this experiment never reads
    for name, section, key, value in (
            ("anneal-weak", "run", "init", "thermal"),
            ("dephasing", "run", "window_time", 1.0),
            ("dephasing", "run", "t0", 1.0),
            ("dephasing", "model", "Ncal", 4),
            ("respond-circular", "run", "init", "basis0"),
            ("respond-circular", "run", "record", GridSpec(0.0, 1.0, 0.5))):
        path = tmp_path / f"unread-{name}-{key}.ini"
        path.write_text(serialize_config(
            preset(name).replace(section, key, value)))
        assert main(["preflight", "--config", str(path)]) == 2, (name, key)
    # an anneal record grid must not run past the end of the schedule
    late = tmp_path / "late.ini"
    late.write_text(serialize_config(preset("anneal-weak").replace(
        "run", "record", GridSpec(0.0, 2.0, 0.1))))
    # K = 5 leaves 5.8e-2 in alpha(t) over that horizon, which warns first
    with pytest.warns(HorizonWarning):
        assert main(["anneal", "--config", str(late),
                     "--out", str(tmp_path / "out")]) == 2
    capsys.readouterr()
    # malformed values that used to run to a wrong answer, crash or hang;
    # each prints its config error alone, no numpy RuntimeWarning before
    # it, and preflight refuses it too
    negative = GridSpec(-0.5, 0.5, 0.25)
    for name, section, key, value in (
            ("rdm-circular", "integrator", "dt", -0.01),
            ("rdm-circular", "integrator", "dt", 0.0),
            ("rdm-circular", "bath", "Omega", 0.0),
            ("respond-circular", "run", "window_time", 0.0),
            ("rdm-circular", "hierarchy", "n_max", -1),
            ("rdm-circular", "bath", "K", 0),
            ("anneal-weak", "model", "Ncal", 0),
            ("rdm-circular", "run", "record", negative),
            ("anneal-weak", "run", "record", negative),
            ("respond-circular", "run", "t0", -1.0),
            ("bath-fit-circular", "run", "t_max", -1.0),
            # finite values whose H or c_k pass the float range
            ("anneal-weak", "model", "Gamma", 1e308),
            ("anneal-weak", "bath", "zeta", 1e308),
            # a default step of 6.7e-308, whose run would never end
            ("respond-circular", "model", "omega0", 1e308)):
        cfg = preset(name).replace(section, key, value)
        path = tmp_path / f"{name}-{key}.ini"
        path.write_text(serialize_config(cfg))
        for sub in (cfg.experiment, "preflight"):
            with warnings.catch_warnings(record=True) as seen:
                warnings.simplefilter("always")
                assert main([sub, "--config", str(path), "--out",
                             str(tmp_path / "out")]) == 2, (sub, key, value)
            assert [str(w.message) for w in seen] == [], (sub, key, value)
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("config error:"), err


@pytest.mark.parametrize("grid", ["0.0:4.0:0.0", "4.0:0.0:0.1", "0.0:4.0"])
def test_a_malformed_grid_names_its_key(grid, tmp_path, capsys):
    # the grid parser's own errors carry no key; the config error names it
    text = (CONFIG_DIR / "respond_circular.ini").read_text()
    path = tmp_path / "bad.ini"
    bad, count = re.subn(r"(?m)^tau = .*$", f"tau = {grid}", text)
    assert count == 1
    path.write_text(bad)
    assert main(["preflight", "--config", str(path)]) == 2
    assert "[run] tau" in capsys.readouterr().err


@pytest.mark.parametrize("name, changes", [
    ("respond-circular", {("bath", "zeta"): math.inf}),
    ("respond-circular", {("bath", "Omega"): math.inf,
                          ("bath", "nu"): math.inf}),
    ("respond-circular", {("model", "omega0"): math.inf}),
    ("respond-circular", {("run", "t0"): math.nan}),
    ("respond-circular", {("run", "t0"): math.inf}),
    ("respond-circular", {("run", "tau"): GridSpec(0.0, math.nan, 0.1)}),
    ("respond-circular", {("run", "omega"): GridSpec(0.3, 2.2, math.inf)}),
    ("respond-exponential", {("bath", "gamma"): math.nan}),
    ("anneal-weak", {("model", "Gamma"): math.inf}),
    ("anneal-weak", {("run", "record"): GridSpec(0.0, math.inf, 0.1)}),
    ("rdm-circular", {("integrator", "dt"): math.inf}),
    ("bath-fit-circular", {("run", "t_max"): math.nan}),
], ids=lambda v: v if isinstance(v, str) else "-".join(k for _, k in v))
def test_cli_refuses_non_finite_values(name, changes, tmp_path, capsys):
    # each used to pass validate_config and crash later with a traceback
    cfg = preset(name)
    for (section, key), value in changes.items():
        cfg = cfg.replace(section, key, value)
    path = tmp_path / "bad.ini"
    path.write_text(serialize_config(cfg))
    assert main([cfg.experiment, "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert any(f"[{section}] {key}: must be finite" in err
               for section, key in changes), err


def test_cli_numerical_failure_exits_3(monkeypatch):
    from hseom import cli as cli_module
    monkeypatch.setattr(cli_module, "_validate_rows",
                        lambda: [("doomed", 1.0, 1e-6)])
    assert main(["validate"]) == 3


_RUNS_THEN_BATH_FIT = """
import sys
from hseom.cli import main
configs, out, fit = sys.argv[1:]
for command, name in (("respond", "respond_circular"),
                      ("rdm", "rdm_circular"), ("anneal", "anneal_weak")):
    assert main([command, "--config", f"{configs}/{name}.ini",
                 "--out", out]) == 0, command
print("after runs", "scipy.integrate" in sys.modules)
print("special after runs", "scipy.special" in sys.modules)
assert main(["bath-fit", "--config", fit, "--out", out]) == 0
print("after bath-fit", "scipy.integrate" in sys.modules)
print("special after bath-fit", "scipy.special" in sys.modules)
from hseom.bath import alpha_quadrature
from hseom.presets import build_bath_spec, preset
alpha_quadrature(build_bath_spec(preset("bath-fit-circular")), 0.0)
print("after the adaptive reference", "scipy.integrate" in sys.modules)
"""


def _child_env(**extra) -> dict:
    """This environment, with the checkout's src first on PYTHONPATH."""
    env = dict(os.environ, **extra)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def test_runs_never_import_scipy_integrate(tmp_path):
    # the theta rule behind the coefficients, the expansion check and
    # bath-fit needs only numpy, and so does the Bessel ladder; the
    # adaptive reference imports scipy.integrate when it is called, which
    # shows the probe works
    fit = tmp_path / "fit.ini"
    fit.write_text(serialize_config(
        preset("bath-fit-circular").replace("run", "t_max", 0.0)))
    done = subprocess.run(
        [sys.executable, "-W", "ignore", "-c", _RUNS_THEN_BATH_FIT,
         str(CONFIG_DIR), str(tmp_path / "out"), str(fit)],
        env=_child_env(), capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert "after runs False" in lines
    assert "after bath-fit False" in lines
    assert "after the adaptive reference True" in lines
    assert "special after runs False" in lines
    assert "special after bath-fit False" in lines


@pytest.mark.parametrize("module", ["hseom", "hseom.cli"])
def test_import_loads_no_scipy_special(module):
    probe = f"import sys, {module}; print('scipy.special' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], env=_child_env(),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False"]


def _small_runs(tmp_path) -> list:
    """(subcommand, config path, CSV name) for one short run of each kind.

    The respond run keeps respond-exponential's 24,682 state entries, above
    the 10,000 from which OpenBLAS splits a complex dot product over its
    threads.  The rdm run starts thermal, from an eigensolve of H.
    """
    respond = parse_config_file(CONFIG_DIR / "respond_exponential.ini") \
        .replace("run", "t0", 0.5).replace("run", "tau", GridSpec(0.0, 0.5, 0.1))
    rdm = preset("thermal-ratio").replace("run", "record",
                                          GridSpec(0.0, 2.0, 0.5))
    runs = []
    for sub, cfg, csv in (("respond", respond, "response_t.csv"),
                          ("rdm", rdm, "rho_t.csv"),
                          ("anneal", preset("anneal-weak"),
                           "populations.csv")):
        path = tmp_path / f"{sub}.ini"
        path.write_text(serialize_config(cfg))
        runs.append((sub, path, csv))
    return runs


def test_respond_csv_does_not_depend_on_the_blas_thread_count(tmp_path):
    # a readout or a bath sum on BLAS would write different last digits
    # under one and two threads
    written = {}
    for threads in ("1", "2"):
        for sub, path, csv in _small_runs(tmp_path):
            out = tmp_path / threads / sub
            done = subprocess.run(
                [sys.executable, "-m", "hseom", sub, "--config", str(path),
                 "--out", str(out)],
                env=_child_env(OPENBLAS_NUM_THREADS=threads),
                capture_output=True, text=True, timeout=300)
            assert done.returncode == 0, done.stderr
            written.setdefault(sub, []).append(
                ((out / csv).read_bytes(),
                 _manifest_entries(out)["expansion_error"]))
    for sub, (one, two) in written.items():
        assert one == two, sub


# Runs the three run subcommands in one process once OpenBLAS's pool has
# gone idle, and prints the CPU clock ticks that the threads present before
# the runs spent from then until 0.3 s after them.  The sweeps' own worker
# threads start later and are not counted.
_POOL_PROBE = r"""
import os, sys, threading, time
from hseom.cli import main

def ticks():
    out = {}
    for tid in os.listdir("/proc/self/task"):
        if int(tid) != threading.get_native_id():
            with open(f"/proc/self/task/{tid}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
            out[tid] = int(fields[11]) + int(fields[12])  # utime + stime
    return out

before = ticks()
for _ in range(100):
    time.sleep(0.2)
    now, before = before, ticks()
    if now == before:
        break
else:
    sys.exit("the threads never went idle")
for sub, path in zip(sys.argv[2::2], sys.argv[3::2]):
    if main([sub, "--config", path, "--out", os.path.join(sys.argv[1], sub)]):
        sys.exit(f"{sub} failed")
time.sleep(0.3)
after = ticks()
print("ticks", sum(after[t] - before[t] for t in before if t in after))
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="reads per-thread CPU times from Linux's /proc")
def test_a_run_wakes_no_blas_thread(tmp_path):
    # a BLAS or LAPACK call large enough to be split wakes OpenBLAS's pool,
    # whose thread then busy-waits through the sweeps and takes a core from
    # them.  The bath set-up's eigensolve for the Gauss-Legendre nodes and
    # its dense products once cost 40 ticks in this test.
    argv = []
    for sub, path, _ in _small_runs(tmp_path):
        argv += [sub, str(path)]
    done = subprocess.run(
        [sys.executable, "-W", "ignore", "-c", _POOL_PROBE,
         str(tmp_path / "out"), *argv],
        env=_child_env(OPENBLAS_NUM_THREADS="2"), capture_output=True,
        text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    ticks = int(done.stdout.split("ticks")[-1])
    assert ticks <= 1


def test_cli_zero_temperature_thermal_start_is_the_ground_state(tmp_path):
    # exp(-beta_hbar (E - E_min)) is NaN on the ground level at
    # beta_hbar = inf; the start must be its limit, the ground state |1>
    cold = preset("thermal-ratio").replace("bath", "beta_hbar", math.inf)
    rho = {}
    for init in ("thermal", "basis1"):
        path = tmp_path / f"{init}.ini"
        path.write_text(serialize_config(cold.replace("run", "init", init)))
        assert main(["rdm", "--config", str(path),
                     "--out", str(tmp_path / init)]) == 0
        rho[init] = read_csv(tmp_path / init / "rho_t.csv")[1]
    assert np.all(np.isfinite(rho["thermal"]))
    assert np.abs(rho["thermal"] - rho["basis1"]).max() <= 1e-15


def test_cli_bath_fit_artifacts(tmp_path):
    cfg = preset("bath-fit-circular").replace("run", "t_max", 0.5)
    path = tmp_path / "fit.ini"
    path.write_text(serialize_config(cfg))
    out = tmp_path / "out"
    assert main(["bath-fit", "--config", str(path),
                 "--out", str(out)]) == 0
    for name in ("expansion.txt", "alpha_fit.csv", "bath.svg", "manifest"):
        assert (out / name).exists(), name
    # the manifest echoes the config it ran with
    manifest = (out / "manifest").read_text()
    echoed = manifest.split("--- config ---\n", 1)[1]
    assert parse_config(echoed).data == cfg.data
    assert "wall_time_s" in manifest
    # numpy scalars must be cast before repr or their type name leaks
    assert "np.float64" not in manifest
    header, data = read_csv(out / "alpha_fit.csv")
    assert header == ["t", "re_alpha", "im_alpha", "re_fit", "im_fit"]
    assert np.abs(data[:, 1] - data[:, 3]).max() < 1e-4


def test_cli_anneal_artifacts(tmp_path):
    out = tmp_path / "anneal"
    assert main(["anneal", "--config", str(CONFIG_DIR / "anneal_weak.ini"),
                 "--out", str(out)]) == 0
    header, data = read_csv(out / "populations.csv")
    assert header == ["t", "P_ground", "P_e_rep", "P_e_sum"]
    assert data[0, 1] == pytest.approx(1.0 / 16.0, abs=1e-9)
    assert (out / "populations.svg").exists()
    entries = _manifest_entries(out)
    # K = 5 follows the zero-temperature alpha(t) over t_f = 1 to 2.4e-3
    assert 1e-3 < float(entries["expansion_error"]) < 1e-2
    assert float(entries["top_level_max_abs"]) > 0.0


_SHARED_KEYS = ("dt", "dt_norm", "attempts", "step_degree", "products",
                "expansion_error", "max_trace_error", "c1_max_abs",
                "adjoint_max_abs", "top_level_max_abs", "forward_sweep_s",
                "adjoint_sweep_s", "sweep_threads", "awf_count", "dim",
                "generator_entries")


def test_every_run_manifest_holds_the_sweep_record(tmp_path, monkeypatch):
    from hseom import cli
    returned = []
    original = cli.rdm_trajectory

    def kept(*args, **kwargs):
        returned.append(original(*args, **kwargs))
        return returned[-1]

    monkeypatch.setattr(cli, "rdm_trajectory", kept)
    # a fixed preset's G_c (30,800 entries and up) keeps the worker
    # thread, an anneal's (384) runs its two sweeps on one
    for command, name, threads, own in (
            ("respond", "respond_circular", "2", ("t0", "drift", "p1_at_t0")),
            ("anneal", "anneal_weak", "1", ("cluster_tol",)),
            ("rdm", "dephasing", "2", ("max_hermiticity_error",))):
        out = tmp_path / name
        assert main([command, "--config", str(CONFIG_DIR / f"{name}.ini"),
                     "--out", str(out)]) == 0
        entries = _manifest_entries(out)
        for key in _SHARED_KEYS + own:
            assert float(entries[key]) >= 0.0, (command, key)
        assert entries["sweep_threads"] == threads, name
    # the trace error written is the one the refusal compared
    (result,) = returned
    assert entries["max_trace_error"] == \
        repr(result.metadata["max_trace_error"])
    assert float(entries["max_hermiticity_error"]) < 1e-12


def test_anneal_manifest_reports_the_problem_size(tmp_path):
    # 21 AWFs on the 11 symmetric states of ten qubits, and the entries
    # the engine stores: G_c and the ramp pair
    out = tmp_path / "large"
    config = CONFIG_DIR / "anneal_large.ini"
    assert main(["anneal", "--config", str(config), "--out", str(out)]) == 0
    entries = _manifest_entries(out)
    engine = build_components(parse_config_file(config)).engine
    stored = sum(part.nnz for part in engine.generator_parts)
    assert (entries["awf_count"], entries["dim"]) == ("21", "11")
    assert entries["generator_entries"] == str(stored)
    assert engine.generator_parts[0].nnz == 888 and stored == 948
    # too small a product to overlap: both sweeps ran on the calling thread
    assert entries["sweep_threads"] == "1"


def test_anneal_runs_past_sixteen_qubits(tmp_path):
    # forty qubits on their 41 symmetric states: no qubit cap, one
    # attempt at the default step
    from hseom.observables import TRACE_TOL
    path = tmp_path / "forty.ini"
    path.write_text((CONFIG_DIR / "anneal_intermediate.ini").read_text()
                    .replace("Ncal = 4", "Ncal = 40"))
    out = tmp_path / "out"
    assert main(["anneal", "--config", str(path), "--out", str(out)]) == 0
    header, data = read_csv(out / "populations.csv")
    assert data[0, header.index("P_ground")] == \
        pytest.approx(2.0 ** -40, rel=1e-12)
    entries = _manifest_entries(out)
    assert (entries["dim"], entries["attempts"]) == ("41", "1")
    assert float(entries["max_trace_error"]) < TRACE_TOL


_ARRAYS_OF_RDM = """
import sys
sys.path[:0] = ["perfbench"]
import numpy as np
from child import arrays_of
from hseom import (BathSpec, ContourEngine, OhmicCircular, PureState,
                   build_space, compute_coefficients, rdm_trajectory,
                   spin_boson)

spec = BathSpec(OhmicCircular(zeta=0.2, nu=2.0), 3.0, 2.0, 4)
engine = ContourEngine(build_space(4, 2), compute_coefficients(spec),
                       spin_boson(1.0))
result = rdm_trajectory(engine, PureState(np.array([1.0, 0.0])), 0.01,
                        [0.0, 0.1])
arrays = arrays_of("rdm_trajectory", result)
assert sorted(arrays) == ["rdm_trajectory.0", "rdm_trajectory.1"], arrays
assert arrays["rdm_trajectory.0"] is result.times
assert arrays["rdm_trajectory.1"] is result.rho
print("arrays ok")
"""


def test_benchmark_reads_rdm_times_and_rho_by_index():
    # perfbench/checks.py reads the rdm result as rdm_trajectory.0 and .1
    root = Path(__file__).resolve().parent.parent
    done = subprocess.run([sys.executable, "-c", _ARRAYS_OF_RDM], cwd=root,
                          env=_child_env(), capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert "arrays ok" in done.stdout


def test_cli_validate_writes_table(tmp_path, capsys):
    out = tmp_path / "val"
    assert main(["validate", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "pass" in printed and "FAIL" not in printed
    table = (out / "validate.csv").read_text().splitlines()
    assert table[0] == "check,residual,threshold"
    assert len(table) >= 6


_RUN_CONFIGS = sorted(
    path.name for path in CONFIG_DIR.glob("*.ini")
    if parse_config_file(path).experiment in ("respond", "anneal", "rdm"))


@pytest.mark.parametrize("name", _RUN_CONFIGS)
def test_shipped_run_configs_pass_the_expansion_check(name, capsys):
    # the autouse fixture makes a HorizonWarning fail this test
    assert main(["preflight", "--config", str(CONFIG_DIR / name)]) == 0
    printed = dict(line.split(" = ", 1)
                   for line in capsys.readouterr().out.splitlines())
    assert float(printed["expansion_error"]) <= 1e-2


def test_cli_warns_on_a_short_expansion(tmp_path):
    # K = 8 leaves 2.6e-2 over the respond-circular horizon; K = 20 2.9e-4
    cfg = preset("respond-circular").replace("bath", "K", 8)
    path = tmp_path / "short.ini"
    path.write_text(serialize_config(cfg))
    with pytest.warns(HorizonWarning, match="K = 8"):
        assert main(["preflight", "--config", str(path)]) == 0
    # a run warns the same way and records the error in its manifest
    out = tmp_path / "out"
    with pytest.warns(HorizonWarning):
        assert main(["respond", "--config", str(path),
                     "--out", str(out)]) == 0
    entries = _manifest_entries(out)
    assert 2e-2 < float(entries["expansion_error"]) < 3e-2


def test_cli_warns_on_short_expansion_horizon(tmp_path):
    # the zero-temperature K = 5 expansion of anneal-weak follows alpha(t)
    # to 2.4e-3 over t_f = 1, but only to 5.8e-2 over a schedule twice as
    # long.  (Pushing the respond-circular lags out to 30 does not warn:
    # its error stays at 2.9e-4 once Omega t passes K.)
    cfg = preset("anneal-weak").replace("model", "t_f", 2.0).replace(
        "run", "record", GridSpec(0.0, 2.0, 0.1))
    path = tmp_path / "long.ini"
    path.write_text(serialize_config(cfg))
    with pytest.warns(HorizonWarning, match="5.80e-02"):
        assert main(["preflight", "--config", str(path)]) == 0
