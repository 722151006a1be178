"""Config file grammar, resource preflight, and the command-line surface."""

import math
import os
import subprocess
import sys
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
from hseom.reporting import line_plot, read_csv, write_csv, write_manifest

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
    # the last point the sweeps reach: the snapped grid ends at 4.0 ...
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


def test_manifest_format(tmp_path):
    path = tmp_path / "manifest"
    write_manifest(path, {"a": "1", "b": "two"}, config_text="[x]\ny = 1\n")
    text = path.read_text()
    assert "a = 1\nb = two\n" in text
    assert text.endswith("--- config ---\n[x]\ny = 1\n")


# ------------------------------------------------------------------ CLI

def _csr_bytes(engine):
    """Stored bytes of an engine's generator parts and of its adjoint's."""
    return sum(G.data.nbytes + G.indices.nbytes + G.indptr.nbytes
               for G in engine.generator_parts
               + engine.adjoint().generator_parts)


def test_preflight_reports_resources():
    cfg = preset("respond-circular")
    report = preflight(cfg)
    assert report["awf_count"] == 1771
    assert report["dim"] == 2
    # the state with its RK4 workspace, plus the generator both ways
    state = 1771 * 2 * 16 * 6
    built = _csr_bytes(build_components(cfg).engine)
    assert state + built <= report["estimated_bytes"] <= state + 2 * built
    # a forward and an adjoint sweep to t0 + 4 at dt = 1/70
    assert report["estimated_steps"] == 840
    assert report["dt"] == pytest.approx(1 / 70, rel=1e-12)
    assert report["dt_norm"] <= 0.6


def test_preflight_zero_horizon_means_zero_steps():
    cfg = preset("rdm-circular").replace("run", "record",
                                         GridSpec(0.0, 0.0, 0.25))
    report = preflight(cfg)
    assert report["estimated_steps"] == 0
    assert report["awf_count"] == 1771


@pytest.mark.parametrize("name", ["respond-circular", "rdm-circular",
                                  "thermal-ratio", "anneal-weak"])
def test_preflight_steps_match_the_run(name, tmp_path, monkeypatch):
    # count the column-steps every integrate_span call actually takes
    from hseom.dynamics import ContourEngine
    taken = []
    original = ContourEngine.integrate_span

    def counted(self, y, step0, n_steps, *args, **kwargs):
        taken.append((y.shape[1] if y.ndim == 2 else 1) * n_steps)
        return original(self, y, step0, n_steps, *args, **kwargs)

    monkeypatch.setattr(ContourEngine, "integrate_span", counted)
    cfg = preset(name)
    path = tmp_path / "run.ini"
    path.write_text(serialize_config(cfg))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", HorizonWarning)
        assert main([cfg.experiment, "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 0
    report = preflight(cfg)
    assert sum(taken) == report["estimated_steps"]
    # the run's manifest reports the step preflight announced
    entries = dict(line.split(" = ", 1) for line in
                   (tmp_path / "out" / "manifest").read_text()
                   .split("--- config ---")[0].splitlines())
    assert float(entries["dt"]) == report["dt"]
    assert float(entries["dt_norm"]) == report["dt_norm"] <= 0.6
    assert float(entries["max_trace_error"]) < 1e-4


def test_preflight_bytes_cover_the_built_generator():
    cfg = parse_config_file(CONFIG_DIR / "anneal_large.ini")
    report = preflight(cfg)
    built = _csr_bytes(build_components(cfg).engine)
    assert report["estimated_bytes"] >= built + 21 * 1024 * 16 * 6


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
    # 56 indices x 2^16 states: the state fits the 2 GiB budget, the
    # generator's 16 driver blocks per index do not
    cfg = _anneal(0.1, 3, Ncal=16)
    assert 56 * 2 ** 16 * 16 * 6 < 2 * 1024 ** 3
    with pytest.raises(ResourceLimitError):
        preflight(cfg)
    # the run subcommand refuses it too, before building
    path = tmp_path / "huge.ini"
    path.write_text(serialize_config(cfg))
    assert main(["anneal", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 4


def test_preflight_refuses_over_cap():
    from hseom import ResourceLimitError
    cfg = preset("respond-circular").replace("hierarchy", "max_indices", 100)
    with pytest.raises(ResourceLimitError):
        preflight(cfg)


def test_cli_preflight_exit_codes(tmp_path, capsys):
    cfg_path = CONFIG_DIR / "respond_circular.ini"
    # same conservative horizon warning as the anneal preset: fires even
    # though the shipped configuration is demonstrably converged
    with pytest.warns(HorizonWarning):
        assert main(["preflight", "--config", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    assert "awf_count = 1771" in out
    assert "estimated_steps = 840" in out and "dt_norm = " in out

    over = preset("respond-circular").replace("hierarchy", "max_indices",
                                              100)
    path = tmp_path / "over.ini"
    path.write_text(serialize_config(over))
    assert main(["preflight", "--config", str(path)]) == 4


def test_cli_config_errors_exit_2(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[experiment]\nkind = rdm\n[bath]\ncolor = blue\n")
    assert main(["rdm", "--config", str(bad)]) == 2
    assert main(["rdm"]) == 2  # --config missing
    # config kind must match the subcommand
    assert main(["respond", "--config",
                 str(CONFIG_DIR / "anneal_weak.ini")]) == 2
    # an anneal record grid must not run past the end of the schedule
    late = tmp_path / "late.ini"
    late.write_text(serialize_config(preset("anneal-weak").replace(
        "run", "record", GridSpec(0.0, 2.0, 0.1))))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", HorizonWarning)
        assert main(["anneal", "--config", str(late),
                     "--out", str(tmp_path / "out")]) == 2
    # malformed values that used to run to a wrong answer or crash
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
            ("respond-circular", "run", "t0", -1.0)):
        cfg = preset(name).replace(section, key, value)
        path = tmp_path / f"{name}-{key}.ini"
        path.write_text(serialize_config(cfg))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", HorizonWarning)
            assert main([cfg.experiment, "--config", str(path),
                         "--out", str(tmp_path / "out")]) == 2, (key, value)


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
assert main(["bath-fit", "--config", fit, "--out", out]) == 0
print("after bath-fit", "scipy.integrate" in sys.modules)
"""


def test_runs_never_import_scipy_integrate(tmp_path):
    # the coefficient rule needs only numpy; bath-fit's adaptive reference
    # imports scipy.integrate when it is called
    fit = tmp_path / "fit.ini"
    fit.write_text(serialize_config(
        preset("bath-fit-circular").replace("run", "t_max", 0.0)))
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run(
        [sys.executable, "-W", "ignore", "-c", _RUNS_THEN_BATH_FIT,
         str(CONFIG_DIR), str(tmp_path / "out"), str(fit)],
        env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert "after runs False" in lines
    assert "after bath-fit True" in lines


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
    # the horizon check is deliberately conservative for this preset: the
    # zero-temperature bath decorrelates long before the K = 5 phase-factor
    # expansion degrades, so the warning fires although the run is converged
    with pytest.warns(HorizonWarning):
        assert main(["anneal", "--config",
                     str(CONFIG_DIR / "anneal_weak.ini"),
                     "--out", str(out)]) == 0
    header, data = read_csv(out / "populations.csv")
    assert header == ["t", "P_ground", "P_e_rep", "P_e_sum"]
    assert data[0, 1] == pytest.approx(1.0 / 16.0, abs=1e-9)
    assert (out / "populations.svg").exists()


def test_cli_validate_writes_table(tmp_path, capsys):
    out = tmp_path / "val"
    assert main(["validate", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "pass" in printed and "FAIL" not in printed
    table = (out / "validate.csv").read_text().splitlines()
    assert table[0] == "check,residual,threshold"
    assert len(table) >= 6


def test_cli_warns_on_short_expansion_horizon(tmp_path):
    # lag grid pushed far beyond where K = 20 tracks the phase factor
    cfg = preset("respond-circular").replace("run", "tau",
                                             GridSpec(0.0, 30.0, 0.1))
    path = tmp_path / "long.ini"
    path.write_text(serialize_config(cfg))
    with pytest.warns(HorizonWarning):
        assert main(["preflight", "--config", str(path)]) == 0
