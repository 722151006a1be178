"""Run configuration files.

The format is deliberately plain: bracketed sections of ``key = value``
lines (INI), every key checked against a fixed schema so typos fail fast,
and against the keys its experiment reads so none is silently ignored,
floats written back with repr so parse -> serialize -> parse is the
identity.  Grids use a ``start:stop:step`` triple with an inclusive stop.

Temperature uses ``beta_hbar = inf`` for the zero-temperature branch.
"""

from __future__ import annotations

import configparser
import dataclasses
import io
import math
from typing import Dict, Optional

import numpy as np

from .errors import ConfigError

__all__ = ["GridSpec", "RunConfig", "parse_config", "parse_config_file",
           "serialize_config", "validate_config", "EXPERIMENTS"]

EXPERIMENTS = ("bath-fit", "respond", "anneal", "rdm", "validate")


@dataclasses.dataclass(frozen=True)
class GridSpec:
    """Uniform grid start:stop:step, stop included (snapped to the step)."""

    start: float
    stop: float
    step: float

    def __post_init__(self):
        if self.step <= 0:
            raise ConfigError("grid step must be positive")
        # stop == start is the single-point grid (zero-length horizon)
        if self.stop < self.start:
            raise ConfigError("grid stop must not precede start")

    def values(self) -> np.ndarray:
        n = int(round((self.stop - self.start) / self.step))
        return self.start + self.step * np.arange(n + 1)

    def __str__(self):
        return f"{self.start!r}:{self.stop!r}:{self.step!r}"


def _parse_grid(text: str) -> GridSpec:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"grid must be start:stop:step, got {text!r}")
    return GridSpec(*(float(p) for p in parts))


def _parse_beta(text: str) -> float:
    if text.strip().lower() == "inf":
        return math.inf
    return float(text)


def _format_beta(value: float) -> str:
    return "inf" if math.isinf(value) else repr(float(value))


# section -> key -> (parser, formatter)
_FLOAT = (float, lambda v: repr(float(v)))
_INT = (int, lambda v: str(int(v)))
_STR = (lambda s: s, lambda v: str(v))
_GRID = (_parse_grid, str)
_SCHEMA = {
    "experiment": {"kind": _STR},
    "bath": {
        "density": _STR, "zeta": _FLOAT, "nu": _FLOAT,
        "eta": _FLOAT, "gamma": _FLOAT,
        "beta_hbar": (_parse_beta, _format_beta),
        "Omega": _FLOAT, "K": _INT,
    },
    "hierarchy": {"n_max": _INT},
    "integrator": {"dt": _FLOAT},
    "model": {"kind": _STR, "omega0": _FLOAT, "Ncal": _INT,
              "Gamma": _FLOAT, "p": _INT, "t_f": _FLOAT},
    "run": {"t0": _FLOAT, "tau": _GRID, "omega": _GRID,
            "record": _GRID, "window_time": _FLOAT, "init": _STR,
            "t_max": _FLOAT},
    "output": {"directory": _STR},
}

# experiment -> section -> (required keys, optional keys).  A run reads
# these, the keys of its bath density and those of its model kind, and
# nothing else, so validate_config refuses every other key.
_BATH = (("density", "beta_hbar", "Omega", "K"), ())
_OUTPUT = ((), ("directory",))
_PROPAGATION = {"bath": _BATH, "hierarchy": (("n_max",), ()),
                "integrator": ((), ("dt",)), "model": (("kind",), ()),
                "output": _OUTPUT}
_KEYS = {
    "bath-fit": {"bath": _BATH, "run": (("t_max",), ()), "output": _OUTPUT},
    "respond": {**_PROPAGATION,
                "run": (("t0", "tau", "omega"), ("window_time",))},
    "anneal": {**_PROPAGATION, "run": (("record",), ())},
    "rdm": {**_PROPAGATION, "run": (("record", "init"), ())},
    "validate": {},
}

# the keys each density and each model kind adds, all required
_DENSITY_KEYS = {"ohmic_circular": ("zeta", "nu"),
                 "ohmic_exponential": ("eta", "gamma")}
_MODEL_KEYS = {"spin_boson": ("omega0",), "pure_dephasing": ("omega0",),
               "pspin": ("Ncal", "Gamma", "p", "t_f")}
# the model kinds each propagation experiment runs
_MODELS = {"respond": ("spin_boson", "pure_dephasing"),
           "rdm": ("spin_boson", "pure_dephasing"), "anneal": ("pspin",)}


@dataclasses.dataclass
class RunConfig:
    """Parsed configuration: section -> key -> typed value."""

    data: Dict[str, Dict[str, object]]

    @property
    def experiment(self) -> str:
        return self.data["experiment"]["kind"]

    def get(self, section: str, key: str, default=None):
        return self.data.get(section, {}).get(key, default)

    def require(self, section: str, key: str):
        try:
            return self.data[section][key]
        except KeyError:
            raise ConfigError("required key missing", section=section,
                              key=key) from None

    def replace(self, section: str, key: str, value) -> "RunConfig":
        data = {s: dict(kv) for s, kv in self.data.items()}
        data.setdefault(section, {})[key] = value
        return RunConfig(data)


def parse_config(text: str) -> RunConfig:
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keep key case: Omega and K are spelled as such
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    data: Dict[str, Dict[str, object]] = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError("unknown section", section=section)
        data[section] = {}
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError("unknown key", section=section, key=key)
            parse, _ = _SCHEMA[section][key]
            try:
                data[section][key] = parse(raw)
            except ConfigError:
                raise
            except ValueError as exc:
                raise ConfigError(f"bad value {raw!r}: {exc}",
                                  section=section, key=key) from exc
    if "experiment" not in data or "kind" not in data["experiment"]:
        raise ConfigError("required key missing", section="experiment",
                          key="kind")
    return RunConfig(data)


def parse_config_file(path) -> RunConfig:
    with open(path) as fh:
        return parse_config(fh.read())


def serialize_config(cfg: RunConfig) -> str:
    """Canonical text form; parse(serialize(cfg)) == cfg."""
    out = io.StringIO()
    first = True
    for section, keys in _SCHEMA.items():
        if section not in cfg.data or not cfg.data[section]:
            continue
        if not first:
            out.write("\n")
        first = False
        out.write(f"[{section}]\n")
        for key, (_, fmt) in keys.items():
            if key in cfg.data[section]:
                out.write(f"{key} = {fmt(cfg.data[section][key])}\n")
    return out.getvalue()


def validate_config(cfg: RunConfig) -> None:
    """Structural and cross-field checks; raises ConfigError on the first.

    Required keys must be present, and a key that the experiment, its
    bath density or its model kind does not read is refused.
    """
    kind = cfg.experiment
    if kind not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {kind!r}; expected one of "
                          f"{', '.join(EXPERIMENTS)}",
                          section="experiment", key="kind")
    table = _KEYS[kind]
    for section, (required, _) in table.items():
        for key in required:
            cfg.require(section, key)
    reads = {section: required + optional
             for section, (required, optional) in table.items()}
    reads["experiment"] = ("kind",)
    if "bath" in table:
        density = cfg.require("bath", "density")
        if density not in _DENSITY_KEYS:
            raise ConfigError(f"unknown density {density!r}",
                              section="bath", key="density")
        for key in _DENSITY_KEYS[density]:
            cfg.require("bath", key)
        reads["bath"] += _DENSITY_KEYS[density]
    if "model" in table:
        model = cfg.require("model", "kind")
        if model not in _MODELS[kind]:
            raise ConfigError(f"experiment {kind} needs a model of kind "
                              f"{' or '.join(_MODELS[kind])}",
                              section="model", key="kind")
        for key in _MODEL_KEYS[model]:
            cfg.require("model", key)
        reads["model"] += _MODEL_KEYS[model]
    for section, values in cfg.data.items():
        for key in values:
            if key not in reads.get(section, ()):
                raise ConfigError(f"a {kind} run does not read this key",
                                  section=section, key=key)
    for section, key in (("integrator", "dt"), ("bath", "Omega"),
                         ("run", "window_time")):
        value = cfg.get(section, key)
        if value is not None and not value > 0:
            raise ConfigError(f"must be positive, got {value}",
                              section=section, key=key)
    for section, key, least in (("bath", "K", 2), ("hierarchy", "n_max", 0),
                                ("run", "t0", 0.0), ("run", "t_max", 0.0),
                                ("model", "Ncal", 1)):
        value = cfg.get(section, key)
        if value is not None and value < least:
            raise ConfigError(f"must be at least {least}, got {value}",
                              section=section, key=key)
    for key in ("record", "tau"):
        grid = cfg.get("run", key)
        if grid is not None and grid.start < 0:
            raise ConfigError(f"grid {grid} starts before t = 0",
                              section="run", key=key)
    if kind == "rdm":
        init = cfg.require("run", "init")
        if init not in ("plus", "thermal", "basis0", "basis1"):
            raise ConfigError(f"unknown init {init!r}", section="run",
                              key="init")


def horizon_of(cfg: RunConfig) -> Optional[float]:
    """The latest physical time the experiment's sweeps reach, if any.

    That is the last point of the snapped grid, not the written stop: the
    respond sweeps reach t0 + the last lag, the anneal and rdm sweeps the
    last record time.
    """
    kind = cfg.experiment
    if kind == "respond":
        return float(cfg.require("run", "t0")
                     + cfg.require("run", "tau").values()[-1])
    if kind in ("anneal", "rdm"):
        return float(cfg.require("run", "record").values()[-1])
    if kind == "bath-fit":
        return cfg.require("run", "t_max")
    return None
