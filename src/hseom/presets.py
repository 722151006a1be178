"""Named parameter sets and the builders that turn a config into objects.

The presets pin every number a run needs, so tests, shipped config files,
and the command line all draw from one place.  Time steps default to the
largest value that divides the relevant record grid within the engine's
step bound, :attr:`ContourEngine.step_norm` (see :func:`effective_dt`).
"""

from __future__ import annotations

import math
from types import SimpleNamespace
from typing import Dict, Tuple

import numpy as np

from .bath import (INFINITE, BathSpec, OhmicCircular, OhmicExponential,
                   compute_coefficients)
from .config import GridSpec, RunConfig
from .dynamics import _GRID_TOL, ContourEngine
from .errors import ConfigError
from .hierarchy import build_space
from .models import (PureState, pspin_annealing, pure_dephasing, spin_boson,
                     thermal_state, uniform_superposition)

__all__ = ["PRESETS", "preset", "build_bath_spec", "build_model",
           "system_size", "build_initial", "grid_unit", "effective_dt",
           "build_components"]

_OMEGA0 = math.pi
# largest q of a grid unit, the grid's spacing / q (see grid_unit)
_MAX_SUBDIVISION = 1000


def _cfg(experiment: str, **sections) -> RunConfig:
    data = {"experiment": {"kind": experiment}}
    data.update(sections)
    return RunConfig(data)


def _respond(density: str, dens_params: Dict[str, float], Omega: float,
             K: int) -> RunConfig:
    return _cfg(
        "respond",
        bath={"density": density, **dens_params, "beta_hbar": 3.0,
              "Omega": Omega, "K": K},
        hierarchy={"n_max": 3},
        model={"kind": "spin_boson", "omega0": _OMEGA0},
        run={"t0": 2.0,
             "tau": GridSpec(0.0, 4.0, 0.1),
             "omega": GridSpec(0.3 * _OMEGA0, 2.2 * _OMEGA0, 0.02 * _OMEGA0)},
    )


def _anneal(zeta: float, n_max: int, Ncal: int = 4) -> RunConfig:
    return _cfg(
        "anneal",
        bath={"density": "ohmic_circular", "zeta": zeta, "nu": 3.0,
              "beta_hbar": INFINITE, "Omega": 3.0, "K": 5},
        hierarchy={"n_max": n_max},
        model={"kind": "pspin", "Ncal": Ncal, "Gamma": 1.0, "p": 5,
               "t_f": 1.0},
        run={"record": GridSpec(0.0, 1.0, 0.1)},
    )


PRESETS: Dict[str, RunConfig] = {
    # dissipative-qubit response, the two cutoff forms of the same physics;
    # the couplings correspond via zeta = 2 eta / e at nu = gamma
    "respond-circular": _respond(
        "ohmic_circular", {"zeta": 0.35, "nu": 6.0}, 6.0, 20),
    "respond-exponential": _respond(
        "ohmic_exponential", {"eta": math.e * 0.35 / 2.0, "gamma": 6.0},
        20.0, 40),
    "respond-exponential-full": _respond(
        "ohmic_exponential", {"eta": math.e * 0.35 / 2.0, "gamma": 6.0},
        20.0, 80),
    # four-qubit annealing at three couplings; the strong case needs the
    # deeper hierarchy, the other two truncate at two excitations
    "anneal-weak": _anneal(0.01, 2),
    "anneal-intermediate": _anneal(0.1, 2),
    "anneal-strong": _anneal(0.5, 4),
    # the ten-qubit run; the test suite checks it against the full
    # register and checks that its default step is converged
    "anneal-large": _anneal(0.1, 2, Ncal=10),
    # density-matrix structure on the response bath
    "rdm-circular": _cfg(
        "rdm",
        bath={"density": "ohmic_circular", "zeta": 0.35, "nu": 6.0,
              "beta_hbar": 3.0, "Omega": 6.0, "K": 20},
        hierarchy={"n_max": 3},
        model={"kind": "spin_boson", "omega0": _OMEGA0},
        run={"record": GridSpec(0.0, 2.0, 0.25), "init": "plus"},
    ),
    # weak coupling from a thermal mixture; the population ratio should sit
    # at the detailed-balance value and stay there
    "thermal-ratio": _cfg(
        "rdm",
        bath={"density": "ohmic_circular", "zeta": 0.01, "nu": 2.0,
              "beta_hbar": 3.0, "Omega": 2.0, "K": 20},
        hierarchy={"n_max": 3},
        model={"kind": "spin_boson", "omega0": 1.0},
        run={"record": GridSpec(0.0, 8.0, 0.5), "init": "thermal"},
    ),
    # commuting coupling, pitted against the exact dephasing factor
    "dephasing": _cfg(
        "rdm",
        bath={"density": "ohmic_circular", "zeta": 0.1, "nu": 3.0,
              "beta_hbar": 3.0, "Omega": 3.0, "K": 12},
        hierarchy={"n_max": 5},
        model={"kind": "pure_dephasing", "omega0": 1.0},
        run={"record": GridSpec(0.0, 2.0, 0.5), "init": "plus"},
    ),
    # expansion-only preset for the bath-fit workflow
    "bath-fit-circular": _cfg(
        "bath-fit",
        bath={"density": "ohmic_circular", "zeta": 0.35, "nu": 6.0,
              "beta_hbar": 3.0, "Omega": 6.0, "K": 20},
        run={"t_max": 2.0},
    ),
}


def preset(name: str) -> RunConfig:
    try:
        return PRESETS[name]
    except KeyError:
        raise ConfigError(f"unknown preset {name!r}; have "
                          f"{', '.join(sorted(PRESETS))}") from None


def build_bath_spec(cfg: RunConfig) -> BathSpec:
    density = cfg.require("bath", "density")
    if density == "ohmic_circular":
        dens = OhmicCircular(zeta=cfg.require("bath", "zeta"),
                             nu=cfg.require("bath", "nu"))
    elif density == "ohmic_exponential":
        dens = OhmicExponential(eta=cfg.require("bath", "eta"),
                                gamma=cfg.require("bath", "gamma"))
    else:
        raise ConfigError(f"unknown density {density!r}", section="bath",
                          key="density")
    return BathSpec(density=dens, beta_hbar=cfg.require("bath", "beta_hbar"),
                    Omega=cfg.require("bath", "Omega"),
                    K=cfg.require("bath", "K"))


def build_model(cfg: RunConfig):
    kind = cfg.require("model", "kind")
    if kind == "spin_boson":
        return spin_boson(cfg.require("model", "omega0"))
    if kind == "pure_dephasing":
        return pure_dephasing(cfg.require("model", "omega0"))
    if kind == "pspin":
        return pspin_annealing(cfg.require("model", "Ncal"),
                               cfg.require("model", "Gamma"),
                               cfg.require("model", "p"),
                               cfg.require("model", "t_f"))
    raise ConfigError(f"unknown model {kind!r}", section="model", key="kind")


def system_size(cfg: RunConfig) -> Tuple[int, int, int, int]:
    """The model's size, read off the config with nothing built.

    Returns (dim, h_start, v, ramp): the dimension, upper bounds on the
    stored entries of H(0) and of V, and on those of a schedule's H(0) and
    H(t_f) on their one pattern (:class:`ContourEngine`), 0 for a fixed
    model, whose H folds into G_c.
    """
    if cfg.require("model", "kind") == "pspin":
        Ncal = int(cfg.require("model", "Ncal"))
        # the Ncal + 1 permutation-symmetric states: the driver moves k by
        # one up or down; target and coupling are diagonal
        return Ncal + 1, 2 * Ncal, Ncal + 1, 3 * Ncal + 1
    return 2, 4, 4, 0


def build_initial(cfg: RunConfig, model):
    if cfg.experiment == "anneal":
        return uniform_superposition(cfg.require("model", "Ncal"))
    if cfg.experiment == "respond":
        # response_function starts from |1>, the ground state
        return PureState(np.array([0.0, 1.0]))
    name = cfg.require("run", "init")
    if name == "plus":
        return PureState(np.array([1.0, 1.0]) / math.sqrt(2.0))
    if name == "basis0":
        return PureState(np.array([1.0, 0.0]))
    if name == "basis1":
        return PureState(np.array([0.0, 1.0]))
    if name == "thermal":
        return thermal_state(model, cfg.require("bath", "beta_hbar"))
    raise ConfigError(f"unknown init {name!r}", section="run", key="init")


def grid_unit(cfg: RunConfig) -> float:
    """The longest step every sweep lands on: the lag or record spacing
    divided by the least whole q, up to 1,000, that makes the grid's
    offset, respond's ``t0`` or the first record time, a whole number of
    units to 1e-9, as the run checks each time (``dynamics._step_of``).
    A grid that starts on its spacing has q = 1.  An offset that no q
    fits is refused: it needs an explicit ``[integrator] dt``."""
    kind = cfg.experiment
    if kind == "respond":
        spacing, key = cfg.require("run", "tau").step, "t0"
        offset = cfg.require("run", "t0")
    elif kind in ("anneal", "rdm"):
        record = cfg.require("run", "record")
        spacing, key, offset = record.step, "record", record.start
    else:
        raise ConfigError(f"a {kind!r} experiment takes no time step",
                          section="experiment", key="kind")
    for q in range(1, _MAX_SUBDIVISION + 1):
        unit = spacing / q
        if abs(round(offset / unit) * unit - offset) \
                <= _GRID_TOL * max(1.0, offset):
            return unit
    raise ConfigError(f"{key} = {offset} lies on no grid of spacing "
                      f"{spacing} / q for whole q up to {_MAX_SUBDIVISION}; "
                      f"set [integrator] dt", section="run", key=key)


def effective_dt(cfg: RunConfig, engine: ContourEngine) -> float:
    """Explicit ``[integrator] dt``, or the default step for the engine.

    The default is the largest unit / n, with ``unit`` from
    :func:`grid_unit` and n whole, such that dt times
    :attr:`ContourEngine.norm_bound` stays at or below
    :attr:`ContourEngine.step_norm`.  That bound is the smaller of a bound
    on ||G(tau)||_1 and one on ||G(tau)||_inf over the schedule, and the
    other norm may be larger: on respond-circular dt ||G||_1 reaches
    4.05, on dephasing 4.95.  The step norm is stability's (the module
    docstring of ``dynamics``); it guarantees nothing about accuracy,
    which is measured instead: the fixed G's error falls as dt^8, the
    schedule's as dt^4, and every shipped run preset stays within 1e-5 of
    its dt/4 reference (the largest miss is 5.0e-7, rdm-circular).  Every
    shipped anneal takes one step per record interval.

    The accuracy of every run is checked as it goes by the trace, which
    the closed contour keeps at 1 in continuous time (see
    ``observables.TRACE_TOL``); the command line reruns a default step
    that fails it at a smaller one (``cli._solve``).
    """
    explicit = cfg.get("integrator", "dt")
    if explicit is not None:
        return explicit
    unit = grid_unit(cfg)
    return unit / max(1, math.ceil(unit * engine.norm_bound
                                   / engine.step_norm))


def build_components(cfg: RunConfig) -> SimpleNamespace:
    """Everything a propagation experiment needs, built once."""
    bath_spec = build_bath_spec(cfg)
    expansion = compute_coefficients(bath_spec)
    space = build_space(bath_spec.K, cfg.require("hierarchy", "n_max"))
    model = build_model(cfg)
    engine = ContourEngine(space, expansion, model)
    dt = effective_dt(cfg, engine)
    return SimpleNamespace(bath_spec=bath_spec, expansion=expansion,
                           space=space, model=model, engine=engine,
                           init=build_initial(cfg, model), dt=dt,
                           dt_norm=dt * engine.norm_bound)
