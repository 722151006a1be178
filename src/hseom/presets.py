"""Named parameter sets and the builders that turn a config into objects.

The presets pin every number a run needs, so tests, shipped config files,
and the command line all draw from one place.  Time steps default to the
largest value that divides the relevant record grid while keeping the
exponent of every degree-8 Taylor factor of the step within
``TAYLOR_STEP_NORM`` (see :func:`effective_dt`): dt * ||G|| for a fixed G,
(dt/2) * ||G|| for a schedule, with ||G|| the smaller of the 1-norm and
inf-norm bounds of :attr:`ContourEngine.norm_bound`.
"""

from __future__ import annotations

import math
from types import SimpleNamespace
from typing import Dict

import numpy as np

from .bath import (INFINITE, BathSpec, OhmicCircular, OhmicExponential,
                   compute_coefficients)
from .config import GridSpec, RunConfig
from .dynamics import ContourEngine
from .errors import ConfigError
from .hierarchy import build_space
from .models import (PureState, pspin_annealing, pure_dephasing, spin_boson,
                     thermal_state, uniform_superposition)

__all__ = ["PRESETS", "TAYLOR_STEP_NORM", "preset",
           "build_bath_spec", "build_model", "build_initial", "grid_unit",
           "step_norm", "effective_dt", "build_components"]

_OMEGA0 = math.pi
# the default step keeps the exponent of every Taylor factor, dt * ||G||
# or a schedule's (dt/2) * ||G(tau)||, at or below this, with ||G|| the
# smaller of the 1-norm and inf-norm bounds: the largest multiple of 0.05
# inside the left half-disk of radius 3.39 where the degree-8 Taylor
# polynomial is stable
TAYLOR_STEP_NORM = 3.35


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
    # the ten-qubit run is a documented target, not part of the test gate
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
    """The step every sweep must land on: the lag or record spacing."""
    kind = cfg.experiment
    if kind == "respond":
        return cfg.require("run", "tau").step
    if kind in ("anneal", "rdm"):
        return cfg.require("run", "record").step
    raise ConfigError(f"a {kind!r} experiment takes no time step",
                      section="experiment", key="kind")


def step_norm(engine: ContourEngine) -> float:
    """The bound on dt * ||G||, ||G|| the smaller of the 1-norm and
    inf-norm bounds: ``TAYLOR_STEP_NORM`` on each factor's share of dt."""
    return TAYLOR_STEP_NORM * engine.step_factors


def effective_dt(cfg: RunConfig, engine: ContourEngine) -> float:
    """Explicit ``[integrator] dt``, or the default step for the engine.

    The default is the largest unit / n, with ``unit`` from
    :func:`grid_unit` and n whole, such that dt times
    :attr:`ContourEngine.norm_bound` stays at or below :func:`step_norm`.
    That bound is the smaller of a bound on ||G(tau)||_1 and one on
    ||G(tau)||_inf over the schedule.  The spectral radius of G is at
    most either induced norm, so no eigenvalue of dt G lies farther than
    dt times the bound from 0.  The other norm may be larger: on
    respond-circular dt ||G||_1 reaches 4.05, on dephasing 4.95.

    Every step is made of degree-8 Taylor factors (``dynamics``), whose
    stability region holds the left half-disk of radius 3.39: one factor
    of exponent dt G for a fixed G, two of (dt/2) G(tau) for a schedule.
    At 3.35 on each exponent no generator whose spectrum lies in the
    closed left half-plane can blow up, and the generators here have
    spectra on the imaginary axis.  So the bound is stability's; it
    guarantees nothing about accuracy, which is measured instead: the
    fixed G's error falls as dt^8, the schedule's as dt^4, and every
    shipped run preset stays within 1e-5 of its dt/4 reference (the
    largest miss is 5.0e-7, rdm-circular).  Every shipped anneal takes one
    step per record interval.

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
                                   / step_norm(engine)))


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
