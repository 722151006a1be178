"""Hierarchical Schrodinger equations of motion for open quantum systems.

Wave-function hierarchies driven by a Bessel-series expansion of the bath
correlation function.  Everything works at any temperature, including
zero, and with time-dependent system Hamiltonians.  Units: hbar = 1.
"""

from .bath import (INFINITE, BathExpansion, BathSpec, OhmicCircular,
                   OhmicExponential, alpha_quadrature, alpha_reconstruct,
                   alpha_theta, build_eta, compute_coefficients,
                   reconstruction_error, tail_mass, write_expansion)
from .config import (EXPERIMENTS, GridSpec, RunConfig, horizon_of,
                     parse_config, parse_config_file, serialize_config,
                     validate_config)
from .dynamics import ContourEngine
from .errors import (ConfigError, EquilibrationWarning, HorizonWarning,
                     HseomError, NumericalError, QuadratureError,
                     ResourceLimitError, TraceError)
from .hierarchy import (ABSENT, HierarchySpace, awf_count, build_space)
from .models import (DenseOperator, DiagonalOperator, MixedState,
                     PauliSumOperator, PauliTerm, PureState,
                     ScaledSumOperator, SystemModel, pspin_annealing,
                     pure_dephasing, spin_boson, thermal_state,
                     uniform_superposition)
from .observables import (CorrelationResult, PopulationTrace, Spectrum,
                          annealing_populations, half_fourier,
                          rdm_trajectory, response_function,
                          two_body_correlation)
from .oracles import (assemble_generator, closed_schedule_propagate,
                      closed_system_propagate, dephasing_exact,
                      magnetization_values, pspin_register)
from .presets import (PRESETS, build_bath_spec, build_components,
                      build_initial, build_model, effective_dt, preset)

__version__ = "0.1.0"
