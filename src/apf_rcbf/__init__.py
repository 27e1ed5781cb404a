"""Potential-field navigation and barrier-filtered controllers for the
single integrator, with an exact QP oracle and a simulation CLI.

The headline fact the package is built around (and tests numerically): the
classic gradient-descent potential-field controller is *identical* to a
min-norm stabilizer passed through a reciprocal-barrier safety filter with a
particular tightening — and generalizing the two tightening terms yields a
family of controllers that trade how early and how hard they react to
obstacles.
"""

from importlib import import_module as _import_module

from .clf import (ClfTerms, GammaSelector, SigmaSelector, check_clf_decrease, clf_terms,
                  nominal_control, sigma_value)
from .errors import (ApfRcbfError, ConfigError, InfeasibleConstraintError,
                     InsideObstacleError, NegativeGammaError, ScenarioValidationError)
from .scenario import (Obstacle, SafeSetSample, Scenario, classify_safety, load_scenario,
                       rho, save_scenario, scenario_from_dict, scenario_to_dict,
                       scenario_violations, validate_scenario)
# ``simulate`` the function shadows ``simulate`` the submodule from here on
from .simulate import (ControllerSpec, SimConfig, Trajectory, TrajectoryMetrics, metrics,
                       read_trajectory_csv, simulate, write_trajectory_csv)

# The field formulas, the barrier filter and the QP oracle are not on the
# rollout path: their modules load on first access to one of their names
# (PEP 562), so ``apf-rcbf run`` never imports them.
_LAZY = {
    "fields": ("FieldEval", "alpha_bar", "apf_control", "attractive_field", "f_att", "f_rep",
               "repulsive_field", "u_att", "u_rep"),
    "qp": ("HalfSpaceConstraint", "QpSolution", "sample_feasibility_check",
           "solve_projection", "solve_projection_many"),
    "rcbf": ("FilterDiagnostics", "RcbfTerms", "generalized_control", "rcbf_terms",
             "safety_filter", "special_filter_control"),
}
_LAZY_OWNER = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name):
    if name in _LAZY:
        return _import_module(f".{name}", __name__)
    if name not in _LAZY_OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_import_module(f".{_LAZY_OWNER[name]}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_LAZY))


__version__ = "0.1.0"

# the numeric kernels are plain Python over numpy arrays
BACKEND = "numpy"

# the eager names, then those of the lazy modules (_LAZY)
__all__ = [
    "BACKEND",
    "__version__",
    # errors
    "ApfRcbfError", "ConfigError", "InfeasibleConstraintError", "InsideObstacleError",
    "NegativeGammaError", "ScenarioValidationError",
    # scenario
    "Obstacle", "SafeSetSample", "Scenario", "classify_safety", "load_scenario", "rho",
    "save_scenario", "scenario_from_dict", "scenario_to_dict", "scenario_violations",
    "validate_scenario",
    # stabilizer and tightening selectors
    "ClfTerms", "GammaSelector", "SigmaSelector", "check_clf_decrease", "clf_terms",
    "nominal_control", "sigma_value",
    # simulation
    "ControllerSpec", "SimConfig", "Trajectory", "TrajectoryMetrics", "metrics",
    "read_trajectory_csv", "simulate", "write_trajectory_csv",
    *_LAZY_OWNER,
]
