"""Forced May-Leonard system: return maps, singular limits, and chaos diagnostics."""

from importlib import import_module

from .errors import NumericsError, ValidationError

__version__ = "0.1.0"

# each exported name and the module that binds it; a module is imported on
# the first use of one of its names, so a command loads only the layers it
# runs (``flow`` alone costs more to import than the rest of the package)
_EXPORTS = {
    "C1Report": "params",
    "DerivedConstants": "params",
    "DiophantineCheckSpec": "params",
    "ModelParams": "params",
    "check_c1a_c1b": "params",
    "derive_constants": "params",
    "KernelValues": "returnmap",
    "compile_map": "returnmap",
    "eta_omega": "returnmap",
    "kernels": "returnmap",
    "AnalyticCircleMap": "singular",
    "BatteryReport": "singular",
    "DoublingMap": "singular",
    "MisiurewiczCertificate": "singular",
    "RigidRotation": "singular",
    "gamma_sequence": "singular",
    "hypothesis_battery": "singular",
    "k_map": "singular",
    "lyapunov_1d": "singular",
    "make_circle_map": "singular",
    "misiurewicz_check": "singular",
    "singular_limit_convergence": "singular",
    "transition_matrix": "singular",
    "RegimeReport": "diagnostics",
    "ScanSummary": "diagnostics",
    "annulus_check": "diagnostics",
    "autocorrelation": "diagnostics",
    "classify_regime": "diagnostics",
    "density_scan": "diagnostics",
    "lyapunov_2d": "diagnostics",
    "rotation_interval": "diagnostics",
    "zero_one_test": "diagnostics",
    "FlowState": "flow",
    "SectionEvent": "flow",
    "Trajectory": "flow",
    "equilibria_spectrum": "flow",
    "integrate": "flow",
    "section_returns": "flow",
    "section_state": "flow",
}


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)
