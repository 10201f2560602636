"""Forced May-Leonard system: return maps, singular limits, and chaos diagnostics."""

from .errors import NumericsError, ValidationError
from .params import (
    C1Report,
    DerivedConstants,
    DiophantineCheckSpec,
    ModelParams,
    check_c1a_c1b,
    derive_constants,
)
from .returnmap import (
    KernelValues,
    compile_map,
    eta_omega,
    kernels,
)
from .singular import (
    AnalyticCircleMap,
    BatteryReport,
    DoublingMap,
    MisiurewiczCertificate,
    RigidRotation,
    gamma_sequence,
    hypothesis_battery,
    k_map,
    lyapunov_1d,
    make_circle_map,
    misiurewicz_check,
    singular_limit_convergence,
    transition_matrix,
)
from .diagnostics import (
    RegimeReport,
    ScanSummary,
    annulus_check,
    autocorrelation,
    classify_regime,
    density_scan,
    lyapunov_2d,
    rotation_interval,
    zero_one_test,
)

__version__ = "0.1.0"

# the flow layer costs more to import than the rest of the package, so its
# names resolve on first use
_FLOW_NAMES = frozenset({
    "FlowState", "SectionEvent", "Trajectory", "dwell_time_estimate",
    "equilibria_spectrum", "fit_global_constants", "integrate",
    "section_returns", "section_state",
})


def __getattr__(name):
    if name in _FLOW_NAMES:
        from . import flow
        return getattr(flow, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
