"""Forced May-Leonard system: return maps, singular limits, and chaos diagnostics."""

from .errors import NumericsError, ValidationError
from .params import (
    C1Report,
    DerivedConstants,
    DiophantineCheckSpec,
    ModelParams,
    check_c1a_c1b,
    derive_constants,
    trig_collapse,
)
from .flow import (
    FlowState,
    IntegrateOpts,
    SectionEvent,
    Trajectory,
    dwell_time_estimate,
    equilibria_spectrum,
    fit_global_constants,
    gh_to_ml,
    integrate,
    section_returns,
    section_state,
    vector_field,
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
    CircleMapSpec,
    DoublingMap,
    MisiurewiczCertificate,
    RigidRotation,
    critical_set,
    gamma_sequence,
    hypothesis_battery,
    k_inverse,
    k_map,
    lyapunov_1d,
    make_circle_map,
    misiurewicz_check,
    singular_limit_convergence,
    transition_matrix,
)
from .diagnostics import (
    RegimeReport,
    ScanOpts,
    ScanResult,
    annulus_check,
    autocorrelation,
    classify_regime,
    density_scan,
    horseshoe_condition,
    lyapunov_2d,
    region_curves,
    rotation_interval,
    zero_one_test,
)

__version__ = "0.1.0"
