"""Integration of the forced winnerless-competition flow.

The vector field is the three-species May-Leonard system with a
non-negative periodic forcing of amplitude ``gamma`` acting on the first
coordinate.  This module integrates it (``integrate``), verifies the
saddle spectra of the unperturbed network, and extracts Poincare return
data on the entry faces of the saddle neighbourhoods (``section_returns``).

Both step with LSODA, which switches between Adams and BDF formulas as it
detects stiffness.  One step loop (``_run_stepper``) calls LSODA's C entry
directly, one step per call, reads LSODA's own counters, rebuilds the
interpolant of a step that brackets a crossing from LSODA's Nordsieck
array, bit-identical to scipy's ``LSODA.dense_output()``, and refines the
crossing with Brent's C root finder.  scipy (>= 1.17) ships both C entries
in two compiled modules, which this module loads by file (``_c_module``)
without running the ``scipy.integrate`` and ``scipy.optimize`` package
``__init__``; the tests pin this seam against the same loop on scipy's
``LSODA`` solver class.  A section face is data, a coordinate
index and a level, compared on the floats of each step end; a step end
that leaves the octant by more than ``abs_tol`` (population chart) or is
not finite stops the run where it happens.  Near a saddle the -1
eigenvalue holds an explicit Runge-Kutta step near 3, while each dwell is
``delta`` times longer than the one before, so an explicit method would
pay for every dwell in steps.  Every section step is capped at 50 (any
``max_step`` above it is lowered): a crossing is seen only between step
ends, and in the log chart, where a dwell is exactly linear, LSODA would
otherwise grow its steps past a whole transit.

The driver reads one vector field, built per run by ``_field`` for
its chart: the formulas run on Python floats, bit-identical to the same
formulas on arrays, at about half the cost of a call on numpy scalars.
Two integration charts are available:

* population coordinates ``(x, y, z)`` -- the default for ``gamma > 0``;
* logarithmic coordinates ``(ln x, ln y, ln z)`` -- used for ``gamma = 0``
  return extraction, where the distance to the invariant planes contracts
  doubly exponentially and would underflow any fixed-precision population
  value after a handful of returns.  Section events therefore carry the
  log of the crossing coordinate alongside its (possibly underflowed)
  value.
"""

from __future__ import annotations

import importlib.util
import math
import os
import sys
import warnings
from dataclasses import dataclass, replace
from importlib.machinery import EXTENSION_SUFFIXES

import numpy as np
import scipy

from .config import NumericsConfig
from .errors import NumericsError, ValidationError
from .params import ModelParams

__all__ = [
    "FlowState",
    "Trajectory",
    "SectionEvent",
    "SectionReturns",
    "ml_jacobian",
    "equilibria_spectrum",
    "table1_eigenpairs",
    "integrate",
    "section_state",
    "section_returns",
]


@dataclass(frozen=True)
class FlowState:
    """Phase point with time.  Coordinates are population proportions >= 0."""

    x: float
    y: float
    z: float
    t: float = 0.0

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.x, self.y, self.z, self.t)):
            raise ValidationError(f"state must be finite, got {self}")
        if min(self.x, self.y, self.z) < 0.0:
            raise ValidationError(f"coordinates must be >= 0, got {self}")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)


@dataclass
class Trajectory:
    """The state at ``t0`` and at every step end, with LSODA's counters of
    the run (``steps``, ``nfev``, ``njev``) as ``stats``."""

    ts: np.ndarray
    states: np.ndarray           # shape (n, 3)
    stats: dict


@dataclass(frozen=True)
class SectionEvent:
    """A transversal crossing of one of the saddle entry faces.

    ``x`` is the leading (expanding) phase coordinate at the crossing in
    population units; ``log_x`` is its natural log, which stays finite long
    after ``x`` itself underflows.  ``s`` is the crossing time reduced
    modulo ``pi/omega``.
    """

    index: int
    section: str
    t_raw: float
    s: float
    x: float
    log_x: float
    state: np.ndarray


class SectionReturns(list):
    """The :class:`SectionEvent` list of one ``section_returns`` run, with
    LSODA's counters of the run (``steps``, ``nfev``, ``njev``) as
    ``stats``."""

    def __init__(self, events, stats):
        super().__init__(events)
        self.stats = stats


def _field(params: ModelParams, in_logs: bool):
    """The forced vector field in one chart, as ``f(t, q) -> list``.

    The rates are ``(1 - r) - c y + e z`` and its cyclic images; the forcing
    ``gamma (1 - x) sin^2(2 omega t)`` acts on ``x``.  The log chart (``q`` is
    ``ln`` of the state; meant for ``gamma = 0``) returns the rates, the forcing
    divided by ``x`` only for ``gamma > 0``, since ``x`` may underflow to 0.
    Both run on the floats of ``q.tolist()`` in the operation order of the
    ndarray formulas, so every value is bit-identical to them.
    """
    c, e, gam, two_om = params.c, params.e, params.gamma, 2.0 * params.omega
    exp, sin = math.exp, math.sin

    if in_logs:
        def log_chart(t, q):
            u, v, w = q.tolist()
            x, y, z = exp(u), exp(v), exp(w)
            one_r = 1.0 - (x + y + z)
            rx = one_r - c * y + e * z
            if gam:
                rx += gam * (1.0 - x) * sin(two_om * t) ** 2 / x
            return [rx, one_r - c * z + e * x, one_r - c * x + e * y]
        return log_chart

    def population(t, q):
        x, y, z = q.tolist()
        one_r = 1.0 - (x + y + z)
        force = gam * (1.0 - x) * sin(two_om * t) ** 2 if gam else 0.0
        return [x * (one_r - c * y + e * z) + force,
                y * (one_r - c * z + e * x),
                z * (one_r - c * x + e * y)]
    return population


def ml_jacobian(point, params: ModelParams) -> np.ndarray:
    """Jacobian of the unforced vector field at a phase point."""
    x, y, z = point
    c, e = params.c, params.e
    r = x + y + z
    return np.array([
        [1.0 - r - c * y + e * z - x, x * (-1.0 - c), x * (e - 1.0)],
        [y * (e - 1.0), 1.0 - r - c * z + e * x - y, y * (-1.0 - c)],
        [z * (-1.0 - c), z * (e - 1.0), 1.0 - r - c * x + e * y - z],
    ])


_AXIS_POINTS = {1: (1.0, 0.0, 0.0), 2: (0.0, 1.0, 0.0), 3: (0.0, 0.0, 1.0)}


def table1_eigenpairs(params: ModelParams, i: int):
    """Expected eigenvalues and eigendirections at the axis saddle ``O_i``.

    Returns ``(eigenvalues, vectors)`` with eigenvalues ``(e, -1, -c)`` and
    the matching eigenvector columns.  The three saddles are cyclic images
    of each other, so the directions at ``O_2`` and ``O_3`` are coordinate
    rolls of those at ``O_1``.
    """
    c, e = params.c, params.e
    base = np.array([
        [(1.0 + c) / (1.0 + e), 1.0, (e - 1.0) / (1.0 - c)],
        [-1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0],
    ])
    vecs = np.roll(base, i - 1, axis=0)
    return np.array([e, -1.0, -c]), vecs


@dataclass(frozen=True)
class EquilibriumRecord:
    label: str                   # signed saddle of the symmetric chart
    point: np.ndarray            # its axis point in population coordinates
    jacobian: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray     # columns, ordered as eigenvalues


def equilibria_spectrum(params: ModelParams) -> list[EquilibriumRecord]:
    """Spectra of the six network saddles of the unperturbed flow.

    The six saddles come in sign pairs ``+O_i`` / ``-O_i`` of the symmetric
    (square-root) chart; the squaring chart identifies each pair with the
    single axis point of the population octant, where the variational
    matrix is evaluated.  All six records share the eigenvalue triple
    ``(e, -1, -c)``.

    Raises
    ------
    ValidationError
        If ``gamma != 0`` (the axis points O_1 are no longer all equilibria).
    """
    if params.gamma != 0.0:
        raise ValidationError("equilibria_spectrum requires gamma = 0")
    records = []
    for i in (1, 2, 3):
        pt = np.array(_AXIS_POINTS[i])
        jac = ml_jacobian(pt, params)
        w, v = np.linalg.eig(jac)
        # order as (e, -1, -c), each eigenvalue picked as the nearest to it
        idx = [int(np.argmin(np.abs(w.real - tv)))
               for tv in (params.e, -1.0, -params.c)]
        w = w.real[idx]
        v = v.real[:, idx]
        for sign in "+-":
            records.append(EquilibriumRecord(
                label=f"{sign}O{i}",
                point=pt,
                jacobian=jac,
                eigenvalues=w,
                eigenvectors=v,
            ))
    return records


def integrate(state0: FlowState, t_end: float, params: ModelParams,
              opts: NumericsConfig = NumericsConfig()) -> Trajectory:
    """Integrate the forced flow from ``state0`` to ``t_end``, forward or
    backward in time.

    LSODA through ``_run_stepper``, in population coordinates, storing the
    start and every step end.  ``t_end`` must be finite, since every step
    is stored.  Coordinates may dip below zero by at most
    ``abs_tol`` (they are clamped in the stored samples); a larger violation
    raises :class:`NumericsError` at the step end where it happens, since
    the closed octant is exactly invariant for the model.
    """
    if not math.isfinite(t_end):
        raise ValidationError(f"t_end must be finite, got {t_end}")
    if t_end == state0.t:
        raise ValidationError("t_end must differ from the initial time")
    ts, states = [], []

    def record(t, y):
        ts.append(t)
        states.append(y)

    stats, _ = _run_stepper(_field(params, False), state0.t, state0.as_array(),
                            t_end, opts, -opts.abs_tol, (), 0.0, 1, None, record)
    return Trajectory(ts=np.array(ts), states=np.maximum(np.array(states), 0.0),
                      stats=stats)


def _c_module(package, name):
    """scipy's compiled module ``scipy.<package>.<name>``.

    The module already imported, if ``scipy.<package>`` has run; otherwise
    the extension file in scipy's package directory, loaded by itself, so
    that the ``scipy.<package>`` ``__init__`` (hundreds of modules) does not
    run.  A missing file is an :class:`ImportError` that names the path and
    the scipy version.
    """
    full = f"scipy.{package}.{name}"
    if full in sys.modules:
        return sys.modules[full]
    base = os.path.join(os.path.dirname(scipy.__file__), package, name)
    for suffix in EXTENSION_SUFFIXES:
        if os.path.isfile(base + suffix):
            spec = importlib.util.spec_from_file_location(full, base + suffix)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            # a single-phase extension enters itself in sys.modules; left
            # there, a later import of its package would not bind it there
            sys.modules.pop(full, None)
            return module
    raise ImportError(
        f"no compiled module {full} at {base}{EXTENSION_SUFFIXES[0]} in "
        f"scipy {scipy.__version__}; mayleonard needs scipy >= 1.17"
    )


# y, t, istate = lsoda(fun, y, t, tout, rtol, atol, itask, istate, rwork, iwork,
#                      jac, jt, f_params, tfirst, jac_params, state_doubles, state_ints)
_lsoda = _c_module("integrate", "_odepack").lsoda
# root = _brentq(f, a, b, xtol, rtol, maxiter, args, full_output, disp)
_brentq = _c_module("optimize", "_zeros")._brentq

# LSODA's failures by istate, as scipy's ``ode`` integrator names them
_LSODA_MESSAGES = {
    -1: "Excess work done on this call (perhaps wrong Dfun type).",
    -2: "Excess accuracy requested (tolerances too small).",
    -3: "Illegal input detected (internal error).",
    -4: "Repeated error test failures (internal error).",
    -5: "Repeated convergence failures (perhaps bad Jacobian or tolerances).",
    -6: "Error weight became zero during problem.",
    -7: "Internal workspace insufficient to finish (internal error).",
}

# scipy's LSODA raises a smaller rtol to this, with a warning
_RTOL_FLOOR = 100.0 * np.finfo(float).eps
# the relative tolerance and iteration cap of scipy's ``brentq``
_BRENT_RTOL = 4.0 * np.finfo(float).eps
_BRENT_MAXITER = 100


def _no_jacobian():
    # LSODA builds its Jacobian from differences; its C entry still takes a callable
    return None


def _run_stepper(fun, t0, y0, t_end, opts, floor, faces, level, max_events,
                 accept, record):
    """Step LSODA from ``t0`` until ``max_events`` crossings are accepted.

    LSODA's C entry (``_lsoda``, scipy's C port of ODEPACK's LSODA) is
    called with itask 5 and ``t_end`` as its critical time: each call takes
    one step towards ``t_end``, forward or backward, never past it, and the
    last step ends on ``t_end`` exactly.  Its work and state arrays are
    built here as scipy's ``ode`` integrator ``lsoda`` builds them for a
    Jacobian from differences (``jt = 2``), with its defaults: at most 500
    steps per call, Adams order 12, BDF order 5.  Each step
    end must have every coordinate ``>= floor`` (``-abs_tol`` in the
    population chart, where the octant is invariant; ``-inf`` in the log
    chart, which catches NaN), or :class:`NumericsError` names the time and
    the state.  ``record(t, y)``, unless ``None``, sees ``t0`` and every step
    end, in step order, with ``y`` a fresh list of floats.

    ``faces`` is a sequence of ``(name, ci)``: a crossing of face ``name`` is
    recorded when coordinate ``ci`` falls from above ``level`` to at most
    ``level`` within a step, with the crossing time refined by Brent's C
    root finder (``_brentq``, as ``scipy.optimize.brentq`` calls it) on the
    step's interpolant to a tolerance of ``1e-12 * max(1, |t|)``, and kept
    when ``accept(name, y)`` holds.
    Returns ``(stats, found)``: LSODA's own counters (``steps``, ``nfev``,
    ``njev``) and the kept crossings as ``(t, name, y)``, fewer than
    ``max_events`` if ``t_end`` came first.
    """
    rtol = opts.rel_tol
    if rtol < _RTOL_FLOOR:
        warnings.warn(f"rel_tol={rtol} is below LSODA's floor of 100 eps; "
                      f"raised to {_RTOL_FLOOR}", stacklevel=3)
        rtol = _RTOL_FLOOR
    atol = opts.abs_tol
    y = np.array(y0, dtype=float)          # LSODA writes the state in place
    n = len(y)
    rwork = np.zeros(max(20 + 16 * n, 22 + 9 * n + n * n))
    rwork[0], rwork[5] = t_end, opts.max_step        # critical time, step cap
    iwork = np.zeros(20 + n, dtype=np.int32)
    iwork[5], iwork[7], iwork[8] = 500, 12, 5        # steps per call, max orders
    doubles, ints = np.zeros(240), np.zeros(48, dtype=np.int32)
    # istate is 1 for the first step, and LSODA returns 2 after a step that
    # succeeded, as the next call must pass
    t, istate = t0, 1
    y_prev = y.tolist()
    if record is not None:
        record(t, y_prev)
    found = []
    while t != t_end and len(found) < max_events:
        t_old = t
        y, t, istate = _lsoda(fun, y, t, t_end, rtol, atol, 5, istate, rwork,
                              iwork, _no_jacobian, 2, (), 1, (), doubles, ints)
        if istate < 0:
            raise NumericsError(f"LSODA failed at t={t} with istate={istate}: "
                                f"{_LSODA_MESSAGES.get(istate, 'unexpected istate')}")
        y_new = y.tolist()
        for v in y_new:
            if not v >= floor:
                raise _left_chart(t, y_new, v, floor)
        # LSODA does not fail once its step underflows: it goes on
        # accepting steps that leave t where it was.  The state tells a
        # blow-up (backward in time, say) from a stalled approach
        if t == t_old:
            raise NumericsError(
                f"step-size underflow at t={t}: t + h == t, "
                f"state {y_new} at the last step end"
            )
        if record is not None:
            record(t, y_new)
        # the faces are read on the step ends as floats; the interpolant is
        # built only for a step that brackets a crossing
        hits = None
        for name, ci in faces:
            if y_new[ci] <= level < y_prev[ci]:
                if hits is None:
                    sol = _nordsieck_interpolant(rwork, iwork, n, t)
                    hits = []

                def face(s):
                    g = sol(s)[ci] - level
                    if math.isnan(g):      # as in scipy's brentq: NaN is no root
                        raise ValueError(f"The function value at x={s} is NaN; "
                                         "solver cannot continue.")
                    return g

                t_hit = _brentq(face, t_old, t, 1e-12 * max(1.0, abs(t)), _BRENT_RTOL,
                                _BRENT_MAXITER, (), False, True)
                hits.append((t_hit, name, np.asarray(sol(t_hit), dtype=float)))
        y_prev = y_new
        if hits:
            hits.sort()
            found += [hit for hit in hits if accept(hit[1], hit[2])]
    stats = {"steps": int(iwork[10]), "nfev": int(iwork[11]),
             "njev": int(iwork[12])}
    return stats, found[:max_events]


def _left_chart(t, y, v, floor):
    if math.isnan(v):
        return NumericsError(f"state {y} at t={t} is not finite: "
                             "integration unreliable")
    return NumericsError(
        f"coordinate fell to {v} at t={t}, beyond -abs_tol={floor}: "
        f"octant invariance violated, integration unreliable (state {y})"
    )


def _nordsieck_interpolant(rwork, iwork, n, t):
    """The interpolant of LSODA's last step, which ended at ``t``, from
    LSODA's work arrays ``rwork`` and ``iwork`` for ``n`` equations.

    LSODA keeps the step in its Nordsieck array, ``yh[:, j] = h**j
    y^(j)(t) / j!`` in ``rwork[20:]``, scaled to the step size it will try
    next.  The polynomial uses the order of the last step (``iwork[13]``);
    when the next order is lower (``iwork[14]``), LSODA has not rescaled
    the last column, so it is rescaled here from the last step size
    ``rwork[10]`` to the next one, ``rwork[11]``.  These are the formulas
    and operations of scipy's ``LSODA.dense_output``, so the values are
    bit-identical to it.
    """
    order, h = iwork[13], rwork[11]
    yh = np.reshape(rwork[20:20 + (order + 1) * n], (n, order + 1), order="F").copy()
    if iwork[14] < order:
        yh[:, -1] *= (h / rwork[10]) ** order
    p = np.arange(order + 1)
    return lambda s: np.dot(yh, ((s - t) / h) ** p)


def section_state(x: float, params: ModelParams) -> FlowState:
    """A start point on the entry face of the O3 neighbourhood, at ``t = 0``.

    ``x`` is the leading coordinate; the point is placed on the invariant
    sphere proxy ``x + y + z = 1`` with ``y = eps_tilde``.
    """
    eps = params.eps_tilde
    if not (0.0 < x <= eps):
        raise ValidationError(f"x must lie in (0, eps_tilde={eps}], got {x}")
    return FlowState(x=x, y=eps, z=1.0 - x - eps, t=0.0)


# entry faces: near O3 the coordinate y falls through eps_tilde (measure x),
# near O1 z falls through eps_tilde (measure y), near O2 x falls (measure z).
_FACES = {
    "O3": (1, 0),   # (coordinate crossing eps, coordinate measured)
    "O1": (2, 1),
    "O2": (0, 2),
}
_MAX_TIME = 1e7     # time budget of a section run after its start


def section_returns(state0: FlowState, n_returns: int, params: ModelParams,
                    opts: NumericsConfig = NumericsConfig(),
                    sections: str = "o3") -> SectionReturns:
    """Extract Poincare section events from the flow.

    Parameters
    ----------
    state0 : FlowState
        Start point, on or off the section; the event at ``t = state0.t``
        is not counted.
    n_returns : int
        Number of crossings to collect.
    opts : NumericsConfig
        Tolerances and step cap; the other fields are not read.  Every
        ``max_step`` above 50 is lowered to 50 (see the module notes): a
        crossing is seen only as a sign change between step ends.
    sections : str
        ``"o3"`` counts only entry-face crossings near O3 (full returns of
        the section map).  ``"all"`` counts the entry faces of all three
        saddles; for ``gamma = 0`` these are equivalent modulo the cyclic
        symmetry, and consecutive crossings realise the single-passage
        contraction exponent ``delta`` rather than its cube.  Any other
        value raises :class:`ValidationError`.

    Returns
    -------
    SectionReturns
        The ``n_returns`` events in time order, with LSODA's counters of
        the run as ``stats``.

    Notes
    -----
    Fewer than ``n_returns`` crossings within the fixed time budget of
    ``1e7`` after ``state0.t`` raise :class:`NumericsError`, and so does a
    step end that is not finite or, for ``gamma > 0``, has a coordinate
    below ``-abs_tol``.
    For ``gamma = 0`` the integration runs in the logarithmic chart, so
    crossing coordinates are meaningful far below the double-precision
    underflow threshold (reported through ``log_x``).
    """
    if n_returns < 1:
        raise ValidationError("n_returns must be >= 1")
    if state0.x <= 0.0:
        raise ValidationError("state0 must be off the invariant plane (x > 0)")
    if sections not in ("o3", "all"):
        raise ValidationError(f"sections must be 'o3' or 'all', got {sections!r}")
    opts = replace(opts, max_step=min(50.0, opts.max_step))
    wanted = ["O3"] if sections == "o3" else ["O1", "O2", "O3"]

    # the section level eps_tilde and the saddle-side threshold 1/2, in the chart
    in_logs = params.gamma == 0.0
    if in_logs:
        if min(state0.y, state0.z) <= 0.0:
            raise ValidationError("the log chart (gamma = 0) needs y > 0 and z > 0")
        q0 = np.log(state0.as_array())
        level, half = math.log(params.eps_tilde), math.log(0.5)
    else:
        q0 = state0.as_array()
        level, half = params.eps_tilde, 0.5

    def near_saddle(name, q):
        ci, mi = _FACES[name]
        return q[mi] < half and q[3 - ci - mi] > half

    faces = [(name, _FACES[name][0]) for name in wanted]
    floor = -math.inf if in_logs else -opts.abs_tol
    t_end = state0.t + _MAX_TIME
    stats, found = _run_stepper(_field(params, in_logs), state0.t, q0, t_end,
                                opts, floor, faces, level, n_returns, near_saddle,
                                None)
    if len(found) < n_returns:
        raise NumericsError(
            f"only {len(found)} of {n_returns} section crossings found by "
            f"t={t_end}, the end of the time budget of {_MAX_TIME} after the "
            f"start, in {stats['steps']} LSODA steps"
        )
    period = math.pi / params.omega
    out = []
    for k, (t_hit, name, q_hit) in enumerate(found):
        _, mi = _FACES[name]
        if in_logs:
            log_x = float(q_hit[mi])
            x = math.exp(log_x) if log_x > -700.0 else 0.0
            state = np.exp(np.maximum(q_hit, -700.0))
        else:
            x = float(max(q_hit[mi], 0.0))
            if x <= 0.0:
                raise NumericsError("non-positive section coordinate at crossing")
            log_x = math.log(x)
            state = q_hit
        out.append(SectionEvent(
            index=k, section=name, t_raw=float(t_hit),
            s=float(t_hit % period), x=x, log_x=log_x, state=state,
        ))
    return SectionReturns(out, stats)

