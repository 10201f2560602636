"""Integration of the forced winnerless-competition flow.

The vector field is the three-species May-Leonard system with a
non-negative periodic forcing of amplitude ``gamma`` acting on the first
coordinate.  This module integrates it with an embedded adaptive
Runge-Kutta 5(4) scheme with dense output, verifies the saddle spectra of
the unperturbed network, and extracts Poincare return data on the entry
faces of the saddle neighbourhoods.

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

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import RK45
from scipy.optimize import brentq

from .errors import NumericsError, ValidationError
from .params import ModelParams, derive_constants

__all__ = [
    "FlowState",
    "Trajectory",
    "SectionEvent",
    "IntegrateOpts",
    "vector_field",
    "ml_jacobian",
    "gh_to_ml",
    "equilibria_spectrum",
    "table1_eigenpairs",
    "integrate",
    "section_state",
    "section_returns",
    "dwell_time_estimate",
    "fit_global_constants",
]


@dataclass(frozen=True)
class FlowState:
    """Phase point with time.  Coordinates are population proportions >= 0."""

    x: float
    y: float
    z: float
    t: float = 0.0

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)


@dataclass(frozen=True)
class IntegrateOpts:
    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    max_step: float = np.inf

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValidationError("tolerances must be positive")


@dataclass
class Trajectory:
    """Dense-output solution samples plus integrator statistics."""

    ts: np.ndarray
    states: np.ndarray           # shape (n, 3)
    params: ModelParams
    stats: dict
    log_chart: bool = False
    _sols: list = field(default_factory=list, repr=False)

    def state_at(self, t: float) -> np.ndarray:
        """Evaluate the dense output at time t (within the integrated span)."""
        if not self._sols:
            raise NumericsError("trajectory has no dense output")
        lo, hi = self.ts[0], self.ts[-1]
        fwd = hi >= lo
        if (fwd and not (lo <= t <= hi)) or (not fwd and not (hi <= t <= lo)):
            raise ValidationError(f"t={t} outside integrated span [{lo}, {hi}]")
        for sol in self._sols:
            a, b = (sol.t_min, sol.t_max)
            if a <= t <= b:
                return np.asarray(sol(t), dtype=float)
        return np.asarray(self._sols[-1](t), dtype=float)

    def to_rows(self):
        """Rows (t, x, y, z) for CSV export."""
        for t, s in zip(self.ts, self.states):
            yield (t, s[0], s[1], s[2])


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


def vector_field(state: FlowState, params: ModelParams) -> np.ndarray:
    """Right-hand side of the forced system at the given state and time."""
    return _rhs(state.t, state.as_array(), params)


def _rhs(t, q, params):
    x, y, z = q
    c, e, gam, om = params.c, params.e, params.gamma, params.omega
    r = x + y + z
    force = gam * (1.0 - x) * math.sin(2.0 * om * t) ** 2 if gam else 0.0
    return np.array([
        x * ((1.0 - r) - c * y + e * z) + force,
        y * ((1.0 - r) - c * z + e * x),
        z * ((1.0 - r) - c * x + e * y),
    ])


def _rhs_log(t, q, params):
    # chart u=ln x, v=ln y, w=ln z; du/dt = x'/x etc.  The forcing term is
    # gamma*(1-x)*sin^2/x which blows up as x -> 0, so this chart is meant
    # for gamma = 0 (it is still correct for gamma > 0 while x stays
    # representable).
    u, v, w = q
    x, y, z = math.exp(u), math.exp(v), math.exp(w)
    c, e, gam, om = params.c, params.e, params.gamma, params.omega
    r = x + y + z
    du = (1.0 - r) - c * y + e * z
    if gam:
        du += gam * (1.0 - x) * math.sin(2.0 * om * t) ** 2 / x
    return np.array([
        du,
        (1.0 - r) - c * z + e * x,
        (1.0 - r) - c * x + e * y,
    ])


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


def gh_to_ml(state_gh) -> np.ndarray:
    """Componentwise square: the cubic-equivariant chart to population coordinates."""
    v = np.asarray(state_gh, dtype=float)
    return v * v


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
    label: str
    point_signed: np.ndarray     # axis point with sign label (symmetric chart)
    point: np.ndarray            # representative in population coordinates
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
        order = np.argsort(-w.real)          # e > -c > -1 not guaranteed; sort desc
        w = w[order].real
        v = v[:, order].real
        # reorder to (e, -1, -c)
        target = np.array([params.e, -1.0, -params.c])
        idx = [int(np.argmin(np.abs(w - tv))) for tv in target]
        w = w[idx]
        v = v[:, idx]
        for sign in ("+", "-"):
            signed_pt = pt if sign == "+" else -pt
            records.append(EquilibriumRecord(
                label=f"{sign}O{i}",
                point_signed=signed_pt,
                point=pt,
                jacobian=jac,
                eigenvalues=w,
                eigenvectors=v,
            ))
    return records


def _clamp_octant(y, abs_tol):
    worst = float(np.min(y))
    if worst < -abs_tol:
        raise NumericsError(
            f"coordinate fell to {worst}, beyond -abs_tol={-abs_tol}: "
            "octant invariance violated, integration unreliable"
        )
    return np.maximum(y, 0.0)


def integrate(state0: FlowState, t_end: float, params: ModelParams,
              opts: IntegrateOpts = IntegrateOpts()) -> Trajectory:
    """Integrate the forced flow from ``state0`` to ``t_end``.

    Adaptive Runge-Kutta 5(4) with dense output.  Coordinates may dip
    below zero by at most ``abs_tol`` (they are clamped in the stored
    samples); a larger violation raises :class:`NumericsError` since the
    closed octant is exactly invariant for the model.
    """
    if t_end == state0.t:
        raise ValidationError("t_end must differ from the initial time")
    ts, states, sols, stats, _ = _run_rk45(
        lambda t, q: _rhs(t, q, params),
        state0.t, state0.as_array(), t_end, opts,
        postprocess=lambda y: _clamp_octant(y, opts.abs_tol), keep_steps=True,
    )
    return Trajectory(ts=np.array(ts), states=np.array(states), params=params,
                      stats=stats, _sols=sols)


def _run_rk45(fun, t0, y0, t_end, opts, postprocess=None, events=(),
              max_events=None, event_filter=None, keep_steps=False):
    """Drive scipy's RK45 stepper, locating events and optionally keeping steps.

    ``events`` is a sequence of ``(name, g(t, y), direction)``; a crossing is
    recorded when g changes sign in the stated direction within a step, with
    the crossing time refined by root-finding on the dense interpolant to a
    tolerance of ``1e-12 * max(1, |t|)``.  Returns ``(ts, states, sols,
    stats, found)``: the step times, states and dense outputs (empty unless
    ``keep_steps``), the stepper counters, and the accepted crossings as
    ``(t, name, y)``.
    """
    stepper = RK45(fun, t0, np.asarray(y0, dtype=float), t_end,
                   rtol=opts.rel_tol, atol=opts.abs_tol, max_step=opts.max_step)
    y_prev = postprocess(stepper.y.copy()) if postprocess else stepper.y.copy()
    t_prev, accepted = t0, 0
    ts, states, sols = ([t0], [y_prev], []) if keep_steps else ([], [], [])
    found = []
    g_prev = [g(t0, y_prev) for (_, g, _) in events]
    while stepper.status == "running":
        msg = stepper.step()
        if stepper.status == "failed":
            raise NumericsError(
                f"step-size underflow at t={stepper.t}: {msg} "
                "(likely stiffness near an equilibrium)"
            )
        accepted += 1
        t_new, y_new = stepper.t, stepper.y.copy()
        if postprocess:
            y_new = postprocess(y_new)
        # the interpolant is built only for a kept step or a bracketed crossing
        sol = None
        if keep_steps:
            sol = stepper.dense_output()
            ts.append(t_new)
            states.append(y_new)
            sols.append(sol)
        hits = []
        for k, (name, g, direction) in enumerate(events):
            g_new = g(t_new, y_new)
            crossed = (g_prev[k] > 0.0 >= g_new) if direction < 0 else \
                      (g_prev[k] < 0.0 <= g_new) if direction > 0 else \
                      (g_prev[k] * g_new <= 0.0 and g_prev[k] != g_new)
            if crossed and g_prev[k] != 0.0:
                if sol is None:
                    sol = stepper.dense_output()
                t_hit = brentq(lambda t: g(t, sol(t)), t_prev, t_new,
                               xtol=1e-12 * max(1.0, abs(t_new)))
                hits.append((t_hit, name, np.asarray(sol(t_hit), dtype=float)))
            g_prev[k] = g_new
        hits.sort()
        for t_hit, name, y_hit in hits:
            if event_filter is None or event_filter(name, t_hit, y_hit):
                found.append((t_hit, name, y_hit))
                if max_events is not None and len(found) >= max_events:
                    return ts, states, sols, _stats(stepper, accepted), found
        t_prev = t_new
    return ts, states, sols, _stats(stepper, accepted), found


def _stats(stepper, accepted):
    # RK45 spends 6 evaluations per attempted step plus one startup call,
    # so the rejection count can be recovered from nfev.
    attempted = max(accepted, (stepper.nfev - 1) // 6)
    return {
        "steps": accepted,
        "nfev": stepper.nfev,
        "rejected_steps": attempted - accepted,
    }


def section_state(x: float, params: ModelParams, t0: float = 0.0) -> FlowState:
    """A start point on the entry face of the O3 neighbourhood.

    ``x`` is the leading coordinate; the point is placed on the invariant
    sphere proxy ``x + y + z = 1`` with ``y = eps_tilde``.
    """
    eps = params.eps_tilde
    if not (0.0 < x <= eps):
        raise ValidationError(f"x must lie in (0, eps_tilde={eps}], got {x}")
    return FlowState(x=x, y=eps, z=1.0 - x - eps, t=t0)


# entry faces: near O3 the coordinate y falls through eps_tilde (measure x),
# near O1 z falls through eps_tilde (measure y), near O2 x falls (measure z).
_FACES = {
    "O3": (1, 0),   # (coordinate crossing eps, coordinate measured)
    "O1": (2, 1),
    "O2": (0, 2),
}


def section_returns(state0: FlowState, n_returns: int, params: ModelParams,
                    opts: IntegrateOpts | None = None,
                    sections: str = "o3",
                    max_time: float = 1e7) -> list[SectionEvent]:
    """Extract Poincare section events from the flow.

    Parameters
    ----------
    state0 : FlowState
        Start point, on or off the section; the event at ``t = state0.t``
        is not counted.
    n_returns : int
        Number of crossings to collect.
    sections : str
        ``"o3"`` counts only entry-face crossings near O3 (full returns of
        the section map).  ``"all"`` counts the entry faces of all three
        saddles; for ``gamma = 0`` these are equivalent modulo the cyclic
        symmetry, and consecutive crossings realise the single-passage
        contraction exponent ``delta`` rather than its cube.

    Notes
    -----
    For ``gamma = 0`` the integration runs in the logarithmic chart, so
    crossing coordinates are meaningful far below the double-precision
    underflow threshold (reported through ``log_x``).
    """
    if n_returns < 1:
        raise ValidationError("n_returns must be >= 1")
    if state0.x <= 0.0:
        raise ValidationError("state0 must be off the invariant plane (x > 0)")
    if opts is None:
        opts = IntegrateOpts(rel_tol=1e-9, abs_tol=1e-12, max_step=50.0)
    leps = math.log(params.eps_tilde)
    log_chart = params.gamma == 0.0
    wanted = ["O3"] if sections == "o3" else ["O1", "O2", "O3"]

    if log_chart:
        q0 = np.log(state0.as_array())
        fun = lambda t, q: _rhs_log(t, q, params)
        half = math.log(0.5)

        def make_event(name):
            ci, _ = _FACES[name]
            return (name, lambda t, q, ci=ci: q[ci] - leps, -1)

        def near_saddle(name, t, q):
            ci, mi = _FACES[name]
            ri = 3 - ci - mi
            return q[mi] < half and q[ri] > half
    else:
        q0 = state0.as_array()
        fun = lambda t, q: _rhs(t, q, params)

        def make_event(name):
            ci, _ = _FACES[name]
            return (name, lambda t, q, ci=ci: q[ci] - params.eps_tilde, -1)

        def near_saddle(name, t, q):
            ci, mi = _FACES[name]
            ri = 3 - ci - mi
            return q[mi] < 0.5 and q[ri] > 0.5

    events = [make_event(nm) for nm in wanted]
    *_, found = _run_rk45(fun, state0.t, q0, state0.t + max_time, opts,
                          events=events, max_events=n_returns,
                          event_filter=near_saddle)
    if len(found) < n_returns:
        raise NumericsError(
            f"only {len(found)} of {n_returns} section crossings found within "
            f"max_time={max_time}; the start may be too close to the invariant plane"
        )
    period = math.pi / params.omega
    out = []
    for k, (t_hit, name, q_hit) in enumerate(found):
        _, mi = _FACES[name]
        if log_chart:
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
    return out


def dwell_time_estimate(x_u0: float, params: ModelParams) -> float:
    """Leading-order time of flight through a saddle neighbourhood.

    ``x_u0`` is the entry value of the expanding coordinate in the units of
    the local analysis (physical entry in cube units divided by ``gamma``).
    Returns ``(1/e) * ln(1/(gamma * x_u0))``.  The O(gamma) drift
    corrections of the local normal form are dropped; the estimate is only
    valid while ``gamma * x_u0 < 1``.
    """
    if params.gamma <= 0.0:
        raise ValidationError("dwell_time_estimate requires gamma > 0")
    if not (0.0 < x_u0 <= 1.0 / params.gamma):
        raise ValidationError("x_u0 must be positive with gamma * x_u0 <= 1")
    arg = params.gamma * x_u0
    if arg >= 1.0:
        raise ValidationError(
            f"gamma * x_u0 = {arg} >= 1: outside the validity region"
        )
    return math.log(1.0 / arg) / params.e


@dataclass(frozen=True)
class GlobalFitResult:
    mu: float
    mu1: float
    mu3: float
    residual: float
    n_events: int


def fit_global_constants(events, params: ModelParams) -> GlobalFitResult:
    """Least-squares fit of the low-frequency return model to section data.

    Fits ``x' = mu * x**delta + gamma * mu1 * (1 - sqrt(a1) cos(2 pi s))``
    over consecutive event pairs (linear in ``mu`` and ``mu1``), and
    recovers ``mu3`` from the circular mean of the phase updates.  Events
    must use the mod-1 phase convention with ``x`` in cross-section units.
    """
    if len(events) < 51:
        raise ValidationError("need at least 50 return pairs for the fit")
    if params.gamma <= 0.0:
        raise ValidationError("the fit requires gamma > 0 forcing data")
    dc = derive_constants(params)
    xs = np.array([ev.x for ev in events])
    ss = np.array([ev.s for ev in events])
    x_in, s_in, x_out, s_out = xs[:-1], ss[:-1], xs[1:], ss[1:]
    A = np.column_stack([
        x_in**dc.delta,
        params.gamma * (1.0 - dc.sqrt_a1 * np.cos(2.0 * np.pi * s_in)),
    ])
    if np.linalg.matrix_rank(A) < 2 or np.ptp(x_in) < 1e-13:
        raise NumericsError("rank-deficient fit: section x values carry no spread")
    coef, res, _, _ = np.linalg.lstsq(A, x_out, rcond=None)
    mu, mu1 = float(coef[0]), float(coef[1])
    pred = A @ coef
    residual = float(np.sqrt(np.mean((pred - x_out) ** 2)))
    # phase update: s' = s + mu3*omega/pi - (xi*omega/pi) log x'  (mod 1)
    om = params.omega
    incr = (s_out - s_in + (dc.xi * om / math.pi) * np.log(x_out)) % 1.0
    ang = 2.0 * np.pi * incr
    mean_angle = math.atan2(float(np.mean(np.sin(ang))), float(np.mean(np.cos(ang))))
    mu3 = (mean_angle / (2.0 * np.pi)) % 1.0 * math.pi / om
    return GlobalFitResult(mu=mu, mu1=mu1, mu3=mu3,
                           residual=residual, n_events=len(events))
