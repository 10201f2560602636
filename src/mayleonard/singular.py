"""Singular-limit circle maps and the hypothesis battery.

Along the amplitude sequence ``gamma_(n,a)`` the rescaled return family
collapses onto a one-dimensional circle map ``h_a``.  This module builds
those sequences, the circle map and its critical structure, and runs the
finite-horizon certification battery: expansion outside a critical
neighbourhood, critical-orbit avoidance, derivative recovery inside the
neighbourhood, transition-matrix mixing, and the auxiliary regularity and
convergence checks.

All certificates are finite-horizon floating-point checks with recorded
horizons and tolerances; none of them is a proof, and the expansion
property is not even an open condition, so no robustness is claimed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.optimize import brentq

from .errors import NumericsError, ValidationError
from .params import DerivedConstants, ModelParams, derive_constants
from .returnmap import compile_map

__all__ = [
    "CircleMapSpec",
    "CircleMap",
    "AnalyticCircleMap",
    "DoublingMap",
    "RigidRotation",
    "CriticalPoint",
    "MisiurewiczCertificate",
    "TransitionMatrix",
    "BatteryReport",
    "k_map",
    "k_inverse",
    "gamma_sequence",
    "make_circle_map",
    "critical_set",
    "singular_limit_convergence",
    "misiurewicz_check",
    "transition_matrix",
    "lyapunov_1d",
    "transversality_probe",
    "hypothesis_battery",
    "xi_star_scan",
    "doubling_orbit",
]


# ---------------------------------------------------------------------------
# amplitude sequences

def k_map(x: float, constants: DerivedConstants) -> float:
    """Logarithmic phase bookkeeping of the amplitude, ``-K_omega xi ln x``."""
    if x <= 0.0:
        raise ValidationError(f"k_map needs x > 0, got {x}")
    return -constants.K_omega * constants.xi * math.log(x)


def k_inverse(y: float, constants: DerivedConstants) -> float:
    return math.exp(-y / (constants.K_omega * constants.xi))


def gamma_sequence(n: int, a: float, constants: DerivedConstants,
                   gamma_plus: float | None = None) -> float:
    """The n-th amplitude with phase offset ``a``: ``exp(-(n+a)/(K_omega xi))``.

    When ``gamma_plus`` is given, indices whose amplitude is not below that
    admissibility bound are rejected.
    """
    if not (0.0 <= a < 1.0):
        raise ValidationError(f"a must lie in [0, 1), got {a}")
    if n < 1:
        raise ValidationError(f"n must be a positive index, got {n}")
    kxi = constants.K_omega * constants.xi
    gamma = math.exp(-(n + a) / kxi)
    if gamma == 0.0:
        raise ValidationError(
            f"amplitude at index n={n} underflows double precision "
            f"(K_omega * xi = {kxi:.3e})"
        )
    if gamma_plus is not None:
        n0 = math.floor(kxi * math.log(1.0 / gamma_plus)) + 1
        if n < n0:
            raise ValidationError(
                f"n={n} below the first admissible index n0={n0} "
                f"(gamma_plus={gamma_plus})"
            )
    return gamma


# ---------------------------------------------------------------------------
# circle maps

@dataclass(frozen=True)
class CircleMapSpec:
    """Constants entering the singular-limit circle map."""

    a: float
    omega: float
    xi: float
    mu3: float
    sqrt_a1: float

    def __post_init__(self):
        if not (0.0 <= self.a < 1.0):
            raise ValidationError(f"a must lie in [0, 1), got {self.a}")
        if not (0.0 <= self.sqrt_a1 < 1.0):
            raise ValidationError(
                f"sqrt_a1 must lie in [0, 1) (log singularity at 1), got {self.sqrt_a1}"
            )


class CircleMap:
    """Degree-d circle map exposed through its lift and derivatives.

    Subclasses implement ``lift`` (with ``lift(s+1) = lift(s) + degree``),
    ``derivative`` and ``second_derivative``; all accept scalars or arrays.
    """

    degree = 1

    def lift(self, s):
        raise NotImplementedError

    def value(self, s):
        return self.lift(s) % 1.0

    def derivative(self, s):
        raise NotImplementedError

    def second_derivative(self, s):
        raise NotImplementedError

    def critical_points(self):
        """Zeros of the derivative on [0, 1), with curvature values.

        Found once per instance; each call returns a new list, so a caller
        cannot change the set the next caller sees.
        """
        cached = getattr(self, "_critical", None)
        if cached is None:
            cached = self._critical = tuple(critical_set(self))
        return list(cached)

    def orbit(self, s0: float, n: int, burn_in: int = 0) -> np.ndarray:
        s = float(s0)
        for _ in range(burn_in):
            s = float(self.value(s))
        out = np.empty(n)
        for i in range(n):
            s = float(self.value(s))
            out[i] = s
        return out


class AnalyticCircleMap(CircleMap):
    """The singular-limit map ``s + a + mu3 omega/pi - (xi omega/pi) ln(1 - sqrt_a1 cos(2 pi s))``."""

    def __init__(self, spec: CircleMapSpec):
        self.spec = spec
        self.offset = spec.a + spec.mu3 * spec.omega / math.pi
        self.coef = spec.xi * spec.omega / math.pi
        self.sa1 = spec.sqrt_a1

    def lift(self, s):
        return s + self.offset - self.coef * np.log(1.0 - self.sa1 * np.cos(2.0 * np.pi * s))

    def derivative(self, s):
        den = 1.0 - self.sa1 * np.cos(2.0 * np.pi * s)
        return 1.0 - 2.0 * np.pi * self.coef * self.sa1 * np.sin(2.0 * np.pi * s) / den

    def second_derivative(self, s):
        den = 1.0 - self.sa1 * np.cos(2.0 * np.pi * s)
        return (-4.0 * np.pi**2 * self.coef * self.sa1
                * (np.cos(2.0 * np.pi * s) - self.sa1) / den**2)


class DoublingMap(CircleMap):
    """Angle doubling; constant derivative 2, empty critical set."""

    degree = 2

    def lift(self, s):
        return 2.0 * np.asarray(s, dtype=float)

    def derivative(self, s):
        return np.full_like(np.asarray(s, dtype=float), 2.0)

    def second_derivative(self, s):
        return np.zeros_like(np.asarray(s, dtype=float))

    def critical_points(self):
        return []


class RigidRotation(CircleMap):
    def __init__(self, alpha: float):
        self.alpha = alpha

    def lift(self, s):
        return np.asarray(s, dtype=float) + self.alpha

    def derivative(self, s):
        return np.ones_like(np.asarray(s, dtype=float))

    def second_derivative(self, s):
        return np.zeros_like(np.asarray(s, dtype=float))

    def critical_points(self):
        return []


def doubling_orbit(n: int, rng: np.random.Generator) -> np.ndarray:
    """A Lebesgue-typical doubling orbit of length n.

    Built from a random bit stream (53-bit windows), which realises the
    doubling dynamics without the float collapse that plain iteration of
    ``2 s mod 1`` suffers after 53 steps.
    """
    bits = rng.integers(0, 2, size=n + 53).astype(float)
    weights = 2.0 ** -(np.arange(1, 54))
    return np.correlate(bits, weights, mode="valid")[:n]


def make_circle_map(a: float, params: ModelParams) -> AnalyticCircleMap:
    dc = derive_constants(params)
    return AnalyticCircleMap(CircleMapSpec(
        a=a, omega=params.omega, xi=dc.xi, mu3=params.mu3, sqrt_a1=dc.sqrt_a1,
    ))


@dataclass(frozen=True)
class CriticalPoint:
    s: float
    second_derivative: float


def critical_set(cmap: CircleMap, grid_size: int = 4096,
                 h2_floor: float = 1e-8) -> list[CriticalPoint]:
    """All zeros of the derivative on [0, 1), refined to ~1e-12.

    Sign changes are bracketed on a uniform grid and refined by bracketed
    root-finding; each root must be nondegenerate (``|h''|`` above
    ``h2_floor``), otherwise :class:`NumericsError` is raised.  An empty
    list means the map is a local diffeomorphism.
    """
    grid = np.linspace(0.0, 1.0, grid_size + 1)
    dv = np.asarray(cmap.derivative(grid))
    da, db = dv[:-1], dv[1:]
    roots = []
    for i in np.flatnonzero((da == 0.0) | (da * db < 0.0)):
        if da[i] == 0.0:
            roots.append(grid[i])
        else:
            roots.append(brentq(lambda s: float(cmap.derivative(s)), grid[i], grid[i + 1],
                                xtol=1e-14, rtol=8.9e-16))
    out = []
    for r in sorted(set(np.round(np.mod(roots, 1.0), 13))):
        h2 = float(cmap.second_derivative(r))
        if abs(h2) < h2_floor:
            raise NumericsError(
                f"degenerate critical point at s={r}: |h''|={abs(h2)} below {h2_floor}"
            )
        out.append(CriticalPoint(s=float(r), second_derivative=h2))
    return out


# ---------------------------------------------------------------------------
# convergence to the singular limit

@dataclass(frozen=True)
class ConvergenceRow:
    n: int
    gamma: float
    x_absorb: float
    f1_sup: float
    f2_sup: float
    d1_sup: float
    d2_sup: float
    d3_sup: float


def singular_limit_convergence(n_range, a: float, params: ModelParams,
                               s_points: int = 256, x_points: int = 32,
                               x_max: float = 1.0) -> list[ConvergenceRow]:
    """Sup-distance table between the rescaled family and its singular limit.

    For each index the leading component is measured over the full base
    domain (``x`` up to ``x_max``); the phase component is compared with
    the limit circle map over the absorbing range that one application of
    the leading component produces (the phase component of the family does
    not otherwise depend on the index at all).  Derivative distances up to
    third order are finite-difference surrogates applied to the difference
    functions, so their round-off scales with the difference itself.
    """
    dc = derive_constants(params)
    cmap = make_circle_map(a, params)
    s_grid = np.linspace(0.0, 1.0, s_points, endpoint=False)
    rows = []
    for n in n_range:
        gamma = gamma_sequence(n, a, dc)
        gp = gamma**dc.p
        f1_sup = gp * (x_max**dc.delta + 1.0 + dc.sqrt_a1)
        x_absorb = f1_sup
        xg = np.linspace(x_absorb / x_points, x_absorb, x_points)

        def f2_diff(s, x=xg[:, None]):
            b = 1.0 - dc.sqrt_a1 * np.cos(2.0 * np.pi * s)
            return -dc.xi * params.omega / math.pi * np.log1p(x**dc.delta / b)

        def f1_val(s, x=xg[:, None]):
            return gp * (x**dc.delta + 1.0 - dc.sqrt_a1 * np.cos(2.0 * np.pi * s))

        f2_sup = float(np.max(np.abs(f2_diff(s_grid))))
        h = 1e-3
        sten = [s_grid + k * h for k in (-2, -1, 0, 1, 2)]
        d_sups = []
        for fun in (f2_diff, f1_val):
            v = [fun(sk) for sk in sten]
            d1 = (v[3] - v[1]) / (2 * h)
            d2 = (v[3] - 2 * v[2] + v[1]) / h**2
            d3 = (v[4] - 2 * v[3] + 2 * v[1] - v[0]) / (2 * h**3)
            d_sups.append([float(np.max(np.abs(d))) for d in (d1, d2, d3)])
        rows.append(ConvergenceRow(
            n=n, gamma=gamma, x_absorb=x_absorb,
            f1_sup=f1_sup, f2_sup=f2_sup,
            d1_sup=max(d_sups[0][0], d_sups[1][0]),
            d2_sup=max(d_sups[0][1], d_sups[1][1]),
            d3_sup=max(d_sups[0][2], d_sups[1][2]),
        ))
    return rows


# ---------------------------------------------------------------------------
# Misiurewicz battery

@dataclass(frozen=True)
class ConditionVerdict:
    passed: bool
    worst: float
    witness: float | None = None
    note: str = ""


@dataclass(frozen=True)
class MisiurewiczCertificate:
    """Finite-horizon expansion certificate for a circle map.

    ``passed`` aggregates the five sub-conditions; ``lambda0`` is the
    largest uniform expansion rate consistent with every sampled
    U-avoiding orbit segment: the largest double in [-50, 50] that every
    segment of length ``m >= m0`` satisfies as ``log|(h^m)'| >= lambda0 m``.
    The certificate is a finite computation at the recorded horizon and
    grid, not a proof.
    """

    passed: bool
    lambda0: float
    m0: int
    d0: float
    horizon: int
    u_intervals: tuple
    conditions: dict
    notes: str = ""

    def to_dict(self):
        return {
            "passed": self.passed,
            "lambda0": self.lambda0,
            "M0": self.m0,
            "d0": self.d0,
            "horizon": self.horizon,
            "U": [list(iv) for iv in self.u_intervals],
            "conditions": {
                k: {"passed": v.passed, "worst": v.worst,
                    "witness": v.witness, "note": v.note}
                for k, v in self.conditions.items()
            },
            "notes": self.notes,
        }


def _circle_dist(s, centers):
    d = np.abs((np.asarray(s)[..., None] - centers + 0.5) % 1.0 - 0.5)
    return d.min(axis=-1)


def _largest_rate(cum, m):
    """Largest double ``lam`` in [-50, 50] with ``cum >= lam * m`` for every segment.

    The rounding of ``lam * m`` is monotone in ``lam``, so the rates that
    pass form a down-set; ``min(cum / m)`` lies within a few ulps of its
    upper end, and ``nextafter`` steps land on it exactly.
    """
    lo, hi = -50.0, 50.0

    def ok(lam):
        return bool(np.all(cum >= lam * m))

    if not ok(lo):
        return lo
    lam = min(max(float(np.min(cum / m)), lo), hi)
    while not ok(lam):
        lam = math.nextafter(lam, -math.inf)
    while lam < hi and ok(up := math.nextafter(lam, math.inf)):
        lam = up
    return lam


def misiurewicz_check(cmap: CircleMap, u_radii=1e-2, horizon: int = 1000,
                      m0: int = 30, d0: float = 1e-3,
                      lambda0_target: float | None = None,
                      grid_size: int = 1024,
                      u_grid: int = 64) -> MisiurewiczCertificate:
    """Run the five-part expansion certification at a finite horizon.

    * outside (a): every sampled orbit segment that avoids the critical
      neighbourhood U for its whole length and is at least ``m0`` long
      expands at the extracted uniform rate ``lambda0 > 0``;
    * outside (b): segments that end by entering U expand at the same rate
      up to the slack factor ``d0``;
    * critical orbits: forward iterates of every critical point stay out
      of U for the whole horizon;
    * inside (a): the curvature is bounded away from zero, one sign per
      component of U;
    * inside (b): first returns to U recover derivative
      ``exp(lambda0 p0 / 3) / d0``.

    With an empty critical set U is empty, the inside/critical conditions
    hold vacuously, and the outside conditions measure pure uniform
    expansion (a rigid rotation therefore fails, a doubling map passes
    with rate ln 2).
    """
    if horizon < 1:
        raise ValidationError("horizon must be >= 1")
    crit = cmap.critical_points()
    centers = np.array([cp.s for cp in crit]) if crit else np.empty(0)
    radii = np.broadcast_to(np.asarray(u_radii, dtype=float), centers.shape).copy() \
        if crit else np.empty(0)
    u_intervals = tuple((float(c - r), float(c + r)) for c, r in zip(centers, radii))

    def in_u(s):
        s = np.asarray(s, dtype=float)
        if centers.size == 0:
            return np.zeros_like(s, dtype=bool)
        d = np.abs((s[..., None] - centers + 0.5) % 1.0 - 0.5)
        return (d < radii).any(axis=-1)

    conditions = {}

    # --- outside U: sweep a grid of starts, accumulating log-derivatives
    starts = (np.arange(grid_size) + 0.5) / grid_size
    alive = ~in_u(starts)                      # segment needs x0 ... x_{m-1} off U
    pos = starts.copy()
    cum = np.zeros(grid_size)
    seg_a = []      # (m, log|(h^m)'|) with whole segment off U, m >= 1
    seg_b = []      # segments whose endpoint h^m(x) lands in U
    min_ratio_a = math.inf
    worst_a = None
    for m in range(1, horizon + 1):
        idx = np.flatnonzero(alive)
        if idx.size == 0:
            break
        d = np.abs(np.asarray(cmap.derivative(pos[idx]), dtype=float))
        d = np.maximum(d, 1e-300)
        cum[idx] += np.log(d)
        pos[idx] = np.asarray(cmap.value(pos[idx]), dtype=float)
        # every segment still tracked here avoided U through step m-1, so it
        # binds the expansion bound at length m even if h^m(x) lands in U
        seg_a.append((m, float(cum[idx].min())))
        if m >= m0:
            ratios = cum[idx] / m
            j = int(np.argmin(ratios))
            if ratios[j] < min_ratio_a:
                min_ratio_a = float(ratios[j])
                worst_a = float(starts[idx[j]])
        landed = in_u(pos[idx])
        if landed.any():
            li = idx[landed]
            seg_b.append((m, cum[li].copy()))
            alive[li] = False

    seg_m = np.array([m for m, _ in seg_a if m >= m0], dtype=int)
    seg_c = np.array([c for m, c in seg_a if m >= m0])
    applicable = seg_m.size > 0
    lambda0 = _largest_rate(seg_c, seg_m) if applicable else -math.inf
    pass_a = lambda0 > 0.0 if lambda0_target is None else lambda0 >= lambda0_target
    conditions["outside_a"] = ConditionVerdict(
        passed=bool(pass_a and applicable),
        worst=min_ratio_a if applicable else -math.inf,
        witness=worst_a,
        note=f"lambda0 extracted over {seg_m.size} segment lengths",
    )

    worst_b = math.inf
    ok_b = True
    for m, cums in seg_b:
        slack = float(np.min(cums - (math.log(d0) + lambda0 * m)))
        if slack < worst_b:
            worst_b = slack
        if slack < 0.0:
            ok_b = False
    conditions["outside_b"] = ConditionVerdict(
        passed=bool(ok_b) if lambda0 > -math.inf else False,
        worst=worst_b if seg_b else math.inf,
        note="no U-entering segments sampled" if not seg_b else "",
    )

    # --- critical orbits avoid U
    if not crit:
        conditions["critical_orbits"] = ConditionVerdict(
            passed=True, worst=math.inf, note="vacuous: empty critical set")
    else:
        # every critical orbit in lockstep: row i holds the (i+1)-th iterates
        orbits = np.empty((horizon, centers.size))
        s = centers
        for i in range(horizon):
            s = orbits[i] = cmap.value(s)
        margins = _circle_dist(orbits, centers) - radii.max()
        # the first minimum in (critical point, step) order
        j, i = np.unravel_index(np.argmin(margins.T), margins.T.shape)
        ok = not in_u(orbits).any()
        conditions["critical_orbits"] = ConditionVerdict(
            passed=ok, worst=float(margins[i, j]), witness=float(centers[j]),
            note="orbit of a critical point re-entered U" if not ok else "")

    # --- inside U
    if not crit:
        conditions["inside_a"] = ConditionVerdict(
            passed=True, worst=math.inf, note="vacuous: empty critical set")
        conditions["inside_b"] = ConditionVerdict(
            passed=True, worst=math.inf, note="vacuous: empty critical set")
    else:
        worst_h2 = math.inf
        ok_sign = True
        for (c, r) in zip(centers, radii):
            ss = c + np.linspace(-r, r, u_grid)
            h2 = np.asarray(cmap.second_derivative(ss), dtype=float)
            worst_h2 = min(worst_h2, float(np.min(np.abs(h2))))
            if not (np.all(h2 > 0.0) or np.all(h2 < 0.0)):
                ok_sign = False
        conditions["inside_a"] = ConditionVerdict(
            passed=bool(ok_sign and worst_h2 > 0.0), worst=worst_h2)

        # all starts in lockstep until each first returns to U
        u_pos = np.concatenate([c + np.linspace(-r, r, u_grid)
                                for c, r in zip(centers, radii)])
        u_pos = u_pos[~(_circle_dist(u_pos, centers) < 1e-9)] % 1.0   # not the critical points
        cumlog = np.zeros(u_pos.size)
        p0 = np.zeros(u_pos.size, dtype=int)     # first-return time, 0 = none yet
        live = np.arange(u_pos.size)
        for i in range(1, horizon + 1):
            if live.size == 0:
                break
            d = np.maximum(np.abs(np.asarray(cmap.derivative(u_pos[live]), dtype=float)), 1e-300)
            # math.log, not np.log: the two differ in the last bit on some inputs
            cumlog[live] += list(map(math.log, d.tolist()))
            u_pos[live] = cmap.value(u_pos[live])
            back = in_u(u_pos[live])
            p0[live[back]] = i
            live = live[~back]
        returned = p0 > 0
        n_noreturn = int(np.count_nonzero(~returned))
        slack = cumlog[returned] - (lambda0 * p0[returned] / 3.0 - math.log(d0))
        worst_rec = float(slack.min()) if slack.size else math.inf
        ok_rec = not (slack < 0.0).any()
        conditions["inside_b"] = ConditionVerdict(
            passed=ok_rec, worst=worst_rec,
            note=f"{n_noreturn} sampled points did not return within the horizon")

    passed = all(v.passed for v in conditions.values())
    return MisiurewiczCertificate(
        passed=passed, lambda0=lambda0, m0=m0, d0=d0, horizon=horizon,
        u_intervals=u_intervals, conditions=conditions,
        notes="finite-horizon floating-point check; not robust under perturbation",
    )


# ---------------------------------------------------------------------------
# transition matrix and mixing

@dataclass(frozen=True)
class TransitionMatrix:
    intervals: tuple
    Q: np.ndarray
    mixing_N: int | None
    note: str = ""

    def to_dict(self):
        return {
            "intervals": [list(iv) for iv in self.intervals],
            "Q": self.Q.astype(int).tolist(),
            "mixing_N": self.mixing_N,
            "note": self.note,
        }


def transition_matrix(cmap: CircleMap) -> TransitionMatrix:
    """Interval-covering matrix of the monotonicity partition.

    Entry (i, m) is 1 when the image of the i-th monotonicity interval
    covers the m-th one (as circle arcs, lift-shift aware).  The smallest
    power with all entries positive is searched up to ``r**2``.  A circle
    diffeomorphism has a single interval and no meaningful mixing verdict.
    """
    crit = cmap.critical_points()
    if not crit:
        grid = np.linspace(0.0, 1.0, 512, endpoint=False)
        dmin = float(np.min(np.asarray(cmap.derivative(grid))))
        if cmap.degree == 1 and dmin > 0.0:
            return TransitionMatrix(
                intervals=((0.0, 1.0),), Q=np.ones((1, 1), dtype=bool),
                mixing_N=None, note="diffeomorphism: mixing verdict not applicable")
        return TransitionMatrix(
            intervals=((0.0, 1.0),), Q=np.ones((1, 1), dtype=bool),
            mixing_N=1, note=f"expanding degree-{cmap.degree} map, full image")

    cs = sorted(cp.s for cp in crit)
    r = len(cs)
    ends = cs + [cs[0] + 1.0]
    intervals = tuple((ends[i], ends[i + 1]) for i in range(r))
    Q = np.zeros((r, r), dtype=bool)
    for i, (lo, hi) in enumerate(intervals):
        ia, ib = float(cmap.lift(lo)), float(cmap.lift(hi))
        im_lo, im_hi = min(ia, ib), max(ia, ib)
        for m, (alo, ahi) in enumerate(intervals):
            # does some integer shift place [alo, ahi] inside [im_lo, im_hi]?
            kmin = math.ceil(im_lo - alo - 1e-12)
            kmax = math.floor(im_hi - ahi + 1e-12)
            Q[i, m] = kmin <= kmax
    note = ""
    if not Q.any(axis=1).all():
        # some branch image covers no full interval: mixing cannot hold
        note = "a monotonicity interval covers no interval fully"
        return TransitionMatrix(intervals=intervals, Q=Q, mixing_N=None, note=note)
    mixing_n = None
    P = Q.copy()
    for n in range(1, r * r + 1):
        if P.all():
            mixing_n = n
            break
        P = P @ Q
    return TransitionMatrix(intervals=intervals, Q=Q, mixing_N=mixing_n, note=note)


# ---------------------------------------------------------------------------
# scalar diagnostics on circle maps

def lyapunov_1d(cmap: CircleMap, s0: float, iterations: int,
                burn_in: int = 100):
    """Birkhoff average of ``log |h'|`` along an orbit.

    If the orbit lands on a critical point to machine precision the start
    is perturbed by 1e-9 and the estimate rerun; the number of restarts is
    reported alongside the exponent.
    """
    if iterations < 1000:
        raise ValidationError("iterations must be >= 1000")
    restarts = 0
    s_start = float(s0)
    while True:
        s = s_start
        for _ in range(burn_in):
            s = float(cmap.value(s))
        total = 0.0
        hit = False
        for _ in range(iterations):
            d = abs(float(cmap.derivative(s)))
            if d < 1e-300:
                hit = True
                break
            total += math.log(d)
            s = float(cmap.value(s))
        if not hit:
            return total / iterations, restarts
        restarts += 1
        if restarts > 8:
            raise NumericsError("orbit keeps hitting the critical set exactly")
        s_start = (s_start + 1e-9) % 1.0


# ---------------------------------------------------------------------------
# parameter transversality (indicative only)

@dataclass(frozen=True)
class TransversalitySample:
    critical_s: float
    dq_da: float
    dp_da: float
    separated: bool


def _interval_of(s, cs):
    # index of the monotonicity interval containing s
    base = cs[0]
    t = (s - base) % 1.0 + base
    for i in range(len(cs)):
        hi = cs[i + 1] if i + 1 < len(cs) else cs[0] + 1.0
        if cs[i] <= t <= hi:
            return i
    return len(cs) - 1


def _branch_solve(cmap, lo, hi, target):
    # solve lift(q) = target on the monotone branch [lo, hi]
    f = lambda q: float(cmap.lift(q)) - target
    fa, fb = f(lo), f(hi)
    if fa * fb > 0.0:
        return None
    return brentq(f, lo, hi, xtol=1e-14)


def transversality_probe(base: AnalyticCircleMap, da: float = 1e-3,
                         depth: int = 20):
    """Indicative finite-difference check of parameter transversality.

    For each critical point of ``base`` the forward image moves with unit
    speed in the offset; the itinerary-matched continuation of that image
    is tracked by backward branch-following under the maps at offsets
    ``a -/+ da``.  Backward refinement contracts wherever the map expands,
    so the continued point is well conditioned.  The result is labelled
    indicative: the genuine condition concerns symbolic continuations to
    infinite depth.
    """
    crit = base.critical_points()
    if not crit:
        return []
    cs = sorted(cp.s for cp in crit)
    shifted = {sgn: AnalyticCircleMap(replace(base.spec, a=(base.spec.a + sgn * da) % 1.0))
               for sgn in (+1, -1)}

    def continued_point(cmap_new, ref_orbit):
        # follow the reference orbit segment backwards under the new map
        q = ref_orbit[-1]
        for j in range(len(ref_orbit) - 2, -1, -1):
            s_ref = ref_orbit[j]
            i = _interval_of(s_ref, cs)
            lo = cs[i]
            hi = cs[i + 1] if i + 1 < len(cs) else cs[0] + 1.0
            s_rep = (s_ref - lo) % 1.0 + lo
            target = q + round(float(cmap_new.lift(s_rep)) - q)
            sol = _branch_solve(cmap_new, lo, hi, target)
            if sol is None:
                return None
            q = sol
        return q % 1.0

    out = []
    for cp in crit:
        p = float(base.value(cp.s))
        ref = [p]
        for _ in range(depth):
            ref.append(float(base.value(ref[-1])))
        qs = {}
        ok = True
        for sgn, cmap_new in shifted.items():
            cont = continued_point(cmap_new, ref)
            if cont is None:
                ok = False
                break
            qs[sgn] = cont
        if not ok:
            continue
        diff = (qs[+1] - qs[-1] + 0.5) % 1.0 - 0.5
        dp_da = diff / (2.0 * da)
        dq_da = 1.0      # the offset enters the image additively
        out.append(TransversalitySample(
            critical_s=cp.s, dq_da=dq_da, dp_da=float(dp_da),
            separated=abs(dq_da - dp_da) > 1e-6,
        ))
    return out


# ---------------------------------------------------------------------------
# the (H1)-(H7) battery

@dataclass
class BatteryReport:
    n: int
    a: float
    gamma: float
    entries: dict = field(default_factory=dict)

    @property
    def h4_passed(self):
        return self.entries["H4"]["status"] == "pass"

    @property
    def h7_passed(self):
        return self.entries["H7"]["status"] == "pass"

    def to_dict(self):
        return {"n": self.n, "a": self.a, "gamma": self.gamma,
                "entries": self.entries}


def hypothesis_battery(params: ModelParams, n: int, a: float,
                       window: int = 8, horizon: int = 1000,
                       u_radii: float = 1e-2, m0: int = 30,
                       d0: float = 1e-3) -> BatteryReport:
    """Run the full verification battery for the rescaled family at (n, a).

    Entries H1-H7 each carry a status (pass / fail / indicative /
    not-checkable), the computed values, and a note.  H5 is structurally
    not certifiable by finite computation and is always labelled
    indicative.
    """
    dc = derive_constants(params)
    gamma = gamma_sequence(n, a, dc)
    cmap = make_circle_map(a, params)
    entries = {}

    # H1: regularity; item (3) is the determinant distortion bound over the
    # absorbing range of the leading coordinate
    gp = gamma**dc.p
    x_lo = gp * (1.0 - dc.sqrt_a1)
    x_hi = gp * (1.0 + dc.sqrt_a1 + (2.0 * gp) ** dc.delta)
    k_bound = (x_hi / x_lo) ** (dc.delta - 1.0)
    xs = np.linspace(x_lo, x_hi, 64)
    dets = gp * dc.delta * xs ** (dc.delta - 1.0)
    sampled = float(dets.max() / dets.min())
    entries["H1"] = {
        "status": "pass" if sampled <= k_bound * (1.0 + 1e-9) else "fail",
        "distortion_bound": k_bound,
        "sampled_ratio": sampled,
        "note": "family is analytic in (x, s, a); distortion over the absorbing range",
    }

    # H2/H3: convergence to the singular limit; the window truncates where
    # the amplitude sequence underflows (steep dissipation exponents)
    usable = []
    for m in range(n, n + window):
        try:
            gamma_sequence(m, a, dc)
        except ValidationError:
            break
        usable.append(m)
    if len(usable) < 2:
        raise ValidationError(
            "fewer than two representable sequence indices in the battery window"
        )
    rows = singular_limit_convergence(usable, a, params)
    cols = {
        "f1_sup": [r.f1_sup for r in rows],
        "f2_sup": [r.f2_sup for r in rows],
        "d1_sup": [r.d1_sup for r in rows],
        "d2_sup": [r.d2_sup for r in rows],
        "d3_sup": [r.d3_sup for r in rows],
    }
    decreasing = all(all(c[i + 1] < c[i] for i in range(len(c) - 1))
                     for c in cols.values())
    entries["H2"] = {
        "status": "pass" if decreasing else "fail",
        "first": cols["f1_sup"][0], "last": cols["f1_sup"][-1],
        "note": f"sup distances over an index window of {len(usable)}",
    }
    entries["H3"] = {
        "status": "pass" if decreasing else "fail",
        "d3_first": cols["d3_sup"][0], "d3_last": cols["d3_sup"][-1],
        "note": "finite-difference surrogates up to third order",
    }

    # H4: expansion certificate for the singular-limit map
    cert = misiurewicz_check(cmap, u_radii=u_radii, horizon=horizon,
                             m0=m0, d0=d0)
    entries["H4"] = {
        "status": "pass" if cert.passed else "fail",
        "lambda0": cert.lambda0,
        "horizon": cert.horizon,
        "conditions": {k: v.passed for k, v in cert.conditions.items()},
    }

    # H5: indicative only
    samples = transversality_probe(cmap)
    entries["H5"] = {
        "status": "indicative" if samples else "not-checkable",
        "samples": [
            {"s": t.critical_s, "dq_da": t.dq_da, "dp_da": t.dp_da,
             "separated": t.separated} for t in samples
        ],
        "note": "finite-depth itinerary continuation; not a certificate",
    }

    # H6: nondegeneracy at turns -- slope of the leading component in the
    # contracted block u = x**delta, at the turn, normalised by gamma**p
    crit = cmap.critical_points()
    if crit:
        s_c = crit[0].s
        u = 1e-6
        lift = compile_map("rescaled", params, gamma=gamma).lift
        g1 = lift(u ** (1.0 / dc.delta), s_c)[0] / gp
        g0 = lift(0.0, s_c)[0] / gp
        h6_value = (g1 - g0) / u
    else:
        h6_value = None
    entries["H6"] = {
        "status": "pass" if (h6_value is not None and abs(h6_value) > 1e-8)
                  else ("not-checkable" if h6_value is None else "fail"),
        "value": h6_value,
        "note": "no turns: singular limit is a diffeomorphism" if h6_value is None else "",
    }

    # H7: mixing
    tm = transition_matrix(cmap)
    h7a = cert.lambda0 > 3.0 * math.log(2.0)
    h7b = tm.mixing_N is not None
    entries["H7"] = {
        "status": "pass" if (h7a and h7b) else "fail",
        "exp_lambda0_over_3": math.exp(cert.lambda0 / 3.0)
            if cert.lambda0 > -math.inf else 0.0,
        "mixing_N": tm.mixing_N,
        "intervals": len(tm.intervals),
        "note": tm.note,
    }

    return BatteryReport(n=n, a=a, gamma=gamma, entries=entries)


def xi_star_scan(xi_values, a_values, omega: float, sqrt_a1: float,
                 mu3: float = 1.0, horizon: int = 300, m0: int = 20,
                 d0: float = 1e-3, u_radii: float = 1e-2,
                 grid_size: int = 512):
    """Empirical threshold: smallest scanned ``xi`` whose singular-limit map
    passes both the expansion certificate and the mixing conditions for
    some offset ``a``.  Returns ``(xi_star or None, records)``."""
    records = []
    xi_star = None
    for xi in xi_values:
        hit_a = None
        for a in a_values:
            cmap = AnalyticCircleMap(CircleMapSpec(
                a=a, omega=omega, xi=xi, mu3=mu3, sqrt_a1=sqrt_a1))
            try:
                cert = misiurewicz_check(cmap, u_radii=u_radii, horizon=horizon,
                                         m0=m0, d0=d0, grid_size=grid_size)
            except NumericsError:
                continue
            if not cert.passed or cert.lambda0 <= 3.0 * math.log(2.0):
                continue
            tm = transition_matrix(cmap)
            if tm.mixing_N is not None:
                hit_a = a
                break
        records.append({"xi": float(xi), "passing_a": hit_a})
        if hit_a is not None and xi_star is None:
            xi_star = float(xi)
    return xi_star, records
