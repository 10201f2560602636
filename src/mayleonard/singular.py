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
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .errors import NumericsError, ValidationError
from .params import DerivedConstants, ModelParams, derive_constants

__all__ = [
    "CircleMap",
    "AnalyticCircleMap",
    "DoublingMap",
    "RigidRotation",
    "CriticalPoint",
    "MisiurewiczCertificate",
    "TransitionMatrix",
    "BatteryReport",
    "k_map",
    "GAMMA_PLUS",
    "first_admissible_index",
    "gamma_sequence",
    "make_circle_map",
    "singular_limit_convergence",
    "misiurewicz_check",
    "transition_matrix",
    "lyapunov_1d",
    "transversality_probe",
    "hypothesis_battery",
]


# ---------------------------------------------------------------------------
# amplitude sequences

def k_map(x: float, constants: DerivedConstants) -> float:
    """Logarithmic phase bookkeeping of the amplitude, ``-K_omega xi ln x``."""
    if x <= 0.0:
        raise ValidationError(f"k_map needs x > 0, got {x}")
    return -constants.K_omega * constants.xi * math.log(x)


GAMMA_PLUS = 0.05      # admissibility bound on the rescaled family's amplitude


def first_admissible_index(constants: DerivedConstants) -> int:
    """Smallest index whose amplitude lies below ``GAMMA_PLUS`` for every offset ``a``."""
    return math.floor(constants.K_omega * constants.xi * math.log(1.0 / GAMMA_PLUS)) + 1


def gamma_sequence(n: int, a: float, constants: DerivedConstants) -> float:
    """The n-th amplitude with phase offset ``a``: ``exp(-(n+a)/(K_omega xi))``.

    ``a`` must lie in [0, 1) and ``n`` be positive; an amplitude that
    underflows double precision is a :class:`ValidationError`.  Admissibility
    is not checked here: :func:`first_admissible_index` gives the first
    admissible index.
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
    return gamma


# ---------------------------------------------------------------------------
# circle maps

class CircleMap:
    """Degree-d circle map exposed through one evaluator, its jet.

    Subclasses implement ``jet(s, order=0)``, which returns the tuple
    ``(h, h', h'')[:order + 1]`` of the lift (with ``h(s+1) = h(s) +
    degree``) and its derivatives on scalars or arrays, and
    ``_critical_phases``, the zeros of ``h'`` on [0, 1) in closed form.
    Each entry of the jet has one formula, so ``jet(s, 2)[:k + 1]`` is
    ``jet(s, k)`` bit for bit; the trigonometric maps evaluate a
    derivative only when the order asks for it.
    ``value`` reduces the lift as ``v - floor(v)``, which rounds the exact
    fractional part once, as ``v % 1.0`` does, so the floats agree.
    """

    degree = 1

    def jet(self, s, order=0):
        raise NotImplementedError

    def value(self, s):
        v = self.jet(s)[0]
        return v - np.floor(v)

    def critical_points(self):
        """Zeros of the derivative on [0, 1) in increasing order, with curvature values.

        Each zero must be nondegenerate (``|h''|`` at least 1e-8), otherwise
        :class:`NumericsError` is raised.  An empty list means the map is a
        local diffeomorphism.  Each call returns a new list.
        """
        out = []
        for s in sorted(self._critical_phases()):
            h2 = float(self.jet(s, 2)[2])
            if abs(h2) < 1e-8:
                raise NumericsError(
                    f"degenerate critical point at s={s}: |h''|={abs(h2)} below 1e-8")
            out.append(CriticalPoint(s=s, second_derivative=h2))
        return out

    def _critical_phases(self):
        raise NotImplementedError

    def orbit(self, s0, n: int) -> np.ndarray:
        """The first ``n`` iterates of a start or of an array of starts,
        stepped in lockstep: row ``i`` holds the ``(i+1)``-th iterates, so
        the result has shape ``(n,) + shape(s0)``."""
        if n < 0:
            raise ValidationError(f"orbit needs n >= 0, got {n}")
        s = np.asarray(s0, dtype=float)
        out = np.empty((n,) + s.shape)
        for i in range(n):
            s = out[i] = self.value(s)
        return out


@dataclass
class AnalyticCircleMap(CircleMap):
    """The singular-limit map ``s + a + mu3 omega/pi - (xi omega/pi) ln(1 - sqrt_a1 cos(2 pi s))``.

    ``dataclasses.replace(h, a=...)`` gives the map at another offset.
    """

    a: float
    omega: float
    xi: float
    mu3: float
    sqrt_a1: float
    offset: float = field(init=False)
    coef: float = field(init=False)

    def __post_init__(self):
        if not (0.0 <= self.a < 1.0):
            raise ValidationError(f"a must lie in [0, 1), got {self.a}")
        if not (0.0 <= self.sqrt_a1 < 1.0):
            raise ValidationError(
                f"sqrt_a1 must lie in [0, 1) (log singularity at 1), got {self.sqrt_a1}"
            )
        self.offset = self.a + self.mu3 * self.omega / math.pi
        self.coef = self.xi * self.omega / math.pi

    def jet(self, s, order=0):
        # one angle, cosine and denominator for every order
        theta = 2.0 * np.pi * s
        cos = np.cos(theta)
        den = 1.0 - self.sqrt_a1 * cos
        h = s + self.offset - self.coef * np.log(den)
        if order == 0:
            return (h,)
        dh = 1.0 - 2.0 * np.pi * self.coef * self.sqrt_a1 * np.sin(theta) / den
        if order == 1:
            return h, dh
        return h, dh, -4.0 * np.pi**2 * self.coef * self.sqrt_a1 * (cos - self.sqrt_a1) / den**2

    def _critical_phases(self):
        # with theta = 2 pi s, h' = 0 is kappa sin(theta) + sqrt_a1 cos(theta) = 1,
        # that is r sin(theta + phi) = 1
        kappa = 2.0 * math.pi * self.coef * self.sqrt_a1
        r = math.hypot(kappa, self.sqrt_a1)
        if r < 1.0:
            return ()
        phi, turn = math.atan2(self.sqrt_a1, kappa), math.asin(1.0 / r)
        return [(th / (2.0 * math.pi)) % 1.0 for th in (turn - phi, math.pi - turn - phi)]


class DoublingMap(CircleMap):
    """Angle doubling; constant derivative 2, empty critical set."""

    degree = 2

    def jet(self, s, order=0):
        s = np.asarray(s, dtype=float)
        return (2.0 * s, np.full_like(s, 2.0), np.zeros_like(s))[:order + 1]

    def _critical_phases(self):
        return ()


class RigidRotation(CircleMap):
    def __init__(self, alpha: float):
        self.alpha = alpha

    def jet(self, s, order=0):
        s = np.asarray(s, dtype=float)
        return (s + self.alpha, np.ones_like(s), np.zeros_like(s))[:order + 1]

    def _critical_phases(self):
        return ()


def make_circle_map(a: float, params: ModelParams) -> AnalyticCircleMap:
    dc = derive_constants(params)
    return AnalyticCircleMap(a=a, omega=params.omega, xi=dc.xi, mu3=params.mu3,
                             sqrt_a1=dc.sqrt_a1)


@dataclass(frozen=True)
class CriticalPoint:
    s: float
    second_derivative: float


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


def singular_limit_convergence(n_range, a: float, params: ModelParams) -> list[ConvergenceRow]:
    """Sup-distance table between the rescaled family and its singular limit.

    For each index the leading component is measured over the full base
    domain (``x`` up to 1); the phase component is compared with
    the limit circle map over the absorbing range that one application of
    the leading component produces (the phase component of the family does
    not otherwise depend on the index at all).  Derivative distances up to
    third order are finite-difference surrogates applied to the difference
    functions, so their round-off scales with the difference itself.  The
    phase grid has 256 points and the absorbing range 32.

    The indices must strictly increase (else :class:`ValidationError`), and
    there must be at least one.  The table stops at the first index whose
    amplitude underflows double precision; if the first one does, that is a
    :class:`ValidationError`.
    """
    n_range = list(n_range)
    for n, m in zip(n_range, n_range[1:]):
        if m <= n:
            raise ValidationError(f"the indices must strictly increase, got {m} after {n}")
    dc = derive_constants(params)
    s_grid = np.linspace(0.0, 1.0, 256, endpoint=False)
    # sqrt_a1 cos(2 pi s) on the stencil s + k h, k = -2..2, once per table;
    # the k = 0 row is the phase grid itself (s + 0.0 is s)
    h = 1e-3
    sc = [dc.sqrt_a1 * np.cos(2.0 * np.pi * (s_grid + k * h)) for k in (-2, -1, 0, 1, 2)]
    den = [1.0 - c for c in sc]
    coef = -dc.xi * params.omega / math.pi
    rows = []
    for n in n_range:
        try:
            gamma = gamma_sequence(n, a, dc)
        except ValidationError:
            if rows:        # every later amplitude underflows too
                break
            raise
        gp = gamma**dc.p
        f1_sup = gp * (2.0 + dc.sqrt_a1)
        x_absorb = f1_sup
        xd = np.linspace(x_absorb / 32, x_absorb, 32)[:, None] ** dc.delta
        f2_diff = [coef * np.log1p(xd / b) for b in den]
        f1_val = [gp * (xd + 1.0 - c) for c in sc]
        f2_sup = float(np.max(np.abs(f2_diff[2])))
        d_sups = []
        for v in (f2_diff, f1_val):
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
    if not rows:
        raise ValidationError("the convergence table needs at least one index")
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
    segment of length ``m >= M0`` satisfies as ``log|(h^m)'| >= lambda0 m``.
    ``M0``, the slack factor ``d0`` and the critical neighbourhood ``U``
    (one arc per critical point) carry Wang and Young's symbols, and the
    field names are the JSON keys of ``certify``.
    The certificate is a finite computation at the recorded horizon and
    grid, not a proof.
    """

    passed: bool
    lambda0: float
    M0: int
    d0: float
    horizon: int
    U: tuple
    conditions: dict
    notes: str = ""


# slack factor of outside (b) and inside (b), and samples per component of U
_D0 = 1e-3
_U_GRID = 64
# least counted segment length of outside (a), and starts of the outside grid
_M0 = 30
_GRID_SIZE = 1024
# steps per pass of the certificate sweep between its bookkeeping rounds
_BLOCK = 8


def _circle_dist(s, centers):
    """Circle distance from each ``s`` to the nearest center; inf without centers.

    The centers run along a new leading axis, so the reduction is over
    whole rows; ``y - floor(y)`` is ``y % 1.0`` bit for bit.
    """
    s = np.asarray(s)
    y = s - np.reshape(centers, (-1,) + (1,) * s.ndim)
    y += 0.5
    y -= np.floor(y)
    y -= 0.5
    return np.abs(y, out=y).min(axis=0, initial=math.inf)


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


def misiurewicz_check(cmap: CircleMap, u_radius: float = 1e-2,
                      horizon: int = 1000) -> MisiurewiczCertificate:
    """Run the five-part expansion certification at a finite horizon.

    * outside (a): every orbit segment of 1024 evenly spaced starts that
      avoids the critical neighbourhood U for its whole length and is at
      least ``M0 = 30`` long expands at the extracted rate ``lambda0 > 0``;
    * outside (b): segments that end by entering U expand at the same rate
      up to the slack factor ``d0 = 1e-3``;
    * critical orbits: forward iterates of every critical point stay out
      of U for the whole horizon;
    * inside (a): the curvature is bounded away from zero, one sign per
      component of U;
    * inside (b): first returns to U recover derivative
      ``exp(lambda0 p0 / 3) / d0``.

    U is the union of the arcs of radius ``u_radius`` around the critical
    points, which must lie in (0, 0.5): an empty or inverted arc would pass
    the inside conditions vacuously, and a radius of 0.5 covers the circle.
    With an empty critical set U is empty, the inside/critical conditions
    hold vacuously, and the outside conditions measure pure uniform
    expansion (a rigid rotation therefore fails, a doubling map passes
    with rate ln 2).

    The grid starts (outside conditions) and the U samples (inside (b))
    run in one early-exit sweep over the points that have not yet entered
    U, in blocks of ``_BLOCK`` steps.  Each step only evaluates
    ``cmap.jet(pos, 1)``, reduces the lift as ``cmap.value`` does and
    stores the images and derivatives as one row of the block; the logs,
    the running sums (``np.add.accumulate`` down the rows adds in step
    order, so the sums are those of a step-by-step loop), the U test, the
    segment minima and the compaction run once per block.  A point that
    enters U mid-block is stepped to the block's end, and those extra
    images are never read.
    The critical points ride at the end of the live positions, so their
    images fill the critical orbits while the sweep lasts; the sweep ends
    when no grid start or U sample is left or at the horizon, and only
    the rest of the critical orbits then continues in one ``cmap.orbit``
    call (whose floats the sweep's reduction matches).  The outside and
    inside (b) sums share one ``np.log`` per block.  A ``math.log`` on the
    U samples would not make their sums independent of numpy's SIMD code:
    their images and derivatives already come from numpy's ``cos``,
    ``sin`` and ``log``.
    """
    if horizon < 1:
        raise ValidationError("horizon must be >= 1")
    if not 0.0 < u_radius < 0.5:
        raise ValidationError(f"u_radius must lie in (0, 0.5), got {u_radius}")
    r = u_radius
    crit = cmap.critical_points()
    centers = np.array([cp.s for cp in crit], dtype=float)
    u_intervals = tuple((float(c - r), float(c + r)) for c in centers)
    # the inside samples: 64 per component of U, less the critical points
    u_samples = centers[:, None] + np.linspace(-r, r, _U_GRID)
    u_pos = u_samples.ravel()
    u_pos = u_pos[~(_circle_dist(u_pos, centers) < 1e-9)] % 1.0

    # --- one sweep: the grid starts off U (indices below _GRID_SIZE, for
    # the outside conditions; a segment needs x0 ... x_{m-1} off U) and the
    # U samples (inside (b)) step in lockstep until each enters U, with the
    # critical points riding behind them.  The live state stays compact, in
    # index order, so the outside starts lead in ascending order and a view
    # of the first n_live_out is all of them.
    starts = (np.arange(_GRID_SIZE) + 0.5) / _GRID_SIZE
    n_all = _GRID_SIZE + u_pos.size
    cum = np.zeros(n_all)                # log|(h^m)'|, frozen on entering U
    stop = np.zeros(n_all, dtype=int)    # the m with h^m(x) in U, 0 = never
    off_u = ~(_circle_dist(starts, centers) < r)
    idx = np.concatenate([np.flatnonzero(off_u), _GRID_SIZE + np.arange(u_pos.size)])
    pos = np.concatenate([starts[off_u], u_pos, centers])
    acc = np.zeros(idx.size)             # cum of the live points
    n_live_out = int(np.count_nonzero(off_u))
    orbits = np.empty((horizon, centers.size))  # row i: the (i+1)-th critical iterates
    seg_m, seg_c = [], []     # length m >= _M0 and the least log|(h^m)'| at it
    min_ratio_a = math.inf
    worst_a = None
    done = 0                  # steps taken
    while idx.size and done < horizon:
        n = idx.size
        block = min(_BLOCK, horizon - done)
        images = np.empty((block, pos.size))
        derivs = np.empty((block, pos.size))
        for k in range(block):
            y, derivs[k] = cmap.jet(pos, 1)
            pos = images[k] = y - np.floor(y)
        orbits[done:done + block] = images[:, n:]
        logs = np.abs(derivs[:, :n])
        np.maximum(logs, 1e-300, out=logs)
        np.log(logs, out=logs)
        logs[0] += acc
        np.add.accumulate(logs, axis=0, out=logs)     # row k: cum after step done+k+1
        landed = _circle_dist(images[:, :n], centers) < r
        hit = landed.any(axis=0)
        first = np.where(hit, landed.argmax(axis=0), block)   # row of the first landing
        # every outside segment still tracked at row k avoided U through the
        # step before, so it binds the expansion bound at that length even
        # if it lands in U at row k
        k_lo = max(_M0 - done - 1, 0)
        k_hi = min(int(first[:n_live_out].max(initial=-1)), block - 1)
        if k_lo <= k_hi:
            rows = np.arange(k_lo, k_hi + 1)
            c = np.where(rows[:, None] <= first[:n_live_out],
                         logs[k_lo:k_hi + 1, :n_live_out], math.inf)
            for k, cmin in zip(rows.tolist(), c.min(axis=1).tolist()):
                m = done + k + 1
                seg_m.append(m)
                seg_c.append(cmin)
                # rounding is monotone, so cmin / m is the least c / m
                if cmin / m < min_ratio_a:
                    j = int(np.argmin(c[k - k_lo] / m))
                    min_ratio_a = cmin / m
                    worst_a = float(starts[idx[j]])
        if hit.any():
            cols = np.flatnonzero(hit)
            gone = idx[cols]
            stop[gone] = done + 1 + first[cols]
            cum[gone] = logs[first[cols], cols]
            keep = ~hit
            n_live_out = int(np.count_nonzero(keep[:n_live_out]))
            idx, acc = idx[keep], logs[-1, keep]
            pos = np.concatenate([pos[:n][keep], pos[n:]])
        else:
            acc = logs[-1]
        done += block
    cum[idx] = acc      # the points still off U at the horizon

    applicable = bool(seg_m)
    lambda0 = _largest_rate(np.array(seg_c), np.array(seg_m)) if applicable else -math.inf
    conditions = {}
    conditions["outside_a"] = ConditionVerdict(
        passed=bool(lambda0 > 0.0 and applicable),
        worst=min_ratio_a if applicable else -math.inf,
        witness=worst_a,
        note=f"lambda0 extracted over {len(seg_m)} segment lengths",
    )

    # segments that end by entering U
    entered, cum_out = stop[:_GRID_SIZE], cum[:_GRID_SIZE]
    hit = entered > 0
    slack_b = cum_out[hit] - (math.log(_D0) + lambda0 * entered[hit])
    conditions["outside_b"] = ConditionVerdict(
        passed=lambda0 > -math.inf and not (slack_b < 0.0).any(),
        worst=float(slack_b.min()) if slack_b.size else math.inf,
        note="" if slack_b.size else "no U-entering segments sampled",
    )

    if not crit:
        for key in ("critical_orbits", "inside_a", "inside_b"):
            conditions[key] = ConditionVerdict(
                passed=True, worst=math.inf, note="vacuous: empty critical set")
    else:
        # --- critical orbits avoid U: the sweep filled the first rows, and
        # the rest continues alone (the critical points rarely enter U, so
        # they do not hold the sweep open)
        orbits[done:] = cmap.orbit(orbits[done - 1] if done else centers, horizon - done)
        margins = _circle_dist(orbits, centers) - r
        # the first minimum in (critical point, step) order
        j, i = np.unravel_index(np.argmin(margins.T), margins.T.shape)
        ok = not (margins < 0.0).any()
        conditions["critical_orbits"] = ConditionVerdict(
            passed=ok, worst=float(margins[i, j]), witness=float(centers[j]),
            note="orbit of a critical point re-entered U" if not ok else "")

        # --- inside U, sampled on each component
        h2 = np.asarray(cmap.jet(u_samples, 2)[2], dtype=float)
        worst_h2 = float(np.min(np.abs(h2)))
        ok_sign = bool(((h2 > 0.0).all(axis=1) | (h2 < 0.0).all(axis=1)).all())
        conditions["inside_a"] = ConditionVerdict(
            passed=ok_sign and worst_h2 > 0.0, worst=worst_h2)

        # first returns of the U samples, from the sweep
        p0, cumlog = stop[_GRID_SIZE:], cum[_GRID_SIZE:]
        returned = p0 > 0
        n_noreturn = int(np.count_nonzero(~returned))
        slack = cumlog[returned] - (lambda0 * p0[returned] / 3.0 - math.log(_D0))
        worst_rec = float(slack.min()) if slack.size else math.inf
        ok_rec = not (slack < 0.0).any()
        conditions["inside_b"] = ConditionVerdict(
            passed=ok_rec, worst=worst_rec,
            note=f"{n_noreturn} sampled points did not return within the horizon")

    passed = all(v.passed for v in conditions.values())
    return MisiurewiczCertificate(
        passed=passed, lambda0=lambda0, M0=_M0, d0=_D0, horizon=horizon,
        U=u_intervals, conditions=conditions,
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


def transition_matrix(cmap: CircleMap) -> TransitionMatrix:
    """Interval-covering matrix of the monotonicity partition.

    Entry (i, m) is 1 when the image of the i-th monotonicity interval
    covers the m-th one (as circle arcs, lift-shift aware), and 0 otherwise;
    ``Q`` is an integer matrix, so its powers count covering chains.  The
    smallest power with all entries positive is searched up to ``r**2``.  A circle
    diffeomorphism has a single interval and no meaningful mixing verdict.
    """
    crit = cmap.critical_points()
    if not crit:
        # h' has no zero and averages to the degree, so degree one means h' > 0
        if cmap.degree == 1:
            return TransitionMatrix(
                intervals=((0.0, 1.0),), Q=np.ones((1, 1), dtype=int),
                mixing_N=None, note="diffeomorphism: mixing verdict not applicable")
        return TransitionMatrix(
            intervals=((0.0, 1.0),), Q=np.ones((1, 1), dtype=int),
            mixing_N=1, note=f"expanding degree-{cmap.degree} map, full image")

    cs = sorted(cp.s for cp in crit)
    r = len(cs)
    ends = cs + [cs[0] + 1.0]
    intervals = tuple((ends[i], ends[i + 1]) for i in range(r))
    Q = np.zeros((r, r), dtype=int)
    for i, (lo, hi) in enumerate(intervals):
        ia, ib = float(cmap.jet(lo)[0]), float(cmap.jet(hi)[0])
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

def lyapunov_1d(cmap: CircleMap, s0: float, iterations: int):
    """Birkhoff average of ``log |h'|`` along an orbit, after 100 burn-in steps.

    If the orbit lands on a critical point to machine precision the start
    is perturbed by 1e-9 and the estimate rerun; the number of restarts is
    reported alongside the exponent.
    """
    if iterations < 1000:
        raise ValidationError("iterations must be >= 1000")
    restarts = 0
    s_start = float(s0)
    while True:
        # the points after 100, ..., 99 + iterations steps
        d = np.abs(cmap.jet(cmap.orbit(s_start, 99 + iterations)[99:], 1)[1])
        if not (d < 1e-300).any():
            return float(np.sum(np.log(d))) / iterations, restarts
        restarts += 1
        if restarts > 8:
            raise NumericsError("orbit keeps hitting the critical set exactly")
        s_start = (s_start + 1e-9) % 1.0


# ---------------------------------------------------------------------------
# parameter transversality (indicative only)

@dataclass(frozen=True)
class TransversalitySample:
    s: float
    dq_da: float
    dp_da: float
    separated: bool


def _branch_of(s, ends):
    # the monotonicity interval (lo, hi) between consecutive ends that holds s
    t = (s - ends[0]) % 1.0 + ends[0]
    for lo, hi in zip(ends, ends[1:]):
        if lo <= t <= hi:
            return lo, hi
    return ends[-2], ends[-1]


def _branch_solve(cmap, lo, hi, target):
    # solve h(q) = target on the monotone branch [lo, hi]: Newton steps
    # kept inside the shrinking bracket, a bisection wherever one would leave it;
    # one first-order jet per iterate
    fa, fb = float(cmap.jet(lo)[0]) - target, float(cmap.jet(hi)[0]) - target
    if fa * fb > 0.0:
        return None
    if fa == 0.0 or fb == 0.0:
        return lo if fa == 0.0 else hi
    q = 0.5 * (lo + hi)
    for _ in range(100):
        v, d = cmap.jet(q, 1)
        fq = float(v) - target
        if fq == 0.0:
            return q
        lo, hi = (q, hi) if (fq > 0.0) == (fa > 0.0) else (lo, q)
        slope = float(d)
        q_next = q - fq / slope if slope != 0.0 else math.nan
        if not lo < q_next < hi:
            q_next = 0.5 * (lo + hi)
        if abs(q_next - q) <= 1e-14:
            return q_next
        q = q_next
    raise NumericsError(f"branch solve for {target} did not converge on [{lo}, {hi}]")


def transversality_probe(base: AnalyticCircleMap):
    """Indicative finite-difference check of parameter transversality.

    For each critical point of ``base`` the forward image moves with unit
    speed in the offset; the itinerary-matched continuation of that image,
    20 steps deep, is tracked by backward branch-following under the maps
    at offsets ``a -/+ da``, ``da = 1e-3``.  Backward refinement contracts
    wherever the map expands, so the continued point is well conditioned.
    The result is labelled indicative: the genuine condition concerns
    symbolic continuations to infinite depth.
    """
    crit = base.critical_points()
    cs = [cp.s for cp in crit]
    ends = cs + [s + 1.0 for s in cs[:1]]     # the last branch wraps around
    da = 1e-3
    shifted = [replace(base, a=(base.a + sgn * da) % 1.0) for sgn in (+1, -1)]

    def continued_point(cmap_new, ref_orbit):
        # follow the reference orbit segment backwards under the new map
        q = ref_orbit[-1]
        for j in range(len(ref_orbit) - 2, -1, -1):
            s_ref = ref_orbit[j]
            lo, hi = _branch_of(s_ref, ends)
            s_rep = (s_ref - lo) % 1.0 + lo
            target = q + round(float(cmap_new.jet(s_rep)[0]) - q)
            sol = _branch_solve(cmap_new, lo, hi, target)
            if sol is None:
                return None
            q = sol
        return q % 1.0

    out = []
    for cp in crit:
        ref = base.orbit(cp.s, 21).tolist()
        qs = [continued_point(cmap_new, ref) for cmap_new in shifted]
        if None in qs:
            continue
        diff = (qs[0] - qs[1] + 0.5) % 1.0 - 0.5
        dp_da = diff / (2.0 * da)
        dq_da = 1.0      # the offset enters the image additively
        out.append(TransversalitySample(
            s=cp.s, dq_da=dq_da, dp_da=float(dp_da),
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


def hypothesis_battery(params: ModelParams, n: int, a: float,
                       horizon: int = 1000, u_radius: float = 1e-2) -> BatteryReport:
    """Run the full verification battery for the rescaled family at (n, a).

    Entries H1-H7 each carry a status (pass / fail / indicative /
    not-checkable), the computed values, and a note.  H2 and H3 read the
    convergence table over the indices ``n, ..., n + 7``: H2 passes when the
    sup distances ``f1_sup`` and ``f2_sup`` strictly decrease, H3 when the
    derivative distances ``d1_sup``..``d3_sup`` do.  H1 and H6 hold by the
    family's form ``gamma**p (x**delta + 1 - sqrt(a1) cos 2 pi s)``: H1
    reports the endpoint ratio of the monotone determinant as its
    distortion bound, and H6 the unit slope in ``u = x**delta`` (normalised
    by ``gamma**p``) when ``h_a`` has turns.  H5 is structurally not
    certifiable by finite computation and is always labelled indicative.
    """
    dc = derive_constants(params)
    gamma = gamma_sequence(n, a, dc)
    cmap = make_circle_map(a, params)
    entries = {}

    # H1: regularity; item (3) is the determinant distortion bound over the
    # absorbing range of the leading coordinate.  The determinant
    # gp delta x**(delta-1) is monotone in x, so the bound is its endpoint ratio
    gp = gamma**dc.p
    x_lo = gp * (1.0 - dc.sqrt_a1)
    x_hi = gp * (1.0 + dc.sqrt_a1 + (2.0 * gp) ** dc.delta)
    entries["H1"] = {
        "status": "pass",
        "distortion_bound": (x_hi / x_lo) ** (dc.delta - 1.0),
        "note": "family is analytic in (x, s, a); the determinant is monotone in x, "
                "so its distortion over the absorbing range is the endpoint ratio",
    }

    # H2/H3: convergence to the singular limit; the window truncates where
    # the amplitude sequence underflows (steep dissipation exponents)
    rows = singular_limit_convergence(range(n, n + 8), a, params)
    if len(rows) < 2:
        raise ValidationError(
            "fewer than two representable sequence indices in the battery window"
        )
    cols = {k: [getattr(r, k) for r in rows]
            for k in ("f1_sup", "f2_sup", "d1_sup", "d2_sup", "d3_sup")}
    down = {k: all(c[i + 1] < c[i] for i in range(len(c) - 1)) for k, c in cols.items()}
    entries["H2"] = {
        "status": "pass" if down["f1_sup"] and down["f2_sup"] else "fail",
        "first": cols["f1_sup"][0], "last": cols["f1_sup"][-1],
        "note": f"sup distances over an index window of {len(rows)}",
    }
    entries["H3"] = {
        "status": "pass" if down["d1_sup"] and down["d2_sup"] and down["d3_sup"] else "fail",
        "d3_first": cols["d3_sup"][0], "d3_last": cols["d3_sup"][-1],
        "note": "finite-difference surrogates up to third order",
    }

    # H4: expansion certificate for the singular-limit map
    cert = misiurewicz_check(cmap, u_radius=u_radius, horizon=horizon)
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
        "samples": [asdict(t) for t in samples],
        "note": "finite-depth itinerary continuation; not a certificate",
    }

    # H6: nondegeneracy at turns -- slope of the leading component in the
    # contracted block u = x**delta, normalised by gamma**p.  The component
    # is gp (u + 1 - sqrt(a1) cos 2 pi s), so the slope is 1 at every turn
    h6_value = 1.0 if cmap.critical_points() else None
    entries["H6"] = {
        "status": "pass" if h6_value is not None else "not-checkable",
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
