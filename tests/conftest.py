import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from mayleonard import ModelParams, NumericsError, derive_constants
from mayleonard.diagnostics import _BURN_IN, Lyapunov2D
from mayleonard.params import stable_fixed_point
from mayleonard.returnmap import reduce_mod
from mayleonard.singular import ConvergenceRow, CriticalPoint, gamma_sequence


@pytest.fixture
def params_case2():
    """Large saddle value, low frequency: delta=3, xi=65, sqrt(a1)=sqrt(0.5)."""
    return ModelParams(c=0.6, e=0.2, gamma=0.01, omega=0.3)


@pytest.fixture
def params_case1():
    """Saddle value barely above one: delta=1.1, xi=6.62."""
    return ModelParams(c=0.55, e=0.5, gamma=1e-3, omega=0.05)


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)


def random_admissible(rng, n, omega_range=(0.05, 5.0)):
    """Random (c, e, omega) triples with 0 < e < c < 1."""
    out = []
    while len(out) < n:
        c = rng.uniform(0.05, 0.99)
        e = rng.uniform(0.01, 0.95)
        if not e < c:
            continue
        out.append((c, e, rng.uniform(*omega_range)))
    return out


def critical_set_grid(cmap, grid_size=4096, h2_floor=1e-8):
    """Oracle for ``critical_points``: sign changes of ``h'`` on a uniform
    grid, refined by bracketed root-finding to ~1e-12.

    Works for any map with a second-order ``jet``.  Two
    zeros inside one grid cell show no sign change, so it misses a pair of
    turns closer than ``1/grid_size``; a zero with ``|h''|`` below
    ``h2_floor`` raises :class:`NumericsError`.
    """
    grid = np.linspace(0.0, 1.0, grid_size + 1)
    dv = np.asarray(cmap.jet(grid, 1)[1])
    da, db = dv[:-1], dv[1:]
    roots = []
    for i in np.flatnonzero((da == 0.0) | (da * db < 0.0)):
        if da[i] == 0.0:
            roots.append(grid[i])
        else:
            roots.append(brentq(lambda s: float(cmap.jet(s, 1)[1]), grid[i], grid[i + 1],
                                xtol=1e-14, rtol=8.9e-16))
    out = []
    for r in sorted(set(np.round(np.mod(roots, 1.0), 13))):
        h2 = float(cmap.jet(r, 2)[2])
        if abs(h2) < h2_floor:
            raise NumericsError(
                f"degenerate critical point at s={r}: |h''|={abs(h2)} below {h2_floor}"
            )
        out.append(CriticalPoint(s=float(r), second_derivative=h2))
    return out


def circle_dist_oracle(s, centers):
    """Oracle for ``_circle_dist``: the broadcast form, one ``(..., k)``
    array of differences wrapped with ``% 1.0`` and reduced over its short
    last axis."""
    d = np.abs((np.asarray(s)[..., None] - centers + 0.5) % 1.0 - 0.5)
    return d.min(axis=-1, initial=math.inf)


def convergence_table_oracle(n_range, a, params):
    """Oracle for ``singular_limit_convergence``: every derivative distance
    from finite differences.

    The k-th s-derivative sup of the leading component
    ``gamma**p (x**delta + 1 - sqrt(a1) cos 2 pi s)`` and of the phase
    difference function are both central differences (step 1e-3) on the
    five stencil rows, each divided by its step power before the reduction;
    each ``d{k}_sup`` is the larger of the two.  The indices must be
    representable; it does no input validation.
    """
    dc = derive_constants(params)
    s_grid = np.linspace(0.0, 1.0, 256, endpoint=False)
    h = 1e-3
    sc = [dc.sqrt_a1 * np.cos(2.0 * np.pi * (s_grid + k * h)) for k in (-2, -1, 0, 1, 2)]
    den = [1.0 - c for c in sc]
    coef = -dc.xi * params.omega / math.pi
    rows = []
    for n in n_range:
        gamma = gamma_sequence(n, a, dc)
        gp = gamma**dc.p
        f1_sup = gp * (2.0 + dc.sqrt_a1)
        xd = np.linspace(f1_sup / 32, f1_sup, 32)[:, None] ** dc.delta
        f2_diff = [coef * np.log1p(xd / b) for b in den]
        f1_val = [gp * (xd + 1.0 - c) for c in sc]
        d_sups = []
        for v in (f2_diff, f1_val):
            d1 = (v[3] - v[1]) / (2 * h)
            d2 = (v[3] - 2 * v[2] + v[1]) / h**2
            d3 = (v[4] - 2 * v[3] + 2 * v[1] - v[0]) / (2 * h**3)
            d_sups.append([float(np.max(np.abs(d))) for d in (d1, d2, d3)])
        rows.append(ConvergenceRow(
            n=n, gamma=gamma, x_absorb=f1_sup,
            f1_sup=f1_sup, f2_sup=float(np.max(np.abs(f2_diff[2]))),
            d1_sup=max(d_sups[0][0], d_sups[1][0]),
            d2_sup=max(d_sups[0][1], d_sups[1][1]),
            d3_sup=max(d_sups[0][2], d_sups[1][2]),
        ))
    return rows


def finite_difference_jacobian(fmap, x, s):
    """Oracle for ``tangent`` and the closed-form determinants: the
    central-difference Jacobian of a compiled map's phase lift, relative
    step 1e-6."""
    lift = fmap.lift
    hx = 1e-6 * max(abs(x), 1.0)
    hs = 1e-6
    col_x = np.subtract(lift(x + hx, s), lift(x - hx, s)) / (2.0 * hx)
    col_s = np.subtract(lift(x, s + hs), lift(x, s - hs)) / (2.0 * hs)
    return np.column_stack([col_x, col_s])


def annulus_grid_oracle(params, n_samples):
    """Oracle for ``annulus_check``: the grid search it replaced.

    The band ``x* -/+ 2 g sqrt(a1)`` (``g = gamma mu1``, ``x*`` the stable
    fixed point of ``x**delta + g``) is sampled on an s-grid times a radial
    grid of about ``n_samples`` points; returns ``(min_margin,
    worst_point)`` from the row-major first minimum of the signed margins,
    or None where the band is undefined.
    """
    g = params.gamma * params.mu1
    if g <= 0.0:
        return None
    dc = derive_constants(params)
    fixed = stable_fixed_point(g, dc.delta)
    if fixed is None:
        return None
    w = 2.0 * g * dc.sqrt_a1
    lo, hi = fixed - w, fixed + w
    if lo <= 0.0:
        return None
    n_s = max(16, int(math.sqrt(n_samples * 8)))
    n_r = max(4, n_samples // n_s)
    ss = np.linspace(0.0, 1.0, n_s, endpoint=False)
    xs = np.linspace(lo, hi, n_r)
    X, S = np.meshgrid(xs, ss, indexing="ij")
    F1 = X**dc.delta + params.gamma * params.mu1 * (
        1.0 - dc.sqrt_a1 * np.cos(2.0 * np.pi * S))
    margins = np.minimum(F1 - lo, hi - F1)
    i, j = np.unravel_index(int(np.argmin(margins)), margins.shape)
    return float(margins[i, j]), (float(X[i, j]), float(S[i, j]))


def doubling_orbit(n, rng):
    """Oracle input for the chaos controls: a Lebesgue-typical doubling orbit
    of length n.

    Built from a random bit stream (53-bit windows), which realises the
    doubling dynamics without the float collapse that plain iteration of
    ``2 s mod 1`` suffers after 53 steps.
    """
    bits = rng.integers(0, 2, size=n + 53).astype(float)
    weights = 2.0 ** -(np.arange(1, 54))
    return np.correlate(bits, weights, mode="valid")[:n]


def rhs_oracle(t, q, params, in_logs=False):
    """Oracle for the flow's ``_field``: the vector field on the numpy
    scalars of ``x, y, z = q``, returned as an array.

    In the log chart ``q`` holds the logs of the coordinates and the forcing
    is divided by ``x`` only for ``gamma > 0``.
    """
    c, e, gam, om = params.c, params.e, params.gamma, params.omega
    if in_logs:
        u, v, w = q
        x, y, z = math.exp(u), math.exp(v), math.exp(w)
    else:
        x, y, z = q
    r = x + y + z
    force = gam * (1.0 - x) * math.sin(2.0 * om * t) ** 2 if gam else 0.0
    rx = (1.0 - r) - c * y + e * z
    ry = (1.0 - r) - c * z + e * x
    rz = (1.0 - r) - c * x + e * y
    if in_logs:
        return np.array([rx + force / x if gam else rx, ry, rz])
    return np.array([x * rx + force, y * ry, z * rz])


def stepper_oracle(solver_cls, fun, t0, y0, t_end, opts, floor, faces, level,
                   max_events, accept, record):
    """Oracle for ``flow._run_stepper``: the same loop on a scipy
    ``OdeSolver`` class (``LSODA``, or ``RK45`` as an independent method),
    with the solver's own ``dense_output()``.

    Takes ``_run_stepper``'s arguments after ``solver_cls`` and returns its
    ``(stats, found)``, with the counters read from the solver object.
    Each face ``(name, ci)`` is the event ``g = y[ci] - level``, crossed when
    g falls from positive to non-positive within a step.
    """
    stepper = solver_cls(fun, t0, np.asarray(y0, dtype=float), t_end,
                         rtol=opts.rel_tol, atol=opts.abs_tol, max_step=opts.max_step)
    steps, found = 0, []
    y_prev = stepper.y.tolist()
    if record is not None:
        record(t0, y_prev)
    while stepper.status == "running" and len(found) < max_events:
        msg = stepper.step()
        t_new, y_new = stepper.t, stepper.y.tolist()
        if not all(v >= floor for v in y_new):
            raise NumericsError(f"state {y_new} at t={t_new} below floor {floor}")
        if stepper.status == "failed" or t_new == stepper.t_old:
            raise NumericsError(
                f"step-size underflow at t={t_new}: {msg or 't + h == t'}")
        steps += 1
        if record is not None:
            record(t_new, y_new)
        sol = None
        hits = []
        for name, ci in faces:
            if y_prev[ci] - level > 0.0 >= y_new[ci] - level:
                if sol is None:
                    sol = stepper.dense_output()
                t_hit = brentq(lambda t: sol(t)[ci] - level, stepper.t_old, t_new,
                               xtol=1e-12 * max(1.0, abs(t_new)))
                hits.append((t_hit, name, np.asarray(sol(t_hit), dtype=float)))
        y_prev = y_new
        if hits:
            hits.sort()
            found += [hit for hit in hits if accept(hit[1], hit[2])]
    stats = {"steps": steps, "nfev": stepper.nfev, "njev": int(stepper.njev)}
    return stats, found[:max_events]


def quad_checked(fun, a, b, tol=1e-10):
    """Oracle for the closed-form kernels: adaptive quadrature that must
    report convergence."""
    val, err = quad(fun, a, b, epsabs=1e-12, epsrel=tol, limit=800)
    if err > tol * max(1.0, abs(val)) + 1e-12:
        raise NumericsError(
            f"kernel quadrature did not converge: estimate {val}, error {err}"
        )
    return val


def zero_one_oracle(series, n_c=32, rng=None):
    """Oracle for ``zero_one_test``: the 0-1 statistic with one pass over the
    series per lag, O(n_c N^2 / 10).

    Draws one ``rng.uniform()`` per frequency, in order, like the function
    it checks; it does no input validation.
    """
    x = np.asarray(series, dtype=float)
    if rng is None:
        rng = np.random.default_rng(0)
    N = len(x)
    ncut = N // 10
    j = np.arange(N)
    mean_sq = float(np.mean(x)) ** 2
    n_arr = np.arange(1, ncut + 1)
    ks = np.empty(n_c)
    for i in range(n_c):
        c = math.pi / 5.0 + rng.uniform() * 3.0 * math.pi / 5.0
        p = np.cumsum(x * np.cos(j * c))
        q = np.cumsum(x * np.sin(j * c))
        D = np.empty(ncut)
        for idx, nn in enumerate(n_arr):
            M = np.mean((p[nn:] - p[:-nn]) ** 2 + (q[nn:] - q[:-nn]) ** 2)
            D[idx] = M - mean_sq * (1.0 - math.cos(nn * c)) / (1.0 - math.cos(c))
        ks[i] = np.corrcoef(n_arr, D)[0, 1]
    return float(np.median(ks))


def orbit_oracle(fmap, x, s, steps):
    """Oracle for ``orbit``: a generator that steps ``fmap.lift`` and yields
    ``(x, s, advance)`` after each step.

    ``s`` is the phase reduced by ``reduce_mod`` and ``advance`` the
    unreduced phase step ``f2 - s``.  An image with ``x <= 0`` raises
    :class:`NumericsError`; ``lift`` itself may raise first.
    """
    lift, modulus = fmap.lift, fmap.modulus
    for k in range(steps):
        x, f2 = lift(x, s)
        if x <= 0.0:
            raise NumericsError(f"orbit escaped (x <= 0) at step {k}")
        advance = f2 - s
        s = reduce_mod(f2, modulus)
        yield x, s, advance


def lyapunov_oracle(fmap, point0, iterations):
    """Oracle for ``lyapunov_2d``: the QR method with one scalar tangent
    call and one Gram-Schmidt step per orbit point.

    Returns a ``Lyapunov2D`` from the same orbit as the function it checks
    (the burn-in, then ``iterations`` measured points); it does no input
    validation.
    """
    xs, ss, _ = fmap.orbit(float(point0[0]), float(point0[1]), _BURN_IN)
    x, s = float(xs[-1]), float(ss[-1])
    tangent = fmap.tangent
    xs, ss, _ = fmap.orbit(x, s, iterations)
    q1x, q1y, q2x, q2y = 1.0, 0.0, 0.0, 1.0
    sum1 = sum2 = sumdet = 0.0
    eps = math.ulp(1.0)
    for k in range(iterations):
        d11, d12, d21, d22, det = tangent(x, s)
        if det is None:
            det = d11 * d22 - d12 * d21
        if det == 0.0:
            raise NumericsError(f"degenerate tangent map at step {k}")
        sumdet += math.log(abs(det))
        v1x, v1y = d11 * q1x + d12 * q1y, d21 * q1x + d22 * q1y
        v2x, v2y = d11 * q2x + d12 * q2y, d21 * q2x + d22 * q2y
        r11 = math.hypot(v1x, v1y)
        q1x, q1y = v1x / r11, v1y / r11
        r12 = q1x * v2x + q1y * v2y
        wx, wy = v2x - r12 * q1x, v2y - r12 * q1y
        r22 = math.hypot(wx, wy)
        noise = 64.0 * eps * max(math.hypot(v2x, v2y), abs(r12))
        if r22 <= noise:
            r22 = abs(det) / r11
            q2x, q2y = -q1y, q1x
        else:
            q2x, q2y = wx / r22, wy / r22
        sum1 += math.log(r11)
        sum2 += math.log(r22)
        x, s = float(xs[k]), float(ss[k])
    l1, l2 = sum1 / iterations, sum2 / iterations
    if l1 < l2:
        l1, l2 = l2, l1
    return Lyapunov2D(l1=l1, l2=l2, logdet_mean=sumdet / iterations)
