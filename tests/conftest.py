import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from mayleonard import ModelParams, NumericsError
from mayleonard.diagnostics import _BURN_IN, Lyapunov2D
from mayleonard.singular import CriticalPoint


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
    """Oracle for ``critical_points``: sign changes of ``cmap.derivative`` on
    a uniform grid, refined by bracketed root-finding to ~1e-12.

    Works for any map with ``derivative`` and ``second_derivative``.  Two
    zeros inside one grid cell show no sign change, so it misses a pair of
    turns closer than ``1/grid_size``; a zero with ``|h''|`` below
    ``h2_floor`` raises :class:`NumericsError`.
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


def circle_dist_oracle(s, centers):
    """Oracle for ``_circle_dist``: the broadcast form, one ``(..., k)``
    array of differences wrapped with ``% 1.0`` and reduced over its short
    last axis."""
    d = np.abs((np.asarray(s)[..., None] - centers + 0.5) % 1.0 - 0.5)
    return d.min(axis=-1, initial=math.inf)


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


def lyapunov_oracle(fmap, point0, iterations):
    """Oracle for ``lyapunov_2d``: the QR method with one scalar tangent
    call and one Gram-Schmidt step per orbit point.

    Returns a ``Lyapunov2D`` from the same orbit as the function it checks
    (the burn-in, then ``iterations`` measured points); it does no input
    validation.
    """
    x, s = float(point0[0]), float(point0[1])
    for x, s, _ in fmap.orbit(x, s, _BURN_IN):
        pass
    tangent = fmap.tangent
    orbit = fmap.orbit(x, s, iterations)
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
        x, s, _ = next(orbit)
    l1, l2 = sum1 / iterations, sum2 / iterations
    if l1 < l2:
        l1, l2 = l2, l1
    return Lyapunov2D(l1=l1, l2=l2, logdet_mean=sumdet / iterations)
