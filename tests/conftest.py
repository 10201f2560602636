import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from mayleonard import ModelParams, NumericsError
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


def quad_checked(fun, a, b, tol=1e-10):
    """Oracle for the closed-form kernels: adaptive quadrature that must
    report convergence."""
    val, err = quad(fun, a, b, epsabs=1e-12, epsrel=tol, limit=800)
    if err > tol * max(1.0, abs(val)) + 1e-12:
        raise NumericsError(
            f"kernel quadrature did not converge: estimate {val}, error {err}"
        )
    return val
