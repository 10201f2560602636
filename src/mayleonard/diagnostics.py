"""Regime classification, attractor-type conditions, and chaos metrics.

Everything here is a measurement on the analytic return-map family:
classification of the four dynamical regimes and of the regions bounded
by the horseshoe and torus curves, the invariant-annulus condition,
two-dimensional Lyapunov spectra with the determinant cross-check,
rotation intervals through monotone envelope maps, the 0-1 chaos
statistic, autocorrelation decay, and the density scan over forcing
amplitudes that emulates the positive-measure claim as an empirical
fraction.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .config import NumericsConfig
from .errors import NumericsError, ValidationError
from .params import ModelParams, derive_constants, stable_fixed_point
from .returnmap import compile_map
from .singular import CircleMap

__all__ = [
    "AnnulusReport",
    "annulus_check",
    "region_label",
    "RegimeReport",
    "classify_regime",
    "Lyapunov2D",
    "lyapunov_2d",
    "RotationInterval",
    "rotation_interval",
    "zero_one_test",
    "AutocorrelationResult",
    "autocorrelation",
    "ScanRow",
    "ScanSummary",
    "density_scan",
]


# ---------------------------------------------------------------------------
# attractor-type conditions

@dataclass(frozen=True)
class AnnulusReport:
    defined: bool
    invariant: bool
    min_margin: float
    x_star: float | None
    band: tuple[float, float] | None
    worst_point: tuple[float, float] | None
    note: str = ""


def annulus_check(params: ModelParams) -> AnnulusReport:
    """One-step forward invariance of the band ``x* -/+ 2 g sqrt(a1)``.

    ``g = gamma mu1`` is the forcing of the low-frequency map
    ``x**delta + g (1 - sqrt(a1) cos 2 pi s)`` and ``x*`` the stable fixed
    point of ``x**delta + g``.  The image grows in ``x`` and is smallest at
    ``s = 0`` and largest at ``s = 1/2``, so the minimal signed margin
    (negative when an image escapes) is at a corner of the band.  As
    ``x* = x*^delta + g``, the lower margin ``F1(lo, 0) - lo`` is
    ``g sqrt(a1) - (x*^delta - lo^delta)`` and the upper one
    ``hi - F1(hi, 1/2)`` is ``g sqrt(a1) - (hi^delta - x*^delta)``.  Since
    ``x^delta`` is strictly convex for ``delta > 1`` and ``x*`` is the
    band's midpoint, the upper margin is always the smaller: it is the
    minimal margin, and ``worst_point`` is ``(hi, 1/2)``.
    """
    g = params.gamma * params.mu1
    if g <= 0.0:
        return AnnulusReport(False, False, math.nan, None, None, None,
                             note="forcing gamma * mu1 must be positive")
    dc = derive_constants(params)
    fixed = stable_fixed_point(g, dc.delta)
    if fixed is None:
        return AnnulusReport(False, False, math.nan, None, None, None,
                             note="no stable fixed point at this amplitude")
    w = 2.0 * g * dc.sqrt_a1
    lo, hi = fixed - w, fixed + w
    if lo <= 0.0:
        return AnnulusReport(False, False, math.nan, fixed, None, None,
                             note="band reaches the invariant plane (x* <= 2 g sqrt(a1))")
    # the corner as a one-element array, so that it takes numpy's power and cos
    X, S = np.array([hi]), np.array([0.5])
    margin = float(hi - (X**dc.delta + g * (1.0 - dc.sqrt_a1 * np.cos(2.0 * np.pi * S)))[0])
    return AnnulusReport(
        defined=True,
        invariant=margin >= 0.0,
        min_margin=margin,
        x_star=fixed,
        band=(lo, hi),
        worst_point=(float(hi), 0.5),
    )


_C = 10.0      # the constant C > 2 of the horseshoe boundary t1


def t1_curve(xi: float, omega: float) -> float:
    """Lower boundary of the horseshoe region, at ``C = 10``.

    Evaluated as ``(1 - exp(-u)) / (1 - exp(-u)/C)`` with ``u = C/(xi omega)``,
    which is the overflow-safe rewriting of the exponential ratio.
    """
    u = _C / (xi * omega)
    return (1.0 - math.exp(-u)) / (1.0 - math.exp(-u) / _C)


def t2_curve(xi: float, omega: float) -> float:
    """Upper boundary of the attracting-torus region, ``1/sqrt(1+(xi omega)^2)``."""
    return 1.0 / math.sqrt(1.0 + (xi * omega) ** 2)


def region_label(sqrt_a1: float, xi: float, omega: float,
                 battery_pass: bool | None = None) -> str:
    """Region of the (xi, sqrt(a1)) plane: I below t2 (attracting curve),
    III above t1 (rotational horseshoes), and II/IV between the curves
    (torus breakdown vs rank-one attractors), disambiguated by the
    hypothesis battery when its verdict is supplied."""
    t1 = t1_curve(xi, omega)
    t2 = t2_curve(xi, omega)
    if sqrt_a1 < t2:
        return "I"
    if sqrt_a1 > t1:
        return "III"
    if battery_pass is None:
        return "II/IV"
    return "IV" if battery_pass else "II"


# ---------------------------------------------------------------------------
# regime classification

_CASE_LABELS = {
    1: "attracting two-torus (invariant curve)",
    2: "hyperbolic horseshoes; rank-one strange attractors",
    3: "invertible circle-map family (attracting two-torus)",
    4: "non-invertible circle-map family (rotation intervals)",
}


@dataclass(frozen=True)
class RegimeReport:
    """The regime verdict, with the inputs it read (``delta``, ``omega``,
    ``xi``, ``mu1``) and the quantities each threshold compares
    (``gamma_pow``, ``t1``, ``t2``, ``sqrt_a1``, ``xi_minus_2mu1``)."""

    case_tag: int | None
    verdict: str
    label: str | None
    inputs: dict
    conditions: dict


def classify_regime(params: ModelParams) -> RegimeReport:
    """Assign one of the four dynamical regimes.

    Low frequency (``omega <= 0.5``) splits on whether ``gamma**(delta-1)``
    is appreciable (above 0.1: the power-law term matters) or negligible;
    high frequency (``omega >= 5``) splits on the circle-map invertibility
    threshold ``xi vs 2 mu1``.  Frequencies between the two thresholds get
    an indeterminate verdict: only the four corners are defined.  The
    horseshoe boundary ``t1`` is taken at ``C = 10``.
    """
    dc = derive_constants(params)
    gamma_pow = params.gamma ** (dc.delta - 1.0) if params.gamma > 0 else 0.0
    om = params.omega
    if om <= 0.5:
        tag = 1 if gamma_pow > 0.1 else 2
        verdict = f"case-{tag}"
    elif om >= 5.0:
        tag = 3 if dc.xi < 2.0 * params.mu1 else 4
        verdict = f"case-{tag}"
    else:
        tag = None
        verdict = "indeterminate regime (omega between the thresholds)"
    return RegimeReport(
        case_tag=tag, verdict=verdict,
        label=_CASE_LABELS.get(tag),
        inputs={"delta": dc.delta, "omega": om, "xi": dc.xi, "mu1": params.mu1},
        conditions={
            "gamma_pow": gamma_pow,
            "t1": t1_curve(dc.xi, om), "t2": t2_curve(dc.xi, om),
            "sqrt_a1": dc.sqrt_a1, "xi_minus_2mu1": dc.xi - 2.0 * params.mu1,
        },
    )


# ---------------------------------------------------------------------------
# two-dimensional Lyapunov spectrum

@dataclass(frozen=True)
class Lyapunov2D:
    l1: float
    l2: float
    logdet_mean: float

    @property
    def consistency(self) -> float:
        """|l1 + l2 - mean log|det||, exact identity up to round-off."""
        return abs(self.l1 + self.l2 - self.logdet_mean)


# map steps discarded before an orbit is measured
_BURN_IN = 500
# shortest measured orbit the Lyapunov pair accepts
_LYAPUNOV_MIN_ITERATIONS = 10_000


def _leading_directions(d11, d12, d21, d22):
    """Unit first columns of the prefix products ``P_k = D_{k-1} ... D_0``,
    ``k = 0 .. N-1``, of the 2x2 matrices with the given entry arrays.

    A Hillis-Steele scan: after the pass with shift ``h``, element k holds
    the product of the ``2h`` matrices that end at ``D_k`` (or of all of
    them down to ``D_0``), so ``ceil(log2 N)`` passes of element-wise 2x2
    products give every ``D_k ... D_0``.  Only directions are read, so each
    product is rescaled to a largest |entry| of 1; unscaled, the entries
    over- or underflow within a few hundred steps.
    """
    a, b, c, d = (np.array(v, dtype=float) for v in (d11, d12, d21, d22))
    m = np.maximum(np.maximum(np.abs(a), np.abs(b)), np.maximum(np.abs(c), np.abs(d)))
    for v in (a, b, c, d):
        v /= m
    n, shift = len(a), 1
    while shift < n:
        # element k <- (its window) @ (the window that ends where it starts)
        la, lb, lc, ld = a[shift:], b[shift:], c[shift:], d[shift:]
        ra, rb, rc, rd = a[:-shift], b[:-shift], c[:-shift], d[:-shift]
        pa, pb = la * ra + lb * rc, la * rb + lb * rd
        pc, pd = lc * ra + ld * rc, lc * rb + ld * rd
        m = np.maximum(np.maximum(np.abs(pa), np.abs(pb)), np.maximum(np.abs(pc), np.abs(pd)))
        a[shift:], b[shift:], c[shift:], d[shift:] = pa / m, pb / m, pc / m, pd / m
        shift *= 2
    # P_0 = I and P_k = D_{k-1} ... D_0
    qx, qy = np.concatenate(([1.0], a[:-1])), np.concatenate(([0.0], c[:-1]))
    norm = np.hypot(qx, qy)
    return qx / norm, qy / norm


def lyapunov_2d(fmap, point0, iterations: int) -> Lyapunov2D:
    """Tangent-map Lyapunov exponents of a compiled map by the QR method,
    over the whole orbit at once.

    One orbit call runs the 500 burn-in steps and the measured points; the
    image of the last measured point is computed only to check that it
    stays on the section.  With ``D_k`` the tangent at the k-th measured
    point (one array call of ``fmap.tangent``):

    * the leading direction ``q1_k`` is the unit first column of
      ``D_{k-1} ... D_0``, from a log-depth prefix product;
    * ``r11 = |D_k q1_k|``;
    * ``r22`` is the Gram-Schmidt residual of ``D_k q1_k^perp`` against the
      image direction ``q1_{k+1} = D_k q1_k / r11``.  Below its rounding
      floor it falls back to ``|det D_k| / r11``, the 2x2 volume identity.

    ``l1``, ``l2`` and ``logdet_mean`` are the means of ``log r11``,
    ``log r22`` and ``log |det D_k|``.  ``r22`` is not derived from the
    determinant, so ``consistency`` checks the closed-form determinant
    (where the variant has one) against the Jacobian entries.

    Returns the ordered pair ``l1 >= l2``.  The rank-one degenerate variant
    (constant leading coordinate) has no meaningful spectrum and is
    rejected; a zero determinant raises :class:`NumericsError` naming the
    first such measured step, and an orbit that leaves the section names
    its step counted from ``point0``, burn-in included.
    """
    if iterations < _LYAPUNOV_MIN_ITERATIONS:
        raise ValidationError(f"iterations must be >= {_LYAPUNOV_MIN_ITERATIONS}")
    if fmap.variant == "case34":
        raise ValidationError("case34 is rank-one degenerate (det = 0)")
    # the measured points are the images _BURN_IN ... _BURN_IN + iterations - 1
    xs, ss, _ = fmap.orbit(float(point0[0]), float(point0[1]), _BURN_IN + iterations)
    d11, d12, d21, d22, det = fmap.tangent(xs[_BURN_IN - 1:-1], ss[_BURN_IN - 1:-1])
    # the entry-form determinant cancels catastrophically when the phase
    # coupling dominates; prefer the exact closed form where it exists
    if det is None:
        det = d11 * d22 - d12 * d21
    degenerate = np.flatnonzero(det == 0.0)
    if degenerate.size:
        raise NumericsError(f"degenerate tangent map at step {degenerate[0]}")
    q1x, q1y = _leading_directions(d11, d12, d21, d22)
    v1x, v1y = d11 * q1x + d12 * q1y, d21 * q1x + d22 * q1y
    r11 = np.hypot(v1x, v1y)
    ux, uy = v1x / r11, v1y / r11
    # the image of q1_k^perp = (-q1y, q1x)
    v2x, v2y = d12 * q1x - d11 * q1y, d22 * q1x - d21 * q1y
    r12 = ux * v2x + uy * v2y
    r22 = np.hypot(v2x - r12 * ux, v2y - r12 * uy)
    # the subtraction rounds at eps * |v2|; below that the residual is
    # noise and the 2x2 volume identity r11 * r22 = |det| is exact
    noise = 64.0 * math.ulp(1.0) * np.maximum(np.hypot(v2x, v2y), np.abs(r12))
    r22 = np.where(r22 <= noise, np.abs(det) / r11, r22)
    l1 = float(np.sum(np.log(r11))) / iterations
    l2 = float(np.sum(np.log(r22))) / iterations
    if l1 < l2:
        l1, l2 = l2, l1
    return Lyapunov2D(l1=l1, l2=l2,
                      logdet_mean=float(np.sum(np.log(np.abs(det)))) / iterations)


# ---------------------------------------------------------------------------
# rotation intervals

@dataclass(frozen=True)
class RotationInterval:
    lo: float
    hi: float
    width: float
    is_point: bool


def rotation_interval(cmap: CircleMap, seeds: int = 8,
                      iterations: int = 20000,
                      rng: np.random.Generator | None = None) -> RotationInterval:
    """Rotation interval of a degree-one circle map.

    The endpoints are the rotation numbers of the monotone upper and lower
    envelope maps of the lift (plateau truncations through the local
    extrema).  Each is the mean lift displacement per step over the second
    half of a ``2 * iterations``-step orbit, the largest over the seeds for
    the upper envelope and the smallest for the lower one.  Both envelopes
    run from every seed as one lockstep ``(2, seeds)`` array.  A width
    below 1e-3 is reported as a point, which is the invariant-map case:
    both envelopes coincide with the map itself.  Fewer than one seed or
    iteration is a :class:`ValidationError`.
    """
    if cmap.degree != 1:
        raise ValidationError("rotation intervals need a degree-one map")
    if seeds < 1 or iterations < 1:
        raise ValidationError(
            f"rotation intervals need seeds >= 1 and iterations >= 1, got {seeds}, {iterations}")
    if rng is None:
        rng = np.random.default_rng(0)
    crit = cmap.critical_points()
    maxima = [(cp.s, float(cmap.jet(cp.s)[0])) for cp in crit if cp.second_derivative < 0.0]
    minima = [(cp.s, float(cmap.jet(cp.s)[0])) for cp in crit if cp.second_derivative > 0.0]

    def step(y):
        # row 0 follows the upper envelope, row 1 the lower one
        s = y % 1.0
        v = cmap.jet(s)[0] + (y - s)
        for m, fm in maxima:
            np.maximum(v[0], fm + np.floor(y[0] - m), out=v[0])
        for w, fw in minima:
            np.minimum(v[1], fw + np.ceil(y[1] - w), out=v[1])
        return v

    y = np.tile(rng.uniform(0.0, 1.0, size=seeds), (2, 1))
    for _ in range(iterations):
        y = step(y)
    y_mid = y
    for _ in range(iterations):
        y = step(y)
    rho = (y - y_mid) / iterations
    lo, hi = float(rho[1].min()), float(rho[0].max())
    width = hi - lo
    return RotationInterval(lo=lo, hi=hi, width=width, is_point=width < 1e-3)


# ---------------------------------------------------------------------------
# scalar time-series diagnostics

def _is_constant(x: np.ndarray) -> bool:
    """Whether a series' spread is within rounding of its magnitude.

    ``np.var`` of an exactly constant array rounds to ~1e-32, not 0, so a
    variance floor misses it; so do two values a few ulp apart, which is
    what an orbit on a fixed point produces.
    """
    return float(np.ptp(x)) <= 1e-12 * float(np.max(np.abs(x)))


# shortest series the 0-1 statistic accepts
_ZERO_ONE_MIN_SAMPLES = 1000


def _fast_fft_len(n: int) -> int:
    """The smallest integer ``>= n`` whose only prime factors are 2, 3 and 5."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the least power of two that lifts p35 to n or beyond
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _lag_correlation(lag_c, lag_ss, D) -> float:
    """Pearson coefficient of ``D`` against the lags, clipped to [-1, 1] as
    ``np.corrcoef`` clips it.  ``lag_c`` is the centred lag vector and
    ``lag_ss`` its sum of squares; a ``D`` with no spread raises
    :class:`NumericsError`, since the coefficient is then undefined."""
    d = D - D.mean()
    d_ss = float(d @ d)
    if not d_ss > 0.0:
        raise NumericsError("0-1 statistic: the displacement D has no spread over the lags")
    return min(1.0, max(-1.0, float(lag_c @ d) / math.sqrt(lag_ss * d_ss)))


def zero_one_test(series, n_c: int = 32,
                  rng: np.random.Generator | None = None) -> float:
    """Gottwald-Melbourne 0-1 statistic, median over random frequencies.

    Uses the regularised translation-variable construction (mean-square
    displacement with the oscillatory term subtracted, correlated against
    the lag) to avoid resonance artifacts.  K near 0 means regular motion,
    near 1 chaotic.

    Each frequency ``c`` (one ``rng.uniform()`` draw, in order) takes
    ``z = cumsum(x e^{ijc}) = p + iq``, and the displacement sum at lag n
    follows from the identity

        sum_j |z_{j+n} - z_j|^2 = sum_{j<N-n} |z_j|^2 + sum_{j>=n} |z_j|^2
                                  - 2 Re sum_j z_{j+n} conj(z_j),

    two prefix sums of ``|z|^2`` and the autocorrelation of ``z`` at lags
    1..N/10, read off one zero-padded FFT.  Its length is the smallest
    ``>= N + N/10`` with no prime factor above 5: no lag up to N/10 wraps
    round the padding.  A frequency costs O(N log N), so a call costs
    O(n_c N log N) instead of the O(n_c N^2 / 10) of a pass over the series
    per lag.  The correlation of ``D`` with the lags is the closed-form
    Pearson coefficient against a centred lag vector built once per call,
    clipped to [-1, 1]; a ``D`` with no spread raises
    :class:`NumericsError`.

    A constant series (spread within 1e-12 of its magnitude: an orbit on a
    fixed point) has ``D = 0`` in exact arithmetic, so K would only
    correlate rounding noise; it raises :class:`ValidationError`, as do a
    series shorter than 1000 samples, a non-finite sample and ``n_c < 1``.
    """
    x = np.asarray(series, dtype=float)
    if x.ndim != 1 or len(x) < _ZERO_ONE_MIN_SAMPLES:
        raise ValidationError(
            f"series must be one-dimensional with >= {_ZERO_ONE_MIN_SAMPLES} samples")
    if not np.all(np.isfinite(x)):
        raise ValidationError("0-1 statistic needs a finite series")
    if _is_constant(x):
        raise ValidationError("0-1 statistic is undefined for a constant series")
    if n_c < 1:
        raise ValidationError(f"n_c must be >= 1, got {n_c}")
    if rng is None:
        rng = np.random.default_rng(0)
    N = len(x)
    ncut = N // 10
    j = np.arange(N)
    mean_sq = float(np.mean(x)) ** 2
    n_arr = np.arange(1, ncut + 1)
    lag_c = n_arr - 0.5 * (ncut + 1)
    lag_ss = float(lag_c @ lag_c)
    n_fft = _fast_fft_len(N + ncut)
    ks = np.empty(n_c)
    for i in range(n_c):
        c = math.pi / 5.0 + rng.uniform() * 3.0 * math.pi / 5.0
        z = np.cumsum(x * np.exp(1j * c * j))
        # |z_{j+n} - z_j| does not see a constant shift; centring keeps the
        # three terms of the identity small where they cancel
        z -= z.mean()
        sq = np.cumsum(z.real ** 2 + z.imag ** 2)
        f = np.fft.fft(z, n_fft)
        cross = np.fft.ifft(f.real ** 2 + f.imag ** 2)[1:ncut + 1].real
        head = sq[N - 1 - n_arr]                # sum_{j < N-n} |z_j|^2
        tail = sq[-1] - sq[n_arr - 1]           # sum_{j >= n} |z_j|^2
        M = (head + tail - 2.0 * cross) / (N - n_arr)
        D = M - mean_sq * (1.0 - np.cos(n_arr * c)) / (1.0 - math.cos(c))
        ks[i] = _lag_correlation(lag_c, lag_ss, D)
    return float(np.median(ks))


@dataclass(frozen=True)
class AutocorrelationResult:
    lags: np.ndarray
    values: np.ndarray
    decay_rate: float | None
    fitted_lags: int


def autocorrelation(series, lags: int) -> AutocorrelationResult:
    """Normalised autocovariances with an exponential envelope fit.

    The decay rate per lag is a least-squares slope of ``log |acf|`` over
    the lags that sit above the sampling noise floor; a flat envelope
    yields a rate near zero.  A series that is not one-dimensional, is
    shorter than ``10 * lags``, or is non-finite or constant raises
    :class:`ValidationError`.  Diagnostic only.
    """
    if lags < 1:
        raise ValidationError(f"autocorrelation needs lags >= 1, got {lags}")
    x = np.asarray(series, dtype=float)
    if x.ndim != 1 or len(x) < 10 * lags:
        raise ValidationError("series must be one-dimensional and at least 10x the maximum lag")
    if not np.all(np.isfinite(x)):
        raise ValidationError("autocorrelation needs a finite series")
    if _is_constant(x):
        raise ValidationError("autocorrelation undefined for a constant series")
    var = float(np.var(x))
    xc = x - x.mean()
    n = len(x)
    ks = np.arange(lags + 1)
    vals = np.array([float(np.mean(xc[:n - k] * xc[k:])) / var for k in ks])
    # fit the leading consecutive run above the sampling noise floor; lags
    # past the first sub-floor value are indistinguishable from noise
    floor = 3.0 / math.sqrt(n)
    run = 0
    while run + 1 <= lags and abs(vals[run + 1]) > floor:
        run += 1
    if run >= 2:
        kk = ks[1:run + 1]
        slope = float(np.polyfit(kk, np.log(np.abs(vals[kk])), 1)[0])
        rate = -slope
        fitted = run
    else:
        rate = None
        fitted = 0
    return AutocorrelationResult(lags=ks, values=vals, decay_rate=rate,
                                 fitted_lags=fitted)


# ---------------------------------------------------------------------------
# density scan over forcing amplitudes

# the number of frequencies the scan's 0-1 test draws
_SCAN_N_C = 24


@dataclass(frozen=True)
class ScanRow:
    gamma: float
    lambda1: float
    lambda2: float
    K: float
    rot_lo: float
    rot_hi: float
    annulus_ok: bool
    success: bool
    failed: bool
    error: str = ""


@dataclass(frozen=True)
class ScanSummary:
    """The scan's success ``fraction`` over ``n_samples`` amplitudes, and one
    ``{"r", "n", "fraction"}`` entry per nested prefix ``gamma <= r``."""

    n_samples: int
    n_failed: int
    fraction: float
    prefix_fractions: list


def _scan_one(gamma, params, numerics, sample_rng):
    p_g = replace(params, gamma=float(gamma))
    fmap = compile_map("case12", p_g)
    s0 = float(sample_rng.uniform())
    x0 = p_g.gamma * p_g.mu1
    ly = lyapunov_2d(fmap, (x0, s0), numerics.iterations)
    # s-series for the 0-1 statistic and rotation estimates from three seeds
    rots = []
    obs = None
    for seed_i in range(3):
        # two calls: the rotation estimate is the lift from the burnt-in phase
        xs, ss, _ = fmap.orbit(x0, float(sample_rng.uniform()), _BURN_IN)
        x, s = float(xs[-1]), float(ss[-1])
        _, ss, y = fmap.orbit(x, s, numerics.series_len)
        rots.append((y - s) / numerics.series_len)
        if seed_i == 0:
            obs = np.cos(2.0 * np.pi * ss)
    if _is_constant(obs):
        K = 0.0                   # an orbit on a fixed point is regular
    else:
        K = zero_one_test(obs, n_c=_SCAN_N_C, rng=sample_rng)
    ann = annulus_check(p_g)
    success = (ly.l1 > 1e-3) and (K > 0.9)
    return ScanRow(
        gamma=float(gamma), lambda1=ly.l1, lambda2=ly.l2, K=K,
        rot_lo=float(min(rots)), rot_hi=float(max(rots)),
        annulus_ok=bool(ann.defined and ann.invariant),
        success=success, failed=False,
    )


def _scan_sample(gamma, params, numerics):
    """The row of one amplitude; a sample failure is a failed row that
    records its reason."""
    # key the stream by the amplitude itself so a sample's result does
    # not depend on its position in the grid
    gamma_key = int(np.float64(gamma).view(np.uint64))
    sample_rng = np.random.default_rng([numerics.seed, gamma_key])
    try:
        return _scan_one(gamma, params, numerics, sample_rng)
    except (NumericsError, ValidationError, ArithmeticError) as exc:
        # a float overflow's message alone does not say what overflowed
        error = (f"{type(exc).__name__}: {exc}" if isinstance(exc, ArithmeticError)
                 else str(exc))
        return ScanRow(
            gamma=float(gamma), lambda1=math.nan, lambda2=math.nan,
            K=math.nan, rot_lo=math.nan, rot_hi=math.nan,
            annulus_ok=False, success=False,
            failed=True, error=error)


def _fork_stride(stride, params, numerics):
    """Start a child process that scans ``stride`` and writes the pickled
    ``(rows, None)``, or ``(None, exception)`` if the stride raised, into a
    pipe; return its pid and the pipe's read end.  The child never returns
    into the caller: it leaves by ``os._exit``, without flushing or running
    any cleanup of the parent's."""
    read_fd, write_fd = os.pipe()
    # Python 3.12 warns that forking a process with threads may deadlock the
    # child.  The only other thread here is OpenBLAS's pool, which OpenBLAS
    # stops in its own fork handler and restarts on first use, and the child
    # runs only the scan before its os._exit.
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", message=r".*use of fork\(\) may lead to deadlocks",
                                    category=DeprecationWarning)
            pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            try:
                result = ([_scan_sample(g, params, numerics) for g in stride], None)
            except Exception as exc:
                result = (None, exc)
            with os.fdopen(write_fd, "wb") as pipe:
                pickle.dump(result, pipe)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, os.fdopen(read_fd, "rb")


def _scan_rows(grid, params, numerics):
    """The rows of ``grid`` in grid order.  With ``k`` usable CPUs the
    stride ``grid[w::k]`` runs in a forked child for each ``w >= 1`` while
    this process runs ``grid[0::k]``; a row depends only on its amplitude,
    so the rows are the same for every ``k``.  Where ``os.fork`` or
    ``os.sched_getaffinity`` is missing, ``k = 1`` and no child starts."""
    k = 1
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        k = min(len(grid), len(os.sched_getaffinity(0)))
    children = {}
    try:
        for w in range(1, k):
            children[w] = _fork_stride(grid[w::k], params, numerics)
        strides = [[_scan_sample(g, params, numerics) for g in grid[0::k]]]
        for w in range(1, k):
            pid, pipe = children[w]
            with pipe:
                data = pipe.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[w]
            if status != 0:
                raise NumericsError(
                    f"scan worker for the amplitudes from gamma={float(grid[w])!r} "
                    f"exited with status {status} without its rows")
            rows, exc = pickle.loads(data)
            if exc is not None:
                raise exc
            strides.append(rows)
    finally:
        for pid, pipe in children.values():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return [strides[i % k][i // k] for i in range(len(grid))]


def density_scan(gamma_grid, params: ModelParams,
                 numerics: NumericsConfig = NumericsConfig()) -> tuple[list, ScanSummary]:
    """Per-amplitude chaos metrics and the success fraction, as
    ``(rows, summary)``: one :class:`ScanRow` per amplitude and the
    :class:`ScanSummary`.

    For each amplitude: the top Lyapunov exponent of the low-frequency
    family, the 0-1 statistic of the phase series, rotation-estimate
    spread over seeds, and the annulus flag.  The summary fraction counts
    samples with a positive exponent and a chaotic 0-1 verdict; nested-prefix
    fractions over shrinking amplitude ranges emulate the density-at-zero
    statement without extrapolating.  Sample failures (numeric, validation
    and floating-point errors such as an overflowing orbit) are recorded with
    their reason, not fatal; results are deterministic for a fixed seed and
    independent of evaluation order.  The amplitudes run in up to one
    forked process per usable CPU, with the same rows for any number of
    processes; a worker that exits without its rows raises
    :class:`NumericsError`, and any other exception a worker's amplitudes
    raise is raised here.  A non-finite amplitude and sizes that would fail
    every sample (fewer than 10000 iterations, a series shorter than 1000
    samples) raise :class:`ValidationError` before any sample runs.

    ``numerics`` gives the seed, the Lyapunov ``iterations`` and the 0-1
    test's ``series_len``.
    """
    grid = np.asarray(list(gamma_grid), dtype=float)
    if grid.ndim != 1 or len(grid) < 1:
        raise ValidationError("gamma_grid must be a non-empty 1-d sequence")
    if not np.all(np.isfinite(grid)):
        raise ValidationError("amplitudes must be finite")
    if np.any(np.diff(grid) <= 0.0):
        raise ValidationError("gamma_grid must be strictly increasing")
    if grid[0] <= 0.0:
        raise ValidationError("amplitudes must be positive")
    if numerics.iterations < _LYAPUNOV_MIN_ITERATIONS:
        raise ValidationError(
            f"iterations must be >= {_LYAPUNOV_MIN_ITERATIONS}, got {numerics.iterations}")
    if numerics.series_len < _ZERO_ONE_MIN_SAMPLES:
        raise ValidationError(
            f"series_len must be >= {_ZERO_ONE_MIN_SAMPLES}, got {numerics.series_len}")
    rows = _scan_rows(grid, params, numerics)
    n_failed = sum(1 for r in rows if r.failed)
    fraction = sum(1 for r in rows if r.success) / len(rows)
    lo_dec = math.floor(math.log10(grid[0]))
    hi_dec = math.ceil(math.log10(grid[-1]))
    prefix = []
    for k in range(hi_dec, lo_dec, -1):
        r = 10.0 ** k
        sel = [row for row in rows if row.gamma <= r]
        if not sel:
            continue
        prefix.append({"r": r, "n": len(sel),
                       "fraction": sum(1 for row in sel if row.success) / len(sel)})
    return rows, ScanSummary(n_samples=len(rows), n_failed=n_failed,
                             fraction=fraction, prefix_fractions=prefix)
