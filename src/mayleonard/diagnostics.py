"""Regime classification, attractor-type conditions, and chaos metrics.

Everything here is a measurement on the analytic return-map family:
classification of the four dynamical regimes, the horseshoe and
invariant-annulus conditions, two-dimensional Lyapunov spectra with the
determinant cross-check, rotation intervals through monotone envelope
maps, the 0-1 chaos statistic, autocorrelation decay, and the density
scan over forcing amplitudes that emulates the positive-measure claim as
an empirical fraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import NumericsError, ValidationError
from .params import ModelParams, derive_constants, stable_fixed_point
from .returnmap import compile_map
from .singular import CircleMap, k_map, make_circle_map, misiurewicz_check

__all__ = [
    "AnnulusReport",
    "annulus_check",
    "HorseshoeReport",
    "horseshoe_condition",
    "region_curves",
    "region_label",
    "RegimeReport",
    "classify_regime",
    "Lyapunov2D",
    "lyapunov_2d",
    "Case34SMarginal",
    "RotationInterval",
    "rotation_interval",
    "zero_one_test",
    "AutocorrelationResult",
    "autocorrelation",
    "ScanOpts",
    "ScanRow",
    "ScanResult",
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


def annulus_check(params: ModelParams, n_samples: int = 8192) -> AnnulusReport:
    """One-step forward invariance of the band ``x* -/+ 2 gamma sqrt(a1)``.

    Samples the band boundary and interior on an s-grid times radial grid,
    applies the low-frequency map, and reports the minimal signed margin
    (distance of the worst image to the band, negative when a sampled
    image escapes).
    """
    if params.gamma <= 0.0:
        return AnnulusReport(False, False, math.nan, None, None, None,
                             note="gamma must be positive")
    dc = derive_constants(params)
    fixed = stable_fixed_point(params.gamma, dc.delta)
    if fixed is None:
        return AnnulusReport(False, False, math.nan, None, None, None,
                             note="no stable fixed point at this amplitude")
    w = 2.0 * params.gamma * dc.sqrt_a1
    lo, hi = fixed - w, fixed + w
    if lo <= 0.0:
        return AnnulusReport(False, False, math.nan, fixed, None, None,
                             note="band reaches the invariant plane (x* <= 2 gamma sqrt(a1))")
    n_s = max(16, int(math.sqrt(n_samples * 8)))
    n_r = max(4, n_samples // n_s)
    ss = np.linspace(0.0, 1.0, n_s, endpoint=False)
    xs = np.linspace(lo, hi, n_r)
    X, S = np.meshgrid(xs, ss, indexing="ij")
    F1 = X**dc.delta + params.gamma * params.mu1 * (
        1.0 - dc.sqrt_a1 * np.cos(2.0 * np.pi * S))
    margins = np.minimum(F1 - lo, hi - F1)
    i, j = np.unravel_index(int(np.argmin(margins)), margins.shape)
    return AnnulusReport(
        defined=True,
        invariant=bool(margins[i, j] >= 0.0),
        min_margin=float(margins[i, j]),
        x_star=fixed,
        band=(lo, hi),
        worst_point=(float(X[i, j]), float(S[i, j])),
    )


@dataclass(frozen=True)
class HorseshoeReport:
    holds: bool
    margin: float
    t1: float
    sqrt_a1: float


def t1_curve(xi: float, omega: float, C: float) -> float:
    """Lower boundary of the horseshoe region.

    Evaluated as ``(1 - exp(-u)) / (1 - exp(-u)/C)`` with ``u = C/(xi omega)``,
    which is the overflow-safe rewriting of the exponential ratio.
    """
    if C <= 2.0:
        raise ValidationError(f"C must exceed 2, got {C}")
    u = C / (xi * omega)
    return (1.0 - math.exp(-u)) / (1.0 - math.exp(-u) / C)


def t2_curve(xi: float, omega: float) -> float:
    """Upper boundary of the attracting-torus region, ``1/sqrt(1+(xi omega)^2)``."""
    return 1.0 / math.sqrt(1.0 + (xi * omega) ** 2)


def horseshoe_condition(C: float, params: ModelParams) -> HorseshoeReport:
    """Whether ``t1(xi) < sqrt(a1) < 1`` holds; margin is ``sqrt(a1) - t1``."""
    dc = derive_constants(params)
    t1 = t1_curve(dc.xi, params.omega, C)
    holds = t1 < dc.sqrt_a1 < 1.0
    return HorseshoeReport(holds=holds, margin=dc.sqrt_a1 - t1,
                           t1=t1, sqrt_a1=dc.sqrt_a1)


def region_curves(xi_grid, omega: float, C: float = 10.0):
    """Rows ``(xi, t1, t2)`` of the two boundary curves on the given grid."""
    return [(float(xi), t1_curve(xi, omega, C), t2_curve(xi, omega))
            for xi in xi_grid]


def region_label(sqrt_a1: float, xi: float, omega: float, C: float = 10.0,
                 battery_pass: bool | None = None) -> str:
    """Region of the (xi, sqrt(a1)) plane: I below t2 (attracting curve),
    III above t1 (rotational horseshoes), and II/IV between the curves
    (torus breakdown vs rank-one attractors), disambiguated by the
    hypothesis battery when its verdict is supplied."""
    t1 = t1_curve(xi, omega, C)
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
    case_tag: int | None
    verdict: str
    label: str | None
    delta: float
    omega: float
    xi: float
    mu1: float
    gamma_pow: float
    t1: float
    t2: float
    sqrt_a1: float
    xi_minus_2mu1: float

    def to_dict(self):
        return {
            "case_tag": self.case_tag,
            "verdict": self.verdict,
            "label": self.label,
            "inputs": {"delta": self.delta, "omega": self.omega,
                       "xi": self.xi, "mu1": self.mu1},
            "conditions": {
                "gamma_pow": self.gamma_pow,
                "t1": self.t1,
                "t2": self.t2,
                "sqrt_a1": self.sqrt_a1,
                "xi_minus_2mu1": self.xi_minus_2mu1,
            },
        }


def classify_regime(params: ModelParams, C: float = 10.0) -> RegimeReport:
    """Assign one of the four dynamical regimes.

    Low frequency (``omega <= 0.5``) splits on whether ``gamma**(delta-1)``
    is appreciable (above 0.1: the power-law term matters) or negligible;
    high frequency (``omega >= 5``) splits on the circle-map invertibility
    threshold ``xi vs 2 mu1``.  Frequencies between the two thresholds get
    an indeterminate verdict: only the four corners are defined.
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
        delta=dc.delta, omega=om, xi=dc.xi, mu1=params.mu1,
        gamma_pow=gamma_pow,
        t1=t1_curve(dc.xi, om, C), t2=t2_curve(dc.xi, om),
        sqrt_a1=dc.sqrt_a1, xi_minus_2mu1=dc.xi - 2.0 * params.mu1,
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


def lyapunov_2d(fmap, point0, iterations: int) -> Lyapunov2D:
    """Tangent-map Lyapunov exponents of a compiled map, per-step orthonormalisation.

    The orbit runs 500 burn-in steps before the first measured one.

    Returns the ordered pair ``l1 >= l2``; their sum matches the Birkhoff
    average of ``log |det DF|`` by construction, and the report keeps both
    so callers can assert the identity.  The rank-one degenerate variant
    (constant leading coordinate) has no meaningful spectrum and is
    rejected.
    """
    if iterations < 10_000:
        raise ValidationError("iterations must be >= 10000")
    if fmap.variant == "case34":
        raise ValidationError("case34 is rank-one degenerate (det = 0)")
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
        # the entry-form determinant cancels catastrophically when the phase
        # coupling dominates; prefer the exact closed form where it exists
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
        # the subtraction rounds at eps * |v2|; below that the residual is
        # noise and the 2x2 volume identity r11 * r22 = |det| is exact
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


# ---------------------------------------------------------------------------
# rotation intervals

class Case34SMarginal(CircleMap):
    """Phase marginal of the high-frequency family: ``s + phi + A sin(2 pi s)``."""

    def __init__(self, params: ModelParams):
        fmap = compile_map("case34", params)
        self.phi = fmap.shift - fmap.offset - fmap.drift
        self.amp = fmap.amp

    def lift(self, s):
        return np.asarray(s, dtype=float) + self.phi \
            + self.amp * np.sin(2.0 * np.pi * np.asarray(s, dtype=float))

    def derivative(self, s):
        return 1.0 + 2.0 * np.pi * self.amp * np.cos(2.0 * np.pi * np.asarray(s, dtype=float))

    def second_derivative(self, s):
        return -(2.0 * np.pi) ** 2 * self.amp * np.sin(2.0 * np.pi * np.asarray(s, dtype=float))

    def _critical_phases(self):
        # h' = 0 is cos(2 pi s) = -1/(2 pi amp)
        scale = 2.0 * math.pi * self.amp
        if abs(scale) < 1.0:
            return ()
        turn = math.acos(-1.0 / scale) / (2.0 * math.pi)
        return [turn, (-turn) % 1.0]


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
    both envelopes coincide with the map itself.
    """
    if cmap.degree != 1:
        raise ValidationError("rotation intervals need a degree-one map")
    if rng is None:
        rng = np.random.default_rng(0)
    crit = cmap.critical_points()
    maxima = [(cp.s, float(cmap.lift(cp.s))) for cp in crit if cp.second_derivative < 0.0]
    minima = [(cp.s, float(cmap.lift(cp.s))) for cp in crit if cp.second_derivative > 0.0]

    def step(y):
        # row 0 follows the upper envelope, row 1 the lower one
        s = y % 1.0
        v = cmap.lift(s) + (y - s)
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
    1..N/10, read off one zero-padded FFT of length >= 2N.  A frequency
    costs O(N log N), so a call costs O(n_c N log N) instead of the
    O(n_c N^2 / 10) of a pass over the series per lag.

    A constant series (spread within 1e-12 of its magnitude: an orbit on a
    fixed point) has ``D = 0`` in exact arithmetic, so K would only
    correlate rounding noise; it raises :class:`ValidationError`, as do a
    series shorter than 1000 samples and ``n_c < 1``.
    """
    x = np.asarray(series, dtype=float)
    if x.ndim != 1 or len(x) < _ZERO_ONE_MIN_SAMPLES:
        raise ValidationError(
            f"series must be one-dimensional with >= {_ZERO_ONE_MIN_SAMPLES} samples")
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
    n_fft = 1 << (2 * N - 1).bit_length()
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
        ks[i] = np.corrcoef(n_arr, D)[0, 1]
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
    yields a rate near zero.  Diagnostic only.
    """
    x = np.asarray(series, dtype=float)
    if len(x) < 10 * lags:
        raise ValidationError("series must be at least 10x the maximum lag")
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

@dataclass(frozen=True)
class ScanOpts:
    iterations: int = 20000
    series_len: int = 2000
    n_c: int = 24
    seed: int = 0
    battery: bool = True
    battery_horizon: int = 200
    battery_grid: int = 256


@dataclass(frozen=True)
class ScanRow:
    gamma: float
    lambda1: float
    lambda2: float
    K: float
    rot_lo: float
    rot_hi: float
    annulus_ok: bool
    battery_h4: bool | None
    success: bool
    failed: bool
    error: str = ""


@dataclass(frozen=True)
class ScanResult:
    rows: list
    fraction: float
    prefix_fractions: list
    n_failed: int

    def to_summary(self):
        return {
            "n_samples": len(self.rows),
            "n_failed": self.n_failed,
            "fraction": self.fraction,
            "prefix_fractions": [
                {"r": r, "n": n, "fraction": f} for (r, n, f) in self.prefix_fractions
            ],
        }


def _scan_one(gamma, params, opts, sample_rng):
    p_g = replace(params, gamma=float(gamma))
    fmap = compile_map("case12", p_g)
    s0 = float(sample_rng.uniform())
    x0 = p_g.gamma * p_g.mu1
    ly = lyapunov_2d(fmap, (x0, s0), opts.iterations)
    # s-series for the 0-1 statistic and rotation estimates from three seeds
    rots = []
    obs = None
    for seed_i in range(3):
        x, s = x0, float(sample_rng.uniform())
        for x, s, _ in fmap.orbit(x, s, _BURN_IN):
            pass
        ss = np.empty(opts.series_len)
        y = y0 = s
        for i, (_, s, advance) in enumerate(fmap.orbit(x, s, opts.series_len)):
            y += advance          # lift displacement
            ss[i] = s
        rots.append((y - y0) / opts.series_len)
        if seed_i == 0:
            obs = np.cos(2.0 * np.pi * ss)
    if len(obs) >= _ZERO_ONE_MIN_SAMPLES and _is_constant(obs):
        # an orbit on a fixed point is regular; a constant series too short
        # for the statistic still fails the row
        K = 0.0
    else:
        K = zero_one_test(obs, n_c=opts.n_c, rng=sample_rng)
    ann = annulus_check(p_g, n_samples=512)
    if opts.battery:
        a = k_map(float(gamma), fmap.dc) % 1.0
        try:
            cert = misiurewicz_check(
                make_circle_map(a, p_g), horizon=opts.battery_horizon,
                grid_size=opts.battery_grid, m0=10)
            battery_h4 = bool(cert.passed)
        except NumericsError:
            battery_h4 = False
    else:
        battery_h4 = None
    success = (ly.l1 > 1e-3) and (K > 0.9)
    return ScanRow(
        gamma=float(gamma), lambda1=ly.l1, lambda2=ly.l2, K=K,
        rot_lo=float(min(rots)), rot_hi=float(max(rots)),
        annulus_ok=bool(ann.defined and ann.invariant),
        battery_h4=battery_h4, success=success, failed=False,
    )


def density_scan(gamma_grid, params: ModelParams,
                 opts: ScanOpts = ScanOpts()) -> ScanResult:
    """Per-amplitude chaos metrics and the success fraction.

    For each amplitude: the top Lyapunov exponent of the low-frequency
    family, the 0-1 statistic of the phase series, rotation-estimate
    spread over seeds, the annulus flag, and a quick expansion-certificate
    flag.  The summary fraction counts samples with a positive exponent
    and a chaotic 0-1 verdict; nested-prefix fractions over shrinking
    amplitude ranges emulate the density-at-zero statement without
    extrapolating.  Sample failures (numeric, validation and floating-point
    errors such as an overflowing orbit) are recorded with their reason, not
    fatal; results are deterministic for a fixed seed and independent of
    evaluation order.
    """
    grid = np.asarray(list(gamma_grid), dtype=float)
    if grid.ndim != 1 or len(grid) < 1:
        raise ValidationError("gamma_grid must be a non-empty 1-d sequence")
    if np.any(np.diff(grid) <= 0.0):
        raise ValidationError("gamma_grid must be strictly increasing")
    if grid[0] <= 0.0:
        raise ValidationError("amplitudes must be positive")
    rows = []
    for gamma in grid:
        # key the stream by the amplitude itself so a sample's result does
        # not depend on its position in the grid
        gamma_key = int(np.float64(gamma).view(np.uint64))
        sample_rng = np.random.default_rng([opts.seed, gamma_key])
        try:
            rows.append(_scan_one(gamma, params, opts, sample_rng))
        except (NumericsError, ValidationError, ArithmeticError) as exc:
            # a float overflow's message alone does not say what overflowed
            error = (f"{type(exc).__name__}: {exc}" if isinstance(exc, ArithmeticError)
                     else str(exc))
            rows.append(ScanRow(
                gamma=float(gamma), lambda1=math.nan, lambda2=math.nan,
                K=math.nan, rot_lo=math.nan, rot_hi=math.nan,
                annulus_ok=False, battery_h4=None, success=False,
                failed=True, error=error))
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
        prefix.append((r, len(sel), sum(1 for row in sel if row.success) / len(sel)))
    return ScanResult(rows=rows, fraction=fraction,
                      prefix_fractions=prefix, n_failed=n_failed)
