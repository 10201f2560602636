import math
import os
import re
from dataclasses import replace
from itertools import count

import numpy as np
import pytest

from mayleonard import (
    ModelParams,
    NumericsError,
    ValidationError,
    annulus_check,
    autocorrelation,
    classify_regime,
    compile_map,
    density_scan,
    derive_constants,
    lyapunov_2d,
    rotation_interval,
    zero_one_test,
)
from mayleonard.config import NumericsConfig
from mayleonard.diagnostics import (
    _BURN_IN,
    _fast_fft_len,
    _lag_correlation,
    _scan_one,
    region_label,
    t1_curve,
    t2_curve,
)
from mayleonard.params import stable_fixed_point
from mayleonard.singular import Case34SMarginal, DoublingMap, RigidRotation

from conftest import annulus_grid_oracle, doubling_orbit, lyapunov_oracle, zero_one_oracle


def test_x_star_cases():
    assert stable_fixed_point(0.0, 3.0) == 0.0
    assert stable_fixed_point(0.1, 2.0) == pytest.approx((1 - math.sqrt(0.6)) / 2, abs=1e-12)
    assert stable_fixed_point(0.3, 2.0) is None


def test_annulus_invariant_when_contraction_is_strong():
    """Moderate forcing response (sqrt(a1) = 1/2) and small amplitude give a
    genuinely forward-invariant band."""
    om = math.sqrt(3.0) / 2.0 * 0.55          # a1 = 1/4
    p = ModelParams(c=0.55, e=0.5, gamma=1e-4, omega=om)
    rep = annulus_check(p)
    assert rep.defined
    assert rep.invariant
    assert rep.min_margin > 0.0


def test_annulus_leaks_at_larger_amplitude():
    """At gamma = 1e-3 the band edges map outside: the one-step margin is
    negative (the derivative at the fixed point exceeds one half)."""
    p = ModelParams(c=0.55, e=0.5, gamma=1e-3, omega=0.05)
    rep = annulus_check(p)
    assert rep.defined
    assert not rep.invariant
    assert rep.min_margin < 0.0


def test_annulus_undefined_cases():
    # band touches the invariant plane
    p = ModelParams(c=0.55, e=0.5, gamma=1e-4, omega=0.05)
    rep = annulus_check(p)
    assert not rep.defined
    assert "plane" in rep.note
    assert not annulus_check(ModelParams(c=0.55, e=0.5, gamma=0.0)).defined


def test_annulus_mean_fixed_point_consistency():
    """The s-average of the map at x* returns x* exactly (unit forcing
    mean): the band is centred on the fixed point of ``x**delta + gamma mu1``,
    and a forcing ``gamma mu1 <= 0`` leaves it undefined."""
    for mu1 in (1.0, 0.5, 2.0):
        p = ModelParams(c=0.55, e=0.5, gamma=1e-3, omega=0.05, mu1=mu1)
        dc = derive_constants(p)
        fixed = annulus_check(p).x_star
        assert fixed == stable_fixed_point(p.gamma * mu1, dc.delta)
        ss = np.linspace(0.0, 1.0, 4096, endpoint=False)
        f1 = fixed**dc.delta + p.gamma * mu1 * (1 - dc.sqrt_a1 * np.cos(2 * np.pi * ss))
        assert float(f1.mean()) == pytest.approx(fixed, rel=1e-9)
    rep = annulus_check(ModelParams(c=0.55, e=0.5, gamma=1e-3, omega=0.05, mu1=-0.5))
    assert not rep.defined and rep.x_star is None
    assert "mu1" in rep.note


@pytest.mark.parametrize("n_samples", [512, 8192])
def test_annulus_corners_match_the_grid_search(n_samples):
    """The upper-corner margin and worst point are the grid search's, bit for
    bit, over 400 amplitudes on three parameter sets; the band is defined
    on the same amplitudes."""
    sets = [ModelParams(c=0.55, e=0.5, omega=0.05), ModelParams(c=0.6, e=0.2, omega=0.3),
            ModelParams(c=0.55, e=0.5, omega=math.sqrt(3.0) / 2.0 * 0.55)]
    defined = 0
    for p in sets:
        for gamma in np.geomspace(1e-7, 0.3, 400):
            q = replace(p, gamma=float(gamma))
            rep = annulus_check(q)
            grid = annulus_grid_oracle(q, n_samples)
            assert rep.defined == (grid is not None)
            if grid is None:
                continue
            defined += 1
            margin, (x, s) = grid
            assert (rep.min_margin.hex(), rep.worst_point[0].hex(), rep.worst_point[1].hex()) \
                == (margin.hex(), x.hex(), s.hex())
            assert rep.invariant == (margin >= 0.0)
    assert defined == 460


def test_horseshoe_condition_reference_point():
    p = ModelParams(c=0.6, e=0.2, omega=0.3)          # xi*omega = 19.5
    dc = derive_constants(p)
    t1 = t1_curve(dc.xi, p.omega)
    # exact value 0.42674969...: the 4-figure form 0.4268 is its round-half-up
    # at the tie boundary 0.42675, so allow one unit in the fourth digit
    assert t1 == pytest.approx(0.4267497, abs=1e-6)
    assert t1 == pytest.approx(0.4268, abs=1e-4)
    assert region_label(dc.sqrt_a1, dc.xi, p.omega) == "III"
    rep = classify_regime(p)
    assert rep.conditions["t1"] == t1
    assert rep.conditions["sqrt_a1"] == pytest.approx(math.sqrt(0.5), rel=1e-12)


def test_t_curve_limits_and_monotonicity():
    assert t1_curve(1e7, 1.0) < 1e-5          # huge xi*omega
    assert t1_curve(1e-9, 1.0) == pytest.approx(1.0, abs=1e-6)
    assert t2_curve(1e-9, 1.0) == pytest.approx(1.0, abs=1e-6)
    xis = np.linspace(1.0, 200.0, 100)
    t1s = [t1_curve(xi, 0.3) for xi in xis]
    t2s = [t2_curve(xi, 0.3) for xi in xis]
    assert all(b < a for a, b in zip(t1s, t1s[1:]))
    assert all(b < a for a, b in zip(t2s, t2s[1:]))
    assert all(a > b for a, b in zip(t1s, t2s))
    assert t2_curve(65.0, 0.3) == pytest.approx(0.05121, abs=5e-6)


def test_horseshoe_margin_continuous_in_frequency():
    """The margin ``sqrt(a1) - t1`` varies continuously over a fine frequency
    grid with a single verdict flip."""
    oms = np.geomspace(0.01, 10.0, 2000)
    reports = [classify_regime(ModelParams(c=0.6, e=0.2, omega=om)) for om in oms]
    margins = np.array([r.conditions["sqrt_a1"] - r.conditions["t1"] for r in reports])
    assert float(np.max(np.abs(np.diff(margins)))) < 1e-3
    flips = int(np.sum(np.abs(np.diff(np.sign(margins))) > 0))
    assert flips == 1


def test_region_labels():
    # below t2: attracting curve; above t1: horseshoes; between: battery call
    assert region_label(0.01, 65.0, 0.3) == "I"
    assert region_label(0.9, 65.0, 0.3) == "III"
    assert region_label(0.2, 65.0, 0.3) == "II/IV"
    assert region_label(0.2, 65.0, 0.3, battery_pass=True) == "IV"
    assert region_label(0.2, 65.0, 0.3, battery_pass=False) == "II"


def test_classify_regime_corners():
    r = classify_regime(ModelParams(c=0.6, e=0.2, gamma=0.01, omega=0.3))
    assert r.case_tag == 2 and r.conditions["gamma_pow"] == pytest.approx(1e-4)
    r = classify_regime(ModelParams(c=0.55, e=0.5, gamma=0.01, omega=0.3))
    assert r.case_tag == 1
    assert r.conditions["gamma_pow"] == pytest.approx(0.01**0.1, rel=1e-12)
    r = classify_regime(ModelParams(c=0.6, e=0.2, gamma=0.01, omega=6.0, mu1=1.0))
    assert r.case_tag == 4 and r.conditions["xi_minus_2mu1"] > 0
    r = classify_regime(ModelParams(c=0.6, e=0.2, gamma=0.01, omega=6.0, mu1=40.0))
    assert r.case_tag == 3
    r = classify_regime(ModelParams(c=0.6, e=0.2, gamma=0.01, omega=2.0))
    assert r.case_tag is None and "indeterminate" in r.verdict


def test_classify_deterministic():
    p = ModelParams(c=0.6, e=0.2, gamma=0.01, omega=0.3)
    assert classify_regime(p) == classify_regime(p)


def test_lyapunov_2d_neutral_contracting_regime():
    """Nearly unforced low-frequency family: neutral phase direction, strongly
    negative second exponent, and the determinant identity.

    The amplitude must avoid mode-locked windows (where the attractor is a
    sink and the top exponent goes negative); 1e-6 sits on a genuine curve.
    """
    p = ModelParams(c=0.55, e=0.5, gamma=1e-6, omega=0.05)
    res = lyapunov_2d(compile_map("case12", p), (1e-6, 0.3), 20000)
    assert abs(res.l1) < 1e-2
    assert res.l2 < -0.5
    assert res.consistency < 1e-3


def test_lyapunov_2d_determinant_identity(rng):
    """l1 + l2 equals the Birkhoff log-determinant average on random draws."""
    for _ in range(20):
        c = rng.uniform(0.3, 0.9)
        e = rng.uniform(0.1, c - 0.05)
        p = ModelParams(c=c, e=e, gamma=10 ** rng.uniform(-5, -2),
                        omega=rng.uniform(0.05, 0.5))
        res = lyapunov_2d(compile_map("case12", p), (p.gamma, rng.uniform()), 10000)
        assert res.consistency < 1e-3


def test_lyapunov_2d_positive_on_chaotic_sample():
    p = ModelParams(c=0.6, e=0.2, gamma=1e-3, omega=0.3)
    res = lyapunov_2d(compile_map("rescaled", p), (0.5, 0.3), 20000)
    assert res.l1 > 0.0
    assert res.consistency < 1e-3


def test_lyapunov_2d_rejects_degenerate_variant():
    p = ModelParams(c=0.6, e=0.2, gamma=1e-3, omega=6.0)
    with pytest.raises(ValidationError):
        lyapunov_2d(compile_map("case34", p), (0.1, 0.3), 20000)


@pytest.mark.parametrize("name", ["full", "rescaled", "0"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_lyapunov_2d_rejects_a_non_finite_start(name, bad):
    """A non-finite start coordinate is a validation error, not a bare
    ``ValueError`` from deep in the orbit loop."""
    fmap, (x0, s0) = lyapunov_case(name)
    for point in ((bad, s0), (x0, bad)):
        with pytest.raises(ValidationError, match="finite start"):
            lyapunov_2d(fmap, point, 10000)


def lyapunov_case(name):
    """A compiled map and a start point: a scan row by its grid index, or
    the rescaled or full variant at gamma = 1e-3 on the scan parameters."""
    p = replace(SCAN_PARAMS, gamma=1e-3)
    if name == "rescaled":
        return compile_map("rescaled", p), (0.5, 0.3)
    if name == "full":
        return compile_map("full", p), (1e-3, 0.3)
    fmap, x0, rng = scan_row_map(int(name))
    return fmap, (x0, float(rng.uniform()))


@pytest.mark.parametrize("name", [
    pytest.param("49", id="case12-fixed-point"),
    pytest.param("135", id="case12-period-4"),
    pytest.param("150", id="case12-chaotic"),
    "rescaled",
    "full",
])
def test_lyapunov_2d_matches_per_step_oracle(name):
    """The prefix-product pair is the per-step QR loop's: l1 and the mean
    log-determinant to 1e-10, and l2, which is ill-conditioned, to 1e-10
    plus the two results' own consistency."""
    fmap, point0 = lyapunov_case(name)
    got = lyapunov_2d(fmap, point0, 10000)
    want = lyapunov_oracle(fmap, point0, 10000)
    assert abs(got.l1 - want.l1) <= 1e-10
    assert abs(got.logdet_mean - want.logdet_mean) <= 1e-10
    assert abs(got.l2 - want.l2) <= 1e-10 + got.consistency + want.consistency
    if name == "150":
        assert got.l1 > 1e-3


class _TamperedDet:
    """The case-12 map at gamma = 1e-3 whose closed-form determinant array
    passes through ``tamper``."""

    variant = "case12"

    def __init__(self, tamper):
        self.fmap = compile_map("case12", replace(SCAN_PARAMS, gamma=1e-3))
        self.tamper = tamper

    def orbit(self, x, s, steps):
        return self.fmap.orbit(x, s, steps)

    def tangent(self, x, s):
        *entries, det = self.fmap.tangent(x, s)
        return (*entries, self.tamper(det.copy()))


@pytest.mark.parametrize("step", [0, 4321, 9999])
def test_lyapunov_2d_names_first_degenerate_step(step):
    def zero_here_and_last(det):
        det[[step, -1]] = 0.0
        return det

    with pytest.raises(NumericsError, match=f"degenerate tangent map at step {step}$"):
        lyapunov_2d(_TamperedDet(zero_here_and_last), (1e-3, 0.3), 10000)


def test_lyapunov_2d_consistency_checks_the_closed_form():
    """r22 comes from the Jacobian entries, not from the determinant, so a
    closed form off by a factor 2 reads as consistency ln 2."""
    res = lyapunov_2d(_TamperedDet(lambda det: 2.0 * det), (1e-3, 0.3), 10000)
    assert res.consistency == pytest.approx(math.log(2.0), abs=1e-9)


@pytest.mark.parametrize("call", [100, _BURN_IN + 4321, _BURN_IN + 9999])
def test_lyapunov_2d_raises_on_escape(call):
    """An image off the section raises in the burn-in, among the measured
    points, and as the last image, which only the escape check reads.  The
    burn-in and the measured points are one orbit, so the step is counted
    from ``point0``: lift call ``_BURN_IN + 4321`` is step 4821.  The
    rescaled variant's orbit steps ``lift``, so a patched ``lift`` injects
    the escape; the case-12 orbit, fused, escapes for real below."""
    fmap, point0 = lyapunov_case("rescaled")
    lift, calls = fmap.lift, count()
    fmap.lift = lambda x, s: (-x, s) if next(calls) == call else lift(x, s)
    with pytest.raises(NumericsError, match=rf"orbit escaped \(x <= 0\) at step {call}$"):
        lyapunov_2d(fmap, point0, 10000)


def test_lyapunov_2d_raises_on_case12_escape():
    """A negative forcing coefficient drives the case-12 image below zero
    within the burn-in (at step 6 from (1, 0.3))."""
    fmap = compile_map("case12", replace(SCAN_PARAMS, gamma=1e-2, mu1=-0.5))
    with pytest.raises(NumericsError, match="orbit escaped .* at step 6$"):
        lyapunov_2d(fmap, (1.0, 0.3), 10000)


def test_rotation_interval_rigid():
    rot = rotation_interval(RigidRotation(0.3), seeds=4, iterations=5000)
    assert rot.is_point
    assert rot.lo == pytest.approx(0.3, abs=1e-6)
    assert rot.hi == pytest.approx(0.3, abs=1e-6)


def test_rotation_interval_invertible_marginal():
    """Below the invertibility threshold the rotation number is unique."""
    p = ModelParams(c=0.95, e=0.9, gamma=0.01, omega=6.0, mu1=10.0)
    from mayleonard import derive_constants
    assert derive_constants(p).xi < 2 * p.mu1
    rot = rotation_interval(Case34SMarginal(p), seeds=6, iterations=20000)
    assert rot.width < 1e-3
    assert rot.is_point


def test_rotation_interval_noninvertible_marginal():
    p = ModelParams(c=0.6, e=0.2, gamma=0.01, omega=6.0, mu1=1.0)
    from mayleonard import derive_constants
    assert derive_constants(p).xi > 2 * p.mu1
    rot = rotation_interval(Case34SMarginal(p), seeds=6, iterations=5000)
    assert rot.width > 0.01
    assert not rot.is_point


def _scalar_rotation_interval(cmap, seeds, iterations, rng):
    """Reference for ``rotation_interval``: each envelope map from each seed
    in its own loop of scalar order-0 jet calls; returns (lo, hi, width,
    is_point)."""
    crit = cmap.critical_points()
    maxima = [cp.s for cp in crit if cp.second_derivative < 0.0]
    minima = [cp.s for cp in crit if cp.second_derivative > 0.0]
    max_vals = [float(cmap.jet(m)[0]) for m in maxima]
    min_vals = [float(cmap.jet(w)[0]) for w in minima]

    def lift_at(y):
        s = y % 1.0
        return float(cmap.jet(s)[0]) + (y - s)

    def upper(y):
        v = lift_at(y)
        for m, fm in zip(maxima, max_vals):
            v = max(v, fm + math.floor(y - m))
        return v

    def lower(y):
        v = lift_at(y)
        for w, fw in zip(minima, min_vals):
            v = min(v, fw + math.ceil(y - w))
        return v

    def rho(fun, y):
        for _ in range(iterations):
            y = fun(y)
        y_mid = y
        for _ in range(iterations):
            y = fun(y)
        return (y - y_mid) / iterations

    y0s = rng.uniform(0.0, 1.0, size=seeds)
    lo = min(rho(lower, float(y0)) for y0 in y0s)
    hi = max(rho(upper, float(y0)) for y0 in y0s)
    return lo, hi, hi - lo, hi - lo < 1e-3


def _stream(seed, drawn):
    rng = np.random.default_rng(seed)
    rng.uniform(size=drawn)
    return rng


@pytest.mark.parametrize("cmap, seeds, iterations, seed, drawn", [
    (RigidRotation(0.3), 4, 5000, 0, 0),
    # criterion 11: one stream, the invertible marginal draws first
    (Case34SMarginal(ModelParams(c=0.95, e=0.9, gamma=0.01, omega=6.0, mu1=10.0)),
     6, 20000, 20260809, 0),
    (Case34SMarginal(ModelParams(c=0.6, e=0.2, gamma=0.01, omega=6.0, mu1=1.0)),
     6, 5000, 20260809, 6),
    # chaos-test --variant case34 on case 2 with seed 7
    (Case34SMarginal(ModelParams(c=0.6, e=0.2, gamma=0.01, omega=0.3)), 8, 20000, 7, 0),
], ids=["rigid", "invertible", "noninvertible", "chaos-test"])
def test_rotation_interval_lockstep_equals_scalar_reference(cmap, seeds, iterations,
                                                             seed, drawn):
    """The lockstep envelopes give the scalar reference's floats exactly,
    with each caller's seeds, iterations and random stream."""
    got = rotation_interval(cmap, seeds=seeds, iterations=iterations,
                            rng=_stream(seed, drawn))
    ref = _scalar_rotation_interval(cmap, seeds, iterations, _stream(seed, drawn))
    assert (got.lo, got.hi, got.width, got.is_point) == ref


def test_rotation_interval_rejects_higher_degree():
    with pytest.raises(ValidationError):
        rotation_interval(DoublingMap())


def test_rotation_interval_rejects_bad_sizes():
    """No seed, a negative seed count or no iteration is a validation
    error, not an empty reduction, a negative dimension or a division by
    zero."""
    for kwargs in (dict(seeds=0), dict(seeds=-2), dict(iterations=0)):
        with pytest.raises(ValidationError):
            rotation_interval(RigidRotation(0.3), **kwargs)


def test_zero_one_statistic_fixtures(rng):
    n = 4000
    # quasi-periodic: rigid rotation observable
    s = (0.1234 + 0.37 * np.arange(n)) % 1.0
    k_reg = zero_one_test(np.cos(2 * np.pi * s), rng=rng)
    assert k_reg < 0.1
    # chaotic: doubling orbit observable
    orbit = doubling_orbit(n, rng)
    k_chaos = zero_one_test(np.cos(2 * np.pi * orbit), rng=rng)
    assert k_chaos > 0.9
    with pytest.raises(ValidationError):
        zero_one_test(np.ones(2000), rng=rng)
    with pytest.raises(ValidationError):
        zero_one_test(np.ones(10), rng=rng)
    with pytest.raises(ValidationError, match="n_c"):
        zero_one_test(np.cos(2 * np.pi * orbit), n_c=0, rng=rng)


# the criterion-10 amplitude grid on case 2, at the scan sizes of the
# scan benchmark: seed 7, 10000 iterations and a 1000-sample series
SCAN_GRID = np.geomspace(1e-6, 0.05, 200)
SCAN_PARAMS = ModelParams(c=0.6, e=0.2, omega=0.3)
SCAN_NUMERICS = NumericsConfig(iterations=10000, series_len=1000, seed=7)


def scan_row_map(index):
    """The compiled map of the scan row at a grid index, the row's start
    coordinate ``x0`` and its sample stream, not yet drawn from."""
    gamma = float(SCAN_GRID[index])
    rng = np.random.default_rng([SCAN_NUMERICS.seed, int(np.float64(gamma).view(np.uint64))])
    return compile_map("case12", replace(SCAN_PARAMS, gamma=gamma)), gamma * SCAN_PARAMS.mu1, rng


def scan_phase_series(index, n):
    """The observable ``cos(2 pi s)`` that the scan row at a grid index hands
    to the 0-1 test, from the same draws, extended to ``n`` samples."""
    fmap, x0, rng = scan_row_map(index)
    rng.uniform()                       # the Lyapunov start
    _, ss, _ = fmap.orbit(x0, float(rng.uniform()), _BURN_IN + n)
    return np.cos(2.0 * np.pi * ss[_BURN_IN:])


def zero_one_fixture(kind, n):
    if kind == "rotation":
        return np.cos(2 * np.pi * ((0.1234 + 0.37 * np.arange(n)) % 1.0))
    if kind == "doubling":
        return np.cos(2 * np.pi * doubling_orbit(n, np.random.default_rng(n)))
    return scan_phase_series(135, n)     # a period-4 orbit of the case-12 map


@pytest.mark.parametrize("kind", ["rotation", "doubling", "period4"])
@pytest.mark.parametrize("n, n_c", [(1000, 24), (1200, 1), (2000, 32), (4097, 8)])
def test_zero_one_matches_per_lag_oracle(kind, n, n_c):
    """The FFT statistic is the per-lag loop's to 1e-9 and draws the same
    frequencies: the generator ends in the same state."""
    series = zero_one_fixture(kind, n)
    rng_fft, rng_loop = np.random.default_rng(99), np.random.default_rng(99)
    got = zero_one_test(series, n_c=n_c, rng=rng_fft)
    want = zero_one_oracle(series, n_c=n_c, rng=rng_loop)
    assert got == pytest.approx(want, abs=1e-9)
    assert -1.0 <= got <= 1.0
    assert rng_fft.bit_generator.state == rng_loop.bit_generator.state


def _is_5_smooth(m):
    for p in (2, 3, 5):
        while m % p == 0:
            m //= p
    return m == 1


@pytest.mark.parametrize("n", [1000, 1200, 2000, 4097])
def test_zero_one_fft_length_is_the_least_5_smooth_above_the_lags(n):
    """The FFT is padded to the smallest length >= N + N//10 with no prime
    factor above 5 (1125 for N = 1000), enough that no lag up to N//10
    wraps round."""
    need = n + n // 10
    want = next(m for m in range(need, 2 * need) if _is_5_smooth(m))
    assert _fast_fft_len(need) == want
    assert [_fast_fft_len(m) for m in (1, 2, 7, 1100)] == [1, 2, 8, 1125]


def test_zero_one_lag_correlation_is_pearson_clipped():
    """The closed-form coefficient is ``np.corrcoef``'s to rounding, a D
    linear in the lag reads 1 or -1 and no further, and a D with no spread
    over the lags has no coefficient: a numeric error, not a NaN."""
    lags = np.arange(1, 101)
    lag_c = lags - 50.5
    lag_ss = float(lag_c @ lag_c)
    D = np.random.default_rng(5).normal(size=100) + 0.01 * lags
    assert _lag_correlation(lag_c, lag_ss, D) == pytest.approx(
        np.corrcoef(lags, D)[0, 1], abs=1e-14)
    for slope in (3.0, -1e-7):
        r = _lag_correlation(lag_c, lag_ss, slope * lags + 0.1)
        assert -1.0 <= r <= 1.0 and abs(r) == pytest.approx(1.0, abs=1e-14)
    for flat in (np.zeros(100), np.full(100, 2.5)):
        with pytest.raises(NumericsError, match="no spread"):
            _lag_correlation(lag_c, lag_ss, flat)


def test_zero_one_rejects_fixed_point_series():
    """Grid indices 49 and 132 sit on a fixed point (one phase, and two
    phases 72 ulp apart): D is zero in exact arithmetic, so the statistic
    is undefined, and so is the autocorrelation.  The period-4 orbit at
    index 135 is the negative control."""
    for index in (49, 132):
        with pytest.raises(ValidationError, match="constant"):
            zero_one_test(scan_phase_series(index, 1000))
        with pytest.raises(ValidationError, match="constant"):
            autocorrelation(scan_phase_series(index, 1000), 40)
    assert abs(zero_one_test(scan_phase_series(135, 1000))) < 0.1


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_zero_one_rejects_non_finite_series(bad):
    """A NaN sample would give K = nan, and an infinite one would be
    reported as a constant series."""
    series = np.cos(2.0 * np.pi * 0.1234567 * np.arange(2000))
    series[700] = bad
    with pytest.raises(ValidationError, match="finite series"):
        zero_one_test(series)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_autocorrelation_rejects_non_finite_series(bad):
    """A NaN sample would give all-NaN values, and an infinite one would be
    reported as a constant series."""
    series = np.cos(2.0 * np.pi * 0.1234567 * np.arange(2000))
    series[700] = bad
    with pytest.raises(ValidationError, match="finite series"):
        autocorrelation(series, 40)


@pytest.mark.parametrize("shape", [(), (2000, 3), (1, 2000)])
def test_autocorrelation_rejects_a_series_that_is_not_one_dimensional(shape, rng):
    """A table of series would be flattened into one, and a scalar has no
    length: both are rejected as ``zero_one_test`` rejects them."""
    with pytest.raises(ValidationError, match="one-dimensional"):
        autocorrelation(rng.normal(size=shape), 5)


def test_density_scan_fixed_point_row_is_regular():
    """A fixed point's row reads K = 0 and is neither failed nor a success;
    a series too short for the 0-1 test is rejected before the row runs."""
    (row,), _ = density_scan([SCAN_GRID[49]], SCAN_PARAMS, SCAN_NUMERICS)
    assert (row.K, row.failed, row.success) == (0.0, False, False)
    short = replace(SCAN_NUMERICS, series_len=999)
    with pytest.raises(ValidationError, match="series_len must be >= 1000"):
        density_scan([SCAN_GRID[49]], SCAN_PARAMS, short)
    (row,), _ = density_scan([SCAN_GRID[135]], SCAN_PARAMS, SCAN_NUMERICS)
    assert not row.failed and row.K != 0.0 and abs(row.K) < 0.1


def test_zero_one_statistic_invariant_curve(rng):
    """The low-frequency family on its attracting curve is regular."""
    p = ModelParams(c=0.55, e=0.5, gamma=1e-3, omega=0.05)
    _, ss, _ = compile_map("case12", p).orbit(0.002, 0.1, 2000 + 4000)
    series = ss[2000:]
    assert zero_one_test(np.cos(2 * np.pi * series), rng=rng) < 0.1


def test_autocorrelation_doubling_rate(rng):
    """Sawtooth observable of the doubling orbit decays at ln 2 per lag."""
    orbit = doubling_orbit(1 << 17, rng)
    res = autocorrelation(orbit, 40)
    assert res.values[0] == pytest.approx(1.0, rel=1e-12)
    assert res.decay_rate == pytest.approx(math.log(2.0), abs=0.1)


def test_autocorrelation_flat_for_rotation():
    s = (0.1 + 0.1234567 * np.arange(1 << 15)) % 1.0
    res = autocorrelation(np.cos(2 * np.pi * s), 40)
    assert res.decay_rate is None or abs(res.decay_rate) < 0.05
    with pytest.raises(ValidationError):
        autocorrelation(np.ones(4000), 40)
    with pytest.raises(ValidationError):
        autocorrelation(np.ones(100), 40)
    for lags in (0, -2):
        with pytest.raises(ValidationError, match=f"lags >= 1, got {lags}"):
            autocorrelation(np.cos(2 * np.pi * s), lags)


def test_autocorrelation_chaotic_sample_positive_rate():
    p = ModelParams(c=0.6, e=0.2, gamma=1e-3, omega=0.3)
    _, ss, _ = compile_map("case12", p).orbit(1e-3, 0.2, 500 + 20000)
    series = ss[500:]
    res = autocorrelation(series, 30)
    assert res.decay_rate is None or res.decay_rate > 0.0


def test_density_scan_small_case2():
    p = ModelParams(c=0.6, e=0.2, omega=0.3)
    grid = np.geomspace(1e-5, 0.03, 6)
    numerics = NumericsConfig(iterations=10000, series_len=1200, seed=3)
    rows, summary = density_scan(grid, p, numerics)
    assert summary.fraction > 0.5
    assert summary.n_failed == 0
    for prefix in summary.prefix_fractions:
        assert prefix["fraction"] > 0.0
    # deterministic rerun
    rows2, _ = density_scan(grid, p, numerics)
    assert [r.K for r in rows2] == [r.K for r in rows]
    assert [r.lambda1 for r in rows2] == [r.lambda1 for r in rows]


def test_density_scan_case1_fraction_zero():
    p = ModelParams(c=0.55, e=0.5, omega=0.05)
    grid = np.geomspace(1e-4, 3e-3, 4)
    numerics = NumericsConfig(iterations=10000, series_len=1200, seed=3)
    _, summary = density_scan(grid, p, numerics)
    assert summary.fraction == 0.0


def test_density_scan_annulus_column_takes_both_values():
    """At omega = sqrt(3)/2 * c on the case-1 saddle values the scan's
    annulus flag holds at the small amplitudes and fails above 1.6e-4."""
    p = ModelParams(c=0.55, e=0.5, omega=math.sqrt(3.0) / 2.0 * 0.55)
    numerics = NumericsConfig(iterations=10000, series_len=1000)
    rows, summary = density_scan(np.geomspace(1e-5, 1e-2, 6), p, numerics)
    assert [r.annulus_ok for r in rows] == [True] * 3 + [False] * 3
    assert summary.n_failed == 0


def test_density_scan_order_independence():
    """Per-sample results depend only on (seed, amplitude), not position."""
    p = ModelParams(c=0.6, e=0.2, omega=0.3)
    numerics = NumericsConfig(iterations=10000, series_len=1200, seed=11)
    gammas = [1e-4, 3e-3]
    rows = {}
    for g in gammas:
        key = int(np.float64(g).view(np.uint64))
        rows[g] = _scan_one(g, p, numerics,
                            np.random.default_rng([numerics.seed, key]))
    scanned, _ = density_scan(np.array(gammas), p, numerics)
    for row, g in zip(scanned, gammas):
        assert row.K == rows[g].K
        assert row.lambda1 == rows[g].lambda1


def test_density_scan_derives_constants_per_amplitude(monkeypatch):
    """The constants are derived a fixed number of times per amplitude,
    however many map and tangent steps the scan takes.  The scan runs on one
    CPU, so that no row runs in a forked process, where this count cannot
    see it."""
    import importlib
    import pkgutil

    import mayleonard
    import mayleonard.params as params_mod
    calls = []
    original = params_mod.derive_constants

    def counting(params):
        calls.append(params.gamma)
        return original(params)

    # patch the name in every module that bound it, so no call goes around
    modules = [mayleonard] + [importlib.import_module(f"mayleonard.{info.name}")
                              for info in pkgutil.iter_modules(mayleonard.__path__)]
    bound = [m for m in modules if getattr(m, "derive_constants", None) is original]
    assert {m.__name__ for m in bound} >= {"mayleonard.params", "mayleonard.returnmap",
                                           "mayleonard.diagnostics", "mayleonard.singular"}
    for module in bound:
        monkeypatch.setattr(module, "derive_constants", counting)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    p = ModelParams(c=0.6, e=0.2, omega=0.3)
    counts = []
    for iterations in (10000, 20000):
        calls.clear()
        density_scan([1e-4, 3e-3], p, NumericsConfig(iterations=iterations,
                                                     series_len=1000, seed=5))
        assert sorted(set(calls)) == [1e-4, 3e-3]
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


@pytest.mark.parametrize("field, value", [("iterations", 9999), ("series_len", 999)])
def test_density_scan_validates_sizes_before_any_row(monkeypatch, field, value):
    """Sizes that would fail every row raise before the first row runs."""
    import mayleonard.diagnostics as diagnostics

    def no_row(*args):
        raise AssertionError("a row ran")

    monkeypatch.setattr(diagnostics, "_scan_one", no_row)
    with pytest.raises(ValidationError, match=field):
        density_scan(SCAN_GRID[:2], SCAN_PARAMS, replace(SCAN_NUMERICS, **{field: value}))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_density_scan_rejects_non_finite_amplitudes(monkeypatch, bad):
    """A non-finite amplitude raises before any sample runs, not as a bare
    conversion error once every sample has run."""
    import mayleonard.diagnostics as diagnostics

    def no_rows(*args):
        raise AssertionError("the scan ran its samples")

    monkeypatch.setattr(diagnostics, "_scan_rows", no_rows)
    for grid in ([1e-3, bad], [bad]):
        with pytest.raises(ValidationError, match="amplitudes must be finite"):
            density_scan(grid, SCAN_PARAMS, SCAN_NUMERICS)


def test_density_scan_validates_grid():
    p = ModelParams(c=0.6, e=0.2, omega=0.3)
    with pytest.raises(ValidationError):
        density_scan(np.array([0.01, 0.001]), p)
    with pytest.raises(ValidationError):
        density_scan(np.array([-0.1, 0.01]), p)


def _failing_scan_one(monkeypatch, bad_gamma, fail):
    """Patch the scan's per-amplitude body so that ``fail()`` runs in place
    of it at ``bad_gamma``; forked strides inherit the patch."""
    import mayleonard.diagnostics as diagnostics
    original = diagnostics._scan_one

    def scan_one(gamma, *args):
        if gamma == bad_gamma:
            fail()
        return original(gamma, *args)

    monkeypatch.setattr(diagnostics, "_scan_one", scan_one)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_density_scan_rows_do_not_depend_on_the_worker_count(monkeypatch):
    """One, two and three usable CPUs give the same rows and summary, bit
    for bit: a fixed-point row, a failed row whose reason crosses the pipe
    from a forked stride, and more amplitudes than workers."""
    # with two workers the failed row comes from a child, with three the
    # fixed-point row does
    grid = [SCAN_GRID[10], SCAN_GRID[30], SCAN_GRID[49], SCAN_GRID[90], SCAN_GRID[120]]

    def fail():
        raise NumericsError("planted failure")

    _failing_scan_one(monkeypatch, grid[3], fail)
    results = []
    for cpus in (1, 2, 3):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)))
        results.append(density_scan(grid, SCAN_PARAMS, SCAN_NUMERICS))
        _no_child_left()
    # repr writes each float exactly, and a NaN equal to a NaN
    assert repr(results[1]) == repr(results[0]) == repr(results[2])
    rows, summary = results[0]
    assert [row.gamma for row in rows] == grid
    assert (rows[2].K, rows[2].failed) == (0.0, False)
    assert (rows[3].failed, rows[3].error) == (True, "planted failure")
    assert summary.n_failed == 1


def test_density_scan_reports_a_worker_that_dies(monkeypatch):
    """A forked stride that exits without its rows is a ``NumericsError``
    naming its exit status and its first amplitude, and no child is left."""
    grid = SCAN_GRID[100:104].tolist()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    # grid[3] is in the second stride, grid[1::2], which a child runs
    _failing_scan_one(monkeypatch, grid[3], lambda: os._exit(3))
    with pytest.raises(NumericsError, match=re.escape(f"gamma={grid[1]!r} exited with status 3")):
        density_scan(grid, SCAN_PARAMS, SCAN_NUMERICS)
    _no_child_left()


@pytest.mark.parametrize("stride", [0, 1])
def test_density_scan_reraises_what_a_stride_raises(monkeypatch, stride):
    """An exception that is no row failure propagates from this process's
    stride and from a forked one alike, and no child is left running."""
    grid = SCAN_GRID[100:104].tolist()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})

    def fail():
        raise RuntimeError(f"planted in stride {stride}")

    _failing_scan_one(monkeypatch, grid[2 + stride], fail)
    with pytest.raises(RuntimeError, match=f"planted in stride {stride}"):
        density_scan(grid, SCAN_PARAMS, SCAN_NUMERICS)
    _no_child_left()
