import math
from dataclasses import replace

import numpy as np
import pytest

from mayleonard import (
    ModelParams,
    ValidationError,
    annulus_check,
    autocorrelation,
    classify_regime,
    compile_map,
    density_scan,
    horseshoe_condition,
    lyapunov_2d,
    region_curves,
    rotation_interval,
    zero_one_test,
)
from mayleonard.diagnostics import (
    _BURN_IN,
    Case34SMarginal,
    ScanOpts,
    _scan_one,
    region_label,
    t1_curve,
    t2_curve,
)
from mayleonard.params import stable_fixed_point
from mayleonard.singular import DoublingMap, RigidRotation, doubling_orbit

from conftest import zero_one_oracle


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
    """The s-average of the map at x* returns x* exactly (unit forcing mean)."""
    p = ModelParams(c=0.55, e=0.5, gamma=1e-3, omega=0.05, mu1=1.0)
    from mayleonard import derive_constants
    dc = derive_constants(p)
    fixed = stable_fixed_point(p.gamma, dc.delta)
    ss = np.linspace(0.0, 1.0, 4096, endpoint=False)
    f1 = fixed**dc.delta + p.gamma * (1 - dc.sqrt_a1 * np.cos(2 * np.pi * ss))
    assert float(f1.mean()) == pytest.approx(fixed, rel=1e-9)


def test_horseshoe_condition_reference_point():
    p = ModelParams(c=0.6, e=0.2, omega=0.3)          # xi*omega = 19.5
    rep = horseshoe_condition(10.0, p)
    # exact value 0.42674969...: the 4-figure form 0.4268 is its round-half-up
    # at the tie boundary 0.42675, so allow one unit in the fourth digit
    assert rep.t1 == pytest.approx(0.4267497, abs=1e-6)
    assert rep.t1 == pytest.approx(0.4268, abs=1e-4)
    assert rep.holds
    assert rep.margin == pytest.approx(math.sqrt(0.5) - rep.t1, rel=1e-12)
    with pytest.raises(ValidationError):
        horseshoe_condition(2.0, p)


def test_t_curve_limits_and_monotonicity():
    assert t1_curve(1e7, 1.0, 10.0) < 1e-5          # huge xi*omega
    assert t1_curve(1e-9, 1.0, 10.0) == pytest.approx(1.0, abs=1e-6)
    assert t2_curve(1e-9, 1.0) == pytest.approx(1.0, abs=1e-6)
    rows = region_curves(np.linspace(1.0, 200.0, 100), omega=0.3, C=10.0)
    t1s = [r[1] for r in rows]
    t2s = [r[2] for r in rows]
    assert all(b < a for a, b in zip(t1s, t1s[1:]))
    assert all(b < a for a, b in zip(t2s, t2s[1:]))
    assert all(a > b for a, b in zip(t1s, t2s))
    assert t2_curve(65.0, 0.3) == pytest.approx(0.05121, abs=5e-6)


def test_horseshoe_margin_continuous_in_frequency():
    """Margin varies continuously over a fine frequency grid with a single
    verdict flip."""
    oms = np.geomspace(0.01, 10.0, 2000)
    margins = np.array([
        horseshoe_condition(10.0, ModelParams(c=0.6, e=0.2, omega=om)).margin
        for om in oms
    ])
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
    assert r.case_tag == 2 and r.gamma_pow == pytest.approx(1e-4)
    r = classify_regime(ModelParams(c=0.55, e=0.5, gamma=0.01, omega=0.3))
    assert r.case_tag == 1
    assert r.gamma_pow == pytest.approx(0.01**0.1, rel=1e-12)
    r = classify_regime(ModelParams(c=0.6, e=0.2, gamma=0.01, omega=6.0, mu1=1.0))
    assert r.case_tag == 4 and r.xi_minus_2mu1 > 0
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
    res = lyapunov_2d(compile_map("rescaled", p, gamma=1e-3), (0.5, 0.3), 20000)
    assert res.l1 > 0.0
    assert res.consistency < 1e-3


def test_lyapunov_2d_rejects_degenerate_variant():
    p = ModelParams(c=0.6, e=0.2, gamma=1e-3, omega=6.0)
    with pytest.raises(ValidationError):
        lyapunov_2d(compile_map("case34", p), (0.1, 0.3), 20000)


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
    in its own loop of scalar lift calls; returns (lo, hi, width, is_point)."""
    crit = cmap.critical_points()
    maxima = [cp.s for cp in crit if cp.second_derivative < 0.0]
    minima = [cp.s for cp in crit if cp.second_derivative > 0.0]
    max_vals = [float(cmap.lift(m)) for m in maxima]
    min_vals = [float(cmap.lift(w)) for w in minima]

    def lift_at(y):
        s = y % 1.0
        return float(cmap.lift(s)) + (y - s)

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
SCAN_OPTS = ScanOpts(iterations=10000, series_len=1000, seed=7, battery=False)


def scan_phase_series(index, n):
    """The observable ``cos(2 pi s)`` that the scan row at a grid index hands
    to the 0-1 test, from the same draws, extended to ``n`` samples."""
    gamma = float(SCAN_GRID[index])
    rng = np.random.default_rng([SCAN_OPTS.seed, int(np.float64(gamma).view(np.uint64))])
    rng.uniform()                       # the Lyapunov start
    fmap = compile_map("case12", replace(SCAN_PARAMS, gamma=gamma))
    orbit = fmap.orbit(gamma * SCAN_PARAMS.mu1, float(rng.uniform()), _BURN_IN + n)
    return np.cos(2.0 * np.pi * np.array([s for _, s, _ in orbit][_BURN_IN:]))


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
    assert rng_fft.bit_generator.state == rng_loop.bit_generator.state


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


def test_density_scan_fixed_point_row_is_regular():
    """A fixed point's row reads K = 0 and is neither failed nor a success;
    a series too short for the 0-1 test still fails the row."""
    row, = density_scan([SCAN_GRID[49]], SCAN_PARAMS, SCAN_OPTS).rows
    assert (row.K, row.failed, row.success) == (0.0, False, False)
    short = replace(SCAN_OPTS, series_len=999)
    row, = density_scan([SCAN_GRID[49]], SCAN_PARAMS, short).rows
    assert row.failed and "1000 samples" in row.error
    row, = density_scan([SCAN_GRID[135]], SCAN_PARAMS, SCAN_OPTS).rows
    assert not row.failed and row.K != 0.0 and abs(row.K) < 0.1


def test_zero_one_statistic_invariant_curve(rng):
    """The low-frequency family on its attracting curve is regular."""
    p = ModelParams(c=0.55, e=0.5, gamma=1e-3, omega=0.05)
    orbit = compile_map("case12", p).orbit(0.002, 0.1, 2000 + 4000)
    series = np.array([s for _, s, _ in orbit][2000:])
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


def test_autocorrelation_chaotic_sample_positive_rate():
    p = ModelParams(c=0.6, e=0.2, gamma=1e-3, omega=0.3)
    orbit = compile_map("case12", p).orbit(1e-3, 0.2, 500 + 20000)
    series = np.array([s for _, s, _ in orbit][500:])
    res = autocorrelation(series, 30)
    assert res.decay_rate is None or res.decay_rate > 0.0


def test_density_scan_small_case2():
    p = ModelParams(c=0.6, e=0.2, omega=0.3)
    grid = np.geomspace(1e-5, 0.03, 6)
    opts = ScanOpts(iterations=10000, series_len=1200, n_c=8,
                    battery_horizon=100, battery_grid=128, seed=3)
    res = density_scan(grid, p, opts)
    assert res.fraction > 0.5
    assert res.n_failed == 0
    for _, n, frac in res.prefix_fractions:
        assert frac > 0.0
    # deterministic rerun
    res2 = density_scan(grid, p, opts)
    assert [r.K for r in res2.rows] == [r.K for r in res.rows]
    assert [r.lambda1 for r in res2.rows] == [r.lambda1 for r in res.rows]


def test_density_scan_case1_fraction_zero():
    p = ModelParams(c=0.55, e=0.5, omega=0.05)
    grid = np.geomspace(1e-4, 3e-3, 4)
    opts = ScanOpts(iterations=10000, series_len=1200, n_c=8, battery=False,
                    seed=3)
    res = density_scan(grid, p, opts)
    assert res.fraction == 0.0


def test_density_scan_order_independence():
    """Per-sample results depend only on (seed, amplitude), not position."""
    p = ModelParams(c=0.6, e=0.2, omega=0.3)
    opts = ScanOpts(iterations=10000, series_len=1200, n_c=8, battery=False,
                    seed=11)
    gammas = [1e-4, 3e-3]
    rows = {}
    for g in gammas:
        key = int(np.float64(g).view(np.uint64))
        rows[g] = _scan_one(g, p, opts, np.random.default_rng([opts.seed, key]))
    res = density_scan(np.array(gammas), p, opts)
    for row, g in zip(res.rows, gammas):
        assert row.K == rows[g].K
        assert row.lambda1 == rows[g].lambda1


def test_density_scan_derives_constants_per_amplitude(monkeypatch):
    """The constants are derived a fixed number of times per amplitude,
    however many map and tangent steps the scan takes."""
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
    p = ModelParams(c=0.6, e=0.2, omega=0.3)
    counts = []
    for iterations in (10000, 20000):
        calls.clear()
        density_scan([1e-4, 3e-3], p, ScanOpts(iterations=iterations,
                                                series_len=1000, n_c=4,
                                                battery=False, seed=5))
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def test_density_scan_validates_grid():
    p = ModelParams(c=0.6, e=0.2, omega=0.3)
    with pytest.raises(ValidationError):
        density_scan(np.array([0.01, 0.001]), p)
    with pytest.raises(ValidationError):
        density_scan(np.array([-0.1, 0.01]), p)
