import math

import numpy as np
import pytest

from mayleonard import (
    AnalyticCircleMap,
    CircleMapSpec,
    DoublingMap,
    ModelParams,
    RigidRotation,
    ValidationError,
    derive_constants,
    gamma_sequence,
    hypothesis_battery,
    k_inverse,
    k_map,
    lyapunov_1d,
    make_circle_map,
    misiurewicz_check,
    singular_limit_convergence,
    transition_matrix,
)
from mayleonard import singular
from mayleonard.singular import (
    ConditionVerdict,
    MisiurewiczCertificate,
    _circle_dist,
    _largest_rate,
    critical_set,
    doubling_orbit,
    transversality_probe,
    xi_star_scan,
)

CASE1 = ModelParams(c=0.55, e=0.5, omega=0.05)
CASE2 = ModelParams(c=0.6, e=0.2, omega=0.3)


def _bisect_rate(seg, m0):
    """Reference for lambda0: 80 halvings of [-50, 50] on the rate test."""
    def rate_ok(lam):
        return all(c >= lam * m for m, c in seg if m >= m0)

    lo, hi = -50.0, 50.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if rate_ok(mid):
            lo = mid
        else:
            hi = mid
    return lo


def _reference_check(cmap, u_radii=1e-2, horizon=1000, m0=30, d0=1e-3,
                     grid_size=1024, u_grid=64):
    """Scalar reference for ``misiurewicz_check``: one Python loop per
    critical orbit and per U start, and lambda0 by bisection."""
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
    starts = (np.arange(grid_size) + 0.5) / grid_size
    alive = ~in_u(starts)
    pos = starts.copy()
    cum = np.zeros(grid_size)
    seg_a, seg_b = [], []
    min_ratio_a, worst_a = math.inf, None
    for m in range(1, horizon + 1):
        idx = np.flatnonzero(alive)
        if idx.size == 0:
            break
        d = np.maximum(np.abs(np.asarray(cmap.derivative(pos[idx]), dtype=float)), 1e-300)
        cum[idx] += np.log(d)
        pos[idx] = np.asarray(cmap.value(pos[idx]), dtype=float)
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

    applicable = [m for m, _ in seg_a if m >= m0]
    lambda0 = _bisect_rate(seg_a, m0) if applicable else -math.inf
    conditions["outside_a"] = ConditionVerdict(
        passed=bool(lambda0 > 0.0 and applicable),
        worst=min_ratio_a if applicable else -math.inf, witness=worst_a,
        note=f"lambda0 extracted over {len(applicable)} segment lengths")
    worst_b, ok_b = math.inf, True
    for m, cums in seg_b:
        slack = float(np.min(cums - (math.log(d0) + lambda0 * m)))
        worst_b = min(worst_b, slack)
        ok_b = ok_b and slack >= 0.0
    conditions["outside_b"] = ConditionVerdict(
        passed=bool(ok_b) if lambda0 > -math.inf else False,
        worst=worst_b if seg_b else math.inf,
        note="no U-entering segments sampled" if not seg_b else "")

    if not crit:
        for key in ("critical_orbits", "inside_a", "inside_b"):
            conditions[key] = ConditionVerdict(
                passed=True, worst=math.inf, note="vacuous: empty critical set")
    else:
        worst_d, witness, ok = math.inf, None, True
        for cp in crit:
            s = cp.s
            for _ in range(horizon):
                s = float(cmap.value(s))
                margin = float(_circle_dist(s, centers)) - float(radii.max())
                if margin < worst_d:
                    worst_d, witness = margin, cp.s
                if in_u(np.array([s]))[0]:
                    ok = False
        conditions["critical_orbits"] = ConditionVerdict(
            passed=ok, worst=worst_d, witness=witness,
            note="orbit of a critical point re-entered U" if not ok else "")

        worst_h2, ok_sign = math.inf, True
        for c, r in zip(centers, radii):
            h2 = np.asarray(cmap.second_derivative(c + np.linspace(-r, r, u_grid)))
            worst_h2 = min(worst_h2, float(np.min(np.abs(h2))))
            ok_sign = ok_sign and bool(np.all(h2 > 0.0) or np.all(h2 < 0.0))
        conditions["inside_a"] = ConditionVerdict(
            passed=bool(ok_sign and worst_h2 > 0.0), worst=worst_h2)

        worst_rec, ok_rec, n_noreturn = math.inf, True, 0
        for c, r in zip(centers, radii):
            for s0 in c + np.linspace(-r, r, u_grid):
                if float(_circle_dist(s0, centers)) < 1e-9:
                    continue
                s, cumlog, p0 = float(s0 % 1.0), 0.0, None
                for i in range(1, horizon + 1):
                    cumlog += math.log(max(abs(float(cmap.derivative(s))), 1e-300))
                    s = float(cmap.value(s))
                    if in_u(np.array([s]))[0]:
                        p0 = i
                        break
                if p0 is None:
                    n_noreturn += 1
                    continue
                slack = cumlog - (lambda0 * p0 / 3.0 - math.log(d0))
                worst_rec = min(worst_rec, slack)
                ok_rec = ok_rec and slack >= 0.0
        conditions["inside_b"] = ConditionVerdict(
            passed=ok_rec, worst=worst_rec,
            note=f"{n_noreturn} sampled points did not return within the horizon")

    return MisiurewiczCertificate(
        passed=all(v.passed for v in conditions.values()), lambda0=lambda0,
        m0=m0, d0=d0, horizon=horizon, u_intervals=u_intervals,
        conditions=conditions,
        notes="finite-horizon floating-point check; not robust under perturbation")


@pytest.fixture
def dc_case2():
    return derive_constants(ModelParams(c=0.6, e=0.2, omega=0.3))


def test_k_map_arithmetic(dc_case2):
    """K_omega * xi = 4.1380 for delta=3, omega=0.3, xi=65."""
    kxi = dc_case2.K_omega * dc_case2.xi
    assert kxi == pytest.approx(0.3 * (2.0 / 3.0) / math.pi * 65.0, rel=1e-13)
    assert kxi == pytest.approx(4.1380, abs=5e-5)
    assert k_map(0.5, dc_case2) == pytest.approx(-kxi * math.log(0.5), rel=1e-13)
    assert k_map(0.1, dc_case2) > k_map(0.5, dc_case2)
    assert k_map(k_inverse(0.37, dc_case2), dc_case2) == pytest.approx(0.37, rel=1e-12)
    with pytest.raises(ValidationError):
        k_map(0.0, dc_case2)


def test_gamma_sequence_properties(dc_case2, rng):
    assert gamma_sequence(10, 0.0, dc_case2) == pytest.approx(0.0892, abs=2e-4)
    kxi = dc_case2.K_omega * dc_case2.xi
    assert gamma_sequence(10, 0.0, dc_case2) == pytest.approx(
        math.exp(-10.0 / kxi), rel=1e-13)
    prev = 1.0
    for n in range(5, 25):
        g = gamma_sequence(n, 0.3, dc_case2)
        assert g < prev
        prev = g
    for _ in range(50):
        n = int(rng.integers(5, 40))
        a = float(rng.uniform(0.0, 1.0))
        g = gamma_sequence(n, a, dc_case2)
        resid = (k_map(g, dc_case2) - a) % 1.0
        assert min(resid, 1.0 - resid) < 1e-10
    with pytest.raises(ValidationError):
        gamma_sequence(3, 0.0, dc_case2, gamma_plus=0.05)
    assert gamma_sequence(13, 0.0, dc_case2, gamma_plus=0.05) < 0.05


def test_circle_map_basic_structure():
    spec = CircleMapSpec(a=0.3, omega=0.3, xi=65.0, mu3=1.0,
                         sqrt_a1=math.sqrt(0.5))
    h = AnalyticCircleMap(spec)
    # degree-one lift
    grid = np.linspace(0.0, 1.0, 1025)
    assert np.max(np.abs(h.lift(grid + 1.0) - h.lift(grid) - 1.0)) < 1e-12
    # derivative is one where the sine vanishes
    assert float(h.derivative(0.0)) == pytest.approx(1.0, abs=1e-14)
    assert float(h.derivative(0.5)) == pytest.approx(1.0, abs=1e-14)
    # derivative consistency with differences
    for s in (0.1, 0.33, 0.77):
        fd = (float(h.lift(s + 1e-6)) - float(h.lift(s - 1e-6))) / 2e-6
        assert fd == pytest.approx(float(h.derivative(s)), rel=1e-7)
        fd2 = (float(h.derivative(s + 1e-6))
               - float(h.derivative(s - 1e-6))) / 2e-6
        assert fd2 == pytest.approx(float(h.second_derivative(s)), rel=1e-6)


def test_circle_map_offset_equivariance():
    p = ModelParams(c=0.6, e=0.2, omega=0.3)
    h0 = make_circle_map(0.1, p)
    h1 = make_circle_map(0.35, p)
    for s in np.linspace(0, 1, 17):
        d = (float(h1.value(s)) - float(h0.value(s))) % 1.0
        assert min(abs(d - 0.25), abs(d - 0.25 - 1), abs(d - 0.25 + 1)) < 1e-12
    c0 = [cp.s for cp in h0.critical_points()]
    c1 = [cp.s for cp in h1.critical_points()]
    assert np.allclose(c0, c1, atol=1e-12)


def test_critical_set_against_trig_oracle():
    """Root-found critical points match the closed-form collapse solution."""
    om, xi, sa1 = 0.3, 65.0, math.sqrt(0.5)
    h = AnalyticCircleMap(CircleMapSpec(a=0.0, omega=om, xi=xi, mu3=1.0,
                                        sqrt_a1=sa1))
    crit = h.critical_points()
    assert len(crit) == 2
    # h'(s) = 0 <=> A sin(2 pi s) + B cos(2 pi s) = 1 with A = 2 xi omega sa1 / pi * pi
    A = 2.0 * xi * om * sa1
    B = sa1
    R = math.hypot(A, B)
    phase = math.atan2(B, A)
    th1 = math.asin(1.0 / R)
    sols = sorted(((th1 - phase) / (2 * math.pi)) % 1.0
                  for th1 in (th1, math.pi - th1))
    found = sorted(cp.s for cp in crit)
    assert np.allclose(found, sols, atol=1e-10)
    # one maximum and one minimum of the lift displacement
    signs = sorted(np.sign(cp.second_derivative) for cp in crit)
    assert signs == [-1.0, 1.0]


def test_critical_points_found_once_per_map(monkeypatch):
    """The readers of one map share one critical set, a whole battery included."""
    calls = []

    def counting(cmap, *args, **kwargs):
        calls.append(cmap)
        return critical_set(cmap, *args, **kwargs)

    monkeypatch.setattr(singular, "critical_set", counting)
    h = make_circle_map(0.3, CASE2)
    first = h.critical_points()
    misiurewicz_check(h, horizon=50)
    transition_matrix(h)
    assert calls == [h]
    first.clear()                       # a caller's copy, not the cache
    assert len(h.critical_points()) == 2
    assert len(calls) == 1
    calls.clear()
    hypothesis_battery(CASE2, n=14, a=0.3, horizon=50)
    assert len(calls) == 1


def test_critical_set_empty_for_weak_turns():
    """Small xi*omega with small amplitude leaves the map a diffeomorphism."""
    h = AnalyticCircleMap(CircleMapSpec(a=0.0, omega=0.05, xi=3.0, mu3=1.0,
                                        sqrt_a1=0.1))
    assert h.critical_points() == []
    grid = np.linspace(0, 1, 4096)
    assert float(np.min(h.derivative(grid))) > 0.0


def test_rigid_rotation_and_doubling_critical_sets():
    assert RigidRotation(0.3).critical_points() == []
    assert DoublingMap().critical_points() == []


def test_convergence_table(dc_case2):
    """Distance table decreases; the leading-component ratio is exact."""
    p = ModelParams(c=0.6, e=0.2, omega=0.3)
    rows = singular_limit_convergence(range(13, 21), 0.3, p)
    assert len(rows) == 8
    ratio = math.exp(-dc_case2.p / (dc_case2.K_omega * dc_case2.xi))
    for r0, r1 in zip(rows, rows[1:]):
        assert r1.f1_sup < r0.f1_sup
        assert r1.f2_sup < r0.f2_sup
        assert r1.d1_sup < r0.d1_sup
        assert r1.d2_sup < r0.d2_sup
        assert r1.d3_sup < r0.d3_sup
        assert r1.f1_sup / r0.f1_sup == pytest.approx(ratio, rel=1e-10)
    # explicit formula for the leading sup-distance
    g = gamma_sequence(13, 0.3, dc_case2)
    assert rows[0].f1_sup == pytest.approx(
        g**dc_case2.p * (1.0 + 1.0 + dc_case2.sqrt_a1), rel=1e-12)


def test_boundary_phase_equals_circle_map():
    """At x = 0 the phase component of the family is the circle map exactly."""
    p = ModelParams(c=0.6, e=0.2, omega=0.3)
    from mayleonard.returnmap import compile_map, reduce_mod
    dc = derive_constants(p)
    h = make_circle_map(0.3, p)
    lift = compile_map("rescaled", p, gamma=gamma_sequence(15, 0.3, dc)).lift
    for s in np.linspace(0, 1, 13, endpoint=False):
        _, f2 = lift(0.0, s)
        assert reduce_mod(f2, 1.0) == pytest.approx(float(h.value(s)), abs=1e-9)


def test_misiurewicz_doubling_fixture():
    cert = misiurewicz_check(DoublingMap(), horizon=300)
    assert cert.to_dict() == _reference_check(DoublingMap(), horizon=300).to_dict()
    assert cert.passed
    assert cert.lambda0 == pytest.approx(math.log(2.0), abs=1e-3)
    # the mixing rate test is a separate, stronger condition and fails here
    assert math.exp(cert.lambda0 / 3.0) < 2.0
    for key in ("critical_orbits", "inside_a", "inside_b"):
        assert cert.conditions[key].passed
        assert "vacuous" in cert.conditions[key].note


def test_misiurewicz_rotation_fails():
    cert = misiurewicz_check(RigidRotation(0.37), horizon=200)
    assert cert.to_dict() == _reference_check(RigidRotation(0.37), horizon=200).to_dict()
    assert not cert.passed
    assert not cert.conditions["outside_a"].passed
    assert cert.lambda0 <= 1e-12


def test_misiurewicz_scan_over_offsets():
    """The lockstep certificate equals the scalar reference, floats included."""
    for p in (CASE1, CASE2):
        for a in np.arange(0.0, 1.0, 1.0 / 8.0):
            cmap = make_circle_map(float(a), p)
            got = misiurewicz_check(cmap, horizon=250).to_dict()
            assert got == _reference_check(cmap, horizon=250).to_dict(), (p, a)


def test_misiurewicz_subverdicts_both_ways():
    """Each sub-verdict passes on one map and fails on the other."""
    case1 = misiurewicz_check(make_circle_map(0.0, CASE1), horizon=250).conditions
    case2 = misiurewicz_check(make_circle_map(0.3, CASE2), horizon=250).conditions
    for key in ("critical_orbits", "inside_b"):
        assert case1[key].passed
        assert not case2[key].passed
    assert not case1["outside_a"].passed
    assert case2["outside_a"].passed


def test_lambda0_closed_form_is_the_largest_passing_rate(rng):
    """The closed form passes the rate test and its next double fails; it
    equals the bisection wherever 80 halvings resolve an ulp (|rate| >= 1e-6)."""
    for scale in (1e-9, 1e-6, 1e-3, 1.0, 10.0, 49.0, 1e3):
        for _ in range(40):
            m = np.arange(30, 30 + int(rng.integers(1, 200)))
            lam = rng.uniform(-scale, scale)
            cum = lam * m + np.abs(rng.normal(0.0, scale, m.size)) \
                * (rng.uniform(size=m.size) < 0.5)
            got = _largest_rate(cum, m)
            assert -50.0 <= got <= 50.0
            if -50.0 < got < 50.0:
                assert np.all(cum >= got * m)
                assert not np.all(cum >= math.nextafter(got, math.inf) * m)
            if abs(got) >= 1e-6:
                assert got == _bisect_rate(list(zip(m.tolist(), cum.tolist())), 30)


def test_transition_matrix_fixtures():
    tm = transition_matrix(DoublingMap())
    assert tm.Q.shape == (1, 1) and tm.Q.all()
    assert tm.mixing_N == 1
    tm = transition_matrix(RigidRotation(0.3))
    assert tm.mixing_N is None
    assert "diffeomorphism" in tm.note


def test_transition_matrix_interval_oracle():
    """Covering entries agree with a sampling-based inclusion check."""
    p = ModelParams(c=0.6, e=0.2, omega=0.3)
    h = make_circle_map(0.0, p)
    tm = transition_matrix(h)
    r = len(tm.intervals)
    assert r == 2
    for i, (lo, hi) in enumerate(tm.intervals):
        ia, ib = float(h.lift(lo)), float(h.lift(hi))
        im_lo, im_hi = min(ia, ib), max(ia, ib)
        for m, (alo, ahi) in enumerate(tm.intervals):
            # sample the candidate target arc; every representative shift
            # must land inside the image for inclusion
            pts = np.linspace(alo + 1e-9, ahi - 1e-9, 200)
            covered = False
            for k in range(math.floor(im_lo - ahi) - 1, math.ceil(im_hi - alo) + 2):
                if np.all((pts + k >= im_lo) & (pts + k <= im_hi)):
                    covered = True
                    break
            assert covered == bool(tm.Q[i, m])
        if tm.mixing_N is not None:
            P = np.linalg.matrix_power(tm.Q.astype(int), tm.mixing_N)
            assert (P > 0).all()


def test_lyapunov_1d_fixtures(rng):
    lam, _ = lyapunov_1d(RigidRotation(0.37), 0.2, 5000)
    assert abs(lam) < 1e-6
    lam, _ = lyapunov_1d(DoublingMap(), 0.2, 2000)
    assert lam == pytest.approx(math.log(2.0), abs=1e-3)
    # a strongly turning instance has a positive exponent, seed-consistent
    p = ModelParams(c=0.6, e=0.2, omega=0.3)
    h = make_circle_map(0.3, p)
    vals = [lyapunov_1d(h, s0, 20000)[0] for s0 in (0.11, 0.43, 0.78)]
    assert min(vals) > 0.0
    assert max(vals) - min(vals) < 1e-2 * max(1.0, abs(max(vals)))


def test_doubling_orbit_no_collapse(rng):
    orbit = doubling_orbit(5000, rng)
    assert orbit.min() >= 0.0 and orbit.max() < 1.0
    assert np.all(orbit[1000:] != 0.0)
    # consecutive samples satisfy the doubling relation to machine precision
    resid = np.abs((2.0 * orbit[:-1]) % 1.0 - orbit[1:])
    assert np.percentile(resid, 99) < 1e-15


def test_battery_case1_fails_h4():
    """At a barely-attracting saddle value the expansion hypothesis fails.

    The rescaling exponent p = (delta-1)/delta is tiny here, so only the
    first sequence indices stay representable.
    """
    p = ModelParams(c=0.55, e=0.5, omega=0.05)
    report = hypothesis_battery(p, n=1, a=0.3, horizon=300)
    assert report.entries["H4"]["status"] == "fail"


def test_battery_case2_structure():
    p = ModelParams(c=0.6, e=0.2, omega=0.3)
    report = hypothesis_battery(p, n=14, a=0.3, horizon=300)
    assert set(report.entries) == {"H1", "H2", "H3", "H4", "H5", "H6", "H7"}
    assert report.entries["H1"]["status"] == "pass"
    assert report.entries["H2"]["status"] == "pass"
    assert report.entries["H3"]["status"] == "pass"
    assert report.entries["H5"]["status"] in ("indicative", "not-checkable")
    # nondegeneracy value at the turns equals one
    assert report.entries["H6"]["value"] == pytest.approx(1.0, abs=1e-6)
    d = report.to_dict()
    assert d["n"] == 14 and d["a"] == 0.3


def test_battery_distortion_bound():
    p = ModelParams(c=0.6, e=0.2, omega=0.3)
    report = hypothesis_battery(p, n=14, a=0.3, horizon=200)
    h1 = report.entries["H1"]
    assert h1["sampled_ratio"] <= h1["distortion_bound"] * (1 + 1e-9)


def test_transversality_probe_runs():
    p = ModelParams(c=0.6, e=0.2, omega=0.3)
    samples = transversality_probe(make_circle_map(0.3, p))
    assert len(samples) >= 1
    for t in samples:
        assert t.dq_da == 1.0
        assert math.isfinite(t.dp_da)


def test_xi_star_scan_smoke():
    xi_star, records = xi_star_scan(
        xi_values=[5.0, 65.0], a_values=np.arange(0.0, 1.0, 0.125),
        omega=0.3, sqrt_a1=math.sqrt(0.5), horizon=200, grid_size=256)
    assert len(records) == 2
    assert xi_star in (None, 5.0, 65.0)
