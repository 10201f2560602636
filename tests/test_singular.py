import math
import tracemalloc
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq

from mayleonard import (
    AnalyticCircleMap,
    DoublingMap,
    ModelParams,
    NumericsError,
    RigidRotation,
    ValidationError,
    compile_map,
    derive_constants,
    gamma_sequence,
    hypothesis_battery,
    k_map,
    lyapunov_1d,
    make_circle_map,
    misiurewicz_check,
    singular_limit_convergence,
    transition_matrix,
)
from mayleonard.singular import (
    ConditionVerdict,
    MisiurewiczCertificate,
    _branch_solve,
    _circle_dist,
    _largest_rate,
    first_admissible_index,
    transversality_probe,
)
from mayleonard.config import parse_config
from mayleonard.diagnostics import Case34SMarginal

from conftest import circle_dist_oracle, critical_set_grid, doubling_orbit

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


def _reference_check(cmap, horizon=1000, m0=30, grid_size=1024):
    """Scalar reference for ``misiurewicz_check`` at its default U radius
    1e-2, slack d0 = 1e-3 and 64 samples per component of U: one Python
    loop per critical orbit and per U start, and lambda0 by bisection.
    Every derivative log is ``np.log``, as in the certificate."""
    d0 = 1e-3
    crit = cmap.critical_points()
    centers = np.array([cp.s for cp in crit]) if crit else np.empty(0)
    radii = np.full(centers.shape, 1e-2)
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
        d = np.maximum(np.abs(np.asarray(cmap.jet(pos[idx], 1)[1], dtype=float)), 1e-300)
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
                margin = float(circle_dist_oracle(s, centers)) - float(radii.max())
                if margin < worst_d:
                    worst_d, witness = margin, cp.s
                if in_u(np.array([s]))[0]:
                    ok = False
        conditions["critical_orbits"] = ConditionVerdict(
            passed=ok, worst=worst_d, witness=witness,
            note="orbit of a critical point re-entered U" if not ok else "")

        worst_h2, ok_sign = math.inf, True
        for c, r in zip(centers, radii):
            h2 = np.asarray(cmap.jet(c + np.linspace(-r, r, 64), 2)[2])
            worst_h2 = min(worst_h2, float(np.min(np.abs(h2))))
            ok_sign = ok_sign and bool(np.all(h2 > 0.0) or np.all(h2 < 0.0))
        conditions["inside_a"] = ConditionVerdict(
            passed=bool(ok_sign and worst_h2 > 0.0), worst=worst_h2)

        worst_rec, ok_rec, n_noreturn = math.inf, True, 0
        for c, r in zip(centers, radii):
            for s0 in c + np.linspace(-r, r, 64):
                if float(circle_dist_oracle(s0, centers)) < 1e-9:
                    continue
                s, cumlog, p0 = float(s0 % 1.0), 0.0, None
                for i in range(1, horizon + 1):
                    cumlog += float(np.log(max(abs(float(cmap.jet(s, 1)[1])), 1e-300)))
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
        M0=m0, d0=d0, horizon=horizon, U=u_intervals,
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


@pytest.mark.parametrize("name", ["case1.cfg", "case2.cfg"])
def test_first_admissible_index_is_the_first_below_the_bound(name):
    configs = Path(__file__).resolve().parents[1] / "configs"
    dc = derive_constants(parse_config(configs / name).params)
    n0 = first_admissible_index(dc)
    # index 0 is no sequence index; its amplitude exp(-0) is 1 (case 1 has n0 = 1)
    before = gamma_sequence(n0 - 1, 0.0, dc) if n0 > 1 else 1.0
    assert gamma_sequence(n0, 0.0, dc) < 0.05 <= before


def _every_circle_map():
    """One map of each family: h_a on both configs, the case-3/4 phase
    marginal invertible and not, the doubling map and a rigid rotation."""
    return [make_circle_map(0.3, CASE1), make_circle_map(0.3, CASE2),
            Case34SMarginal(ModelParams(c=0.95, e=0.9, gamma=0.01, omega=6.0, mu1=10.0)),
            Case34SMarginal(ModelParams(c=0.6, e=0.2, gamma=0.01, omega=6.0, mu1=1.0)),
            DoublingMap(), RigidRotation(0.37)]


def test_circle_map_basic_structure():
    """Each map's lift has its degree, and ``h'`` and ``h''`` match central
    differences of ``h`` and ``h'`` (step 1e-6) away from and at the turns."""
    maps = _every_circle_map()
    assert [len(cmap.critical_points()) for cmap in maps] == [2, 2, 0, 2, 0, 0]
    grid = np.linspace(0.0, 1.0, 1025)
    for cmap in maps:
        h, dh = cmap.jet(grid, 1)
        scale = max(1.0, float(np.max(np.abs(dh))))
        assert np.max(np.abs(cmap.jet(grid + 1.0)[0] - h - cmap.degree)) < 1e-13 * scale
        for s in [0.1, 0.33, 0.77] + [cp.s for cp in cmap.critical_points()]:
            lo, mid, hi = cmap.jet(s - 1e-6, 1), cmap.jet(s, 2), cmap.jet(s + 1e-6, 1)
            fd = (float(hi[0]) - float(lo[0])) / 2e-6
            assert fd == pytest.approx(float(mid[1]), rel=1e-7, abs=1e-8 * scale), (cmap, s)
            fd2 = (float(hi[1]) - float(lo[1])) / 2e-6
            assert fd2 == pytest.approx(float(mid[2]), rel=1e-6, abs=1e-6 * scale), (cmap, s)
    # on h_a the derivative is one where the sine vanishes
    for h in maps[:2]:
        assert float(h.jet(0.0, 1)[1]) == pytest.approx(1.0, abs=1e-14)
        assert float(h.jet(0.5, 1)[1]) == pytest.approx(1.0, abs=1e-14)


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
    # a shifted copy re-derives its offset
    assert replace(h0, a=0.35) == h1
    with pytest.raises(ValidationError, match="a must lie in"):
        replace(h0, a=1.0)


def test_critical_set_against_trig_oracle():
    """Root-found critical points match the closed-form collapse solution."""
    om, xi, sa1 = 0.3, 65.0, math.sqrt(0.5)
    h = AnalyticCircleMap(a=0.0, omega=om, xi=xi, mu3=1.0, sqrt_a1=sa1)
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


def test_critical_points_fresh_list_per_call():
    """Each call returns a new list, so a caller cannot change the set the
    next caller sees."""
    h = make_circle_map(0.3, CASE2)
    first = h.critical_points()
    second = h.critical_points()
    assert len(first) == 2 and second == first and second is not first
    first.clear()
    assert h.critical_points() == second


def _circle_map(coef, sqrt_a1):
    """``h_a`` at a = 0.1 with slope ``coef = xi omega / pi`` (omega = pi)."""
    return AnalyticCircleMap(a=0.1, omega=math.pi, xi=coef, mu3=1.0, sqrt_a1=sqrt_a1)


def _marginal(mu1):
    """The case-2 high-frequency marginal, amplitude 2 pi amp = 65/mu1."""
    return Case34SMarginal(ModelParams(c=0.6, e=0.2, gamma=0.01, omega=0.3, mu1=mu1))


@pytest.mark.parametrize("cmap, turns", [
    *((_circle_map(coef, sa1), turns) for coef, sa1, turns in (
        (0.05, 0.1, 0), (0.2, 0.4, 0), (0.05, 0.95, 0), (10.0, 0.01, 0),
        (0.5, 0.4, 2), (0.1, 0.95, 2), (0.2, 0.95, 2), (2.0, 0.1, 2),
        (0.5, math.sqrt(0.5), 2), (6.2, math.sqrt(0.5), 2), (20.7, math.sqrt(0.5), 2))),
    *((_marginal(mu1), turns) for mu1, turns in (
        (1.0, 2), (10.0, 2), (40.0, 2), (64.0, 2), (66.0, 0), (200.0, 0))),
])
def test_closed_form_critical_points_vs_grid_oracle(cmap, turns):
    """Closed-form turns of both families match the grid-plus-root-finder
    oracle, on both sides of the thresholds r = 1 and |2 pi amp| = 1."""
    found, ref = cmap.critical_points(), critical_set_grid(cmap)
    assert len(found) == len(ref) == turns
    for cp, rp in zip(found, ref):
        assert abs(cp.s - rp.s) < 1e-12
        assert cp.second_derivative == pytest.approx(rp.second_derivative, rel=1e-9)
        assert abs(float(cmap.jet(cp.s, 1)[1])) < 1e-12


def test_closed_form_finds_turns_the_grid_misses():
    """Just above the threshold the two turns lie inside one grid cell: the
    grid sees no sign change, the closed form finds both."""
    sa1 = 0.6
    h = _circle_map((0.8 + 1e-10) / (2.0 * math.pi * sa1), sa1)
    crit = h.critical_points()
    assert len(crit) == 2
    assert 0.0 < crit[1].s - crit[0].s < 1e-5
    for cp in crit:
        assert abs(float(h.jet(cp.s, 1)[1])) < 1e-12
    assert sorted(np.sign(cp.second_derivative) for cp in crit) == [-1.0, 1.0]
    assert critical_set_grid(h) == []


def test_exact_tangency_is_degenerate():
    """Negative control: a double turn (h' = h'' = 0) raises NumericsError.
    On h_a the grid oracle sees no sign change at all; on the marginal the
    turn sits on a grid point."""
    sa1 = 0.6
    h = _circle_map(math.nextafter(0.8 / (2.0 * math.pi * sa1), math.inf), sa1)
    assert math.hypot(2.0 * math.pi * h.coef * h.sqrt_a1, h.sqrt_a1) == 1.0
    with pytest.raises(NumericsError):
        h.critical_points()
    assert critical_set_grid(h) == []
    m = _marginal(65.0)
    m.amp = 1.0 / (2.0 * math.pi)
    assert -1.0 / (2.0 * math.pi * m.amp) == -1.0
    for finder in (m.critical_points, lambda: critical_set_grid(m)):
        with pytest.raises(NumericsError):
            finder()


def test_critical_set_empty_for_weak_turns():
    """Small xi*omega with small amplitude leaves the map a diffeomorphism."""
    h = AnalyticCircleMap(a=0.0, omega=0.05, xi=3.0, mu3=1.0, sqrt_a1=0.1)
    assert h.critical_points() == []
    grid = np.linspace(0, 1, 4096)
    assert float(np.min(h.jet(grid, 1)[1])) > 0.0


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


@pytest.mark.parametrize("indices", [[13, 5000, 14], [14, 13, 13]])
def test_convergence_table_needs_increasing_indices(indices):
    """An index after an underflowing one is not silently dropped, and a
    repeated or falling index is no table."""
    with pytest.raises(ValidationError, match="strictly increase"):
        singular_limit_convergence(indices, 0.3, ModelParams(c=0.6, e=0.2, omega=0.3))


def test_boundary_phase_equals_circle_map():
    """At x = 0 the phase component of the family is the circle map exactly."""
    p = ModelParams(c=0.6, e=0.2, omega=0.3)
    from mayleonard.returnmap import compile_map, reduce_mod
    dc = derive_constants(p)
    h = make_circle_map(0.3, p)
    lift = compile_map("rescaled", replace(p, gamma=gamma_sequence(15, 0.3, dc))).lift
    for s in np.linspace(0, 1, 13, endpoint=False):
        _, f2 = lift(0.0, s)
        assert reduce_mod(f2, 1.0) == pytest.approx(float(h.value(s)), abs=1e-9)


def test_misiurewicz_doubling_fixture():
    cert = misiurewicz_check(DoublingMap(), horizon=300)
    assert cert == _reference_check(DoublingMap(), horizon=300)
    assert cert.passed
    assert cert.lambda0 == pytest.approx(math.log(2.0), abs=1e-3)
    # the mixing rate test is a separate, stronger condition and fails here
    assert math.exp(cert.lambda0 / 3.0) < 2.0
    for key in ("critical_orbits", "inside_a", "inside_b"):
        assert cert.conditions[key].passed
        assert "vacuous" in cert.conditions[key].note


def test_misiurewicz_rotation_fails():
    cert = misiurewicz_check(RigidRotation(0.37), horizon=200)
    assert cert == _reference_check(RigidRotation(0.37), horizon=200)
    assert not cert.passed
    assert not cert.conditions["outside_a"].passed
    assert cert.lambda0 <= 1e-12


def test_misiurewicz_scan_over_offsets():
    """The lockstep certificate equals the scalar reference, floats included."""
    for p in (CASE1, CASE2):
        for a in np.arange(0.0, 1.0, 1.0 / 8.0):
            cmap = make_circle_map(float(a), p)
            got = misiurewicz_check(cmap, horizon=250)
            assert got == _reference_check(cmap, horizon=250), (p, a)


def test_misiurewicz_early_exits_match_reference(monkeypatch):
    """Paths where the sweep ends before the horizon equal the scalar
    reference: case 2 at horizon 1000, where every start and U sample has
    entered U within a quarter of it, and horizon 200 on a 256-point grid
    with m0 = 10."""
    for a in (0.3, 0.7):
        cmap = make_circle_map(a, CASE2)
        orders = []
        jet = cmap.jet
        cmap.jet = lambda s, order=0: orders.append(order) or jet(s, order)
        got = misiurewicz_check(cmap, horizon=1000)
        assert orders.count(1) < 250, (a, orders.count(1))
        assert got == _reference_check(cmap, horizon=1000), a
    import mayleonard.singular as singular

    monkeypatch.setattr(singular, "_GRID_SIZE", 256)
    monkeypatch.setattr(singular, "_M0", 10)
    for p, a in ((CASE1, 0.25), (CASE2, 0.55)):
        cmap = make_circle_map(a, p)
        got = misiurewicz_check(cmap, horizon=200)
        want = _reference_check(cmap, horizon=200, m0=10, grid_size=256)
        assert got == want, (p, a)


def test_misiurewicz_blocks_match_reference(monkeypatch):
    """Any number of steps per sweep block gives the scalar reference's
    floats, at horizons shorter than, equal to and past a block, with the
    first counted segment length m0 inside a block."""
    import mayleonard.singular as singular

    maps = [make_circle_map(0.0, CASE1), make_circle_map(0.3, CASE2),
            DoublingMap(), RigidRotation(0.37)]
    for cmap in maps:
        for horizon, m0 in ((1, 5), (7, 5), (33, 5), (250, 29)):
            want = _reference_check(cmap, horizon=horizon, m0=m0)
            monkeypatch.setattr(singular, "_M0", m0)
            for block in (1, 3, 16):
                monkeypatch.setattr(singular, "_BLOCK", block)
                got = misiurewicz_check(cmap, horizon=horizon)
                assert got == want, (cmap, horizon, m0, block)


def test_critical_orbits_ride_in_the_sweep():
    """On case 1 at a = 0 some grid start stays off U for the whole
    horizon, so the sweep fills every row of the critical orbits and
    ``cmap.value`` is never called; the margins are those of a scalar
    orbit loop."""
    cmap = make_circle_map(0.0, CASE1)
    centers = np.array([cp.s for cp in cmap.critical_points()])
    worst = math.inf
    for s in centers.tolist():
        for _ in range(250):
            s = float(cmap.value(s))
            worst = min(worst, float(circle_dist_oracle(s, centers)) - 1e-2)
    orders = []
    jet = cmap.jet
    cmap.jet = lambda s, order=0: orders.append(order) or jet(s, order)

    def no_value(s):
        raise AssertionError("cmap.value called")

    cmap.value = no_value
    cert = misiurewicz_check(cmap, horizon=250)
    assert orders.count(1) == 250
    assert cert.conditions["critical_orbits"].worst == worst
    assert cert.conditions["critical_orbits"].passed


def test_misiurewicz_rejects_bad_sizes():
    """A horizon below one is a validation error."""
    cmap = make_circle_map(0.3, CASE2)
    with pytest.raises(ValidationError, match="horizon must be >= 1"):
        misiurewicz_check(cmap, horizon=0)


def test_circle_map_orbit_sizes():
    """A negative orbit length is a validation error, for one start or for
    an array of them; a zero length gives the empty orbit, of shape ``(0,)``
    or ``(0, k)``."""
    cmap = make_circle_map(0.3, CASE2)
    starts = np.array([0.1, 0.2, 0.3])
    for start in (0.3, starts):
        for n in (-5, -1):
            with pytest.raises(ValidationError, match="n >= 0"):
                cmap.orbit(start, n)
    assert cmap.orbit(0.3, 0).shape == (0,)
    assert cmap.orbit(starts, 0).shape == (0, 3)


def test_circle_map_orbit_steps_starts_in_lockstep():
    """For every family, each column of the orbit of an array of starts is
    the orbit of that start alone, to the bit, and row ``i`` holds the
    ``(i+1)``-th iterates: the scalar orbit steps ``value`` on floats."""
    starts = np.array([0.0, 0.137, 0.5, 0.731, 0.999])
    for cmap in _every_circle_map():
        got = cmap.orbit(starts, 300)
        assert got.shape == (300, starts.size)
        for j, s0 in enumerate(starts.tolist()):
            one = cmap.orbit(s0, 300)
            assert np.array_equal(_bits(got[:, j]), _bits(one)), (cmap, s0)
            s = s0
            for i in range(20):
                s = float(cmap.value(s))
                assert _bits(one[i]) == _bits(s), (cmap, s0, i)


def test_misiurewicz_memory_stays_below_one_mib():
    """One certificate at horizon 1000 and grid 1024 peaks below 1 MiB of
    traced allocations; a (horizon, grid) buffer alone would take 8 MiB."""
    cmap = make_circle_map(0.0, CASE1)
    cmap.critical_points()

    def peak(fun):
        tracemalloc.start()
        try:
            fun()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(lambda: misiurewicz_check(cmap, horizon=1000)) < 2**20
    # negative control: numpy's buffers are traced
    assert peak(lambda: np.zeros((1000, 1024))) > 2**20


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


def test_circle_dist_matches_broadcast_oracle(rng):
    """Bit for bit the ``% 1.0`` broadcast form, in every shape, at the
    edges of U and at the wrap points."""
    r = 1e-2
    center_sets = [np.empty(0), np.array([0.3]), np.array([0.0, 0.62]),
                   rng.uniform(0.0, 1.0, 3)]
    specials = np.array([0.0, -0.0, 1.0, 1.0 - 2.0**-53, 0.5, -0.5, 1.5])
    for centers in center_sets:
        edges = np.concatenate([centers - r, centers + r])
        edges = np.concatenate([edges, np.nextafter(edges, -np.inf),
                                np.nextafter(edges, np.inf)])
        for s in (rng.uniform(-0.5, 1.5, 1000), rng.uniform(0.0, 1.0, (40, 3)),
                  edges, specials, 0.25, -0.0, np.empty(0)):
            got, want = _circle_dist(s, centers), circle_dist_oracle(s, centers)
            assert np.shape(got) == np.shape(want)
            assert np.array_equal(_bits(got), _bits(want)), (s, centers)


def test_jet_orders_are_prefixes_and_value_reduces_the_lift(rng):
    """``jet(s, k)`` is the first ``k + 1`` entries of ``jet(s, 2)`` and
    ``value(s)`` is ``jet(s)[0] % 1.0``, bit for bit, on arrays and on
    Python floats."""
    points = [rng.uniform(-0.5, 1.5, 2000), rng.uniform(0.0, 1.0, (30, 4)),
              np.array([0.0, -0.0, 0.5, 1.0, 1.0 - 2.0**-53])]
    maps = [make_circle_map(a, p) for p in (CASE1, CASE2) for a in (0.0, 0.3, 0.99)]
    maps += _every_circle_map()[2:]
    for cmap in maps:
        cs = [cp.s for cp in cmap.critical_points()]
        for s in points + [np.array(cs)] + [float(x) for x in points[2]] + cs:
            full = cmap.jet(s, 2)
            assert len(full) == 3
            for k in (0, 1):
                part = cmap.jet(s, k)
                assert len(part) == k + 1
                for got, want in zip(part, full):
                    assert np.array_equal(_bits(got), _bits(want)), (cmap, s, k)
            assert np.array_equal(_bits(cmap.value(s)), _bits(full[0] % 1.0)), (cmap, s)


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


def test_turnless_maps_are_diffeomorphisms():
    """Degree-one maps without turns get no mixing verdict and no
    transversality samples; the degree-two doubling map mixes at once."""
    h = AnalyticCircleMap(a=0.0, omega=0.05, xi=3.0, mu3=1.0, sqrt_a1=0.1)
    for cmap in (h, _marginal(200.0)):
        assert cmap.critical_points() == []
        tm = transition_matrix(cmap)
        assert tm.mixing_N is None
        assert "diffeomorphism" in tm.note
    assert transition_matrix(DoublingMap()).mixing_N == 1
    assert transversality_probe(h) == []


def test_transition_matrix_interval_oracle():
    """Covering entries agree with a sampling-based inclusion check."""
    p = ModelParams(c=0.6, e=0.2, omega=0.3)
    h = make_circle_map(0.0, p)
    tm = transition_matrix(h)
    r = len(tm.intervals)
    assert r == 2
    for i, (lo, hi) in enumerate(tm.intervals):
        ia, ib = float(h.jet(lo)[0]), float(h.jet(hi)[0])
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


def _scalar_lyapunov_1d(cmap, s0, iterations):
    """Reference for ``lyapunov_1d``: one scalar first-order jet and one
    math.log per step, restarting 1e-9 further on when a derivative
    vanishes."""
    restarts, s_start = 0, float(s0)
    while True:
        s = s_start
        for _ in range(100):
            s = float(cmap.value(s))
        total = 0.0
        for _ in range(iterations):
            d = abs(float(cmap.jet(s, 1)[1]))
            if d < 1e-300:
                break
            total += math.log(d)
            s = float(cmap.value(s))
        else:
            return total / iterations, restarts
        restarts += 1
        if restarts > 8:
            raise NumericsError("orbit keeps hitting the critical set exactly")
        s_start = (s_start + 1e-9) % 1.0


class _HalfTurn(RigidRotation):
    """Rotation by 1/2 whose derivative vanishes at s = 0.5 only, or everywhere."""

    def __init__(self, flat_everywhere=False):
        super().__init__(0.5)
        self.flat_everywhere = flat_everywhere

    def jet(self, s, order=0):
        s = np.asarray(s, dtype=float)
        flat = (s == 0.5) | self.flat_everywhere
        return (super().jet(s)[0], np.where(flat, 0.0, 1.0))[:order + 1]


def test_lyapunov_1d_vs_scalar_reference():
    """The array form agrees with the scalar loop.  Summing 20000 logs in
    another order moves the mean by at most 20000 * 2.2e-16 * max|log h'|,
    below 1e-10 here; a hit on the critical set restarts the same way."""
    h = make_circle_map(0.3, CASE2)
    for cmap, s0 in ((RigidRotation(0.37), 0.2), (DoublingMap(), 0.2), (h, 0.11),
                     (h, 0.43), (h, 0.78), (_HalfTurn(), 0.0)):
        lam, restarts = lyapunov_1d(cmap, s0, 20000)
        ref_lam, ref_restarts = _scalar_lyapunov_1d(cmap, s0, 20000)
        assert abs(lam - ref_lam) < 1e-10
        assert restarts == ref_restarts
    assert lyapunov_1d(_HalfTurn(), 0.0, 1000) == (0.0, 1)
    for fun in (lyapunov_1d, _scalar_lyapunov_1d):
        with pytest.raises(NumericsError):
            fun(_HalfTurn(flat_everywhere=True), 0.2, 1000)


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
    # each H5 sample is written as its record, under the record's field names
    samples = transversality_probe(make_circle_map(0.3, p))
    assert samples and report.entries["H5"]["samples"] == [asdict(t) for t in samples]
    assert set(report.entries["H5"]["samples"][0]) == {"s", "dq_da", "dp_da", "separated"}
    # nondegeneracy value at the turns equals one
    assert report.entries["H6"]["value"] == pytest.approx(1.0, abs=1e-6)
    d = asdict(report)
    assert d["n"] == 14 and d["a"] == 0.3


@pytest.mark.parametrize("column, failing, passing", [
    ("f2_sup", "H2", "H3"),
    ("d2_sup", "H3", "H2"),
])
def test_battery_h2_and_h3_read_their_own_columns(monkeypatch, column, failing, passing):
    """H2 reads the sup distances f1/f2 and H3 the derivative distances
    d1-d3: a table where one column of one group stops decreasing fails
    that group's hypothesis only."""
    import mayleonard.singular as singular

    p = ModelParams(c=0.6, e=0.2, omega=0.3)
    rows = singular_limit_convergence(range(14, 22), 0.3, p)
    rows[-1] = replace(rows[-1], **{column: getattr(rows[0], column)})
    monkeypatch.setattr(singular, "singular_limit_convergence", lambda *args: rows)
    report = hypothesis_battery(p, n=14, a=0.3, horizon=50)
    assert report.entries[failing]["status"] == "fail"
    assert report.entries[passing]["status"] == "pass"


def _first_batteries():
    """The battery at the first admissible index of each config, three offsets."""
    for params in (CASE1, CASE2):
        n = first_admissible_index(derive_constants(params))
        for a in (0.0, 0.3, 0.75):
            yield params, hypothesis_battery(params, n, a, horizon=50)


def test_battery_distortion_bound():
    """H1's distortion bound, the endpoint ratio of the monotone determinant
    ``gamma**p delta x**(delta-1)``, is its 64-sample ratio over the
    absorbing range to within 2 ulps."""
    for params, report in _first_batteries():
        dc = derive_constants(params)
        h1 = report.entries["H1"]
        assert h1["status"] == "pass" and set(h1) == {"status", "distortion_bound", "note"}
        gp = report.gamma**dc.p
        xs = np.linspace(gp * (1.0 - dc.sqrt_a1),
                         gp * (1.0 + dc.sqrt_a1 + (2.0 * gp) ** dc.delta), 64)
        dets = gp * dc.delta * xs ** (dc.delta - 1.0)
        bound = h1["distortion_bound"]
        assert abs(float(dets.max() / dets.min()) - bound) <= 2.0 * math.ulp(bound)


def test_battery_h6_is_the_rescaled_maps_slope():
    """H6's unit slope is the finite-difference slope of the ``rescaled``
    map's leading component in ``u = x**delta``, normalised by ``gamma**p``,
    at every turn of ``h_a`` to within 1e-9."""
    for params, report in _first_batteries():
        dc = derive_constants(params)
        assert report.entries["H6"] == {"status": "pass", "value": 1.0, "note": ""}
        gp = report.gamma**dc.p
        lift = compile_map("rescaled", replace(params, gamma=report.gamma)).lift
        u = 1e-6
        turns = make_circle_map(report.a, params).critical_points()
        assert len(turns) == 2
        for cp in turns:
            slope = (lift(u ** (1.0 / dc.delta), cp.s)[0] / gp - lift(0.0, cp.s)[0] / gp) / u
            assert abs(slope - 1.0) < 1e-9


def test_transversality_probe_runs():
    p = ModelParams(c=0.6, e=0.2, omega=0.3)
    samples = transversality_probe(make_circle_map(0.3, p))
    assert len(samples) >= 1
    for t in samples:
        assert t.dq_da == 1.0
        assert math.isfinite(t.dp_da)


def test_branch_solve_vs_brentq():
    """The bracketed Newton solve on a monotone branch of h_a agrees with
    brentq, returns an endpoint that solves exactly, and None without a
    sign change."""
    h = make_circle_map(0.3, CASE2)
    lo, hi = (cp.s for cp in h.critical_points())
    f_lo, f_hi = float(h.jet(lo)[0]), float(h.jet(hi)[0])
    for target in np.linspace(f_lo, f_hi, 9)[1:-1]:
        ref = brentq(lambda q: float(h.jet(q)[0]) - target, lo, hi, xtol=1e-15)
        assert abs(_branch_solve(h, lo, hi, target) - ref) < 1e-13
    assert _branch_solve(h, lo, hi, f_lo) == lo
    assert _branch_solve(h, lo, hi, max(f_lo, f_hi) + 1.0) is None
