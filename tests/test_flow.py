import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from mayleonard import (
    FlowState,
    IntegrateOpts,
    ModelParams,
    NumericsError,
    ValidationError,
    dwell_time_estimate,
    equilibria_spectrum,
    fit_global_constants,
    gh_to_ml,
    integrate,
    section_returns,
    section_state,
    vector_field,
)
from mayleonard.flow import SectionEvent, table1_eigenpairs

from conftest import random_admissible


def test_vector_field_equilibria():
    p = ModelParams(c=0.6, e=0.2, gamma=0.0)
    assert np.allclose(vector_field(FlowState(0, 0, 0, 0.0), p), 0.0)
    # the (1-x) factor kills the forcing at the first axis point for any t
    pf = p.with_(gamma=0.2)
    for t in (0.0, 0.3, 2.7):
        assert np.allclose(vector_field(FlowState(1, 0, 0, t), pf), 0.0)


def test_vector_field_forcing_at_third_axis():
    """The third axis point picks up exactly the forcing in the x-direction."""
    p = ModelParams(c=0.6, e=0.2, gamma=0.1, omega=0.3)
    t = math.pi / (4 * p.omega)          # sin(2 omega t) = 1
    f = vector_field(FlowState(0, 0, 1, t), p)
    assert f[0] == pytest.approx(0.1, rel=1e-12)
    assert f[1] == 0.0 and f[2] == 0.0


def test_equilibria_spectrum_matches_reference(rng):
    """All six saddles reproduce (e, -1, -c) and the reference directions."""
    for c, e, _ in random_admissible(rng, 50):
        p = ModelParams(c=c, e=e, gamma=0.0)
        records = equilibria_spectrum(p)
        assert len(records) == 6
        for rec in records:
            i = int(rec.label[-1])
            vals, vecs = table1_eigenpairs(p, i)
            assert np.max(np.abs(rec.eigenvalues - vals)) < 1e-9
            for k in range(3):
                v = rec.eigenvectors[:, k]
                w = vecs[:, k]
                cosang = abs(v @ w) / (np.linalg.norm(v) * np.linalg.norm(w))
                assert abs(cosang - 1.0) < 1e-9


def test_equilibria_requires_unforced():
    with pytest.raises(ValidationError):
        equilibria_spectrum(ModelParams(c=0.6, e=0.2, gamma=0.01))


def test_spectrum_expanding_direction_example():
    p = ModelParams(c=0.6, e=0.2, gamma=0.0)
    rec = [r for r in equilibria_spectrum(p) if r.label == "+O1"][0]
    assert np.allclose(rec.eigenvalues, [0.2, -1.0, -0.6], atol=1e-12)
    v = rec.eigenvectors[:, 0]
    w = np.array([(1 + 0.6) / (1 + 0.2), -1.0, 0.0])
    assert abs(abs(v @ w) / (np.linalg.norm(v) * np.linalg.norm(w)) - 1.0) < 1e-12
    r3 = [r for r in equilibria_spectrum(p) if r.label == "+O3"][0]
    v = r3.eigenvectors[:, 1]            # radial eigenvalue -1
    assert abs(abs(v[2]) / np.linalg.norm(v) - 1.0) < 1e-12


def test_gh_to_ml_squares_and_field_correspondence(rng):
    assert np.allclose(gh_to_ml((1, 0, 0)), (1, 0, 0))
    assert np.allclose(gh_to_ml((0.5, 0.5, 0.5)), (0.25, 0.25, 0.25))

    # cubic-equivariant field whose squared trajectories satisfy the
    # population model: lambda=1/2, A = (-1/2, -(1+c)/2, (e-1)/2) cyclically
    c, e = 0.6, 0.2
    p = ModelParams(c=c, e=e, gamma=0.0)
    lam = 0.5
    A = np.array([-0.5, -(1 + c) / 2.0, (e - 1) / 2.0])

    def gh_field(v):
        x, y, z = v
        sq = v * v
        coefs = np.array([
            lam + A[0] * sq[0] + A[1] * sq[1] + A[2] * sq[2],
            lam + A[0] * sq[1] + A[1] * sq[2] + A[2] * sq[0],
            lam + A[0] * sq[2] + A[1] * sq[0] + A[2] * sq[1],
        ])
        return v * coefs

    for _ in range(20):
        v = rng.uniform(0.05, 0.9, size=3)
        lhs = 2.0 * v * gh_field(v)          # d/dt of the squared variables
        rhs = vector_field(FlowState(*gh_to_ml(v), 0.0), p)
        assert np.allclose(lhs, rhs, atol=1e-12)

    # short integrated arc, mapped pointwise, satisfies the population field
    sol = solve_ivp(lambda t, v: gh_field(v), (0, 1.0), [0.5, 0.4, 0.6],
                    rtol=1e-10, atol=1e-12, dense_output=True)
    for t in np.linspace(0.1, 0.9, 5):
        v = sol.sol(t)
        lhs = 2.0 * v * gh_field(v)
        rhs = vector_field(FlowState(*gh_to_ml(v), t), p)
        assert np.allclose(lhs, rhs, atol=1e-9)


def test_integrate_stationary_and_plane_invariance():
    p = ModelParams(c=0.6, e=0.2, gamma=0.0)
    opts = IntegrateOpts(rel_tol=1e-10, abs_tol=1e-12, max_step=1.0)
    traj = integrate(FlowState(1, 0, 0, 0.0), 20.0, p, opts)
    assert np.max(np.abs(traj.states - np.array([1.0, 0.0, 0.0]))) < 1e-9
    traj = integrate(FlowState(0.4, 0.5, 0.0, 0.0), 50.0, p, opts)
    assert np.max(traj.states[:, 2]) <= opts.abs_tol


def test_integrate_visits_all_saddles():
    """A generic interior start approaches the sphere and cycles the saddles.

    The exactly symmetric point (0.3, 0.3, 0.3) is unsuitable: the diagonal
    x = y = z is invariant and feeds the interior equilibrium, so the start
    is perturbed off it.
    """
    p = ModelParams(c=0.6, e=0.2, gamma=0.0)
    traj = integrate(FlowState(0.3, 0.31, 0.29, 0.0), 400.0, p,
                     IntegrateOpts(rel_tol=1e-9, abs_tol=1e-12, max_step=0.5))
    late = traj.states[traj.ts > 30.0]
    r = late.sum(axis=1)
    assert np.all(np.abs(r - 1.0) < 0.2)
    assert late[:, 0].max() > 0.7
    assert late[:, 1].max() > 0.7
    assert late[:, 2].max() > 0.7


def test_integrate_octant_invariance(rng):
    opts = IntegrateOpts(rel_tol=1e-9, abs_tol=1e-12, max_step=1.0)
    for gam in (0.0, 0.01):
        p = ModelParams(c=0.6, e=0.2, gamma=gam, omega=0.3)
        for _ in range(40):
            q = rng.uniform(0.01, 0.8, size=3)
            traj = integrate(FlowState(*q, 0.0), 30.0, p, opts)
            assert traj.states.min() >= -opts.abs_tol


def test_time_reversal_roundtrip():
    p = ModelParams(c=0.6, e=0.2, gamma=0.01, omega=0.3)
    opts = IntegrateOpts(rel_tol=1e-11, abs_tol=1e-13, max_step=0.5)
    start = FlowState(0.25, 0.35, 0.3, 0.0)
    fwd = integrate(start, 1.0, p, opts)
    end = fwd.states[-1]
    back = integrate(FlowState(*end, 1.0), 0.0, p, opts)
    assert np.max(np.abs(back.states[-1] - start.as_array())) < 1e-8


def test_dense_output_sampling():
    p = ModelParams(c=0.6, e=0.2, gamma=0.0)
    traj = integrate(FlowState(0.3, 0.3, 0.3, 0.0), 5.0, p,
                     IntegrateOpts(rel_tol=1e-10, abs_tol=1e-12))
    mid = traj.state_at(2.5)
    ref = integrate(FlowState(0.3, 0.3, 0.3, 0.0), 2.5, p,
                    IntegrateOpts(rel_tol=1e-12, abs_tol=1e-14)).states[-1]
    assert np.max(np.abs(mid - ref)) < 1e-8
    assert traj.stats["steps"] > 0 and traj.stats["rejected_steps"] >= 0


def test_section_returns_power_law():
    """Unforced section data contracts with the single-passage exponent."""
    p = ModelParams(c=0.6, e=0.2, gamma=0.0, omega=0.3)
    events = section_returns(section_state(1e-3, p), 6, p, sections="all")
    logs = [math.log(1e-3)] + [ev.log_x for ev in events]
    ratios = [logs[i + 1] / logs[i] for i in range(len(logs) - 1)]
    assert abs(ratios[-1] - 3.0) < 0.01
    assert abs(ratios[-2] - 3.0) < 0.02
    # dwell times grow without bound
    gaps = np.diff([0.0] + [ev.t_raw for ev in events])
    assert np.all(np.diff(gaps) > 0.0)


def test_section_returns_forced_settles_on_curve():
    """Forced low-frequency returns settle onto a closed curve."""
    p = ModelParams(c=0.55, e=0.5, gamma=1e-3, omega=0.05)
    opts = IntegrateOpts(rel_tol=1e-9, abs_tol=1e-14, max_step=1.0)
    events = section_returns(section_state(0.02, p), 40, p, opts, sections="o3")
    xs = np.array([ev.x for ev in events[-15:]])
    assert xs.min() > 0.0
    assert np.ptp(xs) < 0.2 * p.eps_tilde
    # crossing times are strictly increasing
    ts = [ev.t_raw for ev in events]
    assert all(t2 > t1 for t1, t2 in zip(ts, ts[1:]))


def test_dwell_time_estimate_formula():
    p = ModelParams(c=0.6, e=0.2, gamma=0.01)
    assert dwell_time_estimate(1.0, p) == pytest.approx(5.0 * math.log(100.0),
                                                        rel=1e-12)
    # the estimate collapses to zero at the boundary of its validity region
    assert dwell_time_estimate(99.999 / 1.0, p.with_(gamma=1.0 / 100.0)) < 1e-4
    with pytest.raises(ValidationError):
        dwell_time_estimate(200.0, p)          # gamma * x_u0 > 1
    with pytest.raises(ValidationError):
        dwell_time_estimate(1.0, p.with_(gamma=0.0))


def test_dwell_time_matches_measured():
    """Measured cube transit agrees with the leading estimate within 15%.

    Valid while the forcing-pumped mass gamma/(2e) stays well below the
    cube size; at gamma = 1e-2 that mass is a quarter of a 0.1-cube and
    the leading estimate (which drops the order-gamma corrections) is off
    by more than half, so the check stops at gamma = 1e-3.
    """
    c, e = 0.6, 0.2
    cube = 0.1
    x0 = 0.1 * cube                       # enter 10% into the cube
    for gam in (1e-4, 3e-4, 1e-3):
        p = ModelParams(c=c, e=e, gamma=gam, omega=0.3, eps_tilde=cube)
        est = dwell_time_estimate((x0 / cube) / gam, p)

        def hit_exit(t, q):
            return q[0] - cube
        hit_exit.terminal = True
        hit_exit.direction = 1.0
        from mayleonard.flow import _rhs
        sol = solve_ivp(lambda t, q: _rhs(t, q, p), (0.0, 500.0),
                        [x0, cube, 1.0 - x0 - cube], rtol=1e-10, atol=1e-14,
                        events=hit_exit, max_step=1.0)
        assert sol.t_events[0].size == 1
        measured = sol.t_events[0][0]
        assert abs(measured - est) / measured < 0.15


def _synthetic_events(params, n, rng, noise=0.0):
    from mayleonard.returnmap import compile_map
    x0, s0 = 0.02, rng.uniform()
    orbit = compile_map("case12", params).orbit(x0, s0, n - 1)
    clean = [(x0, s0)] + [(x, s) for x, s, _ in orbit]
    events = []
    for k, (xk, sk) in enumerate(clean):
        x_obs = abs(xk + rng.normal(scale=noise)) if noise else xk
        events.append(SectionEvent(index=k, section="O3", t_raw=float(k),
                                   s=sk, x=x_obs, log_x=math.log(x_obs),
                                   state=np.array([x_obs, 0.1, 0.9])))
    return events


def test_fit_recovers_generating_constants(rng):
    params = ModelParams(c=0.55, e=0.5, gamma=1e-3, omega=0.05, mu1=1.0)
    events = _synthetic_events(params, 80, rng)
    fit = fit_global_constants(events, params)
    assert abs(fit.mu - 1.0) < 1e-6
    assert abs(fit.mu1 - 1.0) < 1e-6
    assert fit.residual < 1e-10
    assert abs(fit.mu3 - params.mu3) < 1e-6


def test_fit_with_noise_monte_carlo(rng):
    """Recovery within 1e-2 across 20 independent noise draws at 1e-4 noise.

    The amplitude keeps the section coordinate well above the noise scale;
    at much smaller amplitudes the errors-in-variables bias of the direct
    least-squares fit exceeds the target accuracy.
    """
    params = ModelParams(c=0.55, e=0.5, gamma=1e-2, omega=0.05, mu1=1.0)
    for _ in range(20):
        events = _synthetic_events(params, 200, rng, noise=1e-4)
        fit = fit_global_constants(events, params)
        assert abs(fit.mu1 - 1.0) < 1e-2


def test_fit_on_ode_returns_reports_residual():
    """Fit against genuine flow returns: diagnostic only, residual reported."""
    p = ModelParams(c=0.6, e=0.2, gamma=0.01, omega=0.3)
    opts = IntegrateOpts(rel_tol=1e-8, abs_tol=1e-12, max_step=1.0)
    events = section_returns(section_state(0.005, p), 52, p, opts, sections="o3")
    # rescale to cross-section units and the mod-1 phase convention
    scaled = [
        SectionEvent(index=ev.index, section=ev.section, t_raw=ev.t_raw,
                     s=(ev.s * p.omega / math.pi) % 1.0,
                     x=ev.x / p.eps_tilde, log_x=ev.log_x - math.log(p.eps_tilde),
                     state=ev.state)
        for ev in events
    ]
    fit = fit_global_constants(scaled, p)
    assert math.isfinite(fit.residual)
    assert fit.n_events == 52


def test_fit_rank_deficient(rng):
    params = ModelParams(c=0.55, e=0.5, gamma=1e-3, omega=0.05)
    events = [SectionEvent(index=k, section="O3", t_raw=float(k), s=0.25,
                           x=0.02, log_x=math.log(0.02),
                           state=np.zeros(3)) for k in range(60)]
    with pytest.raises(NumericsError):
        fit_global_constants(events, params)
