import inspect
import json
import math
import os
import subprocess
import sys
import textwrap
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import LSODA, RK45, OdeSolver, solve_ivp

from mayleonard import (
    FlowState,
    ModelParams,
    NumericsError,
    ValidationError,
    equilibria_spectrum,
    integrate,
    section_returns,
    section_state,
)
from mayleonard.config import NumericsConfig
from mayleonard.flow import _field, table1_eigenpairs

from conftest import random_admissible, rhs_oracle, stepper_oracle


def test_vector_field_equilibria():
    p = ModelParams(c=0.6, e=0.2, gamma=0.0)
    assert np.allclose(_field(p, False)(0.0, np.zeros(3)), 0.0)
    # the (1-x) factor kills the forcing at the first axis point for any t
    pf = replace(p, gamma=0.2)
    for t in (0.0, 0.3, 2.7):
        assert np.allclose(_field(pf, False)(t, np.array([1.0, 0.0, 0.0])), 0.0)


def test_vector_field_forcing_at_third_axis():
    """The third axis point picks up exactly the forcing in the x-direction."""
    p = ModelParams(c=0.6, e=0.2, gamma=0.1, omega=0.3)
    t = math.pi / (4 * p.omega)          # sin(2 omega t) = 1
    f = _field(p, False)(t, np.array([0.0, 0.0, 1.0]))
    assert f[0] == pytest.approx(0.1, rel=1e-12)
    assert f[1] == 0.0 and f[2] == 0.0


@pytest.mark.parametrize("gamma", [0.0, 0.1])
def test_log_chart_is_population_field_over_state(rng, gamma):
    """Both charts read one vector field: the log chart's rate is the
    population field divided by the coordinate, forced or not."""
    from mayleonard.flow import _field
    p = ModelParams(c=0.6, e=0.2, gamma=gamma, omega=0.3)
    population, log_chart = _field(p, False), _field(p, True)
    for _ in range(10):
        q, t = rng.uniform(0.05, 0.9, size=3), rng.uniform(0.0, 20.0)
        assert np.allclose(log_chart(t, np.log(q)), np.array(population(t, q)) / q,
                           rtol=1e-12, atol=0.0)


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


@pytest.mark.parametrize("gamma", [0.0, 0.1])
def test_field_matches_numpy_scalar_oracle_bitwise(rng, gamma):
    """The float field equals the ndarray formulas bit for bit in both
    charts, at random states and times, at the axis points and at states
    an RK stage can reach (slightly negative, tiny, near 1)."""
    from mayleonard.flow import _field
    p = ModelParams(c=0.6, e=0.2, gamma=gamma, omega=0.3)
    states = [np.array(pt) for pt in ([1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                                      [0.0, 0.0, 1.0], [0.0, 0.0, 0.0])]
    states += [rng.uniform(0.0, 1.0, size=3) for _ in range(200)]
    states += [rng.uniform(-1e-12, 1e-12, size=3) for _ in range(20)]
    states += [10.0 ** rng.uniform(-300, 0, size=3) for _ in range(20)]
    times = np.concatenate([[0.0, math.pi / (4 * p.omega)],
                            rng.uniform(0.0, 1e4, size=len(states) - 2)])
    population, log_chart = _field(p, False), _field(p, True)
    for q, t in zip(states, times):
        assert np.array_equal(_bits(population(t, q)), _bits(rhs_oracle(t, q, p)))
        with np.errstate(divide="ignore"):
            logs = np.log(np.abs(q))
        if gamma and q[0] == 0.0:
            # the forced log chart divides by x: both raise where it is 0
            for fun in (log_chart, lambda t, q: rhs_oracle(t, q, p, True)):
                with pytest.raises(ZeroDivisionError):
                    fun(t, logs)
            continue
        assert np.array_equal(_bits(log_chart(t, logs)),
                              _bits(rhs_oracle(t, logs, p, True)))


def test_flow_numerics_reject_nonfinite_tolerances():
    """``integrate`` and ``section_returns`` read the config's numerics
    record, which rejects NaN or inf tolerances and a NaN, zero or negative
    step cap whether it is built or replaced; an explicit inf cap and the
    smallest positive one are the positive controls."""
    for fn in (integrate, section_returns):
        assert type(inspect.signature(fn).parameters["opts"].default) is NumericsConfig
    base = NumericsConfig()
    for field, bad in [("rel_tol", math.nan), ("rel_tol", math.inf),
                       ("abs_tol", math.nan), ("abs_tol", math.inf),
                       ("max_step", math.nan), ("max_step", 0.0),
                       ("max_step", -0.0), ("max_step", -1.0),
                       ("max_step", -math.inf)]:
        named = "tolerances" if field.endswith("tol") else field
        with pytest.raises(ValidationError, match=named):
            NumericsConfig(**{field: bad})
        with pytest.raises(ValidationError, match=named):
            replace(base, **{field: bad})
    assert replace(base, max_step=math.inf).max_step == math.inf
    assert replace(base, max_step=5e-324).max_step == 5e-324


def test_flow_state_rejects_nonfinite_and_negative():
    """Coordinates are proportions >= 0 and every field is finite; the
    closed octant, axis points and -0.0 included, is accepted."""
    for bad in [(math.nan, 0.3, 0.3, 0.0), (0.3, math.inf, 0.3, 0.0),
                (0.3, 0.3, -math.inf, 0.0), (0.3, 0.3, 0.3, math.nan),
                (0.3, 0.3, 0.3, math.inf), (-0.5, 0.3, 0.3, 0.0),
                (0.3, -5e-324, 0.3, 0.0)]:
        with pytest.raises(ValidationError):
            FlowState(*bad)
    for good in [(0, 0, 0), (1.0, 0.0, 0.0), (-0.0, 0.5, 0.5), (0.3, 0.3, 0.3, -7.0)]:
        assert FlowState(*good).as_array().shape == (3,)


def test_integrate_rejects_nonfinite_t_end(monkeypatch):
    """A non-finite end time is rejected before the integrator is called:
    every step is stored, so it would run until memory is gone."""
    import mayleonard.flow as flow

    def never(*args):
        raise AssertionError("the flow was integrated")

    p = ModelParams(c=0.6, e=0.2, gamma=0.01, omega=0.3)
    start = FlowState(0.3, 0.31, 0.29, 0.0)
    monkeypatch.setattr(flow, "_run_stepper", never)
    for t_end in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValidationError, match="t_end must be finite"):
            integrate(start, t_end, p)
    with pytest.raises(AssertionError, match="the flow was integrated"):
        integrate(start, 1.0, p)


def test_section_returns_rejects_unknown_sections():
    """Only ``"o3"`` and ``"all"`` name a set of faces; a near miss is an
    error, not a silent count of all three faces."""
    p = ModelParams(c=0.6, e=0.2, gamma=0.01, omega=0.3)
    start = section_state(1e-3, p)
    for bad in ("O3", "ALL", "o1", "", None):
        with pytest.raises(ValidationError, match="sections must be"):
            section_returns(start, 2, p, sections=bad)
    o3 = section_returns(start, 2, p, sections="o3")
    every = section_returns(start, 2, p, sections="all")
    assert {ev.section for ev in o3} == {"O3"}
    assert [ev.section for ev in every] != [ev.section for ev in o3]


def test_log_chart_start_needs_positive_coordinates():
    """At ``gamma = 0`` the run starts from the logs of the state, so a
    start on another invariant plane is a validation error."""
    p = ModelParams(c=0.6, e=0.2, gamma=0.0, omega=0.3)
    for start in (FlowState(0.5, 0.5, 0.0), FlowState(0.5, 0.0, 0.5)):
        with pytest.raises(ValidationError, match="log chart"):
            section_returns(start, 1, p)


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
    # cubic-equivariant field whose squared trajectories satisfy the
    # population model: lambda=1/2, A = (-1/2, -(1+c)/2, (e-1)/2) cyclically
    c, e = 0.6, 0.2
    p = ModelParams(c=c, e=e, gamma=0.0)
    field = _field(p, False)
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
        rhs = field(0.0, v * v)
        assert np.allclose(lhs, rhs, atol=1e-12)

    # short integrated arc, mapped pointwise, satisfies the population field
    sol = solve_ivp(lambda t, v: gh_field(v), (0, 1.0), [0.5, 0.4, 0.6],
                    rtol=1e-10, atol=1e-12, dense_output=True)
    for t in np.linspace(0.1, 0.9, 5):
        v = sol.sol(t)
        lhs = 2.0 * v * gh_field(v)
        rhs = field(t, v * v)
        assert np.allclose(lhs, rhs, atol=1e-9)


def test_integrate_stationary_and_plane_invariance():
    p = ModelParams(c=0.6, e=0.2, gamma=0.0)
    opts = NumericsConfig(rel_tol=1e-10, abs_tol=1e-12, max_step=1.0)
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
                     NumericsConfig(rel_tol=1e-9, abs_tol=1e-12, max_step=0.5))
    late = traj.states[traj.ts > 30.0]
    r = late.sum(axis=1)
    assert np.all(np.abs(r - 1.0) < 0.2)
    assert late[:, 0].max() > 0.7
    assert late[:, 1].max() > 0.7
    assert late[:, 2].max() > 0.7


def test_integrate_octant_invariance(rng):
    opts = NumericsConfig(rel_tol=1e-9, abs_tol=1e-12, max_step=1.0)
    for gam in (0.0, 0.01):
        p = ModelParams(c=0.6, e=0.2, gamma=gam, omega=0.3)
        for _ in range(40):
            q = rng.uniform(0.01, 0.8, size=3)
            traj = integrate(FlowState(*q, 0.0), 30.0, p, opts)
            assert traj.states.min() >= -opts.abs_tol


def test_time_reversal_roundtrip():
    p = ModelParams(c=0.6, e=0.2, gamma=0.01, omega=0.3)
    opts = NumericsConfig(rel_tol=1e-11, abs_tol=1e-13, max_step=0.5)
    start = FlowState(0.25, 0.35, 0.3, 0.0)
    fwd = integrate(start, 1.0, p, opts)
    end = fwd.states[-1]
    back = integrate(FlowState(*end, 1.0), 0.0, p, opts)
    # a backward run stores its samples in its own time order
    assert back.ts[0] == 1.0 and back.ts[-1] == 0.0
    assert np.max(np.abs(back.states[-1] - start.as_array())) < 1e-8
    for traj in (fwd, back):
        assert set(traj.stats) == {"steps", "nfev", "njev"}
        assert traj.stats["nfev"] > traj.stats["steps"] == len(traj.ts) - 1 > 0


CASE1 = ModelParams(c=0.55, e=0.5, gamma=1e-3, omega=0.05, mu1=1.0, mu3=1.0,
                    eps_tilde=0.1)        # configs/case1.cfg
CASE2 = ModelParams(c=0.6, e=0.2, gamma=0.01, omega=0.3, mu1=1.0, mu3=1.0,
                    eps_tilde=0.1)        # configs/case2.cfg


def _counting(base, calls):
    """``base`` with each ``step()`` call recorded in ``calls`` as its stepper."""
    class Counting(base):
        def step(self):
            calls.append(self)
            return super().step()

    return Counting


def test_integrate_and_section_returns_step_through_flow_stepper(monkeypatch):
    """Both flow paths take every step through the one driver in ``flow``,
    ``_run_stepper``: a stand-in patched there sees every step, and the
    driver itself steps no scipy ``OdeSolver``."""
    import mayleonard.flow as flow

    def never(self):
        raise AssertionError("an OdeSolver was stepped")

    start = FlowState(0.3, 0.31, 0.29, 0.0)
    with monkeypatch.context() as m:
        m.setattr(OdeSolver, "step", never)
        traj = integrate(start, 5.0, CASE2)
        events = section_returns(section_state(1e-3, CASE2), 2, CASE2, sections="all")
    steps = []
    monkeypatch.setattr(flow, "_run_stepper", lambda *args: stepper_oracle(
        _counting(LSODA, steps), *args))
    assert integrate(start, 5.0, CASE2).stats == traj.stats
    assert len(steps) == traj.stats["steps"] > 0
    steps.clear()
    assert section_returns(section_state(1e-3, CASE2), 2, CASE2,
                           sections="all").stats == events.stats
    assert len(steps) == events.stats["steps"] > 0


def _recording(run, calls):
    """``run`` with each call's arguments and result appended to ``calls``."""
    def recording(*args):
        result = run(*args)
        calls.append((args, result))
        return result

    return recording


def _assert_same_run(run, ref):
    """Two ``_run_stepper`` results with equal counters and bit-equal
    crossings."""
    (stats, found), (stats_ref, found_ref) = run, ref
    assert stats == stats_ref and len(found) == len(found_ref)
    for (t, name, y), (t_ref, name_ref, y_ref) in zip(found, found_ref):
        assert (t, name) == (t_ref, name_ref)
        assert np.array_equal(_bits(y), _bits(y_ref))


@pytest.mark.parametrize("gamma", [0.01, 0.0])
def test_section_driver_reports_stepper_counters(monkeypatch, gamma):
    """``section_returns`` reports the driver's counters, and they equal
    scipy's ``LSODA`` on the same run: one step per ``step()`` call, and
    the stepper's ``nfev`` and ``njev``."""
    import mayleonard.flow as flow

    reports, calls = [], []
    monkeypatch.setattr(flow, "_run_stepper", _recording(flow._run_stepper, reports))
    p = replace(CASE2, gamma=gamma)
    events = section_returns(section_state(1e-3, p), 3, p, sections="all")
    ((args, (stats, _)),) = reports
    assert events.stats == stats
    stepper_oracle(_counting(LSODA, calls), *args)
    stepper = calls[-1]
    assert stats == {"steps": len(calls), "nfev": stepper.nfev,
                     "njev": stepper.njev}
    assert stats["nfev"] > stats["steps"] > 0


@pytest.mark.parametrize("params, n", [(CASE1, 30), (CASE2, 10),
                                       (replace(CASE2, gamma=0.0), 6)])
def test_section_driver_matches_lsoda_oracle_bitwise(monkeypatch, params, n):
    """The driver and scipy's ``LSODA`` stepped by the oracle loop take the
    same steps and find the same crossings, bit for bit."""
    import mayleonard.flow as flow

    reports = []
    monkeypatch.setattr(flow, "_run_stepper", _recording(flow._run_stepper, reports))
    section_returns(section_state(1e-3, params), n, params, sections="all")
    ((args, run),) = reports
    assert len(run[1]) == n
    _assert_same_run(run, stepper_oracle(LSODA, *args))


def test_flow_loaded_before_scipy_integrate_matches_lsoda_oracle_bitwise():
    """In a process that imports ``mayleonard.flow`` before
    ``scipy.integrate``, the driver runs on the compiled modules it loads by
    file, and one case-2 section run still equals the ``LSODA`` oracle bit
    for bit.  (This suite's ``conftest`` imports scipy first, so the other
    tests run on the modules that scipy's packages loaded.)"""
    script = textwrap.dedent("""
        import json, sys
        import mayleonard.flow as flow
        assert "scipy.integrate" not in sys.modules, "flow loaded scipy.integrate"
        assert "scipy.optimize" not in sys.modules, "flow loaded scipy.optimize"
        from mayleonard import ModelParams

        runs, run_stepper = [], flow._run_stepper

        def recording(*args):
            runs.append((args, run_stepper(*args)))
            return runs[-1][1]

        flow._run_stepper = recording
        p = ModelParams(c=0.6, e=0.2, gamma=0.01, omega=0.3, mu1=1.0, mu3=1.0,
                        eps_tilde=0.1)
        flow.section_returns(flow.section_state(1e-3, p), 10, p, sections="all")
        from scipy.integrate import LSODA
        from conftest import stepper_oracle
        ((args, run),) = runs

        def bits(result):
            stats, found = result
            return [stats, [[t.hex(), name, [float(v).hex() for v in y]]
                            for t, name, y in found]]

        print(json.dumps([bits(run), bits(stepper_oracle(LSODA, *args))]))
    """)
    tests = Path(__file__).resolve().parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    run, ref = json.loads(proc.stdout.splitlines()[-1])
    assert len(run[1]) == 10 and run[0]["steps"] > 0
    assert run == ref


def test_missing_compiled_module_names_its_path_and_scipy_version():
    """The driver's C entries come from files in scipy's package directory;
    a file that is not there is an ImportError with its path and scipy's
    version."""
    import scipy

    from mayleonard.flow import _c_module

    with pytest.raises(ImportError) as info:
        _c_module("integrate", "_no_such_module")
    path = Path(scipy.__file__).parent / "integrate" / "_no_such_module"
    assert f"at {path}." in str(info.value)
    assert f"in scipy {scipy.__version__};" in str(info.value)


def test_step_loop_names_an_lsoda_failure():
    """A negative ``istate`` from LSODA stops the run with LSODA's own
    message: a zero ``abs_tol`` on a zero coordinate is illegal input."""
    from mayleonard.flow import _run_stepper

    opts = SimpleNamespace(rel_tol=1e-9, abs_tol=0.0, max_step=50.0)
    with pytest.raises(NumericsError) as info:
        _run_stepper(_field(CASE2, False), 0.0, [0.5, 0.5, 0.0], 100.0, opts,
                     -math.inf, (), 0.0, 1, None, None)
    assert str(info.value) == ("LSODA failed at t=0.0 with istate=-3: "
                               "Illegal input detected (internal error).")


def test_too_few_crossings_says_what_the_run_saw(monkeypatch):
    """A run that reaches the end of its time budget before the crossings
    it was asked for reports how many it found, the time it reached and
    LSODA's step count, and guesses no cause."""
    import mayleonard.flow as flow

    reports = []
    monkeypatch.setattr(flow, "_MAX_TIME", 500.0)
    monkeypatch.setattr(flow, "_run_stepper", _recording(flow._run_stepper, reports))
    with pytest.raises(NumericsError) as info:
        section_returns(section_state(1e-3, CASE2), 10, CASE2)
    ((args, (stats, found)),) = reports
    assert 0 < len(found) < 10
    assert str(info.value) == (
        f"only {len(found)} of 10 section crossings found by t=500.0, the end "
        f"of the time budget of 500.0 after the start, in {stats['steps']} "
        "LSODA steps")


@pytest.mark.parametrize("params", [CASE1, CASE2])
def test_nordsieck_interpolant_is_lsoda_dense_output(params):
    """The interpolant rebuilt from LSODA's Nordsieck array equals scipy's
    ``LSODA.dense_output()`` bit for bit at the start, the midpoint and the
    end of each of 5000 steps, among them steps where the next order is
    lower, whose last column is rescaled."""
    from mayleonard.flow import _nordsieck_interpolant

    start = section_state(1e-3, params)
    opts = NumericsConfig()
    stepper = LSODA(_field(params, False), 0.0, start.as_array(), 1e7,
                    rtol=opts.rel_tol, atol=opts.abs_tol, max_step=50.0)
    lsoda = stepper._lsoda_solver._integrator
    lowered = 0
    for _ in range(5000):
        assert stepper.step() is None
        lowered += lsoda.iwork[14] < lsoda.iwork[13]
        ref = stepper.dense_output()
        sol = _nordsieck_interpolant(lsoda.rwork, lsoda.iwork, 3, stepper.t)
        for t in (stepper.t_old, 0.5 * (stepper.t_old + stepper.t), stepper.t):
            assert np.array_equal(_bits(sol(t)), _bits(ref(t)))
    assert lowered > 0


def _trajectory_bits(traj):
    return traj.stats, _bits(traj.ts).tolist(), _bits(traj.states).tolist()


def _integrate_bits(opts):
    return _trajectory_bits(integrate(FlowState(0.3, 0.31, 0.29, 0.0), 20.0,
                                      CASE2, opts))


def _section_bits(opts):
    events = section_returns(section_state(1e-3, CASE2), 2, CASE2, opts,
                             sections="all")
    assert len(events) == 2
    return events.stats, [(ev.section, _bits([ev.t_raw, *ev.state]).tolist())
                          for ev in events]


@pytest.mark.parametrize("run", [_section_bits, _integrate_bits],
                         ids=["section_returns", "integrate"])
def test_section_driver_raises_a_tiny_rel_tol_as_lsoda_does(monkeypatch, run):
    """A ``rel_tol`` below 100 eps warns and runs at 100 eps, as scipy's
    ``LSODA`` does, from either entry point: the counters and the crossings
    or step ends equal the oracle's bit for bit."""
    import mayleonard.flow as flow

    opts = NumericsConfig(rel_tol=1e-16, abs_tol=1e-12)
    with pytest.warns(UserWarning, match="rel_tol=1e-16 is below"):
        got = run(opts)
    monkeypatch.setattr(flow, "_run_stepper",
                        lambda *args: stepper_oracle(LSODA, *args))
    with pytest.warns(UserWarning, match="rtol"):
        assert run(opts) == got


@pytest.mark.parametrize("params", [CASE1, CASE2, replace(CASE2, gamma=0.0)],
                         ids=["case1", "case2", "unforced"])
def test_integrate_matches_lsoda_oracle_bitwise(monkeypatch, params):
    """``integrate`` and scipy's ``LSODA`` stepped by the oracle loop store
    the same step ends bit for bit, with the same counters, forward over
    t = 0 -> 300 and backward from the state at t = 10 to t = 0 (further
    back, the flow leaves the octant or blows up)."""
    import mayleonard.flow as flow

    start = FlowState(0.3, 0.31, 0.29, 0.0)
    runs = [(start, 300.0),
            (FlowState(*integrate(start, 10.0, params).states[-1], 10.0), 0.0)]
    got = [_trajectory_bits(integrate(s, t_end, params)) for s, t_end in runs]
    oracle_runs = []
    monkeypatch.setattr(flow, "_run_stepper", _recording(
        lambda *args: stepper_oracle(LSODA, *args), oracle_runs))
    assert [_trajectory_bits(integrate(s, t_end, params)) for s, t_end in runs] == got
    assert len(oracle_runs) == len(runs)


@pytest.mark.parametrize("params", [CASE1, CASE2, replace(CASE2, gamma=0.0)],
                         ids=["case1", "case2", "unforced"])
def test_integrate_matches_rk45_oracle(monkeypatch, params):
    """The LSODA end state at t = 500 agrees with RK45 stepped by the
    oracle loop to 1e-5 in every coordinate (measured worst 1.9e-6 on
    case 1, 7e-9 on case 2)."""
    import mayleonard.flow as flow

    start = FlowState(0.3, 0.31, 0.29, 0.0)
    traj = integrate(start, 500.0, params)
    oracle_runs = []
    monkeypatch.setattr(flow, "_run_stepper", _recording(
        lambda *args: stepper_oracle(RK45, *args), oracle_runs))
    oracle = integrate(start, 500.0, params)
    assert len(oracle_runs) == 1
    assert traj.ts[-1] == oracle.ts[-1] == 500.0
    assert np.max(np.abs(traj.states[-1] - oracle.states[-1])) < 1e-5


@pytest.mark.parametrize("params, n", [(CASE1, 30), (CASE2, 10),
                                       (replace(CASE2, gamma=0.0), 6)])
def test_section_driver_same_on_float_field_and_oracle(monkeypatch, params, n):
    """LSODA driven by the float field and by the numpy-scalar oracle takes
    the same steps and finds the same crossings, bit for bit."""
    import mayleonard.flow as flow

    reports = []
    monkeypatch.setattr(flow, "_run_stepper", _recording(flow._run_stepper, reports))
    start = section_state(1e-3, params)
    section_returns(start, n, params, sections="all")
    monkeypatch.setattr(flow, "_field", lambda p, in_logs: (
        lambda t, q: rhs_oracle(t, q, p, in_logs)))
    section_returns(start, n, params, sections="all")
    (_, run), (_, ref) = reports
    assert len(run[1]) == n
    _assert_same_run(run, ref)


def test_section_driver_stops_when_time_stalls():
    """LSODA goes on accepting steps once ``t + h == t``; the driver
    reports that as step-size underflow instead of looping forever."""
    from mayleonard.flow import _run_stepper

    rng = np.random.default_rng(0)
    budget = iter(range(100_000))

    def noisy(t, y):
        next(budget)                      # StopIteration, not a hang
        return np.array([rng.normal() * 1e30 if t > 1.0 else -y[0]])

    with pytest.raises(NumericsError, match="step-size underflow"):
        _run_stepper(noisy, 0.0, [1.0], 10.0, NumericsConfig(max_step=0.5),
                     -math.inf, [("a", 0)], 1e-9, 1, lambda name, y: True, None)


def _nan_after(t_bad):
    """``flow._field`` with a field that returns NaN in its first
    coordinate after ``t_bad``."""
    from mayleonard.flow import _field

    def field(params, in_logs):
        fun = _field(params, in_logs)
        return lambda t, q: [math.nan, 0.0, 0.0] if t > t_bad else fun(t, q)

    return field


@pytest.mark.parametrize("gamma", [0.01, 0.0], ids=["population", "log"])
def test_step_loop_stops_on_a_non_finite_state(monkeypatch, gamma):
    """A step end with a NaN coordinate stops the run there, in either
    chart, with the time and the state: it is never a crossing, so a
    section run would otherwise integrate on to its time budget, and
    ``integrate`` would return NaN samples."""
    import mayleonard.flow as flow

    p = replace(CASE2, gamma=gamma)
    monkeypatch.setattr(flow, "_field", _nan_after(1.0))
    runs = [lambda: section_returns(section_state(1e-3, p), 2, p, sections="all")]
    if gamma:
        runs.append(lambda: integrate(FlowState(0.3, 0.31, 0.29), 10.0, p))
    for run in runs:
        with pytest.raises(NumericsError, match=r"state \[nan, .* is not finite") as info:
            run()
        assert 1.0 < float(str(info.value).split("t=")[1].split()[0]) < 10.0


def test_step_loop_reports_a_non_finite_state_before_a_stall():
    """A field that is infinite from the start leaves LSODA at a NaN state
    without advancing t; the error names the state, not a step-size
    underflow."""
    from mayleonard.flow import _run_stepper

    with pytest.raises(NumericsError, match=r"state \[nan\] at t=0.0 is not finite"):
        _run_stepper(lambda t, y: [math.inf], 0.0, [1.0], 10.0, NumericsConfig(),
                     -math.inf, (), 0.0, 1, None, None)


def test_forced_section_run_stops_where_it_leaves_the_octant():
    """On case 2 at gamma = 1e-4, z falls below -abs_tol at t = 10569.3,
    after 50,651 steps of an ``o3`` run from x0 = 1e-3: the run stops
    there and names that time and the coordinate, not its start."""
    p = replace(CASE2, gamma=1e-4)
    with pytest.raises(NumericsError, match="coordinate fell to -1.0") as info:
        section_returns(section_state(1e-3, p), 40, p)
    msg = str(info.value)
    assert "beyond -abs_tol=-1e-12" in msg and "invariant plane" not in msg
    assert float(msg.split("t=")[1].split(",")[0]) == pytest.approx(10569.3, abs=0.1)
    # ``integrate`` with the section run's end time and step cap takes the
    # same steps and stops at the same step end, not after its run
    with pytest.raises(NumericsError, match="coordinate fell to") as info:
        integrate(section_state(1e-3, p), 1e7, p, NumericsConfig(max_step=50.0))
    assert str(info.value) == msg


@pytest.mark.parametrize("run", [
    lambda p: section_returns(section_state(1e-3, p), 3, p, sections="all"),
    lambda p: integrate(FlowState(0.3, 0.31, 0.29), 50.0, p),
], ids=["section_returns", "integrate"])
@pytest.mark.parametrize("gamma", [0.01, 0.0], ids=["forced", "unforced"])
def test_step_loop_calls_the_field_only_for_lsoda(monkeypatch, run, gamma):
    """The field is called exactly LSODA's ``nfev`` times: the step loop reads
    the step ends and the faces without a call of its own, in either chart."""
    import mayleonard.flow as flow

    calls = []

    def counting(params, in_logs):
        fun = _field(params, in_logs)

        def field(t, q):
            calls.append(t)
            return fun(t, q)

        return field

    monkeypatch.setattr(flow, "_field", counting)
    nfev = run(replace(CASE2, gamma=gamma)).stats["nfev"]
    assert len(calls) == nfev > 0


def test_face_comparison_is_the_sign_change_of_the_event():
    """A face is crossed when ``y_new <= level < y_prev``: on every pair of
    edge values (the level itself, one subnormal or one ulp either side,
    signed zeros, the largest floats, +-inf and NaN) this is the event rule
    ``g_prev > 0.0 >= g_new`` with ``g = y - level``, since a difference of
    two distinct finite floats is never 0 under gradual underflow."""
    tiny, big = 5e-324, np.finfo(float).max
    for level in (0.1, math.log(0.1), 0.0, -0.0, tiny, -tiny, 2.2250738585072014e-308,
                  1.0, -big, big):
        values = [level, -level, 0.0, -0.0, tiny, -tiny, big, -big,
                  math.inf, -math.inf, math.nan]
        values += [level + d for d in (tiny, -tiny, 2 * tiny)]
        values += [math.nextafter(level, d) for d in (math.inf, -math.inf)]
        for y_prev in values:
            for y_new in values:
                face = y_new <= level < y_prev
                with np.errstate(over="ignore", invalid="ignore"):
                    event = (y_prev - level) > 0.0 >= (y_new - level)
                assert face == event, (level, y_prev, y_new)


@pytest.mark.parametrize("gamma, t_stall", [(0.01, -4.02), (0.0, -3.93)])
def test_backward_blow_up_reports_its_state(gamma, t_stall):
    """Backward from (0.3, 0.31, 0.29) on case 2 the solution blows up near
    t = -4; the underflow error shows that state (every coordinate above
    1e13 at the last step end) instead of guessing at stiffness."""
    p = replace(CASE2, gamma=gamma)
    with pytest.raises(NumericsError, match="step-size underflow") as info:
        integrate(FlowState(0.3, 0.31, 0.29), -10.0, p)
    msg = str(info.value)
    assert "stiffness" not in msg
    t = float(msg.split("t=")[1].split(":")[0])
    state = [float(v) for v in msg.split("state [")[1].split("]")[0].split(",")]
    assert t == pytest.approx(t_stall, abs=0.01)
    assert len(state) == 3 and min(state) > 1e12


def _rows(events):
    return [(ev.section, ev.t_raw, ev.s, ev.x, ev.log_x) for ev in events]


def test_section_returns_caps_unbounded_step():
    """Every ``max_step`` above 50 runs the section returns at the cap of 50.

    Without the cap, LSODA in the log chart (``gamma = 0``), where a dwell
    is exactly linear, grows its steps past whole transits and overflows
    or misses crossings.
    """
    for p in (CASE2, replace(CASE2, gamma=0.0)):
        start = section_state(1e-3, p)
        capped = _rows(section_returns(start, 6, p, NumericsConfig(max_step=50.0),
                                       sections="all"))
        for max_step in (math.inf, 1e3, 1e6):
            events = section_returns(start, 6, p, NumericsConfig(max_step=max_step),
                                     sections="all")
            assert _rows(events) == capped


@pytest.mark.parametrize("params, n", [(CASE1, 40), (CASE2, 10),
                                       (replace(CASE2, gamma=0.0), 6)])
def test_section_returns_match_rk45_oracle(monkeypatch, params, n):
    """LSODA section events agree with RK45 stepped by the oracle loop:
    relative 1e-6 in ``t_raw`` and 1e-5 in ``log_x`` (measured worst 6e-8
    and 3e-7, forced case 2)."""
    import mayleonard.flow as flow

    start = section_state(1e-3, params)
    events = section_returns(start, n, params, sections="all")
    monkeypatch.setattr(flow, "_run_stepper",
                        lambda *args: stepper_oracle(RK45, *args))
    oracle = section_returns(start, n, params, sections="all")
    assert [ev.section for ev in events] == [ev.section for ev in oracle]
    for ev, ref in zip(events, oracle):
        assert ev.t_raw == pytest.approx(ref.t_raw, rel=1e-6)
        assert ev.log_x == pytest.approx(ref.log_x, rel=1e-5)


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
    opts = NumericsConfig(rel_tol=1e-9, abs_tol=1e-14, max_step=1.0)
    events = section_returns(section_state(0.02, p), 40, p, opts, sections="o3")
    xs = np.array([ev.x for ev in events[-15:]])
    assert xs.min() > 0.0
    assert np.ptp(xs) < 0.2 * p.eps_tilde
    # crossing times are strictly increasing
    ts = [ev.t_raw for ev in events]
    assert all(t2 > t1 for t1, t2 in zip(ts, ts[1:]))


def test_dwell_time_matches_measured():
    """Measured cube transit agrees with the leading estimate within 15%
    while the forcing is weak, and misses it at gamma = 1e-2.

    The leading-order time of flight through a saddle neighbourhood is
    ``(1/e) ln(1/(gamma x_u0))``, with ``x_u0`` the entry of the expanding
    coordinate in cube units divided by ``gamma``; it drops the order-gamma
    drift corrections of the local normal form.  It holds while the
    forcing-pumped mass gamma/(2e) stays well below the cube size; at
    gamma = 1e-2 that mass is a quarter of a 0.1-cube, and the estimate is
    off by more than half (the measured error is about 66%).
    """
    c, e = 0.6, 0.2
    cube = 0.1
    x0 = 0.1 * cube                       # enter 10% into the cube
    for gam, agrees in ((1e-4, True), (3e-4, True), (1e-3, True), (1e-2, False)):
        p = ModelParams(c=c, e=e, gamma=gam, omega=0.3, eps_tilde=cube)
        x_u0 = (x0 / cube) / gam
        est = math.log(1.0 / (gam * x_u0)) / e

        def hit_exit(t, q):
            return q[0] - cube
        hit_exit.terminal = True
        hit_exit.direction = 1.0
        sol = solve_ivp(_field(p, False), (0.0, 500.0),
                        [x0, cube, 1.0 - x0 - cube], rtol=1e-10, atol=1e-14,
                        events=hit_exit, max_step=1.0)
        assert sol.t_events[0].size == 1
        measured = sol.t_events[0][0]
        assert (abs(measured - est) / measured < 0.15) == agrees, gam

