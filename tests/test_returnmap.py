import math
from dataclasses import replace
from itertools import count

import numpy as np
import pytest
from scipy.integrate import quad

from mayleonard import (
    ModelParams,
    NumericsError,
    ValidationError,
    compile_map,
    derive_constants,
    eta_omega,
    kernels,
)
from mayleonard.returnmap import VARIANTS, reduce_mod
from mayleonard.singular import gamma_sequence, make_circle_map

from conftest import finite_difference_jacobian, orbit_oracle, quad_checked, random_admissible


def l2_quadrature(x, s, params):
    """Independent oracle: direct adaptive quadrature of the defining integral."""
    e, om = params.e, params.omega
    t1 = s - math.log(x) / e
    val, _ = quad(lambda tau: math.exp(-e * (tau - s)) * math.sin(om * tau) ** 2,
                  s, t1, epsabs=1e-13, epsrel=1e-12, limit=500)
    return val


def l1_g1_g2_quadrature(x, s, params, kv):
    """Independent oracle for L1, G1 and G2: adaptive quadrature of their
    defining integrals, at the arrival times ``kv.T2`` and ``kv.T3``."""
    dc = derive_constants(params)
    c, e, om = params.c, params.e, params.omega
    t3_0 = s + params.Delta1 + params.Delta2 - dc.xi * math.log(x)
    # the weight is below exp(-40) further than 40/c below the upper limit;
    # quadrature over the whole of a long interval misses the narrow end
    lo = max(kv.T2 + params.Delta3, t3_0 - 40.0 / c)
    l1 = quad_checked(lambda tau: math.exp(c * (tau - t3_0)) * math.sin(om * tau) ** 2,
                      lo, t3_0) if lo < t3_0 else 0.0
    period = math.pi / om
    g1 = quad_checked(
        lambda tau: math.exp(c * (tau - period)) * math.sin(om * (kv.T3 + tau)) ** 2,
        0.0, period) / (1.0 - math.exp(-c * period))
    g2 = quad_checked(
        lambda tau: math.exp(-e * tau) * math.sin(om * (kv.T3 + params.Delta3 + tau)) ** 2,
        0.0, period) / (math.exp(-e * period) - 1.0)
    return l1, g1, g2


def _image(fmap, x, s):
    """One step of a compiled map, phase reduced."""
    xs, ss, _ = fmap.orbit(x, s, 1)
    return float(xs[0]), float(ss[0])


def _tangent_matrix(fmap, x, s):
    """Tangent of a compiled map: (matrix, det from the entries, closed-form det)."""
    d11, d12, d21, d22, det_cf = fmap.tangent(x, s)
    return np.array([[d11, d12], [d21, d22]]), d11 * d22 - d12 * d21, det_cf


def test_eta_omega_limits_and_range():
    lo = ModelParams(c=0.6, e=0.2, omega=1e-6)
    hi = ModelParams(c=0.6, e=0.2, omega=1e5)
    assert eta_omega(0.7, lo) == pytest.approx(1.0, abs=1e-10)
    assert eta_omega(0.7, hi) == pytest.approx(0.5, abs=1e-9)
    p = ModelParams(c=0.6, e=0.2, omega=0.3)
    s0 = math.pi / (2 * 0.3)          # cos(omega s) = 0
    assert eta_omega(s0, p) == pytest.approx(2 * 0.3**2 / (0.2**2 + 4 * 0.3**2),
                                             rel=1e-12)
    grid = np.linspace(0, 20, 500)
    vals = [eta_omega(s, p) for s in grid]
    lo_b = 2 * 0.3**2 / (0.2**2 + 4 * 0.3**2)
    hi_b = (0.2**2 + 2 * 0.3**2) / (0.2**2 + 4 * 0.3**2)
    assert min(vals) >= lo_b - 1e-12 and max(vals) <= hi_b + 1e-12


def test_l2_closed_form_vs_quadrature(rng):
    """Closed-form kernels L2, L1, G1 and G2 match quadrature to 1e-9."""
    for c, e, om in random_admissible(rng, 10):
        params = ModelParams(c=c, e=e, omega=om, gamma=1e-3)
        for _ in range(100):
            x = rng.uniform(1e-6, 1.0)
            s = rng.uniform(0.0, 2.0 * math.pi / om)
            kv = kernels(x, s, params)
            assert abs(kv.L2 - l2_quadrature(x, s, params)) <= 1e-9
            l1, g1, g2 = l1_g1_g2_quadrature(x, s, params, kv)
            assert abs(kv.L1 - l1) <= 1e-9
            assert abs(kv.G1 - g1) <= 1e-9
            assert abs(kv.G2 - g2) <= 1e-9


def test_l2_small_frequency_limit():
    """At s=0 and omega -> 0 the kernel vanishes with the forcing average."""
    params = ModelParams(c=0.6, e=0.2, omega=1e-4, gamma=0.0)
    kv = kernels(0.5, 0.0, params)
    assert abs(kv.L2) < 1e-2


def test_arrival_times_gamma_zero():
    """T3 reduces to s + Delta1 + Delta2 - xi log x without forcing."""
    params = ModelParams(c=0.6, e=0.2, gamma=0.0, omega=0.3)
    dc = derive_constants(params)
    x, s = 1e-4, 0.7
    kv = kernels(x, s, params)
    assert kv.T3 == pytest.approx(s + 2.0 - dc.xi * math.log(x), rel=1e-14)
    assert kv.T1 < kv.T2 < kv.T3


def test_full_map_unforced_form():
    """Without forcing: (x^delta, s + mu3 - xi log x), and the double iterate
    obeys log x2 = delta^2 log x0."""
    params = ModelParams(c=0.6, e=0.2, gamma=0.0, omega=0.3)
    dc = derive_constants(params)
    (x1, x2), (s1, _), _ = compile_map("full", params).orbit(1e-2, 0.3, 2)
    assert x1 == pytest.approx(1e-2**3, rel=1e-14)
    expected_s = reduce_mod(0.3 + 1.0 - dc.xi * math.log(1e-2), math.pi / 0.3)
    assert s1 == pytest.approx(expected_s, abs=1e-10)
    assert math.log(x2) == pytest.approx(dc.delta**2 * math.log(1e-2), rel=1e-12)


def test_full_map_term_by_term_oracle():
    """Forced map agrees with an independent term-by-term re-evaluation."""
    params = ModelParams(c=0.6, e=0.2, gamma=1e-3, omega=0.3)
    dc = derive_constants(params)
    x, s = 0.02, 0.9
    out_x, out_s = _image(compile_map("full", params), x, s)

    om, gam = 0.3, 1e-3
    eta = (0.2**2 * math.cos(om * s) ** 2 + 2 * om**2) / (0.2**2 + 4 * om**2)
    f2 = s + params.mu3 - dc.xi * math.log(x) - (gam * dc.xi / (0.2 * x)) * (
        eta - dc.a2 * math.cos(2 * om * s) + dc.b2 * math.sin(2 * om * s))
    phi = s + params.mu3 - dc.xi * math.log(x)

    def osc(u, aj, bj):
        return -aj * math.cos(2 * om * u) - bj * math.sin(2 * om * u)

    f1 = params.mu * x**dc.delta + gam * (
        params.mu1 + params.mu2 * osc(phi, dc.a1, dc.b1)
        - params.mu4 * osc(f2 - params.Delta3, dc.a1, dc.b1)
        - params.mu5 * osc(f2, dc.a2, dc.b2))
    assert out_x == pytest.approx(f1, rel=1e-12)
    assert out_s == pytest.approx(reduce_mod(f2, math.pi / om), abs=1e-9)


def test_case12_gamma_zero_and_extrema():
    params = ModelParams(c=0.6, e=0.2, gamma=0.0, omega=0.3)
    dc = derive_constants(params)
    out_x, out_s = _image(compile_map("case12", params), 0.3, 0.25)
    assert out_x == pytest.approx(0.3**3, rel=1e-14)
    expected = reduce_mod(0.25 + 1.0 * 0.3 / math.pi
                          - dc.xi * 0.3 / math.pi * math.log(0.3**3), 1.0)
    assert out_s == pytest.approx(expected, abs=1e-12)

    forced = compile_map("case12", replace(params, gamma=1e-3))
    # s = 0 realises the minimum of the forcing profile
    lo_x, _ = _image(forced, 0.3, 0.0)
    hi_x, _ = _image(forced, 0.3, 0.5)
    assert lo_x == pytest.approx(0.3**3 + 1e-3 * (1 - dc.sqrt_a1), rel=1e-12)
    assert hi_x == pytest.approx(0.3**3 + 1e-3 * (1 + dc.sqrt_a1), rel=1e-12)
    # cosine symmetry: s and 1-s give the same leading coordinate
    a_x, _ = _image(forced, 0.3, 0.2)
    b_x, _ = _image(forced, 0.3, 0.8)
    assert a_x == pytest.approx(b_x, rel=1e-14)


def test_case12_positivity_and_mod1(rng):
    fmap = compile_map("case12", ModelParams(c=0.6, e=0.2, gamma=1e-4, omega=0.3))
    for _ in range(200):
        x, s = rng.uniform(1e-8, 1.0), rng.uniform(-3, 3)
        out_x, out_s = _image(fmap, x, s)
        assert out_x > 0.0
        shifted_x, shifted_s = _image(fmap, x, s + 1.0)
        assert shifted_x == pytest.approx(out_x, rel=1e-14)
        assert shifted_s == pytest.approx(out_s, abs=1e-12)


def test_case34_structure():
    params = ModelParams(c=0.6, e=0.2, gamma=1e-3, omega=6.0)
    dc = derive_constants(params)
    fmap = compile_map("case34", params)
    out_x, out_s = _image(fmap, 0.123, 0.25)
    assert out_x == 1e-3 * params.mu1
    # input x is ignored by construction
    _, out2_s = _image(fmap, 0.9, 0.25)
    assert out2_s == out_s
    # two amplitudes differ only by the constant rotation -(xi w/pi) log ratio
    fmap2 = compile_map("case34", replace(params, gamma=2e-3))
    d = []
    for s in (0.1, 0.4, 0.77):
        _, s1 = _image(fmap, 0.1, s)
        _, s2 = _image(fmap2, 0.1, s)
        d.append(reduce_mod(s2 - s1, 1.0))
    expected = reduce_mod(-dc.xi * 6.0 / math.pi * math.log(2.0), 1.0)
    for val in d:
        assert val == pytest.approx(expected, abs=1e-10)
    with pytest.raises(ValidationError):
        compile_map("case34", replace(params, gamma=0.0))
    with pytest.raises(ValidationError):
        compile_map("case34", replace(params, mu1=0.0))


def test_rescaling_exponent_identity(rng):
    """gamma^(-1/delta) F1(gamma^(1/delta) x, s) = gamma^p (x^delta + 1 - sqrt(a1) cos)."""
    params = ModelParams(c=0.6, e=0.2, omega=0.3, mu1=1.0)
    dc = derive_constants(params)
    for _ in range(10):
        x = rng.uniform(0.0, 1.0)
        s = rng.uniform(0.0, 1.0)
        gam = rng.uniform(1e-6, 0.05)
        p_g = replace(params, gamma=gam)
        lhs = gam ** (-1.0 / dc.delta) * _image(
            compile_map("case12", p_g), max(gam ** (1.0 / dc.delta) * x, 1e-300), s)[0]
        rhs = gam**dc.p * (x**dc.delta + 1.0
                           - dc.sqrt_a1 * math.cos(2 * math.pi * s))
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_rescaled_conjugacy_with_case12(rng):
    """x-components conjugate exactly; phase components differ by the
    documented constant (xi omega / (delta pi)) log gamma."""
    params = ModelParams(c=0.6, e=0.2, omega=0.3, mu1=1.0)
    dc = derive_constants(params)
    n, a = 14, 0.3
    gam = gamma_sequence(n, a, dc)
    rescaled = compile_map("rescaled", replace(params, gamma=gam))
    case12 = compile_map("case12", replace(params, gamma=gam))
    const = reduce_mod(dc.xi * 0.3 / (dc.delta * math.pi) * math.log(gam), 1.0)
    for _ in range(100):
        x_new = rng.uniform(0.0, 1.0)
        s = rng.uniform(0.0, 1.0)
        x_old = gam ** (1.0 / dc.delta) * x_new
        resc_x, resc_s = _image(rescaled, x_new, s)
        down_x, down_s = _image(case12, max(x_old, 1e-300), s)
        assert gam ** (-1.0 / dc.delta) * down_x == pytest.approx(resc_x, rel=1e-10)
        gap = reduce_mod(resc_s - down_s, 1.0)
        assert min(abs(gap - const), abs(gap - const - 1.0),
                   abs(gap - const + 1.0)) <= 1e-10


def test_rescaled_boundary_is_circle_map():
    """At x = 0 the phase component equals the singular-limit circle map."""
    params = ModelParams(c=0.6, e=0.2, omega=0.3)
    dc = derive_constants(params)
    n, a = 14, 0.3
    cmap = make_circle_map(a, params)
    gam = gamma_sequence(n, a, dc)
    rescaled = compile_map("rescaled", replace(params, gamma=gam))
    for s in (0.0, 0.21, 0.5, 0.93):
        assert _image(rescaled, 0.0, s)[1] == pytest.approx(float(cmap.value(s)), abs=1e-10)
    out_x, _ = _image(rescaled, 0.0, 0.5)
    assert out_x == pytest.approx(gam**dc.p * (1.0 + dc.sqrt_a1), rel=1e-12)


def test_rescaled_needs_an_amplitude_in_the_unit_interval():
    """The rescaled variant reads its amplitude from the parameters, as every
    variant does; one outside (0, 1), the default 0 included, is a
    validation error.  No variant takes the amplitude as a keyword."""
    params = ModelParams(c=0.6, e=0.2, omega=0.3)
    for gamma in (0.0, 1.0, 2.0):
        with pytest.raises(ValidationError, match="gamma in \\(0, 1\\)"):
            compile_map("rescaled", replace(params, gamma=gamma))
    gp = compile_map("rescaled", replace(params, gamma=0.5)).gp
    assert gp == 0.5 ** derive_constants(params).p
    for variant in VARIANTS:
        with pytest.raises(TypeError):
            compile_map(variant, replace(params, gamma=1e-3), gamma=1e-3)


def test_jacobian_determinant_closed_form(rng):
    """det DF = gamma^p delta x^(delta-1), s-independent, matching differences."""
    params = ModelParams(c=0.6, e=0.2, omega=0.3)
    dc = derive_constants(params)
    gam = 0.01
    gp = gam**dc.p
    fmap = compile_map("rescaled", replace(params, gamma=gam))
    J, det, det_cf = _tangent_matrix(fmap, 0.5, 0.37)
    assert det_cf == pytest.approx(gp * 3.0 * 0.25, rel=1e-12)
    assert det == pytest.approx(det_cf, rel=1e-10)
    assert abs(det_cf - 0.03481) < 5e-6
    # independent of the phase
    for s in (0.0, 0.2, 0.9):
        _, det_s, _ = _tangent_matrix(fmap, 0.5, s)
        assert det_s == pytest.approx(det, rel=1e-10)
    for _ in range(50):
        x, s = rng.uniform(0.05, 1.0), rng.uniform(0.0, 1.0)
        J, det, det_cf = _tangent_matrix(fmap, x, s)
        fd = finite_difference_jacobian(fmap, x, s)
        fd_det = fd[0, 0] * fd[1, 1] - fd[0, 1] * fd[1, 0]
        assert abs(det - fd_det) <= 1e-5 * abs(det)
        assert np.allclose(J, fd, rtol=1e-5, atol=1e-8)


@pytest.mark.parametrize("variant", VARIANTS)
def test_tangent_on_arrays_is_the_scalar_tangent(rng, variant):
    """One array call equals the scalar calls element by element; an array
    with any point off the section is rejected (the case-34 tangent ignores
    ``x``)."""
    params = ModelParams(c=0.6, e=0.2, gamma=1e-3,
                         omega=6.0 if variant == "case34" else 0.3)
    fmap = compile_map(variant, params)
    xs, ss = rng.uniform(0.01, 1.0, 64), rng.uniform(0.0, fmap.modulus, 64)
    got = fmap.tangent(xs, ss)
    want = [fmap.tangent(x, s) for x, s in zip(xs.tolist(), ss.tolist())]
    for j, entry in enumerate(got):
        if entry is None:
            assert variant == "full" and j == 4
            assert all(w[j] is None for w in want)
        else:
            assert np.array_equal(entry, [w[j] for w in want])
    if variant != "case34":
        for bad in (0.0, -1e-3):
            with pytest.raises(ValidationError, match="x > 0"):
                fmap.tangent(np.where(np.arange(64) == 17, bad, xs), ss)


ORBIT_PARAMS = ModelParams(c=0.6, e=0.2, gamma=1e-2, omega=0.3)


def orbit_map(variant, **changes):
    """The variant on ``ORBIT_PARAMS``; the rescaled one at gamma = 1e-3."""
    if variant == "rescaled":
        changes = {"gamma": 1e-3, **changes}
    return compile_map(variant, replace(ORBIT_PARAMS, **changes))


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("steps", [0, 1, 5000])
@pytest.mark.parametrize("x0, s0", [(1e-3, 0.3), (0.02, 0.77), (0.5, 0.05)])
def test_orbit_is_the_stepped_lift(variant, steps, x0, s0):
    """The array orbit is the generator over ``lift`` and ``reduce_mod`` to
    the bit: images, reduced phases, and the lift summed in step order."""
    fmap = orbit_map(variant)
    xs, ss, y = fmap.orbit(x0, s0, steps)
    want = list(orbit_oracle(fmap, x0, s0, steps))
    assert xs.dtype == ss.dtype == np.float64
    assert np.array_equal(xs, [w[0] for w in want])
    assert np.array_equal(ss, [w[1] for w in want])
    want_y = s0
    for _, _, advance in want:
        want_y += advance
    assert y == want_y


@pytest.mark.parametrize("variant", ["full", "case34", "rescaled"])
def test_orbit_names_the_escape_step(variant):
    """The shared loop names the step whose image left the section; a bad
    size is a validation error."""
    fmap = orbit_map(variant)
    lift, calls = fmap.lift, count()
    fmap.lift = lambda x, s: (-x, s) if next(calls) == 7 else lift(x, s)
    with pytest.raises(NumericsError, match=r"orbit escaped \(x <= 0\) at step 7$"):
        fmap.orbit(0.02, 0.3, 100)
    with pytest.raises(ValidationError, match="steps >= 0, got -3"):
        fmap.orbit(0.02, 0.3, -3)


def test_case12_orbit_names_the_escape_step():
    """The fused case-12 loop never calls ``lift``: a negative forcing
    coefficient makes a real escape, at the step where stepping ``lift``
    fails, and a bad size is a validation error."""
    fmap = orbit_map("case12", mu1=-0.5)
    taken = []
    with pytest.raises(NumericsError):
        taken.extend(orbit_oracle(fmap, 1.0, 0.3, 100))
    assert len(taken) == 6
    with pytest.raises(NumericsError, match=r"orbit escaped \(x <= 0\) at step 6$"):
        fmap.orbit(1.0, 0.3, 100)
    with pytest.raises(ValidationError, match="steps >= 0, got -1"):
        fmap.orbit(1.0, 0.3, -1)


def test_jacobian_case34_degenerate():
    params = ModelParams(c=0.6, e=0.2, gamma=1e-3, omega=6.0)
    _, det, det_cf = _tangent_matrix(compile_map("case34", params), 0.1, 0.3)
    assert det == 0.0 and det_cf == 0.0


@pytest.mark.parametrize("variant", ["full", "case12"])
def test_jacobian_vs_differences(rng, variant):
    """Analytic Jacobian vs central differences; the low-frequency family
    also has the closed-form determinant delta x^(delta-1)."""
    params = ModelParams(c=0.6, e=0.2, gamma=1e-3, omega=0.3)
    dc = derive_constants(params)
    fmap = compile_map(variant, params)
    for _ in range(20):
        x, s = rng.uniform(0.02, 0.1), rng.uniform(0.0, 10.0)
        J, det, det_cf = _tangent_matrix(fmap, x, s)
        fd = finite_difference_jacobian(fmap, x, s)
        assert np.allclose(J, fd, rtol=2e-5, atol=1e-9)
        if variant == "full":
            assert det_cf is None
        else:
            assert det_cf == pytest.approx(dc.delta * x ** (dc.delta - 1.0), rel=1e-12)
            assert det == pytest.approx(det_cf, rel=1e-9)
            fd_det = fd[0, 0] * fd[1, 1] - fd[0, 1] * fd[1, 0]
            assert abs(fd_det - det_cf) <= 1e-5 * det_cf


def test_distortion_bound_on_band(rng):
    """Determinant ratios over a band are bounded by (x_hi/x_lo)^(delta-1)."""
    params = ModelParams(c=0.6, e=0.2, omega=0.3)
    gam = 0.01
    x_lo, x_hi = 0.2, 0.8
    bound = (x_hi / x_lo) ** 2.0
    fmap = compile_map("rescaled", replace(params, gamma=gam))
    dets = []
    for _ in range(100):
        x, s = rng.uniform(x_lo, x_hi), rng.uniform(0.0, 1.0)
        dets.append(_tangent_matrix(fmap, x, s)[1])
    assert max(dets) / min(dets) <= bound * (1.0 + 1e-9)


def test_degeneration_chain_leading_component(rng):
    """Overriding the oscillation constants with their low-frequency limits
    (a1, a2 -> 1, b1, b2 -> 0) and matching the coefficient configuration
    (mu2 = mu1, mu4 = mu5 = 0), the full map's leading component with
    entry-time phases equals the reduced family after the phase rescaling
    s -> omega s / pi; with the composed phases the residual is first order
    in gamma * omega and its fitted constant is merely reported."""
    base = ModelParams(c=0.6, e=0.2, omega=1e-3, mu2=1.0, mu4=0.0, mu5=0.0)
    dc = derive_constants(base)
    om = base.omega
    fitted = 0.0
    for gam in (1e-6, 1e-5, 1e-4, 1e-3):
        params = replace(base, gamma=gam)
        for _ in range(25):
            x = rng.uniform(0.05, 1.0)
            s = rng.uniform(0.0, math.pi / om)
            # full map's leading component, constants overridden to the
            # low-frequency limits, oscillation phase at the entry time
            f1_entry = x**dc.delta + gam * (params.mu1 - params.mu2 * math.cos(2 * om * s))
            # same but with the composed arrival phase
            phi = s + params.mu3 - dc.xi * math.log(x)
            f1_composed = x**dc.delta + gam * (params.mu1
                                               - params.mu2 * math.cos(2 * om * phi))
            # reduced family at the rescaled phase, sqrt(a1) -> 1
            s01 = om * s / math.pi
            red = x**dc.delta + gam * params.mu1 * (1.0 - math.cos(2 * math.pi * s01))
            assert f1_entry == pytest.approx(red, rel=1e-12)
            fitted = max(fitted, abs(f1_composed - red) / gam**2)
    # the composed-phase residual is O(gamma * omega * (mu3 + xi |log x|)),
    # not O(gamma^2); the constant is reported for reference only
    assert math.isfinite(fitted)
