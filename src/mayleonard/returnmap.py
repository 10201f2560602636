"""The analytic first-return family on the cylinder cross-section.

Four variants are provided:

* ``full``    -- the three-passage composition at leading order in the
  forcing amplitude, phase coordinate modulo ``pi/omega``;
* ``case12``  -- the low-frequency reduction (saddle value moderate or
  large), phase modulo 1;
* ``case34``  -- the high-frequency reduction, a pure circle-map family;
* ``rescaled``-- the ``case12`` family after blowing up the leading
  coordinate by ``gamma**(-1/delta)``, the form whose singular limit is a
  circle map.

Second-order terms in the forcing amplitude are dropped exactly where the
derivations drop them; each variant's class docstring names the dropped
order.

:func:`compile_map` is the one evaluator of each variant: it derives the
constants once per parameter point, whose ``gamma`` is the amplitude of
every variant, and callers hold the compiled map for as long as the point
is fixed.  Its ``orbit`` fills float arrays of the images and returns them
with the lift of the last phase; every image is bit-identical to stepping
``lift`` and reducing the phase, and an escape from the section names its
step.  ``case12``, the density scan's map, has its own fused orbit loop;
the other variants share one loop over ``lift``.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import NumericsError, ValidationError
from .params import DerivedConstants, ModelParams, derive_constants

__all__ = [
    "KernelValues",
    "VARIANTS",
    "eta_omega",
    "kernels",
    "compile_map",
    "reduce_mod",
]

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class KernelValues:
    eta: float
    L1: float
    L2: float
    G1: float
    G2: float
    T1: float
    T2: float
    T3: float


def reduce_mod(value: float, modulus: float) -> float:
    """Floor-based reduction to [0, modulus); exact ties map to 0."""
    return value - modulus * math.floor(value / modulus)


def eta_omega(s, params: ModelParams, xp=math):
    """Frequency-dependent mean of the forcing kernel; lies between
    ``2 omega^2/(e^2+4 omega^2)`` and ``(e^2+2 omega^2)/(e^2+4 omega^2)``.

    ``xp`` supplies the cosine: ``math`` for a float, ``numpy`` for arrays.
    """
    e, om = params.e, params.omega
    return (e * e * xp.cos(om * s) ** 2 + 2.0 * om * om) / (e * e + 4.0 * om * om)


def _exp_sin2_integral(k, om, anchor, ph, lo, hi):
    """``int_lo^hi exp(k (tau - anchor)) sin^2(om (tau + ph)) dtau`` in closed form."""
    def antiderivative(tau):
        u = 2.0 * om * (tau + ph)
        return math.exp(k * (tau - anchor)) * (
            0.5 / k - (k * math.cos(u) + 2.0 * om * math.sin(u)) / (2.0 * (k * k + 4.0 * om * om)))
    return antiderivative(hi) - antiderivative(lo)


def kernels(x: float, s: float, params: ModelParams) -> KernelValues:
    """Arrival times and forcing kernels of the three-passage composition.

    All four kernels are exact closed forms of their defining integrals
    with the forcing profile ``sin^2(omega tau)`` (the tests check them
    against adaptive quadrature).  The exponentially weighted integrals are
    evaluated in shifted form (weight anchored at a finite end) so they
    never overflow; this is an algebraic identity, not an approximation.
    """
    if x <= 0.0:
        raise ValidationError(f"kernels need x > 0, got {x}")
    if params.gamma < 0.0:
        raise ValidationError("gamma must be >= 0")
    dc = derive_constants(params)
    c, e, om, gam = params.c, params.e, params.omega, params.gamma
    d1, d2, d3 = params.Delta1, params.Delta2, params.Delta3
    lx = math.log(x)

    t1 = s - lx / e
    t2 = s + d1 - (e + c) / (e * e) * lx
    # contracting passage from the section time s to the first exit time T1
    l2 = _exp_sin2_integral(-e, om, s, 0.0, s, t1)
    t3 = s + d1 + d2 - dc.xi * lx - gam * dc.xi * l2 / x

    # second-passage kernel, weight rewritten as exp(c (tau - T3(0)))
    t3_0 = s + d1 + d2 - dc.xi * lx
    lo = t2 + d3
    l1 = _exp_sin2_integral(c, om, t3_0, 0.0, lo, t3_0) if lo < t3_0 else 0.0

    period = math.pi / om
    # periodic averages seen from the arrival time, weights anchored at the
    # finite end so the prefactors stay bounded
    g1 = (_exp_sin2_integral(c, om, period, t3, 0.0, period)
          / (1.0 - math.exp(-c * period)))
    g2 = (_exp_sin2_integral(-e, om, 0.0, t3 + d3, 0.0, period)
          / (math.exp(-e * period) - 1.0))

    return KernelValues(eta=eta_omega(s, params), L1=l1, L2=l2,
                        G1=g1, G2=g2, T1=t1, T2=t2, T3=t3)


def _zeros(steps):
    """Compact float storage for ``steps`` orbit images; ``steps >= 0``."""
    if steps < 0:
        raise ValidationError(f"orbit needs steps >= 0, got {steps}")
    return array("d", [0.0]) * steps


def _check_section(x, variant):
    if np.any(np.less_equal(x, 0.0)):
        raise ValidationError(f"tangent needs x > 0 for {variant}")


def _osc(u, a, b, om):
    return -a * math.cos(2.0 * om * u) - b * math.sin(2.0 * om * u)


class _CompiledMap:
    """One variant at one parameter point, constants derived once.

    Precomputed products keep the left-to-right order of the expressions
    they replace, so orbits are bit-identical to the formulas in full.
    """

    modulus = 1.0

    def __init__(self, params: ModelParams, dc: DerivedConstants):
        self.params, self.dc = params, dc
        self.delta, self.sqrt_a1 = dc.delta, dc.sqrt_a1
        self.shift = params.mu3 * params.omega / math.pi
        self.slope = dc.xi * params.omega / math.pi

    def orbit(self, x, s, steps):
        """The images of ``steps`` steps from ``(x, s)``: ``(xs, ss, y)``.

        ``xs`` and ``ss`` are float arrays of the leading coordinate and of
        the phase reduced by ``modulus``; ``y`` is the lift of the last
        phase, the start phase plus each unreduced advance ``f2 - s`` in
        step order.  Every image is the one that stepping ``lift`` gives.
        An image with ``x <= 0`` has left the section and raises
        :class:`NumericsError` naming its step.
        """
        lift, modulus = self.lift, self.modulus
        xs, ss = _zeros(steps), _zeros(steps)
        y = s
        for k in range(steps):
            x, f2 = lift(x, s)
            if x <= 0.0:
                raise NumericsError(f"orbit escaped (x <= 0) at step {k}")
            y += f2 - s
            s = reduce_mod(f2, modulus)
            xs[k] = x
            ss[k] = s
        return np.frombuffer(xs), np.frombuffer(ss), y


class _FullMap(_CompiledMap):
    """Leading-order three-passage return map, phase modulo ``pi/omega``.

    Terms of second order in ``gamma`` are dropped; the forcing
    oscillations are evaluated at the composed arrival times.  The tangent
    has no closed-form determinant.
    """

    variant = "full"

    def __init__(self, params, dc):
        super().__init__(params, dc)
        self.modulus = math.pi / params.omega

    def _phases(self, x, s, xp=math):
        """Forcing weight W(s), passage phase phi and phase image f2, with
        the elementary functions of ``xp`` (``math`` or ``numpy``)."""
        p, dc, om = self.params, self.dc, self.params.omega
        w = (eta_omega(s, p, xp) - dc.a2 * xp.cos(2.0 * om * s)
             + dc.b2 * xp.sin(2.0 * om * s))
        phi = s + p.mu3 - dc.xi * xp.log(x)
        return w, phi, phi - p.gamma * dc.xi * w / (p.e * x)

    def lift(self, x, s):
        p, dc, om = self.params, self.dc, self.params.omega
        _, phi, f2 = self._phases(x, s)
        f1 = p.mu * x**dc.delta + p.gamma * (
            p.mu1
            + p.mu2 * _osc(phi, dc.a1, dc.b1, om)
            - p.mu4 * _osc(f2 - p.Delta3, dc.a1, dc.b1, om)
            - p.mu5 * _osc(f2, dc.a2, dc.b2, om)
        )
        return f1, f2

    def tangent(self, x, s):
        _check_section(x, self.variant)
        p, dc = self.params, self.dc
        e, om, gam = p.e, p.omega, p.gamma
        W, phi, f2 = self._phases(x, s, np)
        Wp = om * dc.a2 * np.sin(2.0 * om * s) + 2.0 * om * dc.b2 * np.cos(2.0 * om * s)
        f2x = -dc.xi / x + gam * dc.xi * W / (e * x * x)
        f2s = 1.0 - gam * dc.xi * Wp / (e * x)
        phix = -dc.xi / x

        def oscp(u, aj, bj):
            return 2.0 * om * aj * np.sin(2.0 * om * u) \
                - 2.0 * om * bj * np.cos(2.0 * om * u)

        p2 = oscp(phi, dc.a1, dc.b1)
        p4 = oscp(f2 - p.Delta3, dc.a1, dc.b1)
        p5 = oscp(f2, dc.a2, dc.b2)
        d11 = p.mu * dc.delta * np.power(x, dc.delta - 1.0) + gam * (
            p.mu2 * p2 * phix - p.mu4 * p4 * f2x - p.mu5 * p5 * f2x)
        d12 = gam * (p.mu2 * p2 - p.mu4 * p4 * f2s - p.mu5 * p5 * f2s)
        return d11, d12, f2x, f2s, None


class _Case12Map(_CompiledMap):
    """Low-frequency return map, phase modulo 1.

    The remainder of first order in ``gamma`` in the phase component is
    dropped.  The image coordinate is positive for ``gamma > 0`` since
    ``sqrt(a1) < 1``.  The tangent determinant has the closed form
    ``delta x**(delta-1)``: the phase coupling cancels exactly.
    """

    variant = "case12"

    def __init__(self, params, dc):
        super().__init__(params, dc)
        self.forcing = params.gamma * params.mu1
        self.coupling = 2.0 * math.pi * params.gamma * params.mu1 * dc.sqrt_a1

    def lift(self, x, s):
        f1 = x**self.delta + self.forcing * (1.0 - self.sqrt_a1 * math.cos(_TWO_PI * s))
        if f1 <= 0.0:
            raise NumericsError(f"leading coordinate fell to {f1} <= 0")
        return f1, s + self.shift - self.slope * math.log(f1)

    def orbit(self, x, s, steps):
        # the body of ``lift`` with the constants and ``math`` bound as
        # locals; with modulus 1, ``f2 - floor(f2)`` is ``reduce_mod(f2, 1.0)``
        # to the bit, and the escape check is ``lift``'s ``f1 <= 0`` test
        delta, forcing, sqrt_a1 = self.delta, self.forcing, self.sqrt_a1
        shift, slope, two_pi = self.shift, self.slope, _TWO_PI
        cos, log, floor = math.cos, math.log, math.floor
        xs, ss = _zeros(steps), _zeros(steps)
        y = s
        for k in range(steps):
            x = x**delta + forcing * (1.0 - sqrt_a1 * cos(two_pi * s))
            if x <= 0.0:
                raise NumericsError(f"orbit escaped (x <= 0) at step {k}")
            f2 = s + shift - slope * log(x)
            y += f2 - s
            s = f2 - floor(f2)
            xs[k] = x
            ss[k] = s
        return np.frombuffer(xs), np.frombuffer(ss), y

    def tangent(self, x, s):
        _check_section(x, self.variant)
        two_pi_s = _TWO_PI * s
        B = np.power(x, self.delta) + self.forcing * (1.0 - self.sqrt_a1 * np.cos(two_pi_s))
        d11 = self.delta * np.power(x, self.delta - 1.0)
        d12 = self.coupling * np.sin(two_pi_s)
        return (d11, d12, -self.slope * d11 / B,
                1.0 - self.slope * d12 / B, d11)


class _Case34Map(_CompiledMap):
    """High-frequency return map: constant leading coordinate, circle map in s.

    The input ``x`` is ignored by construction, so the tangent is rank-one
    degenerate with determinant 0 (reported, not raised).  Requires
    ``gamma > 0`` and ``mu1 > 0``: the phase update takes a log of their
    product.
    """

    variant = "case34"

    def __init__(self, params, dc):
        if params.gamma <= 0.0 or params.mu1 <= 0.0:
            raise ValidationError("case34 map requires gamma > 0 and mu1 > 0")
        super().__init__(params, dc)
        self.forcing = params.gamma * params.mu1
        self.offset = self.slope * math.log(params.gamma * params.mu1)
        self.drift = dc.xi * params.omega / (2.0 * params.e * math.pi * params.mu1)
        self.amp = dc.xi / (2.0 * math.pi * params.mu1)

    def lift(self, x, s):
        return self.forcing, (s + self.shift - self.offset - self.drift
                              + self.amp * math.sin(_TWO_PI * s))

    def tangent(self, x, s):
        d22 = 1.0 + self.dc.xi / self.params.mu1 * np.cos(_TWO_PI * s)
        zero = 0.0 * d22             # shaped like the phase input
        return zero, zero, zero, d22, zero


class _RescaledMap(_CompiledMap):
    """The ``case12`` family blown up by ``gamma**(-1/delta)``, phase modulo 1.

    Drops what ``case12`` drops.  At the amplitude ``gamma_(n, a)`` of the
    phase-locked sequence the phase update carries the constant ``a``
    modulo 1, and at ``x = 0`` the map is the singular-limit circle map.
    The tangent determinant has the closed form
    ``gamma**p delta x**(delta-1)``.
    """

    variant = "rescaled"

    def __init__(self, params, dc):
        gamma = params.gamma
        if not 0.0 < gamma < 1.0:
            raise ValidationError(f"rescaled family needs gamma in (0, 1), got {gamma}")
        super().__init__(params, dc)
        self.gp = gamma**dc.p
        self.kick = dc.K_omega * dc.xi * math.log(1.0 / gamma)

    def lift(self, x, s):
        shape = x**self.delta + 1.0 - self.sqrt_a1 * math.cos(_TWO_PI * s)
        return (self.gp * shape,
                s + self.shift + self.kick - self.slope * math.log(shape))

    def tangent(self, x, s):
        _check_section(x, self.variant)
        gp, delta, sqrt_a1, slope = self.gp, self.delta, self.sqrt_a1, self.slope
        A = np.power(x, delta) + 1.0 - sqrt_a1 * np.cos(_TWO_PI * s)
        xpow, sin_s = np.power(x, delta - 1.0), np.sin(_TWO_PI * s)
        d11 = gp * delta * xpow
        return (d11, gp * 2.0 * math.pi * sqrt_a1 * sin_s, -slope * delta * xpow / A,
                1.0 - slope * 2.0 * math.pi * sqrt_a1 * sin_s / A, d11)


_COMPILED = {cls.variant: cls for cls in (_FullMap, _Case12Map, _Case34Map, _RescaledMap)}
VARIANTS = tuple(_COMPILED)


def compile_map(variant: str, params: ModelParams) -> _CompiledMap:
    """The one evaluator of a variant at a parameter point, constants derived once.

    The amplitude is ``params.gamma`` for every variant; the rescaled one
    needs it in (0, 1).  The result has a scalar ``lift(x, s)`` (phase not
    reduced), a ``tangent(x, s)`` returning ``(d11, d12, d21, d22,
    det_closed_form)`` (the last None for ``full``), the phase ``modulus``,
    its ``variant`` name, and ``orbit(x, s, steps)``.  ``orbit`` returns ``(xs, ss, y)``:
    float arrays of the ``steps`` images, phases reduced by ``modulus``, and
    the lift ``y`` of the last phase (the start phase plus each unreduced
    phase advance, in step order).  Its images are bit-identical to stepping
    ``lift``; it raises :class:`ValidationError` for ``steps < 0`` and
    :class:`NumericsError` naming the step of an image with ``x <= 0``.
    A call of ``m + k`` steps holds the images of ``m`` steps and then those
    of ``k`` steps from the last one, so a burn-in needs no second call.
    ``tangent`` takes floats or numpy arrays: it evaluates the same numpy
    ufuncs element by element, so an array call equals the scalar calls,
    and it raises :class:`ValidationError` if any ``x <= 0`` (except
    ``case34``, which ignores ``x``).
    """
    if variant not in _COMPILED:
        raise ValidationError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    return _COMPILED[variant](params, derive_constants(params))
