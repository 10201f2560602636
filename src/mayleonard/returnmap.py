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
derivations drop them; each map's docstring names the dropped order.

:func:`compile_map` is the one evaluator of each variant: it derives the
constants once per parameter point.  The per-point functions (``map_lift``,
``jacobian``, the ``*_map`` maps, ``rescaled_apply``) are front ends over it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .errors import NumericsError, ValidationError
from .params import DerivedConstants, ModelParams, derive_constants

__all__ = [
    "CylinderPoint",
    "KernelValues",
    "VARIANTS",
    "eta_omega",
    "kernels",
    "full_map",
    "case12_map",
    "case34_map",
    "rescaled_map",
    "rescaled_apply",
    "compile_map",
    "jacobian",
    "finite_difference_jacobian",
    "map_lift",
    "reduce_mod",
]

VARIANTS = ("full", "case12", "case34", "rescaled")

MOD_PI_OVER_OMEGA = "pi_over_omega"
MOD_ONE = "one"
_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class CylinderPoint:
    """Point (x, s) on the return-map cylinder.

    ``modulus`` records the phase convention: ``"pi_over_omega"`` for the
    full map, ``"one"`` for the reduced families.
    """

    x: float
    s: float
    modulus: str = MOD_ONE

    def __post_init__(self):
        if self.modulus not in (MOD_PI_OVER_OMEGA, MOD_ONE):
            raise ValidationError(f"unknown modulus tag {self.modulus!r}")


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


def eta_omega(s: float, params: ModelParams) -> float:
    """Frequency-dependent mean of the forcing kernel; lies between
    ``2 omega^2/(e^2+4 omega^2)`` and ``(e^2+2 omega^2)/(e^2+4 omega^2)``."""
    e, om = params.e, params.omega
    return (e * e * math.cos(om * s) ** 2 + 2.0 * om * om) / (e * e + 4.0 * om * om)


def _l2_closed_form(x, s, params, dc):
    """Exact evaluation of the contracting-passage kernel integral.

    Antiderivative of ``exp(-e(tau-s)) sin^2(omega tau)`` between the
    section time ``s`` and the first exit time ``T1 = s - ln(x)/e``.  The
    widely quoted truncation keeps only the x-independent part (and halves
    the quadrature coefficient of the sine term); the boundary terms decay
    like ``x`` and are kept here so the closed form matches quadrature at
    full precision.
    """
    e, om = params.e, params.omega
    t1 = s - math.log(x) / e
    main = (eta_omega(s, params) - dc.a2 * math.cos(2.0 * om * s)
            + 0.5 * dc.b2 * math.sin(2.0 * om * s)) / e
    bdry = -(x / (2.0 * e)) * (1.0 - dc.a2 * math.cos(2.0 * om * t1)
                               + dc.b2 * math.sin(2.0 * om * t1))
    return main + bdry


def _quad_checked(fun, a, b, tol=1e-10):
    val, err = quad(fun, a, b, epsabs=1e-12, epsrel=tol, limit=800)
    if err > tol * max(1.0, abs(val)) + 1e-12:
        raise NumericsError(
            f"kernel quadrature did not converge: estimate {val}, error {err}"
        )
    return val


def kernels(point: CylinderPoint, params: ModelParams) -> KernelValues:
    """Arrival times and forcing kernels of the three-passage composition.

    ``L2`` uses the exact closed form (checked elsewhere against an
    independent quadrature); ``L1``, ``G1``, ``G2`` are evaluated by
    adaptive quadrature of their defining integrals with the forcing
    profile ``sin^2(omega tau)``.  The exponentially weighted integrals are
    evaluated in shifted form (weight anchored at the upper limit) so they
    never overflow; this is an algebraic identity, not an approximation.
    """
    x, s = point.x, point.s
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
    l2 = _l2_closed_form(x, s, params, dc)
    t3 = s + d1 + d2 - dc.xi * lx - gam * dc.xi * l2 / x

    # second-passage kernel, weight rewritten as exp(c (tau - T3(0)))
    t3_0 = s + d1 + d2 - dc.xi * lx
    lo = t2 + d3
    if lo >= t3_0:
        l1 = 0.0
    else:
        l1 = _quad_checked(
            lambda tau: math.exp(c * (tau - t3_0)) * math.sin(om * tau) ** 2,
            lo, t3_0,
        )

    period = math.pi / om
    # periodic averages seen from the arrival time, weights anchored at the
    # finite end so the prefactors stay bounded
    g1 = _quad_checked(
        lambda tau: math.exp(c * (tau - period)) * math.sin(om * (t3 + tau)) ** 2,
        0.0, period,
    ) / (1.0 - math.exp(-c * period))
    g2 = _quad_checked(
        lambda tau: math.exp(-e * tau) * math.sin(om * (t3 + d3 + tau)) ** 2,
        0.0, period,
    ) / (math.exp(-e * period) - 1.0)

    return KernelValues(eta=eta_omega(s, params), L1=l1, L2=l2,
                        G1=g1, G2=g2, T1=t1, T2=t2, T3=t3)


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


class _FullMap(_CompiledMap):
    def __init__(self, params, dc, gamma=None):
        super().__init__(params, dc)
        self.modulus = math.pi / params.omega

    def _phases(self, x, s):
        """Forcing weight W(s), passage phase phi and phase image f2."""
        p, dc, om = self.params, self.dc, self.params.omega
        w = (eta_omega(s, p) - dc.a2 * math.cos(2.0 * om * s)
             + dc.b2 * math.sin(2.0 * om * s))
        phi = s + p.mu3 - dc.xi * math.log(x)
        return w, phi, phi - p.gamma * dc.xi * w / (p.e * x)

    def lift(self, x, s, phase="composed"):
        p, dc, om = self.params, self.dc, self.params.omega
        _, phi, f2 = self._phases(x, s)
        u4, u5 = f2 - p.Delta3, f2
        if phase == "entry":
            phi = u4 = u5 = s
        f1 = p.mu * x**dc.delta + p.gamma * (
            p.mu1
            + p.mu2 * _osc(phi, dc.a1, dc.b1, om)
            - p.mu4 * _osc(u4, dc.a1, dc.b1, om)
            - p.mu5 * _osc(u5, dc.a2, dc.b2, om)
        )
        return f1, f2

    def tangent(self, x, s):
        if x <= 0.0:
            raise ValidationError("jacobian needs x > 0 for full")
        p, dc = self.params, self.dc
        e, om, gam = p.e, p.omega, p.gamma
        W, phi, f2 = self._phases(x, s)
        Wp = om * dc.a2 * math.sin(2.0 * om * s) + 2.0 * om * dc.b2 * math.cos(2.0 * om * s)
        f2x = -dc.xi / x + gam * dc.xi * W / (e * x * x)
        f2s = 1.0 - gam * dc.xi * Wp / (e * x)
        phix = -dc.xi / x

        def oscp(u, aj, bj):
            return 2.0 * om * aj * math.sin(2.0 * om * u) \
                - 2.0 * om * bj * math.cos(2.0 * om * u)

        p2 = oscp(phi, dc.a1, dc.b1)
        p4 = oscp(f2 - p.Delta3, dc.a1, dc.b1)
        p5 = oscp(f2, dc.a2, dc.b2)
        d11 = p.mu * dc.delta * x ** (dc.delta - 1.0) + gam * (
            p.mu2 * p2 * phix - p.mu4 * p4 * f2x - p.mu5 * p5 * f2x)
        d12 = gam * (p.mu2 * p2 - p.mu4 * p4 * f2s - p.mu5 * p5 * f2s)
        return d11, d12, f2x, f2s, None


class _Case12Map(_CompiledMap):
    def __init__(self, params, dc, gamma=None):
        super().__init__(params, dc)
        self.forcing = params.gamma * params.mu1
        self.coupling = 2.0 * math.pi * params.gamma * params.mu1 * dc.sqrt_a1

    def lift(self, x, s):
        f1 = x**self.delta + self.forcing * (1.0 - self.sqrt_a1 * math.cos(_TWO_PI * s))
        if f1 <= 0.0:
            raise NumericsError(f"leading coordinate fell to {f1} <= 0")
        return f1, s + self.shift - self.slope * math.log(f1)

    def tangent(self, x, s):
        if x <= 0.0:
            raise ValidationError("jacobian needs x > 0 for case12")
        two_pi_s = _TWO_PI * s
        B = x**self.delta + self.forcing * (1.0 - self.sqrt_a1 * math.cos(two_pi_s))
        d11 = self.delta * x ** (self.delta - 1.0)
        d12 = self.coupling * math.sin(two_pi_s)
        return (d11, d12, -self.slope * d11 / B,
                1.0 - self.slope * d12 / B, d11)


class _Case34Map(_CompiledMap):
    def __init__(self, params, dc, gamma=None):
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
        d22 = 1.0 + self.dc.xi / self.params.mu1 * math.cos(_TWO_PI * s)
        return 0.0, 0.0, 0.0, d22, 0.0


class _RescaledMap(_CompiledMap):
    def __init__(self, params, dc, gamma):
        if gamma <= 0.0 or gamma >= 1.0:
            raise ValidationError(f"rescaled family needs gamma in (0, 1), got {gamma}")
        super().__init__(params, dc)
        self.gp = gamma**dc.p
        self.kick = dc.K_omega * dc.xi * math.log(1.0 / gamma)

    def lift(self, x, s):
        shape = x**self.delta + 1.0 - self.sqrt_a1 * math.cos(_TWO_PI * s)
        return (self.gp * shape,
                s + self.shift + self.kick - self.slope * math.log(shape))

    def tangent(self, x, s):
        if x <= 0.0:
            raise ValidationError("jacobian needs x > 0 for rescaled")
        gp, delta, sqrt_a1, slope = self.gp, self.delta, self.sqrt_a1, self.slope
        A = x**delta + 1.0 - sqrt_a1 * math.cos(_TWO_PI * s)
        xpow, sin_s = x ** (delta - 1.0), math.sin(_TWO_PI * s)
        d11 = gp * delta * xpow
        return (d11, gp * 2.0 * math.pi * sqrt_a1 * sin_s, -slope * delta * xpow / A,
                1.0 - slope * 2.0 * math.pi * sqrt_a1 * sin_s / A, d11)


_COMPILED = {"full": _FullMap, "case12": _Case12Map, "case34": _Case34Map,
             "rescaled": _RescaledMap}


def compile_map(variant: str, params: ModelParams, *, gamma: float | None = None,
                n: int | None = None, a: float | None = None) -> _CompiledMap:
    """The one evaluator of a variant at a parameter point, constants derived once.

    The result has a scalar ``lift(x, s)`` (phase not reduced), a scalar
    ``tangent(x, s)`` returning ``(d11, d12, d21, d22, det_closed_form)``
    (the last None for ``full``) and the phase ``modulus``.  Only the
    rescaled variant reads ``gamma`` or the sequence index pair ``(n, a)``.
    """
    if variant not in _COMPILED:
        raise ValidationError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    dc = derive_constants(params)
    if variant == "rescaled" and gamma is None:
        from .singular import gamma_sequence
        if n is None or a is None:
            raise ValidationError("rescaled variant needs (n, a) or gamma")
        gamma = gamma_sequence(n, a, dc)
    return _COMPILED[variant](params, dc, gamma)


def full_map(point: CylinderPoint, params: ModelParams,
             phase: str = "composed") -> CylinderPoint:
    """Leading-order three-passage return map, phase modulo ``pi/omega``.

    Terms of second order in ``gamma`` are dropped.  ``phase="composed"``
    evaluates the forcing oscillations at the composed arrival times;
    ``phase="entry"`` evaluates them all at the section entry time (the
    simplification the reduced families build on) and exists mainly so the
    low-frequency degeneration onto :func:`case12_map` can be checked
    exactly.
    """
    if point.x <= 0.0:
        raise ValidationError(f"full_map needs x > 0, got {point.x}")
    if phase not in ("composed", "entry"):
        raise ValidationError(f"unknown phase convention {phase!r}")
    f1, f2 = compile_map("full", params).lift(point.x, point.s, phase)
    return CylinderPoint(f1, reduce_mod(f2, math.pi / params.omega),
                         MOD_PI_OVER_OMEGA)


def case12_map(point: CylinderPoint, params: ModelParams) -> CylinderPoint:
    """Low-frequency return map, phase modulo 1.

    The remainder of first order in ``gamma`` in the phase component is
    dropped.  Positivity of the image coordinate is guaranteed for
    ``gamma > 0`` since ``sqrt(a1) < 1``.
    """
    if point.x <= 0.0:
        raise ValidationError(f"case12_map needs x > 0, got {point.x}")
    f1, f2 = compile_map("case12", params).lift(point.x, point.s)
    return CylinderPoint(f1, reduce_mod(f2, 1.0), MOD_ONE)


def case34_map(point: CylinderPoint, params: ModelParams) -> CylinderPoint:
    """High-frequency return map: constant leading coordinate, circle map in s.

    The input ``x`` is ignored by construction.  Requires ``gamma > 0`` and
    ``mu1 > 0`` (the phase update takes a log of their product).
    """
    f1, f2 = compile_map("case34", params).lift(point.x, point.s)
    return CylinderPoint(f1, reduce_mod(f2, 1.0), MOD_ONE)


def rescaled_apply(x: float, s: float, gamma: float,
                   params: ModelParams) -> tuple[float, float]:
    """Rescaled family at an explicit amplitude, returning the phase lift."""
    if x < 0.0:
        raise ValidationError(f"rescaled family needs x >= 0, got {x}")
    return compile_map("rescaled", params, gamma=gamma).lift(x, s)


def rescaled_map(point: CylinderPoint, n: int, a: float,
                 params: ModelParams) -> CylinderPoint:
    """Rescaled return map at the amplitude indexed by ``(n, a)``.

    The amplitude is the n-th member of the phase-locked sequence with
    offset ``a``, so the phase update carries the constant ``a`` modulo 1
    and the map degenerates to the singular-limit circle map at ``x = 0``.
    """
    if point.x < 0.0:
        raise ValidationError(f"rescaled_map needs x >= 0, got {point.x}")
    f1, f2 = compile_map("rescaled", params, n=n, a=a).lift(point.x, point.s)
    return CylinderPoint(f1, reduce_mod(f2, 1.0), MOD_ONE)


def map_lift(variant: str, x: float, s: float, params: ModelParams,
             n: int | None = None, a: float | None = None,
             gamma: float | None = None) -> tuple[float, float]:
    """Evaluate a variant without reducing the phase (for derivatives/orbits)."""
    return compile_map(variant, params, gamma=gamma, n=n, a=a).lift(x, s)


def jacobian(point: CylinderPoint, variant: str, params: ModelParams,
             n: int | None = None, a: float | None = None,
             gamma: float | None = None):
    """Analytic Jacobian of a variant at a point.

    Returns ``(J, det, det_closed_form)``.  The closed form of the
    determinant exists for the reduced families: ``delta x**(delta-1)``
    for ``case12`` and ``gamma**p delta x**(delta-1)`` for ``rescaled``
    (the phase coupling cancels exactly); ``case34`` is rank-one
    degenerate with determinant 0, reported rather than raised.  The full
    variant has no closed form and ``det_closed_form`` is None.
    """
    d11, d12, d21, d22, det_cf = compile_map(
        variant, params, gamma=gamma, n=n, a=a).tangent(point.x, point.s)
    return np.array([[d11, d12], [d21, d22]]), d11 * d22 - d12 * d21, det_cf


def finite_difference_jacobian(variant: str, x: float, s: float,
                               params: ModelParams, n: int | None = None,
                               a: float | None = None,
                               gamma: float | None = None,
                               rel_step: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobian of a variant's phase lift (test oracle)."""
    lift = compile_map(variant, params, gamma=gamma, n=n, a=a).lift
    hx = rel_step * max(abs(x), 1.0)
    hs = rel_step
    col_x = np.subtract(lift(x + hx, s), lift(x - hx, s)) / (2.0 * hx)
    col_s = np.subtract(lift(x, s + hs), lift(x, s - hs)) / (2.0 * hs)
    return np.column_stack([col_x, col_s])
