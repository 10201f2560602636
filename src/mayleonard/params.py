"""Model parameters, derived constants, and small analytic utilities.

Every scalar that the rest of the package consumes lives here: the
contraction/expansion rates of the winnerless-competition saddles, the
forcing amplitude and frequency, the global-map constants that are not
computable analytically (configuration inputs with defaults), and the
closed-form constants derived from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import ValidationError

__all__ = [
    "ModelParams",
    "DerivedConstants",
    "DiophantineCheckSpec",
    "C1Report",
    "derive_constants",
    "check_c1a_c1b",
    "stable_fixed_point",
    "saddle_node_gamma",
]


@dataclass(frozen=True)
class ModelParams:
    """Scalar inputs of the forced system and its return-map family.

    Every field must be finite.

    Parameters
    ----------
    c, e : float
        Contraction and expansion rates of the saddles, ``0 < e, c < 1``.
        The admissible regime additionally requires ``e < c`` (saddle value
        ``delta = c/e > 1``); that strict inequality is enforced by
        :func:`derive_constants`, not here, so that the predicate
        :func:`check_c1a_c1b` can be evaluated on inadmissible pairs too.
    gamma : float
        Forcing amplitude, ``>= 0``.
    omega : float
        Forcing angular frequency, ``> 0``.
    mu, mu1, mu2, mu3, mu4, mu5 : float
        Leading return-map coefficient and global-map constants.  Not
        computable analytically; configuration inputs.
    Delta1, Delta2, Delta3 : float
        Global transition times, ``>= 0``.
    eps_tilde : float
        Cross-section size, in ``(0, 1]``.
    """

    c: float
    e: float
    gamma: float = 0.0
    omega: float = 0.3
    mu: float = 1.0
    mu1: float = 1.0
    mu2: float = 0.1
    mu3: float = 1.0
    mu4: float = 0.1
    mu5: float = 0.1
    Delta1: float = 1.0
    Delta2: float = 1.0
    Delta3: float = 1.0
    eps_tilde: float = 0.1

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise ValidationError(f"{f.name} must be finite, got {value}")
        if not (0.0 < self.c < 1.0):
            raise ValidationError(f"c must lie in (0, 1), got {self.c}")
        if not (0.0 < self.e < 1.0):
            raise ValidationError(f"e must lie in (0, 1), got {self.e}")
        if self.gamma < 0.0:
            raise ValidationError(f"gamma must be >= 0, got {self.gamma}")
        if self.omega <= 0.0:
            raise ValidationError(f"omega must be > 0, got {self.omega}")
        for name in ("Delta1", "Delta2", "Delta3"):
            if getattr(self, name) < 0.0:
                raise ValidationError(f"{name} must be >= 0")
        if not (0.0 < self.eps_tilde <= 1.0):
            raise ValidationError(
                f"eps_tilde must lie in (0, 1], got {self.eps_tilde}"
            )

    @property
    def c1a(self) -> bool:
        """Whether 0 < e < c < 1 holds."""
        return 0.0 < self.e < self.c < 1.0


@dataclass(frozen=True)
class DerivedConstants:
    """Closed-form constants derived from :class:`ModelParams`."""

    delta: float
    xi: float
    a1: float
    a2: float
    b1: float
    b2: float
    p: float
    K_omega: float

    @property
    def sqrt_a1(self) -> float:
        return math.sqrt(self.a1)


@dataclass(frozen=True)
class DiophantineCheckSpec:
    """Finite truncation of the nonresonance inequality |m c - n e| > d1 (|m|+|n|)^-d2."""

    d1: float
    d2: float
    n_max: int = 50

    def __post_init__(self):
        if not (0.0 < self.d1 < math.inf and 0.0 < self.d2 < math.inf):
            raise ValidationError("d1 and d2 must be positive and finite")
        if self.n_max < 2:
            raise ValidationError(f"n_max must be >= 2, got {self.n_max}")


@dataclass(frozen=True)
class C1Report:
    c1a: bool
    c1b_up_to_n_max: bool
    worst_pair: tuple[int, int]
    worst_margin: float
    n_max: int


def stable_fixed_point(gamma: float, delta: float) -> float | None:
    """Positive stable fixed point of ``x -> x**delta + gamma``, or None.

    The root is bracketed below the saddle-node point ``x_sn`` where the
    derivative ``delta * x**(delta-1)`` equals one; beyond the saddle-node
    amplitude no stable fixed point exists.
    """
    if not 1.0 < delta < math.inf:
        raise ValidationError(f"delta must be finite and exceed 1, got {delta}")
    if not 0.0 <= gamma < math.inf:
        raise ValidationError(f"gamma must be finite and >= 0, got {gamma}")
    if gamma == 0.0:
        return 0.0
    x_sn = delta ** (-1.0 / (delta - 1.0))
    if gamma > saddle_node_gamma(delta):
        return None

    def f(x):
        return x**delta + gamma - x

    lo, hi = 0.0, x_sn
    if f(hi) > 0.0:
        # gamma numerically at the saddle-node: double root at x_sn
        return x_sn
    # bisect until no double lies strictly between the bracket ends
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return mid


def saddle_node_gamma(delta: float) -> float:
    """Amplitude at which the two fixed points of ``x -> x**delta + gamma`` collide."""
    x_sn = delta ** (-1.0 / (delta - 1.0))
    return x_sn - x_sn**delta


def derive_constants(params: ModelParams) -> DerivedConstants:
    """Evaluate all closed-form constants of the return-map family.

    Raises
    ------
    ValidationError
        If ``c <= e`` (the saddle value would not exceed one, which breaks
        every downstream contract).
    """
    c, e, om = params.c, params.e, params.omega
    if c <= e:
        raise ValidationError(
            f"need e < c for a saddle value delta = c/e > 1, got c={c}, e={e}"
        )
    delta = c / e
    xi = (e * e + c * e + c * c) / e**3
    a1 = c * c / (c * c + 4.0 * om * om)
    a2 = e * e / (e * e + 4.0 * om * om)
    b1 = 2.0 * c * om / (c * c + 4.0 * om * om)
    b2 = 2.0 * e * om / (e * e + 4.0 * om * om)
    p = (delta - 1.0) / delta
    k_omega = om * p / math.pi
    return DerivedConstants(
        delta=delta, xi=xi, a1=a1, a2=a2, b1=b1, b2=b2, p=p, K_omega=k_omega,
    )


def check_c1a_c1b(params: ModelParams, spec: DiophantineCheckSpec) -> C1Report:
    """Check the admissibility inequalities up to a finite index bound.

    The strict rate ordering is decidable; the nonresonance inequality is
    checked exhaustively over all integer pairs with ``0 < |m|+|n| <= n_max``
    (the pair ``m = n = 0`` is excluded: the inequality is trivially violated
    there).  The full infinite statement is not decidable numerically, so the
    flag only certifies the truncation.
    """
    c, e = params.c, params.e
    c1a = params.c1a
    ok = True
    worst_pair = (0, 0)
    worst_margin = math.inf
    nm = spec.n_max
    for m in range(-nm, nm + 1):
        for n in range(-nm, nm + 1):
            tot = abs(m) + abs(n)
            if tot == 0 or tot > nm:
                continue
            margin = abs(m * c - n * e) - spec.d1 * tot ** (-spec.d2)
            if margin <= 0.0:
                ok = False
            if margin < worst_margin:
                worst_margin = margin
                worst_pair = (m, n)
    return C1Report(
        c1a=c1a, c1b_up_to_n_max=ok,
        worst_pair=worst_pair, worst_margin=worst_margin, n_max=nm,
    )

