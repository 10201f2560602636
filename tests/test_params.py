import math

import numpy as np
import pytest

from mayleonard import (
    DiophantineCheckSpec,
    ModelParams,
    ValidationError,
    check_c1a_c1b,
    derive_constants,
)
from mayleonard.params import saddle_node_gamma, stable_fixed_point

from conftest import random_admissible


def test_derive_constants_closed_forms():
    """c=0.6, e=0.2, omega=0.3 gives delta=3, xi=65, a1=b1=1/2."""
    dc = derive_constants(ModelParams(c=0.6, e=0.2, omega=0.3))
    assert dc.delta == pytest.approx(3.0, abs=1e-14)
    assert dc.xi == pytest.approx(65.0, rel=1e-13)
    assert dc.a1 == pytest.approx(0.5, abs=1e-14)
    assert dc.b1 == pytest.approx(0.5, abs=1e-14)
    assert dc.p == pytest.approx(2.0 / 3.0, abs=1e-14)


def test_xi_identities_single():
    """e*xi = 1 + delta + delta^2 and c*xi = delta*(1 + delta + delta^2)."""
    dc = derive_constants(ModelParams(c=0.6, e=0.2))
    assert 0.2 * dc.xi == pytest.approx(13.0, rel=1e-12)
    assert 0.6 * dc.xi == pytest.approx(39.0, rel=1e-12)


def test_low_frequency_limits():
    for om in (1e-2, 1e-4, 1e-6):
        dc = derive_constants(ModelParams(c=0.6, e=0.2, omega=om))
        assert abs(dc.a1 - 1.0) < 3.0 * (2.0 * om / 0.6) ** 2
        assert dc.b1 < 2.0 * om / 0.6 + 1e-15


def test_identity_battery_random(rng):
    """Six exact-constant identities hold to 1e-10 relative for admissible draws."""
    for c, e, om in random_admissible(rng, 1000):
        dc = derive_constants(ModelParams(c=c, e=e, omega=om))
        assert abs(dc.a1**2 + dc.b1**2 - dc.a1) <= 1e-12
        assert abs(dc.a2**2 + dc.b2**2 - dc.a2) <= 1e-12
        tri = 1.0 + dc.delta + dc.delta**2
        assert abs(e * dc.xi - tri) <= 1e-10 * tri
        assert abs(c * dc.xi - dc.delta * tri) <= 1e-10 * dc.delta * tri
        assert abs(dc.b2 / dc.a2 - 2.0 * om / e) <= 1e-10 * (2.0 * om / e)
        assert abs(dc.b1 / dc.a1 - 2.0 * om / c) <= 1e-10 * (2.0 * om / c)


def test_high_frequency_monotone_limits():
    """On a geometric frequency grid a1, a2 decrease to 0 and sqrt(a2)*2w/e -> 1."""
    c, e = 0.6, 0.2
    grid = np.geomspace(1.0, 1e4, 17)
    prev_a1, prev_a2 = 1.0, 1.0
    for om in grid:
        dc = derive_constants(ModelParams(c=c, e=e, omega=om))
        assert dc.a1 < prev_a1 and dc.a2 < prev_a2
        prev_a1, prev_a2 = dc.a1, dc.a2
        assert abs(dc.b2 / dc.a2 - 2.0 * om / e) < 1e-10 * (2.0 * om / e)
    assert prev_a1 < 1e-7 and prev_a2 < 1e-8
    dc = derive_constants(ModelParams(c=c, e=e, omega=1e4))
    assert math.sqrt(dc.a2) * 2.0 * 1e4 / e == pytest.approx(1.0, abs=1e-8)


def test_derive_constants_rejects_bad_rates():
    with pytest.raises(ValidationError):
        derive_constants(ModelParams(c=0.3, e=0.3))
    with pytest.raises(ValidationError):
        derive_constants(ModelParams(c=0.2, e=0.6))
    with pytest.raises(ValidationError):
        ModelParams(c=0.6, e=0.2, omega=0.0)
    with pytest.raises(ValidationError):
        ModelParams(c=0.6, e=0.2, gamma=-0.1)


def test_x_star_population():
    """The stable fixed point exists exactly below the saddle-node amplitude."""
    assert stable_fixed_point(0.0, derive_constants(ModelParams(c=0.6, e=0.3)).delta) == 0.0
    delta = 2.0
    assert stable_fixed_point(0.1, delta) == pytest.approx((1.0 - math.sqrt(0.6)) / 2.0,
                                                           abs=1e-12)
    assert 2.0 * stable_fixed_point(0.1, delta) < 1.0
    # double root: only resolvable to ~sqrt(eps) in floating point
    assert stable_fixed_point(0.25, delta) == pytest.approx(0.5, abs=1e-7)
    assert stable_fixed_point(0.26, delta) is None
    assert saddle_node_gamma(delta) == pytest.approx(0.25, abs=1e-14)


@pytest.mark.parametrize("gamma, delta", [
    (math.nan, 3.0), (math.inf, 3.0), (0.01, math.nan), (0.01, math.inf),
])
def test_stable_fixed_point_rejects_non_finite(gamma, delta):
    """A NaN or infinite amplitude or exponent has no fixed point to report:
    NaN would slip past the sign checks and read as 0.0 or NaN."""
    with pytest.raises(ValidationError, match="must be finite"):
        stable_fixed_point(gamma, delta)


def test_c1b_exhaustive_matches_oracle():
    """Brute-force scan over |m|+|n| <= 50 agrees with an independent loop."""
    params = ModelParams(c=0.6, e=0.2)
    spec = DiophantineCheckSpec(d1=0.01, d2=2.0, n_max=50)
    report = check_c1a_c1b(params, spec)
    assert report.c1a

    ok = True
    worst = (0, 0)
    worst_margin = math.inf
    for m in range(-50, 51):
        for n in range(-50, 51):
            tot = abs(m) + abs(n)
            if tot == 0 or tot > 50:
                continue
            margin = abs(m * 0.6 - n * 0.2) - 0.01 * tot ** (-2.0)
            ok = ok and margin > 0.0
            if margin < worst_margin:
                worst_margin, worst = margin, (m, n)
    assert report.c1b_up_to_n_max == ok
    assert report.worst_pair == worst
    assert report.worst_margin == pytest.approx(worst_margin, rel=1e-12)


def test_c1a_boundary_violation():
    report = check_c1a_c1b(ModelParams(c=0.5, e=0.5),
                           DiophantineCheckSpec(d1=0.01, d2=2.0, n_max=10))
    assert not report.c1a
    # (m, n) = (1, 1) violates the inequality outright when c = e
    assert not report.c1b_up_to_n_max


def test_trig_collapse_uses_a1_identity():
    """With a1 = b1 = 1/2, ``a1 cos + b1 sin`` collapses to amplitude sqrt(a1)."""
    dc = derive_constants(ModelParams(c=0.6, e=0.2, omega=0.3))
    assert math.hypot(dc.a1, dc.b1) == pytest.approx(dc.sqrt_a1, rel=1e-14)
