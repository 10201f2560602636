"""Acceptance criteria, one test per criterion, each printing a verdict line.

Stated tolerances and runtime budgets are asserted as written.  Criterion 6
has two clauses; the curve-collapse clause holds, while the one-step
forward-invariance of the stated band fails at the pinned parameters (both
band edges map outside by direct evaluation), so that clause is reported
as an honest failure rather than weakened.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np

from mayleonard import (
    DoublingMap,
    ModelParams,
    RigidRotation,
    annulus_check,
    derive_constants,
    equilibria_spectrum,
    gamma_sequence,
    misiurewicz_check,
    rotation_interval,
    section_returns,
    singular_limit_convergence,
)
from mayleonard.cli import main
from mayleonard.config import NumericsConfig
from mayleonard.diagnostics import (
    Case34SMarginal,
    density_scan,
    t1_curve,
    t2_curve,
)
from mayleonard.flow import section_state, table1_eigenpairs
from mayleonard.params import stable_fixed_point
from mayleonard.returnmap import compile_map, kernels
from conftest import finite_difference_jacobian, random_admissible

SEED = 20260809


def _verdict(num, ok, desc, detail=""):
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'} - {desc}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    return ok


def test_criterion_01_constant_identities():
    """Identity battery over 1000 admissible draws, 1e-10 relative, < 1 s."""
    rng = np.random.default_rng(SEED)
    t0 = time.monotonic()
    worst = 0.0
    for c, e, om in random_admissible(rng, 1000):
        dc = derive_constants(ModelParams(c=c, e=e, omega=om))
        tri = 1.0 + dc.delta + dc.delta**2
        checks = [
            abs(dc.a1**2 + dc.b1**2 - dc.a1),
            abs(dc.a2**2 + dc.b2**2 - dc.a2),
            abs(e * dc.xi - tri) / tri,
            abs(c * dc.xi - dc.delta * tri) / (dc.delta * tri),
            abs(dc.b2 / dc.a2 - 2 * om / e) / (2 * om / e),
            abs(dc.b1 / dc.a1 - 2 * om / c) / (2 * om / c),
        ]
        worst = max(worst, max(checks))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-10 and elapsed < 1.0
    assert _verdict(1, ok, "constant identities",
                    f"worst {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_saddle_spectra():
    """Six saddles reproduce (e, -1, -c) and the reference directions, < 5 s."""
    rng = np.random.default_rng(SEED)
    t0 = time.monotonic()
    worst = 0.0
    for c, e, _ in random_admissible(rng, 50):
        p = ModelParams(c=c, e=e, gamma=0.0)
        for rec in equilibria_spectrum(p):
            i = int(rec.label[-1])
            vals, vecs = table1_eigenpairs(p, i)
            worst = max(worst, float(np.max(np.abs(rec.eigenvalues - vals))))
            for k in range(3):
                v = rec.eigenvectors[:, k]
                w = vecs[:, k]
                cosang = abs(v @ w) / (np.linalg.norm(v) * np.linalg.norm(w))
                worst = max(worst, abs(cosang - 1.0))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-9 and elapsed < 5.0
    assert _verdict(2, ok, "saddle spectra vs reference table",
                    f"worst {worst:.2e}, {elapsed:.2f}s")


def test_criterion_03_kernel_oracle():
    """Closed-form kernel vs independent quadrature, 1e-9 on 10x100, < 10 s."""
    from scipy.integrate import quad
    rng = np.random.default_rng(SEED)
    t0 = time.monotonic()
    worst = 0.0
    for c, e, om in random_admissible(rng, 10):
        params = ModelParams(c=c, e=e, omega=om, gamma=1e-3)
        for _ in range(100):
            x = rng.uniform(1e-6, 1.0)
            s = rng.uniform(0.0, 2.0 * math.pi / om)
            kv = kernels(x, s, params)
            t1 = s - math.log(x) / e
            ref, _ = quad(lambda tau: math.exp(-e * (tau - s))
                          * math.sin(om * tau) ** 2,
                          s, t1, epsabs=1e-13, epsrel=1e-12, limit=500)
            worst = max(worst, abs(kv.L2 - ref))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-9 and elapsed < 10.0
    assert _verdict(3, ok, "kernel closed form vs quadrature",
                    f"worst {worst:.2e}, {elapsed:.2f}s")


def test_criterion_04_jacobian_determinant():
    """Closed-form determinant vs central differences, 1e-5 relative, < 5 s."""
    rng = np.random.default_rng(SEED)
    params = ModelParams(c=0.6, e=0.2, omega=0.3)
    dc = derive_constants(params)
    t0 = time.monotonic()
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(13, 21))
        a = float(rng.uniform(0.0, 1.0))
        gam = gamma_sequence(n, a, dc)
        x = float(rng.uniform(0.05, 1.0))
        s = float(rng.uniform(0.0, 1.0))
        fmap = compile_map("rescaled", replace(params, gamma=gam))
        det_cf = fmap.tangent(x, s)[4]
        fd = finite_difference_jacobian(fmap, x, s)
        det_fd = fd[0, 0] * fd[1, 1] - fd[0, 1] * fd[1, 0]
        worst = max(worst, abs(det_fd - det_cf) / abs(det_cf))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-5 and elapsed < 5.0
    assert _verdict(4, ok, "determinant closed form vs differences",
                    f"worst rel {worst:.2e}, {elapsed:.2f}s")


def test_criterion_05_power_law_returns():
    """Unforced section data: log-ratio within 0.05 of delta for the last 5
    of 10 returns from x = 1e-3, < 60 s."""
    t0 = time.monotonic()
    p = ModelParams(c=0.6, e=0.2, gamma=0.0, omega=0.3)
    opts = NumericsConfig(rel_tol=1e-8, abs_tol=1e-10, max_step=100.0)
    events = section_returns(section_state(1e-3, p), 10, p, opts, sections="all")
    logs = [math.log(1e-3)] + [ev.log_x for ev in events]
    ratios = [logs[k + 1] / logs[k] for k in range(10)]
    elapsed = time.monotonic() - t0
    worst = max(abs(r - 3.0) for r in ratios[5:])
    ok = worst < 0.05 and elapsed < 60.0
    assert _verdict(5, ok, "unforced power-law contraction",
                    f"worst |ratio-3| {worst:.3f}, {elapsed:.1f}s")


def test_criterion_06a_invariant_curve_collapse():
    """32 seeds collapse onto a closed curve: binned spread < 1e-3, < 30 s."""
    t0 = time.monotonic()
    p = ModelParams(c=0.55, e=0.5, gamma=1e-3, omega=0.05)
    rng = np.random.default_rng(SEED)
    fixed = stable_fixed_point(p.gamma, derive_constants(p).delta)
    fmap = compile_map("case12", p)
    pts = []
    for _ in range(32):
        x = float(rng.uniform(0.5 * fixed, 1.5 * fixed))
        s = float(rng.uniform(0.0, 1.0))
        xs, ss, _ = fmap.orbit(x, s, 10000)
        xs, ss, _ = fmap.orbit(float(xs[-1]), float(ss[-1]), 300)
        pts.append(np.column_stack([ss, xs]))
    pts = np.concatenate(pts)
    nb = 128
    idx = np.minimum((pts[:, 0] * nb).astype(int), nb - 1)
    spread = 0.0
    for b in range(nb):
        sel = pts[idx == b][:, 1]
        if len(sel) > 1:
            spread = max(spread, float(sel.max() - sel.min()))
    elapsed = time.monotonic() - t0
    ok = spread < 1e-3 and elapsed < 30.0
    assert _verdict(6, ok, "curve collapse clause",
                    f"max bin spread {spread:.2e}, {elapsed:.1f}s")


def test_criterion_06b_annulus_invariance():
    """Band forward-invariance with positive margin at the pinned parameters.

    Implemented exactly as stated.  The one-step images of both band edges
    leave the band (the fixed-point derivative exceeds one half at this
    amplitude), so the margin is negative and the clause fails; see the
    analysis in the project notes.
    """
    p = ModelParams(c=0.55, e=0.5, gamma=1e-3, omega=0.05)
    rep = annulus_check(p)
    ok = rep.defined and rep.invariant and rep.min_margin > 0.0
    _verdict(6, ok, "band invariance clause",
             f"defined={rep.defined}, margin {rep.min_margin:.2e}")
    assert ok, (
        "band [x*-2g*sqrt(a1), x*+2g*sqrt(a1)] is not one-step forward "
        f"invariant at these parameters: margin {rep.min_margin:.3e} "
        f"(worst point {rep.worst_point}); the attractor itself sits inside "
        "the band but the stated edge condition fails"
    )


def test_criterion_07_singular_limit_convergence():
    """Distance table strictly decreasing; leading ratio within 5%, < 30 s."""
    t0 = time.monotonic()
    p = ModelParams(c=0.6, e=0.2, omega=0.3)
    dc = derive_constants(p)
    kxi = dc.K_omega * dc.xi
    n0 = math.floor(kxi * math.log(1.0 / 0.05)) + 1
    rows = singular_limit_convergence(range(n0, n0 + 8), 0.3, p)
    decreasing = True
    ratio_ok = True
    target = math.exp(-dc.p / kxi)
    for r0, r1 in zip(rows, rows[1:]):
        for col in ("f1_sup", "f2_sup", "d1_sup", "d2_sup", "d3_sup"):
            if getattr(r1, col) >= getattr(r0, col):
                decreasing = False
        if abs(r1.f1_sup / r0.f1_sup - target) > 0.05 * target:
            ratio_ok = False
    elapsed = time.monotonic() - t0
    ok = decreasing and ratio_ok and elapsed < 30.0
    assert _verdict(7, ok, "singular-limit convergence table",
                    f"n0={n0}, ratio target {target:.5f}, {elapsed:.1f}s")


def test_criterion_08_region_geometry():
    """Boundary curves at xi*omega = 19.5, C = 10, and monotonicity, < 1 s."""
    t0 = time.monotonic()
    t1 = t1_curve(65.0, 0.3)
    t2 = t2_curve(65.0, 0.3)
    # the exact t1 is 0.4267497, a round-half-up tie at 4 figures: allow one
    # unit in the fourth significant digit
    vals_ok = abs(t1 - 0.4268) <= 1e-4 and abs(t2 - 0.05121) <= 5e-6
    grid = np.linspace(1.0, 200.0, 100)
    t1s = [t1_curve(x, 0.3) for x in grid]
    t2s = [t2_curve(x, 0.3) for x in grid]
    mono = all(b < a for a, b in zip(t1s, t1s[1:])) and \
        all(b < a for a, b in zip(t2s, t2s[1:]))
    elapsed = time.monotonic() - t0
    ok = vals_ok and mono and elapsed < 1.0
    assert _verdict(8, ok, "horseshoe/region boundary geometry",
                    f"t1={t1:.6f}, t2={t2:.6f}, {elapsed:.2f}s")


def test_criterion_09_battery_sanity():
    """Doubling passes expansion at ln 2 but fails the mixing-rate bound;
    rigid rotation fails expansion; < 10 s."""
    t0 = time.monotonic()
    cert = misiurewicz_check(DoublingMap(), horizon=500)
    doubling_ok = (cert.passed
                   and abs(cert.lambda0 - math.log(2.0)) <= 1e-3
                   and math.exp(cert.lambda0 / 3.0) < 2.0)
    rot = misiurewicz_check(RigidRotation(0.37), horizon=300)
    rotation_ok = not rot.passed
    elapsed = time.monotonic() - t0
    ok = doubling_ok and rotation_ok and elapsed < 10.0
    assert _verdict(9, ok, "circle-map battery sanity",
                    f"lambda0={cert.lambda0:.6f}, {elapsed:.1f}s")


def test_criterion_10_density_scan():
    """200-sample log-spaced amplitude scan: success fraction > 0.05 and
    positive on every nested decade prefix, < 30 min."""
    t0 = time.monotonic()
    p = ModelParams(c=0.6, e=0.2, omega=0.3)
    grid = np.geomspace(1e-6, 0.05, 200)
    _, summary = density_scan(grid, p, NumericsConfig(seed=SEED))
    elapsed = time.monotonic() - t0
    prefixes = [(pf["r"], pf["fraction"]) for pf in summary.prefix_fractions]
    prefixes_ok = all(frac > 0.0 for _, frac in prefixes)
    ok = summary.fraction > 0.05 and prefixes_ok and elapsed < 1800.0
    detail = (f"fraction {summary.fraction:.3f}, failed {summary.n_failed}, "
              f"prefixes {[(r, round(f, 3)) for r, f in prefixes]}, "
              f"{elapsed:.0f}s")
    assert _verdict(10, ok, "amplitude density scan", detail)


def test_criterion_11_rotation_dichotomy():
    """Unique rotation number below the invertibility threshold; an interval
    wider than 0.01 above it; < 60 s."""
    t0 = time.monotonic()
    rng = np.random.default_rng(SEED)
    p_inv = ModelParams(c=0.95, e=0.9, gamma=0.01, omega=6.0, mu1=10.0)
    assert derive_constants(p_inv).xi < 2 * p_inv.mu1
    rot_inv = rotation_interval(Case34SMarginal(p_inv), seeds=6,
                                iterations=20000, rng=rng)
    p_non = ModelParams(c=0.6, e=0.2, gamma=0.01, omega=6.0, mu1=1.0)
    assert derive_constants(p_non).xi > 2 * p_non.mu1
    rot_non = rotation_interval(Case34SMarginal(p_non), seeds=6,
                                iterations=5000, rng=rng)
    elapsed = time.monotonic() - t0
    ok = rot_inv.width < 1e-3 and rot_non.width > 0.01 and elapsed < 60.0
    assert _verdict(11, ok, "rotation-interval dichotomy",
                    f"widths {rot_inv.width:.2e} / {rot_non.width:.3f}, "
                    f"{elapsed:.1f}s")


CONFIG = """\
[model]
c = 0.6
e = 0.2
gamma = 0.01
omega = 0.3

[numerics]
seed = 7
iterations = 10000
series_len = 1200

[diophantine]
d1 = 0.01
d2 = 2.0
n_max = 30
"""


def test_criterion_12_determinism(tmp_path):
    """Every CSV/JSON emitting path reruns byte-identically with one seed.

    The scan rerun uses a reduced sample count; per-sample streams are keyed
    by (seed, amplitude), so the reduced run exercises the same machinery.
    """
    cfg = tmp_path / "case2.cfg"
    cfg.write_text(CONFIG)
    jobs = {
        "classify": ["classify", "--config", str(cfg)],
        "orbit": ["return-map", "--config", str(cfg), "--variant", "case12",
                  "--iters", "10000", "--x0", "0.5", "--s0", "0.25"],
        "poincare": ["poincare", "--config", str(cfg), "--x0", "0.001",
                     "--returns", "3", "--sections", "all"],
        "simulate": ["simulate", "--config", str(cfg), "--t-end", "50"],
        "table": ["singular-limit", "--config", str(cfg), "--a", "0.3",
                  "--n-count", "6"],
        "certify": ["certify", "--config", str(cfg), "--a", "0.3",
                    "--horizon", "300"],
        "chaos": ["chaos-test", "--config", str(cfg), "--iters", "1500"],
    }
    ok = True
    for name, args in jobs.items():
        blobs = []
        for run in (1, 2):
            out = tmp_path / f"{name}_{run}.out"
            rc = main(args + ["--seed", "7", "--output", str(out)])
            assert rc == 0, name
            blobs.append(out.read_bytes())
        ok = ok and blobs[0] == blobs[1]
    for run in (1, 2):
        base = tmp_path / f"scan_{run}"
        rc = main(["scan", "--config", str(cfg), "--from", "1e-5",
                   "--to", "1e-2", "--steps", "8", "--log", "--seed", "7",
                   "--output", str(base)])
        assert rc == 0
    ok = ok and (tmp_path / "scan_1.csv").read_bytes() == \
        (tmp_path / "scan_2.csv").read_bytes()
    ok = ok and (tmp_path / "scan_1.json").read_bytes() == \
        (tmp_path / "scan_2.json").read_bytes()
    summary = json.loads((tmp_path / "scan_1.json").read_text())
    assert summary["n_samples"] == 8
    assert _verdict(12, ok, "byte-identical artifact reruns")
