"""Command-line front door.

Subcommands::

    simulate       integrate the flow and emit a (t, x, y, z) CSV
    poincare       extract section returns and emit a (k, x, s, t_raw) CSV
    return-map     iterate an analytic return-map variant, emit (k, x, s)
    singular-limit convergence table of the rescaled family, CSV
    certify        expansion certificate / hypothesis battery, JSON
    classify       regime report (plus admissibility check), JSON
    scan           amplitude density scan, CSV + JSON summary
    chaos-test     0-1 statistic and autocorrelation of an orbit, JSON

Exit codes: 0 success, 1 validation/config error, 2 numeric (floating-point
included) or I/O failure.
Identical config and seed produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import asdict, astuple, fields, replace

from . import __version__
from ._io import write_csv, write_json
from .config import ScanSpec, dump_config, parse_config
from .errors import NumericsError, ValidationError

# no numeric layer is imported here: each command imports the layers it runs,
# so ``--help``, ``--version`` and ``--dump-config`` load none and no numpy

# map steps that chaos-test discards before its phase series
_CHAOS_BURN_IN = 200


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; route through the
    # validation path instead so numeric failures keep exit code 2
    def error(self, message):
        raise ValidationError(message)


@functools.cache
def _build_parser() -> _Parser:
    # built once per process, on the first call; parse_args leaves it as it
    # was, so in-process callers share it
    parser = _Parser(prog="mayleonard",
                     description="Forced May-Leonard system toolbox")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="run configuration file")
        p.add_argument("--seed", type=int, default=None,
                       help="override numerics.seed")
        p.add_argument("--output",
                       help="output path (CSV/JSON per subcommand; "
                            "not needed with --dump-config)")
        p.add_argument("--dump-config", action="store_true",
                       help="print the normalised config and exit")

    p = sub.add_parser("simulate", help="integrate the flow to a CSV trajectory")
    common(p)
    p.add_argument("--x0", type=float, default=0.3)
    p.add_argument("--y0", type=float, default=0.3)
    p.add_argument("--z0", type=float, default=0.3)
    p.add_argument("--t-end", type=float, default=500.0)

    p = sub.add_parser("poincare", help="extract Poincare section returns")
    common(p)
    p.add_argument("--x0", type=float, default=1e-3,
                   help="leading coordinate of the section start point")
    p.add_argument("--returns", type=int, default=10)
    p.add_argument("--sections", choices=("o3", "all"), default="o3")

    p = sub.add_parser("return-map", help="iterate an analytic return-map variant")
    common(p)
    # ``compile_map`` rejects an unknown variant and names the known ones
    p.add_argument("--variant", required=True, help="return-map variant")
    p.add_argument("--iters", type=int, default=10000)
    p.add_argument("--x0", type=float, default=0.5)
    p.add_argument("--s0", type=float, default=0.25)
    p.add_argument("--n", type=int, default=None, help="sequence index (rescaled)")
    p.add_argument("--a", type=float, default=None, help="phase offset (rescaled)")

    p = sub.add_parser("singular-limit",
                       help="sup-distance table of the rescaled family")
    common(p)
    p.add_argument("--a", type=float, default=0.3)
    p.add_argument("--n-from", type=int, default=None,
                   help="first sequence index (default: first admissible)")
    p.add_argument("--n-count", type=int, default=8)

    p = sub.add_parser("certify",
                       help="expansion certificate or full hypothesis battery")
    common(p)
    p.add_argument("--a", type=float, default=0.0)
    p.add_argument("--n", type=int, default=None,
                   help="sequence index (default: first admissible)")
    p.add_argument("--battery", action="store_true",
                   help="run the full battery instead of the certificate alone")
    p.add_argument("--horizon", type=int, default=None,
                   help="override numerics.horizon for the certificate")
    p.add_argument("--u-radius", type=float, default=1e-2)

    p = sub.add_parser("classify", help="regime classification report")
    common(p)

    p = sub.add_parser("scan", help="density scan over forcing amplitudes")
    common(p)
    p.add_argument("--from", dest="lo", type=float, default=None)
    p.add_argument("--to", dest="hi", type=float, default=None)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--log", action="store_true", default=None)

    p = sub.add_parser("chaos-test",
                       help="0-1 statistic and autocorrelation of an orbit")
    common(p)
    p.add_argument("--variant", choices=("case12", "case34"), default="case12")
    p.add_argument("--iters", type=int, default=2000,
                   help="length of the phase series for K and the autocorrelation; "
                        "the case34 rotation interval always runs 8 seeds x 20000 "
                        "iterations")
    p.add_argument("--x0", type=float, default=None)
    p.add_argument("--s0", type=float, default=0.37)
    p.add_argument("--lags", type=int, default=50)
    return parser


def _index(n, a, params):
    """The sequence index, the first admissible one when ``n`` is None, and
    its amplitude, which must lie below the admissibility bound."""
    from .params import derive_constants
    from .singular import GAMMA_PLUS, first_admissible_index, gamma_sequence
    dc = derive_constants(params)
    first = first_admissible_index(dc)
    n = first if n is None else n
    gamma = gamma_sequence(n, a, dc)
    if gamma >= GAMMA_PLUS:
        raise ValidationError(
            f"n={n} at a={a} gives gamma = {gamma:.4g}, not below the admissibility "
            f"bound {GAMMA_PLUS}; the first admissible index is {first}")
    return n, gamma


def _check_start(x0, s0):
    # the maps are defined on the section x > 0; x0 = 0 is the invariant plane
    if not 0.0 < x0 < math.inf:
        raise ValidationError(f"--x0 must be > 0 and finite, got {x0}")
    if not math.isfinite(s0):
        raise ValidationError(f"--s0 must be finite, got {s0}")


def _check_iters(iters):
    if iters < 1:
        raise ValidationError(f"--iters must be >= 1, got {iters}")


def _write_rows(path, cls, rows):
    # one CSV column per dataclass field, in field order
    write_csv(path, [f.name for f in fields(cls)], map(astuple, rows))


def _run(args) -> int:
    cfg = parse_config(args.config)
    params = cfg.params
    # flag overrides go through the records, which validate them, before the
    # dump; only ``scan`` has the scan flags
    flags = {k: v for k, v in vars(args).items() if v is not None}
    num = replace(cfg.numerics, **{k: flags[k] for k in ("seed", "horizon") if k in flags})
    scan_flags = {k: flags[k] for k in ("lo", "hi", "steps", "log") if k in flags}
    spec = replace(cfg.scan or ScanSpec(), **scan_flags) if scan_flags else cfg.scan
    if args.dump_config:
        sys.stdout.write(dump_config(replace(cfg, numerics=num, scan=spec)))
        return 0
    if args.output is None:
        raise ValidationError("the following arguments are required: --output")

    if args.command in ("simulate", "poincare"):
        # the only commands that integrate the flow; the others never import it
        from .flow import FlowState, integrate, section_returns, section_state
        if args.command == "simulate":
            traj = integrate(FlowState(args.x0, args.y0, args.z0, 0.0),
                             args.t_end, params, num)
            write_csv(args.output, ("t", "x", "y", "z"),
                      zip(traj.ts.tolist(), *traj.states.T.tolist()))
        else:
            events = section_returns(section_state(args.x0, params),
                                     args.returns, params, num,
                                     sections=args.sections)
            write_csv(args.output, ("k", "x", "s", "t_raw"),
                      ((ev.index, ev.x, ev.s, ev.t_raw) for ev in events))
        return 0

    if args.command == "return-map":
        from .returnmap import compile_map
        _check_start(args.x0, args.s0)
        _check_iters(args.iters)
        if args.variant == "rescaled":
            if args.a is None:
                raise ValidationError("rescaled variant needs --a")
            params = replace(params, gamma=_index(args.n, args.a, params)[1])
        xs, ss, _ = compile_map(args.variant, params).orbit(args.x0, args.s0, args.iters)
        write_csv(args.output, ("k", "x", "s"),
                  zip(range(1, args.iters + 1), xs.tolist(), ss.tolist()))
        return 0

    if args.command == "singular-limit":
        from .singular import ConvergenceRow, singular_limit_convergence
        # the first index has the table's largest amplitude
        n0, _ = _index(args.n_from, args.a, params)
        rows = singular_limit_convergence(range(n0, n0 + args.n_count),
                                          args.a, params)
        if len(rows) < args.n_count:
            print(f"note: the amplitude underflows after n={rows[-1].n}; "
                  f"the table stops there", file=sys.stderr)
        _write_rows(args.output, ConvergenceRow, rows)
        return 0

    if args.command == "certify":
        from .singular import (hypothesis_battery, make_circle_map,
                               misiurewicz_check, transition_matrix)
        # the index is checked before the certificate runs
        n, gamma = _index(args.n, args.a, params)
        if args.battery:
            report = hypothesis_battery(params, n, args.a, horizon=num.horizon,
                                        u_radius=args.u_radius)
            write_json(args.output, asdict(report))
        else:
            cmap = make_circle_map(args.a, params)
            cert = misiurewicz_check(cmap, u_radius=args.u_radius, horizon=num.horizon)
            tm = transition_matrix(cmap)
            write_json(args.output, {
                "a": args.a,
                "n": n,
                "gamma": gamma,
                "certificate": asdict(cert),
                "transition_matrix": asdict(tm),
            })
        return 0

    if args.command == "classify":
        from .diagnostics import classify_regime
        from .params import check_c1a_c1b
        report = asdict(classify_regime(params))
        if cfg.diophantine is not None:
            report["admissibility"] = asdict(check_c1a_c1b(params, cfg.diophantine))
        write_json(args.output, report)
        return 0

    if args.command == "scan":
        from .diagnostics import ScanRow, density_scan
        rows, summary = density_scan((spec or ScanSpec()).grid(), params, num)
        base_path = args.output
        if base_path.endswith((".csv", ".json")):
            base_path = base_path.rsplit(".", 1)[0]
        _write_rows(base_path + ".csv", ScanRow, rows)
        write_json(base_path + ".json", asdict(summary))
        return 0

    if args.command == "chaos-test":
        import numpy as np

        from .diagnostics import (Case34SMarginal, autocorrelation, rotation_interval,
                                  zero_one_test)
        from .returnmap import compile_map
        rng = np.random.default_rng(num.seed)
        x0 = args.x0 if args.x0 is not None else max(params.gamma, 1e-6)
        _check_start(x0, args.s0)
        _check_iters(args.iters)
        steps = _CHAOS_BURN_IN + args.iters
        if args.variant == "case34":
            cmap = Case34SMarginal(params)
            series = cmap.orbit(args.s0, steps)
            rot_info = asdict(rotation_interval(cmap, rng=rng))
        else:
            series = compile_map("case12", params).orbit(x0, args.s0, steps)[1]
            rot_info = None
        obs = np.cos(2.0 * np.pi * series[_CHAOS_BURN_IN:])
        K = zero_one_test(obs, rng=rng)
        acf = autocorrelation(obs, args.lags)
        write_json(args.output, {
            "variant": args.variant,
            "iters": args.iters,
            "K": K,
            "autocorrelation_decay_rate": acf.decay_rate,
            "rotation": rot_info,
        })
        return 0

    raise ValidationError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _run(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ArithmeticError as exc:
        print(f"numeric failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (NumericsError, OSError) as exc:
        print(f"numeric/io failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
