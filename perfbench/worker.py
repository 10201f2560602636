"""One workload process: set up, run rounds of CLI calls, report.

Started by ``run.py``; not meant to be run by hand.  ``--spawned`` is the
CLOCK_MONOTONIC reading the parent took just before starting this process,
so set-up time covers interpreter start, imports and input generation.

Modes:
  setup  stop after set-up (set-up time samples)
  run    repeat the workload's round until ``--seconds`` have passed
  trace  the same, but run every item twice, untraced and then traced,
         into separate output directories
The host-speed probe (``hostspeed.py``) samples from the start of the
process through set-up, and through the rounds in ``run`` mode; each timing
is reported with the probe's samples over the same interval.  The result
goes to ``--result`` as JSON.
"""

import time

import hostspeed

PROBE = hostspeed.Probe()
PROBE.start()               # before the imports, so set-up is sampled too
START = PROBE.mark()

import argparse             # noqa: E402
import json                 # noqa: E402
import resource             # noqa: E402
import sys                  # noqa: E402
from pathlib import Path    # noqa: E402


def _cpu() -> float:
    """CPU seconds of this process and of its ended child processes, so
    that work handed to a process pool is charged to the workload."""
    return sum(ru.ru_utime + ru.ru_stime
               for ru in map(resource.getrusage, (resource.RUSAGE_SELF,
                                                  resource.RUSAGE_CHILDREN)))


def _peak_rss_mb() -> float:
    """The larger of this process's and its largest child's peak RSS."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args()

    root = Path(args.root)
    src = root / "src"
    sys.path.insert(0, str(src))
    import mayleonard.cli as cli
    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"mayleonard imported from {cli.__file__}, not from {src}")

    import numpy
    import scipy
    import workloads

    workdir = Path(args.workdir)
    reference = json.loads((Path(__file__).parent / "reference.json").read_text())
    wl = workloads.generate(args.workload, args.seed, root, workdir, reference)
    setup_s = time.monotonic() - args.spawned
    result = {"setup_s": setup_s, **PROBE.since(START),
              "versions": {"python": sys.version.split()[0],
                           "numpy": numpy.__version__, "scipy": scipy.__version__}}
    if args.mode == "trace":
        PROBE.stop()
    if args.mode != "setup":
        result.update(run_rounds(cli, wl, workdir, args.seconds,
                                 traced=args.mode == "trace"))
    PROBE.stop()
    Path(args.result).write_text(json.dumps(result))


def _call(cli, argv):
    try:
        return cli.main(argv), ""
    except Exception as exc:   # an item that raises is a failed item, not a crash
        return None, f"{type(exc).__name__}: {exc}"


def _timed(cli, item, outdir):
    outdir.mkdir(parents=True)
    argv = item.bound_argv(outdir)
    mark = PROBE.mark()
    c0, t0 = _cpu(), time.perf_counter()
    rc, error = _call(cli, argv)
    return {"wall_s": time.perf_counter() - t0, "cpu_s": _cpu() - c0,
            **PROBE.since(mark), "rc": rc, "error": error}


def run_rounds(cli, wl, workdir, seconds, traced):
    tracer = None
    if traced:
        import mayleonard
        from spans import Tracer
        tracer = Tracer(mayleonard)
    items, rounds = [], 0
    begin = time.perf_counter()

    def time_left():
        return time.perf_counter() - begin < seconds

    while not rounds or time_left():
        for pos, item in enumerate(wl.round):
            # after the first round an untraced run may stop between items;
            # a traced run keeps whole rounds, its metrics are per round
            if rounds and tracer is None and not time_left():
                break
            n = len(items)
            rec = {"n": n, "pos": pos, "kind": item.kind, "key": item.key,
                   "returns": item.returns, "map_steps": item.map_steps}
            rec.update(_timed(cli, item, workdir / "items" / str(n)))
            if tracer is not None:
                tracer.install()
                try:
                    t = _timed(cli, item, workdir / "traced" / str(n))
                finally:
                    tracer.uninstall()
                rec["traced"] = t
            items.append(rec)
        else:
            rounds += 1
    out = {"rounds": rounds, "items": items, "sizes": wl.sizes,
           "peak_rss_mb": _peak_rss_mb()}
    if tracer is not None:
        out["trace"] = tracer.summary()
        s = tracer.solver
        out["solver"] = {"steps": s.steps, "rejected": s.rejected, "nfev": s.nfev,
                         "step_s": s.step_s, "dense_output_s": s.dense_output_s}
        tracer.save(workdir / "spans.npz")
    return out


if __name__ == "__main__":
    main()
