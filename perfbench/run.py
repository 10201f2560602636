"""Benchmark of the mayleonard CLI: one workload, one seed, one run.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout (``src/mayleonard`` and ``configs/``
next to this directory); the package is imported from ``src``, never from
an installed copy.  Workloads and their reasons are listed in
``BENCHMARK.json``; ``workloads.py`` generates their inputs from the seed
and checks every output.

A run spawns fresh workload processes (``worker.py``): the main process,
which repeats the workload's round of items through ``mayleonard.cli.main``
until ``--seconds`` have passed, and two that only set up, one before it
and one after.  The parent then checks every output.  ``setup_s`` is the
median over the three set-ups; ``wall_s`` and ``cpu_s`` are the time of one
round, each item at its median repetition; ``peak_rss_mb`` is the main
process's peak RSS (or that of a child process it ran, if larger).

The three times are at a reference host speed: each set-up and each item
is rescaled by the host-speed samples taken while it ran (``hostspeed.py``),
because a virtual machine on a shared host (such as the 2-vCPU Xeon VM the
benchmark was set up on) runs the same work up to 1.7 times slower for
minutes at a time, which no number of repetitions averages out.  The measured times are printed and recorded beside them as
``setup_raw_s``, ``wall_raw_s`` and ``cpu_raw_s``, with ``host_speed``, the
reference kernel time over the mean kernel time of the rounds.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs every item
untraced and then traced (``spans.py``), requires byte-identical artifacts
from the two, and prints the per-layer metrics.  Every metric is printed as
``name value unit`` and the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A run record (seed, sizes,
versions, machine, every metric with its unit and direction) is written to
``.bench_out/`` in the checkout.  The exit code is 0 only when every item
succeeded and every check passed; ``--corrupt`` damages the first item's
output before the checks, a negative control that must exit non-zero.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
N_SETUP = 2                 # set-up-only processes; the main process adds one sample
DEADLINE_S = 170.0          # a run must end within 180 s


def fail(msg: str, code: int = 2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def preflight():
    needed = [ROOT / "src" / "mayleonard" / "cli.py", ROOT / "configs" / "case1.cfg",
              ROOT / "configs" / "case2.cfg", ROOT / "BENCHMARK.json",
              HERE / "reference.json"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        fail(f"not a mayleonard source checkout, missing {missing}")


def spawn(tag, mode, args, workdir, timeout, importtime=False):
    """Run one worker process and return its result and stderr."""
    result = workdir / f"{tag}.json"
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + [
        str(HERE / "worker.py"), "--root", str(ROOT), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--workdir", str(workdir), "--mode", mode, "--result", str(result)]
    cmd += ["--spawned", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=timeout, text=True)
    except subprocess.TimeoutExpired:
        fail(f"{mode} process exceeded {timeout:.0f} s", 1)
    if proc.returncode != 0:
        fail(f"{mode} process exited {proc.returncode}:\n{proc.stderr[-4000:]}", 1)
    return json.loads(result.read_text()), proc.stderr


def scipy_import_s(stderr: str) -> float:
    """Seconds spent executing scipy modules, from ``-X importtime``."""
    total_us = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line.split("|")
        if len(parts) != 3 or not parts[0].split(":")[1].strip().isdigit():
            continue
        name = parts[2].strip()
        if name == "scipy" or name.startswith("scipy."):
            total_us += int(parts[0].split(":")[1])
    return total_us / 1e6


def check_items(args, wl, res, workdir, reference):
    """Failed-item count and the problems found, one line per problem."""
    import workloads as W

    stream = itertools.cycle(wl.round)
    failed, problems = 0, []
    for rec, item in zip(res["items"], stream):
        tag = f"item {rec['n']} ({item.kind} {item.key})"
        if (rec["kind"], rec["key"]) != (item.kind, item.key):
            problems.append(f"{tag}: worker ran {rec['kind']} {rec['key']}")
            continue
        outdir = workdir / "items" / str(rec["n"])
        runs = [rec] + ([rec["traced"]] if "traced" in rec else [])
        if any(r["rc"] != 0 for r in runs):
            failed += 1
            problems += [f"{tag}: exit {r['rc']} {r['error']}".rstrip() for r in runs
                         if r["rc"] != 0]
            continue
        if args.corrupt and rec["n"] == 0:
            W.corrupt(item, outdir)
        item_failed, found = W.check(args.workload, item, outdir, reference)
        failed += item_failed
        if "traced" in rec:
            for name in item.outputs:
                traced = workdir / "traced" / str(rec["n"]) / name
                if not traced.is_file() or traced.read_bytes() != (outdir / name).read_bytes():
                    found.append(f"traced {name} differs from the untraced output")
        problems += [f"{tag}: {p}" for p in found]
    return failed, problems


def round_time(items, value):
    """One round's time: ``value`` of each item at its median repetition,
    summed over the round.  The median is robust to the slow first
    repetition of an item (memory the process has not touched yet) and to
    a repetition that a burst of other load on the host slowed."""
    by_pos = {}
    for r in items:
        by_pos.setdefault(r["pos"], []).append(value(r))
    return sum(statistics.median(v) for v in by_pos.values())


def mean_kernel_s(samples):
    """Mean reference-kernel time over records carrying probe samples."""
    n = sum(s["samples"] for s in samples)
    return sum(s["kernel_s"] * s["samples"] for s in samples if s["samples"]) / n


def machine():
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            "cpu_model": model or platform.processor(), "platform": platform.platform()}


def source_identity():
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def end_to_end(res, probes):
    """The end-to-end metrics at the reference host speed, and the raw
    measurements beside them."""
    setups = probes + [res]
    kernel = mean_kernel_s(res["items"])

    def adj(r, field):
        return hostspeed.adjusted(r[field], r["probe_s"], r["kernel_s"] or kernel)

    values = {"setup_s": statistics.median(adj(p, "setup_s") for p in setups),
              "wall_s": round_time(res["items"], lambda r: adj(r, "wall_s")),
              "cpu_s": round_time(res["items"], lambda r: adj(r, "cpu_s")),
              "peak_rss_mb": res["peak_rss_mb"]}
    raw = {"setup_raw_s": statistics.median(p["setup_s"] for p in setups),
           "wall_raw_s": round_time(res["items"], lambda r: r["wall_s"]),
           "cpu_raw_s": round_time(res["items"], lambda r: r["cpu_s"]),
           "host_speed": hostspeed.KERNEL_REF_S / kernel}
    return values, raw


def per_layer(res, probes):
    """Per-round layer metrics from the traced pass."""
    import spans

    rounds = res["rounds"]
    trace, solver, items = res["trace"], res["solver"], res["items"]
    fns, layers = trace["functions"], trace["layers"]

    def fn(name, key):
        return fns.get(name, {}).get(key, 0)

    m = {}
    for layer in spans.LAYERS:
        name = layer.lstrip("_")      # metric names start with a letter: _io -> io
        m[f"{name}.self_s"] = layers[layer]["self_s"] / rounds
        m[f"{name}.calls"] = layers[layer]["calls"] / rounds
    m["params.derive_constants.calls"] = fn("params.derive_constants", "calls") / rounds
    for name in ("params.stable_fixed_point", "diagnostics.lyapunov_2d",
                 "diagnostics.zero_one_test", "diagnostics.annulus_check",
                 "diagnostics.density_scan", "singular.misiurewicz_check",
                 "singular.critical_set", "singular.transversality_probe"):
        m[f"{name}.self_s"] = fn(name, "self_s") / rounds
    certificates = fn("singular.misiurewicz_check", "calls")
    m["singular.s_per_certificate"] = (fn("singular.misiurewicz_check", "incl_s") / certificates
                                       if certificates else 0.0)
    steps = sum(r["map_steps"] for r in items)
    m["returnmap.us_per_step"] = layers["returnmap"]["self_s"] * 1e6 / steps if steps else 0.0
    returns = sum(r["returns"] for r in items)
    m["flow.rk_steps"] = solver["steps"] / rounds
    m["flow.rk_rejected"] = solver["rejected"] / rounds
    m["flow.nfev"] = solver["nfev"] / rounds
    m["flow.nfev_per_return"] = solver["nfev"] / returns if returns else 0.0
    m["flow.stepper_s"] = solver["step_s"] / rounds
    m["flow.dense_output_s"] = solver["dense_output_s"] / rounds
    m["setup.scipy_import_s"] = statistics.median(p["scipy_import_s"] for p in probes)
    m["trace.overhead_ratio"] = (round_time(items, lambda r: r["traced"]["wall_s"])
                                 / round_time(items, lambda r: r["wall_s"]))
    return m


def kind_stats(items):
    out = {}
    for kind in dict.fromkeys(r["kind"] for r in items):
        walls = sorted(r["wall_s"] for r in items if r["kind"] == kind)
        out[kind] = {"n": len(walls), "median_s": statistics.median(walls),
                     "min_s": walls[0], "max_s": walls[-1]}
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="repeat the round until this many seconds have passed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt", action="store_true",
                    help="negative control: damage the first output before checking")
    args = ap.parse_args()
    preflight()
    import workloads as W

    if args.workload not in W.NAMES:
        fail(f"unknown workload {args.workload!r}; choose from {list(W.NAMES)}")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference = json.loads((HERE / "reference.json").read_text())
    started = time.monotonic()
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_work"))
    try:
        code = run(args, bench, reference, workdir, started)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.exit(code)


def run(args, bench, reference, workdir, started):
    import workloads as W

    def budget():
        left = DEADLINE_S - (time.monotonic() - started)
        if left <= 1.0:
            fail(f"no time left of the {DEADLINE_S:.0f} s deadline", 1)
        return left

    def setup_probe(i):
        probe, stderr = spawn(f"setup{i}", "setup", args, workdir, min(60.0, budget()),
                              importtime=bool(args.trace))
        if args.trace:
            probe["scipy_import_s"] = scipy_import_s(stderr)
        return probe

    # set-up samples before and after the main process, so that a slow
    # stretch of the host skews at most some of them
    probes = [setup_probe(i) for i in range(N_SETUP // 2)]
    res, _ = spawn("main", "trace" if args.trace else "run", args, workdir, budget())
    probes += [setup_probe(i) for i in range(N_SETUP // 2, N_SETUP)]

    wl = W.generate(args.workload, args.seed, ROOT, workdir, reference)
    failed, problems = check_items(args, wl, res, workdir, reference)
    items = res["items"]
    if args.trace:
        values, raw, declared = per_layer(res, probes), {}, bench["per_layer"]
    else:
        (values, raw), declared = end_to_end(res, probes), bench["end_to_end"]
    missing = [d["name"] for d in declared if d["name"] not in values]
    if missing:
        fail(f"metrics declared in BENCHMARK.json but not measured: {missing}", 1)

    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        shutil.move(str(workdir / "spans.npz"), str(out / f"{stem}.spans.npz"))
    metrics = {d["name"]: {"value": values[d["name"]], "unit": d["unit"]} for d in declared}
    better = {d["name"]: d["better"] for d in declared}
    stats = kind_stats(items)
    for kind, s in stats.items():
        print(f"# {kind}: n={s['n']} median {s['median_s']:.4f} s "
              f"min {s['min_s']:.4f} s max {s['max_s']:.4f} s")
    print(f"# rounds {res['rounds']}, items attempted {len(items)}, failed {failed}")
    print(f"fail_ratio {failed / len(items):.6g} ratio (of {len(items)} attempted)")
    for name, value in raw.items():
        print(f"{name} {value:.6g} {'ratio' if name == 'host_speed' else 's'}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    if len(problems) > 20:
        print(f"... and {len(problems) - 20} more problems", file=sys.stderr)

    record = {
        "workload": args.workload,
        "why": next((w["why"] for w in bench["workloads"] if w["name"] == args.workload), ""),
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "corrupt": args.corrupt, "rounds": res["rounds"], "attempted": len(items),
        "failed": failed, "fail_ratio": failed / len(items), "problems": problems,
        "sizes": res["sizes"], "per_kind": stats,
        "setup_samples": [{k: p[k] for k in ("setup_s", "samples", "kernel_s", "probe_s")}
                          for p in probes + [res]],
        "item_samples": [{k: r[k] for k in ("pos", "wall_s", "cpu_s", "samples",
                                            "kernel_s", "probe_s")} for r in items],
        "raw": raw,
        "metrics": {name: dict(m, better=better[name]) for name, m in metrics.items()},
        "versions": res["versions"], "machine": machine(), "source": source_identity(),
        "coverage": json.loads((HERE / "coverage.json").read_text()),
        "finished_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    (out / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": not problems, "attempted": len(items),
                      "failed": failed, "metrics": metrics}))
    return 0 if not problems and not failed else 1


if __name__ == "__main__":
    main()
