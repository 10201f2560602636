"""Record the reference outputs the workload checks compare against.

Runs every input of every workload pool once through ``mayleonard.cli.main``
and writes ``perfbench/reference.json``.  The checked-in file was recorded
at the commit that introduced the benchmark; rerun only when the mathematics
of an output changes on purpose, and say why in CHANGES.md.

    python3 perfbench/make_reference.py [section ...]

Sections: scan (~6 min), certify (~2 min, including three timed passes
that the certify workload's cost strata come from), returns_forced
(~20 s), returns_unforced (~10 s).  Named sections are updated in place.
"""

from __future__ import annotations

import json
import math
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads as W  # noqa: E402
from mayleonard.cli import main  # noqa: E402

REFERENCE = HERE / "reference.json"


def _run(argv, outdir):
    argv = [a.replace(W.OUT, str(outdir)) for a in argv]
    rc = main(argv)
    if rc != 0:
        raise SystemExit(f"reference run failed with exit code {rc}: {argv}")


def _crossing_times(path):
    _, rows = W._read_csv(path)
    return [float(r[3]) for r in rows]


def scan(tmp, cfg):
    # one CLI scan over the criterion-10 grid at the workload's scan sizes;
    # each amplitude draws from its own generator, so a scan over a sub-range
    # repeats these rows
    scfg = tmp / "case2_scan.cfg"
    scfg.write_text(W.scan_config_text(cfg["case2"].read_text()))
    _run(("scan", "--config", str(scfg), "--output", W.OUT + "/scan"), tmp)
    header, rows = W._read_csv(tmp / "scan.csv")
    out = {}
    for i, cells in enumerate(rows):
        row = dict(zip(header, cells))
        if float(row["gamma"]) != float(W.SCAN_GRID[i]):
            raise SystemExit(f"scan row {i} is not on the criterion-10 grid")
        out[str(i)] = {"gamma": float(row["gamma"]),
                       "lambda1": float(row["lambda1"]), "K": float(row["K"]),
                       "success": row["success"] == "true",
                       "failed": row["failed"] == "true"}
    return out


def certify(tmp, cfg):
    out = {}
    for case in ("case1", "case2"):
        out[case] = {}
        for k in range(W.CERTIFY_OFFSETS):
            item = W.certify_item(case, k, cfg[case])
            _run(item.argv, tmp)
            rep = json.loads((tmp / "battery.json").read_text())
            out[case][str(k)] = {
                "n": rep["n"],
                "status": {h: e["status"] for h, e in rep["entries"].items()},
                "critical_orbits": rep["entries"]["H4"]["conditions"]["critical_orbits"],
            }
            print(case, k, out[case][str(k)], flush=True)
    # cost of each input the workload draws from, best of three interleaved
    # passes; the workload groups inputs by it so that every seed draws the
    # same mix of cheap and dear certificates
    timed = [(case, k) for case in ("case1", "case2") for k in range(W.CERTIFY_OFFSETS)
             if case == "case2" or out[case][str(k)]["critical_orbits"]]
    for _ in range(3):
        for case, k in timed:
            t0 = time.perf_counter()
            _run(W.certify_item(case, k, cfg[case]).argv, tmp)
            dt = time.perf_counter() - t0
            rec = out[case][str(k)]
            rec["cost_s"] = round(min(dt, rec.get("cost_s", math.inf)), 4)
    return out


def returns_forced(tmp, cfg):
    out = {}
    for case in ("case2", "case1"):
        out[case] = {}
        for j, x0 in enumerate(W.forced_pool()):
            item = W.poincare_item(case, j, x0, W.FORCED_RETURNS[case], cfg[case])
            _run(item.argv, tmp)
            out[case][str(j)] = {"x0": x0, "t_last": _crossing_times(tmp / "returns.csv")[-1]}
            print(case, j, out[case][str(j)], flush=True)
    return out


def returns_unforced(tmp, cfg):
    ucfg = tmp / "case2_unforced.cfg"
    ucfg.write_text(W.unforced_config_text(cfg["case2"].read_text()))
    out = {}
    for j, x0 in enumerate(W.unforced_pool()):
        item = W.poincare_item("unforced", j, x0, W.UNFORCED_RETURNS, ucfg)
        _run(item.argv, tmp)
        ts = _crossing_times(tmp / "returns.csv")
        gaps = [b - a for a, b in zip(ts, ts[1:])]
        out[str(j)] = {"x0": x0, "t_last": ts[-1],
                       "gap_ratios": [b / a for a, b in zip(gaps, gaps[1:])]}
        print(j, out[str(j)], flush=True)
    return out


SECTIONS = {"scan": scan, "certify": certify,
            "returns_forced": returns_forced, "returns_unforced": returns_unforced}


def main_(names):
    cfg = {c: ROOT / "configs" / f"{c}.cfg" for c in ("case1", "case2")}
    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            results[name] = SECTIONS[name](Path(tmp), cfg)
    # re-read just before writing so that sections recorded by another
    # invocation in the meantime are kept
    ref = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    ref.update(results)
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    chosen = sys.argv[1:] or list(SECTIONS)
    unknown = [n for n in chosen if n not in SECTIONS]
    if unknown:
        raise SystemExit(f"unknown sections {unknown}; choose from {list(SECTIONS)}")
    main_(chosen)
