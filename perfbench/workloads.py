"""Workload definitions: seeded inputs, CLI argv and output checks.

A workload run repeats one *round* of items until its time is up; an item
is one ``mayleonard.cli.main(argv)`` call writing into its own output
directory.  The seed chooses each item's input from a pool whose reference
outputs were recorded at the seed commit (``reference.json``, regenerated by
``make_reference.py``).  Pools and draws are arranged so that every seed
runs about the same amount of work, which keeps timings comparable between
seeds.  Every item takes at most about three seconds, so that a run repeats
it several times and takes its median repetition.
"""

from __future__ import annotations

import configparser
import csv
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

NAMES = ("scan", "certify", "returns_forced", "returns_unforced")

# the criterion-10 grid, which the config's [scan] section also spells out
SCAN_GRID = np.geomspace(1e-6, 0.05, 200)
# a scan item is two consecutive grid amplitudes in one call, so that a scan
# that batches amplitudes can show its gain, at 10000 iterations and a
# 1000-sample series: about 2.5 s, so that a run takes the median of several
# repetitions.  With two amplitudes both are end points of the scan's own
# grid, which therefore reproduces the criterion-10 grid values exactly.
SCAN_AMPLITUDES = 2
SCAN_ITERATIONS, SCAN_SERIES = 10000, 1000
# map steps one scan amplitude requests: burn-in plus tangent iterations
# for the Lyapunov pair, then burn-in plus series for each rotation seed
SCAN_BURN_IN, SCAN_ROT_SEEDS = 500, 3
SCAN_MAP_STEPS = (SCAN_BURN_IN + SCAN_ITERATIONS
                  + SCAN_ROT_SEEDS * (SCAN_BURN_IN + SCAN_SERIES))
# largest differences from the reference that check_scan accepts
SCAN_LAMBDA1_TOL, SCAN_K_TOL = 0.25, 0.05

CERTIFY_OFFSETS = 64       # pool a = k / 64 on both configs
CERTIFY_HORIZON = 250      # certificate horizon, a quarter of the default
CERTIFY_CASE1_ITEMS = 2    # ~0.4 s each
CERTIFY_CASE2_ITEMS = 8    # ~0.1 s each

FORCED_POOL = 32           # x0 log-spaced over [1e-4, 1e-2]
FORCED_RETURNS = {"case2": 10, "case1": 40}    # ~25 vs ~6 ms per return
FORCED_ITEMS = 2           # per config
UNFORCED_POOL = 16         # x0 log-spaced over 1e-3 * 10**[-0.05, 0.05]
UNFORCED_RETURNS = 6       # each return costs ~delta = 3 times the last
UNFORCED_ITEMS = 2

OUT = "{out}"              # stands for the item's output directory


@dataclass(frozen=True)
class Item:
    kind: str              # item class, for reporting
    key: str               # reference-table key of the input
    argv: tuple            # CLI argv; OUT is replaced by the output directory
    outputs: tuple         # files the item writes, relative to its directory
    returns: int = 0       # section returns requested
    map_steps: int = 0     # return-map steps requested

    def bound_argv(self, outdir) -> list:
        return [a.replace(OUT, str(outdir)) for a in self.argv]


@dataclass
class Workload:
    name: str
    round: list            # the items of one round, repeated until time is up
    sizes: dict = field(default_factory=dict)


def forced_pool():
    return [float(x) for x in np.geomspace(1e-4, 1e-2, FORCED_POOL)]


def unforced_pool():
    return [float(x) for x in 1e-3 * np.logspace(-0.05, 0.05, UNFORCED_POOL)]


def edit_config(text: str, section: str, values: dict) -> str:
    """A config text with keys of one section set, comments kept."""
    out, current, todo = [], None, dict(values)

    def add_missing():
        if current == section and todo:
            at = len(out)
            while at and not out[at - 1].strip():
                at -= 1
            out[at:at] = [f"{k} = {v}" for k, v in todo.items()]
            todo.clear()

    for line in text.splitlines():
        stripped = line.strip()
        if stripped.startswith("["):
            add_missing()
            current = stripped[1:-1].strip()
        elif current == section and stripped.split("=")[0].strip() in todo:
            key = stripped.split("=")[0].strip()
            line = f"{key} = {todo.pop(key)}"
        out.append(line)
    add_missing()
    if todo:
        raise ValueError(f"config has no [{section}] section for {sorted(todo)}")
    return "\n".join(out) + "\n"


def unforced_config_text(case2_text: str) -> str:
    """case2.cfg with the forcing switched off (gamma = 0, log chart)."""
    return edit_config(case2_text, "model", {"gamma": "0.0"})


def scan_config_text(case2_text: str) -> str:
    """case2.cfg at the scan sizes of the scan workload."""
    return edit_config(case2_text, "numerics", {"iterations": SCAN_ITERATIONS,
                                                "series_len": SCAN_SERIES})


def scan_item(i: int, cfg: Path) -> Item:
    lo, hi = float(SCAN_GRID[i]), float(SCAN_GRID[i + SCAN_AMPLITUDES - 1])
    return Item(kind="scan", key=str(i),
                argv=("scan", "--config", str(cfg), "--from", repr(lo),
                      "--to", repr(hi), "--steps", str(SCAN_AMPLITUDES), "--log",
                      "--output", OUT + "/scan"),
                outputs=("scan.csv", "scan.json"),
                map_steps=SCAN_AMPLITUDES * SCAN_MAP_STEPS)


def certify_item(case: str, k: int, cfg: Path) -> Item:
    return Item(kind=case, key=str(k),
                argv=("certify", "--config", str(cfg), "--battery",
                      "--a", repr(k / CERTIFY_OFFSETS), "--horizon", str(CERTIFY_HORIZON),
                      "--output", OUT + "/battery.json"),
                outputs=("battery.json",))


def poincare_item(kind: str, j: int, x0: float, returns: int, cfg: Path) -> Item:
    return Item(kind=kind, key=str(j),
                argv=("poincare", "--config", str(cfg), "--x0", repr(x0),
                      "--returns", str(returns), "--sections", "all",
                      "--output", OUT + "/returns.csv"),
                outputs=("returns.csv",), returns=returns)


def _by_cost(table: dict, keys) -> list:
    return sorted(keys, key=lambda k: (table[k]["cost_s"], int(k)))


def generate(name: str, seed: int, root: Path, workdir: Path,
             reference: dict) -> Workload:
    """The seeded round of a workload; writes generated configs to workdir."""
    rng = random.Random(f"{name}:{seed}")
    cfg = {c: root / "configs" / f"{c}.cfg" for c in ("case1", "case2")}
    if name == "scan":
        scfg = workdir / "case2_scan.cfg"
        scfg.write_text(scan_config_text(cfg["case2"].read_text()))
        i = rng.randrange(len(SCAN_GRID) - SCAN_AMPLITUDES + 1)
        return Workload(name, [scan_item(i, scfg)], {
            "amplitudes": SCAN_AMPLITUDES, "grid_index": i,
            "gamma": [float(g) for g in SCAN_GRID[i:i + SCAN_AMPLITUDES]],
            "iterations": SCAN_ITERATIONS, "series_len": SCAN_SERIES,
            "map_steps": SCAN_AMPLITUDES * SCAN_MAP_STEPS})
    if name == "certify":
        # Case 1 draws from the offsets whose certificate sweeps the whole
        # horizon (critical orbits avoid U), case 2 from all offsets, so the
        # two exercise the long vectorised and the early-exit paths of
        # singular with a similar share of time.  Costs differ by 2-3x
        # between offsets, so each case's offsets are sorted by recorded
        # cost and split into strata, one draw per stratum (case 1 from the
        # middle half only): every seed runs about the same amount of work.
        table1, table2 = reference["certify"]["case1"], reference["certify"]["case2"]
        long1 = _by_cost(table1, [k for k, v in table1.items() if v["critical_orbits"]])
        band = long1[len(long1) // 4: len(long1) - len(long1) // 4]
        items = []
        for case, keys, n in (("case1", band, CERTIFY_CASE1_ITEMS),
                              ("case2", _by_cost(table2, table2), CERTIFY_CASE2_ITEMS)):
            items += [certify_item(case, int(rng.choice(list(st))), cfg[case])
                      for st in np.array_split(np.array(keys), n)]
        return Workload(name, items, {
            "horizon": CERTIFY_HORIZON,
            "case1_offsets": [i.key for i in items if i.kind == "case1"],
            "case2_offsets": [i.key for i in items if i.kind == "case2"],
            "case1_band": len(band)})
    if name == "returns_forced":
        pool = forced_pool()
        items = []
        for case in ("case2", "case1"):
            for j in rng.sample(range(len(pool)), FORCED_ITEMS):
                items.append(poincare_item(case, j, pool[j], FORCED_RETURNS[case], cfg[case]))
        return Workload(name, items, {"returns": dict(FORCED_RETURNS),
                                      "x0": [float(i.argv[4]) for i in items]})
    if name == "returns_unforced":
        ucfg = workdir / "case2_unforced.cfg"
        ucfg.write_text(unforced_config_text(cfg["case2"].read_text()))
        pool = unforced_pool()
        picks = rng.sample(range(len(pool)), UNFORCED_ITEMS)
        return Workload(name, [poincare_item("unforced", j, pool[j], UNFORCED_RETURNS, ucfg)
                               for j in picks],
                        {"returns": UNFORCED_RETURNS, "x0": [pool[j] for j in picks]})
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# output checks: each returns a list of problems, empty when the item passed

def _read_csv(path: Path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def check_scan(item: Item, outdir: Path, ref: dict):
    header, rows = _read_csv(outdir / "scan.csv")
    if len(rows) != SCAN_AMPLITUDES:
        return True, [f"expected {SCAN_AMPLITUDES} scan rows, got {len(rows)}"]
    problems, failed, successes = [], 0, 0
    for j, cells in enumerate(rows):
        index = int(item.key) + j
        row_failed, success, found = _check_scan_row(dict(zip(header, cells)), index,
                                                     ref["scan"][str(index)])
        failed += row_failed
        successes += success
        problems += [f"row {j}: {p}" for p in found]
    summary = json.loads((outdir / "scan.json").read_text())
    if summary["n_samples"] != len(rows) or summary["n_failed"] != failed:
        problems.append(f"summary counts {summary['n_samples']}/{summary['n_failed']}")
    if summary["fraction"] != successes / len(rows):
        problems.append("summary fraction disagrees with the rows")
    return bool(failed), problems


def _check_scan_row(row: dict, index: int, want: dict):
    """Whether the row is a failed sample, its success flag, and its problems."""
    gamma = float(row["gamma"])
    l1, l2, K, lo, hi = (float(row[c]) for c in ("lambda1", "lambda2", "K", "rot_lo", "rot_hi"))
    success = row["success"] == "true"
    failed = row["failed"] != "false"
    problems = ["sample failed"] if failed else []
    if gamma != float(SCAN_GRID[index]):
        problems.append(f"row gamma {gamma!r} is not the grid value")
    if not all(math.isfinite(v) for v in (l1, l2, K, lo, hi)):
        return failed, success, problems + ["non-finite metric"]
    if l1 < l2:
        problems.append(f"lambda1 {l1} < lambda2 {l2}")
    if lo > hi:
        problems.append(f"rot_lo {lo} > rot_hi {hi}")
    # the verdict is defined as a positive exponent and a chaotic 0-1 statistic
    if success != (l1 > 1e-3 and K > 0.9):
        problems.append("success flag disagrees with lambda1/K")
    if success != want["success"]:
        problems.append(f"success {success} != reference {want['success']}")
    # finite-orbit estimates on a chaotic orbit: a reordering of
    # floating-point operations changes the orbit, not the statistic.  In a
    # periodic window coexisting attractors give different exponents
    # (another sample seed moves lambda1 by 0.5 at grid index 164), so
    # lambda1 is compared only where the reference row is chaotic.
    if want["success"] and abs(l1 - want["lambda1"]) > SCAN_LAMBDA1_TOL:
        problems.append(f"lambda1 {l1} far from reference {want['lambda1']}")
    if abs(K - want["K"]) > SCAN_K_TOL:
        problems.append(f"K {K} far from reference {want['K']}")
    return failed, success, problems


def check_certify(item: Item, outdir: Path, ref: dict):
    report = json.loads((outdir / "battery.json").read_text())
    want = ref["certify"][item.kind][item.key]
    problems = []
    statuses = {h: e["status"] for h, e in report["entries"].items()}
    if statuses != want["status"]:
        problems.append(f"statuses {statuses} != reference {want['status']}")
    if report["n"] != want["n"]:
        problems.append(f"n {report['n']} != reference {want['n']}")
    gamma = report["gamma"]
    if not (isinstance(gamma, float) and math.isfinite(gamma) and gamma > 0.0):
        problems.append(f"gamma {gamma!r} is not a positive amplitude")
    h7 = report["entries"].get("H7", {})
    # H7 (a) is lambda0 > 3 ln 2, i.e. exp(lambda0 / 3) > 2
    if h7.get("status") == "pass" and not h7["exp_lambda0_over_3"] > 2.0:
        problems.append("H7 passes with exp(lambda0/3) <= 2")
    return False, problems


def _returns(outdir: Path, n: int):
    header, rows = _read_csv(outdir / "returns.csv")
    if header != ["k", "x", "s", "t_raw"]:
        return None, [f"unexpected header {header}"]
    if len(rows) != n:
        return None, [f"expected {n} returns, got {len(rows)}"]
    ks = [int(r[0]) for r in rows]
    x, s, t = (np.array([float(r[c]) for r in rows]) for c in (1, 2, 3))
    problems = []
    if ks != list(range(n)):
        problems.append("return indices are not 0..n-1")
    if not np.all(np.isfinite(np.concatenate([x, s, t]))):
        problems.append("non-finite return data")
    if not np.all(np.diff(t) > 0.0):
        problems.append("crossing times are not increasing")
    return (x, s, t), problems


def _config(item: Item):
    cp = configparser.ConfigParser()
    cp.read(item.argv[item.argv.index("--config") + 1])
    return cp


def check_forced(item: Item, outdir: Path, ref: dict):
    data, problems = _returns(outdir, item.returns)
    if data is None:
        return False, problems
    x, s, t = data
    cp = _config(item)
    period = math.pi / float(cp["model"]["omega"])
    eps = float(cp["section"]["eps_tilde"])
    if not np.all((x > 0.0) & (x <= eps)):
        problems.append("section coordinate outside (0, eps_tilde]")
    if not np.all(np.abs(s - np.mod(t, period)) <= 1e-9 * np.maximum(1.0, t)):
        problems.append("phase s is not t_raw modulo pi/omega")
    want = ref["returns_forced"][item.kind][item.key]
    # the forced orbit locks onto an attracting cycle, so rounding does not grow
    if not _close(float(t[-1]), want["t_last"], 1e-5):
        problems.append(f"last crossing {t[-1]!r} != reference {want['t_last']!r}")
    return False, problems


def check_unforced(item: Item, outdir: Path, ref: dict):
    data, problems = _returns(outdir, item.returns)
    if data is None:
        return False, problems
    x, s, t = data
    cp = _config(item)
    delta = float(cp["model"]["c"]) / float(cp["model"]["e"])
    gaps = np.diff(t)
    ratios = gaps[1:] / gaps[:-1]
    # each passage of a saddle dwells delta times longer than the last, from
    # the third ratio on to within 0.05; the column x cannot show it (it
    # underflows to 0.0 after a few returns)
    tail = ratios[2:]
    if not np.all(np.abs(tail - delta) < 0.05):
        problems.append(f"return-gap ratios {tail.tolist()} not within 0.05 of {delta}")
    if not np.all((x >= 0.0) & (x <= float(cp["section"]["eps_tilde"]))):
        problems.append("section coordinate outside [0, eps_tilde]")
    want = ref["returns_unforced"][item.key]
    if not _close(float(t[-1]), want["t_last"], 1e-4):
        problems.append(f"last crossing {t[-1]!r} != reference {want['t_last']!r}")
    return False, problems


CHECKS = {"scan": check_scan, "certify": check_certify,
          "returns_forced": check_forced, "returns_unforced": check_unforced}


def check(workload: str, item: Item, outdir: Path, ref: dict):
    """Whether the item failed (a scan row flagged failed) and the problems
    its outputs show; an item with problems is incorrect."""
    missing = [f for f in item.outputs if not (outdir / f).is_file()]
    if missing:
        return True, [f"missing outputs {missing}"]
    try:
        return CHECKS[workload](item, outdir, ref)
    except (KeyError, ValueError, IndexError, configparser.Error) as exc:
        return True, [f"unreadable output: {type(exc).__name__}: {exc}"]


def _skew(cell: str) -> str:
    try:
        return str(int(cell) + 1)
    except ValueError:
        pass
    try:
        return repr(float(cell) * 1.5)
    except ValueError:
        return cell


def corrupt(item: Item, outdir: Path) -> None:
    """Damage an item's first output the way a wrong result would look:
    the last CSV row's numbers shifted, or every JSON pass/fail swapped."""
    path = outdir / item.outputs[0]
    if path.suffix == ".csv":
        header, rows = _read_csv(path)
        rows[-1] = [_skew(cell) for cell in rows[-1]]
        with open(path, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\r\n").writerows([header] + rows)
    else:
        text = path.read_text()
        path.write_text(text.replace('"pass"', '"PASS"').replace('"fail"', '"pass"')
                        .replace('"PASS"', '"fail"'))

