"""Self-test of the benchmark, at the smallest size: one round per run.

    python3 perfbench/selftest.py [workload ...]

For every workload, untraced and traced: the run exits 0, every output
check passes, no item fails, and exactly the metrics BENCHMARK.json
declares are emitted.  Negative controls: with ``--corrupt`` every
workload must exit non-zero with ``correct`` false, and in a directory
holding only BENCHMARK.json and the benchmark the command must exit
non-zero without printing a result.  Takes about three minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(args, cwd=ROOT):
    cmd = BENCH["command"] + args
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def result_line(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def expect(cond, what, proc=None):
    if not cond:
        detail = f"\n--- stdout\n{proc.stdout}\n--- stderr\n{proc.stderr}" if proc else ""
        raise SystemExit(f"FAIL: {what}{detail}")
    print(f"ok: {what}", flush=True)


def main(names):
    for name in names:
        for trace, declared in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(["--workload", name, "--seed", "1", "--seconds", "1",
                        "--trace", str(trace)])
            res = result_line(proc)
            tag = f"{name} trace={trace}"
            expect(proc.returncode == 0 and res is not None, f"{tag} exits 0", proc)
            expect(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
                   f"{tag} checks pass, nothing failed", proc)
            want = [m["name"] for m in BENCH[declared]]
            expect(list(res["metrics"]) == want, f"{tag} emits every {declared} metric", proc)
            units = {m["name"]: m["unit"] for m in BENCH[declared]}
            expect(all(v["unit"] == units[k] and isinstance(v["value"], (int, float))
                       for k, v in res["metrics"].items()), f"{tag} values and units", proc)
        proc = run(["--workload", name, "--seed", "1", "--seconds", "1", "--trace", "0",
                    "--corrupt"])
        res = result_line(proc)
        expect(proc.returncode != 0 and res is not None and not res["correct"],
               f"{name} corrupted output fails the checks", proc)

    (ROOT / ".bench_work").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=ROOT / ".bench_work"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for rel in BENCH["paths"]:
            shutil.copytree(ROOT / rel, bare / rel,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(["--workload", names[0], "--seed", "1", "--seconds", "1",
                    "--trace", "0"], cwd=bare)
        expect(proc.returncode != 0 and not proc.stdout.strip(),
               "bare directory exits non-zero without a result", proc)
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    import workloads

    main(sys.argv[1:] or list(workloads.NAMES))
