"""The benchmark's own output checks pass on the current code.

``perfbench/workloads.py`` checks every item's output against the reference
table recorded with it; these tests run a few of its items through the CLI
and read them with those checks, so a change that would make the benchmark
reject an output fails here first.  The benchmark module is imported from
its file and nothing under ``perfbench/`` is written.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from mayleonard.cli import main

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"


@pytest.fixture(scope="module")
def workloads():
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the class body is processed;
    # no bytecode cache is written next to the benchmark
    sys.modules[spec.name] = module
    write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.dont_write_bytecode = write_bytecode
        del sys.modules[spec.name]


@pytest.fixture(scope="module")
def reference():
    return json.loads((ROOT / "perfbench" / "reference.json").read_text())


def _run(item, outdir):
    outdir.mkdir()
    assert main(item.bound_argv(outdir)) == 0


@pytest.mark.parametrize("case, k", [("case1", 0), ("case2", 0), ("case2", 40)])
def test_certify_item_passes_the_benchmark_check(workloads, reference, tmp_path, case, k):
    """Case 1 at k = 0 has critical orbits and H5 not-checkable; case 2 at
    k = 0 has H5 indicative and at k = 40 not-checkable."""
    item = workloads.certify_item(case, k, CONFIGS / f"{case}.cfg")
    _run(item, tmp_path / "out")
    assert workloads.check("certify", item, tmp_path / "out", reference) == (False, [])
    workloads.corrupt(item, tmp_path / "out")
    assert workloads.check("certify", item, tmp_path / "out", reference)[1]


def test_scan_item_passes_the_benchmark_check(workloads, reference, tmp_path):
    """Grid rows 48 and 49: one chaotic row and one on a fixed point."""
    cfg = tmp_path / "case2_scan.cfg"
    cfg.write_text(workloads.scan_config_text((CONFIGS / "case2.cfg").read_text()))
    item = workloads.scan_item(48, cfg)
    _run(item, tmp_path / "out")
    rows = (tmp_path / "out" / "scan.csv").read_text().splitlines()[1:]
    assert [row.split(",")[-3] for row in rows] == ["true", "false"]
    assert workloads.check("scan", item, tmp_path / "out", reference) == (False, [])
    workloads.corrupt(item, tmp_path / "out")
    assert workloads.check("scan", item, tmp_path / "out", reference)[1]
