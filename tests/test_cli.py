import json
import math
import os
import subprocess
import sys
import textwrap
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from mayleonard._io import csv_bytes, json_bytes, write_json
from mayleonard.cli import main
from mayleonard.config import ScanSpec, dump_config, parse_config_text
from mayleonard.diagnostics import RegimeReport, ScanSummary
from mayleonard.errors import ValidationError
from mayleonard.returnmap import VARIANTS
from mayleonard.singular import MisiurewiczCertificate, TransitionMatrix

CASE2 = """\
[model]
c = 0.6
e = 0.2
gamma = 0.01
omega = 0.3

[global-maps]
mu1 = 1.0
mu3 = 1.0

[numerics]
seed = 7
iterations = 10000
series_len = 1200

[section]
eps_tilde = 0.1

[diophantine]
d1 = 0.01
d2 = 2.0
n_max = 30
"""


@pytest.fixture
def case2_cfg(tmp_path):
    path = tmp_path / "case2.cfg"
    path.write_text(CASE2)
    return str(path)


def test_config_round_trip():
    text = CASE2 + "\n[scan]\nfrom = 1e-6\nto = 0.05\nsteps = 50\nlog = true\n"
    cfg = parse_config_text(text)
    assert cfg.params.c == 0.6 and cfg.params.gamma == 0.01
    assert cfg.numerics.seed == 7
    assert cfg.diophantine.n_max == 30
    assert cfg.scan.steps == 50 and cfg.scan.log is True
    again = parse_config_text(dump_config(cfg))
    assert again == cfg


def test_config_rejects_unknown_key():
    with pytest.raises(ValidationError) as err:
        parse_config_text(CASE2 + "\n[model]\nbogus = 1\n")
    assert "bogus" in str(err.value) or "model" in str(err.value)
    # the scan has one axis, the amplitude, so the old key is unknown too
    with pytest.raises(ValidationError, match="unknown key 'axis' in section"):
        parse_config_text(CASE2 + "\n[scan]\naxis = gamma\n")
    with pytest.raises(ValidationError) as err:
        parse_config_text("[mystery]\nx = 1\n")
    assert "mystery" in str(err.value)
    with pytest.raises(ValidationError):
        parse_config_text("[model]\nc = 0.6\n")      # missing e


def test_config_eps_tilde_only_in_section(tmp_path, capsys):
    """eps_tilde is read from [section]; under [numerics] it is an unknown key."""
    assert parse_config_text(CASE2.replace("eps_tilde = 0.1", "eps_tilde = 0.2")
                             ).params.eps_tilde == 0.2
    text = CASE2.replace("series_len = 1200", "series_len = 1200\neps_tilde = 0.2")
    with pytest.raises(ValidationError, match="unknown key 'eps_tilde' in section"):
        parse_config_text(text)
    cfg = tmp_path / "alias.cfg"
    cfg.write_text(text)
    assert main(["classify", "--config", str(cfg), "--output",
                 str(tmp_path / "c.json")]) == 1
    assert "unknown key 'eps_tilde'" in capsys.readouterr().err
    assert not (tmp_path / "c.json").exists()


@pytest.mark.parametrize("text, message", [
    ("[model]\nc = 0.6\ne = 0.2\n\n[numerics]\nseed = 1.5\n", "key 'seed': expected an integer"),
    ("[model]\nc = 0.6\ne = 0.2\n\n[scan]\nlog = maybe\n", "key 'log': expected a boolean"),
    ("[model]\nc = abc\ne = 0.2\n", "key 'c': expected a number"),
    ("c = 0.6\n", "malformed config"),
], ids=["int", "bool", "float", "no-section"])
def test_config_rejects_a_value_of_the_wrong_type(text, message):
    with pytest.raises(ValidationError, match=message):
        parse_config_text(text)


EVERY_KEY = """\
[model]
c = 0.7
e = 0.25
gamma = 0.02
omega = 0.4

[global-maps]
Delta1 = 1.5
Delta2 = 2.5
Delta3 = 0.5
mu = 0.9
mu1 = 0.8
mu2 = 0.2
mu3 = 0.7
mu4 = 0.3
mu5 = 0.4

[section]
eps_tilde = 0.2

[numerics]
abs_tol = 1e-11
horizon = 300
iterations = 5000
max_step = 0.5
rel_tol = 1e-08
seed = 3
series_len = 1500

[scan]
from = 1e-05
to = 0.02
steps = 17
log = false

[diophantine]
d1 = 0.02
d2 = 2.5
n_max = 40
"""


@pytest.mark.parametrize("name", ["every-key", "case1.cfg", "case2.cfg"])
def test_config_schema_is_the_records_fields(name):
    """The section table names every field of the four records exactly
    once, each annotated int, float or bool; a config parses to values of
    exactly the fields' types and round-trips through ``dump_config``.
    ``EVERY_KEY`` sets every key, each to a value other than its default,
    and is its own dump."""
    from dataclasses import MISSING, fields
    from mayleonard.config import _SECTIONS, NumericsConfig, ScanSpec
    from mayleonard.params import DiophantineCheckSpec, ModelParams

    every = name == "every-key"
    text = EVERY_KEY if every else (Path(__file__).resolve().parents[1] / "configs" / name).read_text()
    cfg = parse_config_text(text)
    records = {ModelParams: cfg.params, NumericsConfig: cfg.numerics,
               ScanSpec: cfg.scan, DiophantineCheckSpec: cfg.diophantine}
    keyed = sorted((record.__name__, field) for record, keys in _SECTIONS.values()
                   for field in keys.values())
    assert keyed == sorted((record.__name__, f.name)
                           for record in records for f in fields(record))
    kinds = {"int": int, "float": float, "bool": bool}
    for record, value in records.items():
        for f in fields(record):
            assert f.type in kinds
            assert f.default is MISSING or type(f.default) is kinds[f.type]
            if value is not None:
                assert type(getattr(value, f.name)) is kinds[f.type], f.name
            if every:
                assert getattr(value, f.name) != f.default, f.name
    assert parse_config_text(dump_config(cfg)) == cfg
    if every:
        assert dump_config(cfg) == EVERY_KEY


def test_classify_reports_case2(case2_cfg, tmp_path):
    out = tmp_path / "report.json"
    rc = main(["classify", "--config", case2_cfg, "--output", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    # the record's fields are the keys, and the admissibility check rides along
    assert set(report) == _field_names(RegimeReport) | {"admissibility"}
    assert report["case_tag"] == 2
    assert report["admissibility"]["c1a"] is True
    assert report["conditions"]["sqrt_a1"] == pytest.approx(0.5**0.5)


@pytest.mark.parametrize("variant", ["full", "case12", "case34", "rescaled"])
def test_return_map_orbit_rows_and_determinism(case2_cfg, tmp_path, variant):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["return-map", "--config", case2_cfg, "--variant", variant,
            "--iters", "10000", "--x0", "0.5", "--s0", "0.25"]
    if variant == "rescaled":
        args += ["--a", "0.3"]
    assert main(args + ["--output", str(out1)]) == 0
    assert main(args + ["--output", str(out2)]) == 0
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    assert b1 == b2
    lines = b1.decode().strip().splitlines()
    assert lines[0] == "k,x,s"
    assert len(lines) == 10001


def test_simulate_csv(case2_cfg, tmp_path):
    out = tmp_path / "traj.csv"
    rc = main(["simulate", "--config", case2_cfg, "--x0", "0.3", "--y0", "0.31",
               "--z0", "0.29", "--t-end", "20", "--output", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,x,y,z"
    assert len(lines) > 10
    last = [float(v) for v in lines[-1].split(",")]
    assert last[0] == 20.0


def test_poincare_csv(case2_cfg, tmp_path):
    out = tmp_path / "poinc.csv"
    rc = main(["poincare", "--config", case2_cfg, "--x0", "0.001",
               "--returns", "3", "--sections", "all", "--output", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "k,x,s,t_raw"
    assert len(lines) == 4


def test_singular_limit_table(case2_cfg, tmp_path):
    out = tmp_path / "table.csv"
    rc = main(["singular-limit", "--config", case2_cfg, "--a", "0.3",
               "--n-count", "4", "--output", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("n,gamma,x_absorb,f1_sup")
    assert len(lines) == 5


@pytest.mark.parametrize("a, count", [("0.3", "0"), ("0.3", "-2"), ("1.5", "0")])
def test_singular_limit_rejects_an_empty_table(case2_cfg, tmp_path, capsys, a, count):
    out = tmp_path / "table.csv"
    rc = main(["singular-limit", "--config", case2_cfg, "--a", a,
               "--n-count", count, "--output", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


@pytest.mark.parametrize("name, indices, note", [
    ("case1.cfg", range(1, 7), "underflows after n=6"),
    ("case2.cfg", range(13, 21), None),
])
def test_singular_limit_default_flags_on_shipped_configs(tmp_path, capsys, name,
                                                         indices, note):
    """The table stops at the last representable index and says so on stderr;
    a table whose first amplitude underflows is a validation error."""
    out = tmp_path / "table.csv"
    cfg = str(CONFIGS / name)
    assert main(["singular-limit", "--config", cfg, "--output", str(out)]) == 0
    rows = out.read_text().strip().splitlines()[1:]
    assert [int(r.split(",")[0]) for r in rows] == list(indices)
    err = capsys.readouterr().err
    assert (note in err and err.count("\n") == 1) if note else err == ""
    n_past = str(indices[-1] + 1)
    if note:
        assert main(["singular-limit", "--config", cfg, "--n-from", n_past,
                     "--output", str(tmp_path / "none.csv")]) == 1
        assert "underflows" in capsys.readouterr().err


def _field_names(record):
    return {f.name for f in fields(record)}


def test_certify_json(case2_cfg, tmp_path):
    out = tmp_path / "cert.json"
    rc = main(["certify", "--config", case2_cfg, "--a", "0.3",
               "--horizon", "200", "--output", str(out)])
    assert rc == 0
    cert = json.loads(out.read_text())
    assert set(cert) == {"a", "n", "gamma", "certificate", "transition_matrix"}
    # each record is written under its own field names
    assert set(cert["certificate"]) == _field_names(MisiurewiczCertificate)
    assert set(cert["transition_matrix"]) == _field_names(TransitionMatrix)
    assert cert["certificate"]["M0"] == 30 and cert["certificate"]["d0"] == 1e-3
    assert all(len(arc) == 2 for arc in cert["certificate"]["U"])
    assert cert["certificate"]["horizon"] == 200
    assert set(cert["certificate"]["conditions"]) == {
        "outside_a", "outside_b", "critical_orbits", "inside_a", "inside_b"}


def test_certify_battery(case2_cfg, tmp_path):
    out = tmp_path / "battery.json"
    rc = main(["certify", "--config", case2_cfg, "--a", "0.3", "--battery",
               "--horizon", "200", "--output", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert set(report["entries"]) == {"H1", "H2", "H3", "H4", "H5", "H6", "H7"}


def _strict_json(text):
    """Parse RFC 8259 JSON: a bare ``NaN``, ``Infinity`` or ``-Infinity`` raises."""
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")
    return json.loads(text, parse_constant=reject)


def test_json_writes_non_finite_floats_as_null():
    data = {"inf": math.inf, "-inf": -math.inf, "nan": math.nan,
            "array": np.array([np.inf, 1.5])}
    assert _strict_json(json_bytes(data).decode()) == {
        "inf": None, "-inf": None, "nan": None, "array": [None, 1.5]}


def test_json_writes_numpy_arrays_as_lists_and_scalars_as_numbers():
    """An array is a list whatever its length; a numpy scalar is a number,
    and a numpy NaN is ``null``."""
    data = {"one": np.array([0.5]), "two": np.array([0.5, 2.0]),
            "scalar": np.float64(0.25), "count": np.int64(3), "flag": np.bool_(True),
            "nan": np.float64(math.nan)}
    assert json_bytes(data) == json_bytes({
        "one": [0.5], "two": [0.5, 2.0], "scalar": 0.25, "count": 3, "flag": True,
        "nan": None})
    assert _strict_json(json_bytes(data).decode())["one"] == [0.5]


def test_write_json_keeps_the_old_file_when_rendering_fails(tmp_path):
    """The object is rendered before the file opens: a value that JSON cannot
    hold leaves the old bytes in place."""
    path = tmp_path / "out.json"
    path.write_bytes(b'{"old": 1}')
    with pytest.raises(TypeError):
        write_json(path, {"a": {1, 2}})
    assert path.read_bytes() == b'{"old": 1}'


def test_csv_cells_take_numpy_scalars_and_reject_arrays():
    """A numpy float, int or bool scalar writes the bytes of the Python
    value; an array is not a cell, whatever its length."""
    header = ("x", "k", "ok")
    numpy_row = [np.float64(0.1), np.int64(3), np.bool_(True)]
    assert csv_bytes(header, [numpy_row]) == csv_bytes(header, [[0.1, 3, True]])
    for cell in (np.array([0.5]), np.array([0.5, 2.0]), [0.5]):
        with pytest.raises(TypeError, match=r"a CSV cell must be a scalar, got \["):
            csv_bytes(("a",), [[cell]])


def test_certify_battery_with_an_infinite_rate_is_standard_json(tmp_path):
    """On case 1 at a = 0.75 the certificate's rate is -inf: it is written
    as ``null``, not as a bare ``-Infinity``."""
    out = tmp_path / "battery.json"
    assert main(["certify", "--config", str(CONFIGS / "case1.cfg"), "--a", "0.75",
                 "--battery", "--horizon", "250", "--output", str(out)]) == 0
    report = _strict_json(out.read_text())
    assert report["entries"]["H4"]["lambda0"] is None


@pytest.mark.parametrize("battery", [False, True])
@pytest.mark.parametrize("radius", ["0", "-0.01", "nan", "0.6"])
def test_certify_rejects_u_radius_outside_open_half(case2_cfg, tmp_path, capsys,
                                                    battery, radius):
    """A radius that leaves U empty, inverted, undefined or covering the
    circle would pass vacuously: it is a validation error and no JSON is
    written."""
    out = tmp_path / "cert.json"
    argv = ["certify", "--config", case2_cfg, "--a", "0.3", "--horizon", "100",
            "--u-radius", radius, "--output", str(out)]
    assert main(argv + (["--battery"] if battery else [])) == 1
    assert "error: u_radius must lie in (0, 0.5)" in capsys.readouterr().err
    assert not out.exists()


def test_certify_validates_n_before_the_certificate(tmp_path, capsys, monkeypatch):
    """A bad index is rejected before the certificate runs, and no JSON is written."""
    import mayleonard.singular as singular

    def no_certificate(*args, **kwargs):
        raise AssertionError("the certificate ran")

    monkeypatch.setattr(singular, "misiurewicz_check", no_certificate)
    out = tmp_path / "cert.json"
    assert main(["certify", "--config", str(CONFIGS / "case1.cfg"), "--n", "0",
                 "--output", str(out)]) == 1
    assert "error: n must be a positive index" in capsys.readouterr().err
    assert not out.exists()


def test_main_builds_its_parser_once(case2_cfg, tmp_path, monkeypatch):
    """In-process calls share one parser: it is built on the first call only."""
    import mayleonard.cli as cli

    builds = []
    add_subparsers = cli._Parser.add_subparsers
    monkeypatch.setattr(cli._Parser, "add_subparsers",
                        lambda self, **kw: builds.append(self) or add_subparsers(self, **kw))
    cli._build_parser.cache_clear()
    for name in ("a.json", "b.json"):
        assert main(["classify", "--config", case2_cfg,
                     "--output", str(tmp_path / name)]) == 0
    assert len(builds) == 1


def test_a_failed_parse_leaves_the_shared_parser_as_it_was(case2_cfg, tmp_path, capsys):
    """Calls on the shared parser do not change the next one: after a
    battery with other flags and a call that fails in the parser, the JSON
    equals that of the same call made first on a freshly built parser."""
    import mayleonard.cli as cli

    argv = ["certify", "--config", case2_cfg, "--a", "0.3", "--horizon", "100"]
    other = ["certify", "--config", case2_cfg, "--a", "0.7", "--battery",
             "--u-radius", "0.2"]
    alone, after = tmp_path / "alone.json", tmp_path / "after.json"
    cli._build_parser.cache_clear()
    assert main(argv + ["--output", str(alone)]) == 0
    cli._build_parser.cache_clear()
    assert main(other + ["--horizon", "50", "--output", str(tmp_path / "bat.json")]) == 0
    assert main(other + ["--horizon", "many", "--output", str(after)]) == 1
    assert capsys.readouterr().err.startswith("error: argument --horizon")
    assert not after.exists()
    assert main(argv + ["--output", str(after)]) == 0
    assert after.read_bytes() == alone.read_bytes()


@pytest.mark.parametrize("command, index_flag", [
    (["certify", "--horizon", "50"], "--n"),
    (["return-map", "--variant", "rescaled", "--iters", "10"], "--n"),
    (["singular-limit", "--n-count", "2"], "--n-from"),
], ids=["certify", "return-map", "singular-limit"])
def test_an_inadmissible_index_is_a_validation_error(tmp_path, capsys, command, index_flag):
    """On case 2 index 2 gives gamma = 0.617, above the admissibility bound
    0.05: the error names the first admissible index, 13, and no output is
    written.  The amplitude decides, not the index: n = 12 at a = 0.99 gives
    gamma = 0.0433 and runs, and so does the default index."""
    base = [*command, "--config", str(CONFIGS / "case2.cfg")]
    out = tmp_path / "out"
    assert main([*base, "--a", "0.0", index_flag, "2", "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: n=2 at a=0.0 gives gamma = 0.6167, not below")
    assert "the first admissible index is 13" in err
    assert not out.exists()
    assert main([*base, "--a", "0.0", "--output", str(out)]) == 0
    assert out.exists()
    assert main([*base, "--a", "0.99", index_flag, "12",
                 "--output", str(tmp_path / "edge")]) == 0


@pytest.mark.parametrize("command, old, new, message", [
    (["scan", "--steps", "2", "--seed", "-1"], "", "", "seed must be >= 0"),
    (["chaos-test", "--seed", "-1"], "", "", "seed must be >= 0"),
    (["scan", "--steps", "2"], "seed = 7", "seed = -3", "seed must be >= 0"),
    (["chaos-test", "--variant", "case34"], "seed = 7", "seed = -3", "seed must be >= 0"),
    (["certify", "--horizon", "0"], "", "", "horizon"),
])
def test_numerics_overrides_are_validated(tmp_path, capsys, command, old, new, message):
    """A negative seed, from the config or the flag, and a certificate
    horizon below one are rejected by the numerics record before any output
    opens."""
    cfg = tmp_path / "cfg" / "bad.cfg"
    cfg.parent.mkdir()
    cfg.write_text(CASE2.replace(old, new) if old else CASE2)
    out = tmp_path / "out"
    out.mkdir()
    rc = main(command + ["--config", str(cfg), "--output", str(out / "result")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert list(out.iterdir()) == []


def test_scan_outputs(case2_cfg, tmp_path, capsys):
    base = tmp_path / "scan"
    rc = main(["scan", "--config", case2_cfg, "--from", "1e-4", "--to", "1e-2",
               "--steps", "4", "--log",
               "--output", str(base)])
    assert rc == 0
    csv_lines = (tmp_path / "scan.csv").read_text().strip().splitlines()
    assert csv_lines[0].startswith("gamma,lambda1,lambda2,K")
    assert len(csv_lines) == 5
    # no sample failed: the last column, the failure reason, is empty
    assert csv_lines[0].endswith(",failed,error")
    assert all(line.endswith(",false,") for line in csv_lines[1:])
    summary = json.loads((tmp_path / "scan.json").read_text())
    assert set(summary) == _field_names(ScanSummary)
    assert all(set(prefix) == {"r", "n", "fraction"}
               for prefix in summary["prefix_fractions"])
    assert summary["n_samples"] == 4
    assert 0.0 <= summary["fraction"] <= 1.0
    # sizes that would fail every sample are rejected before any output opens
    short = tmp_path / "short.cfg"
    for key, value in (("iterations = 10000", "iterations = 5000"),
                       ("series_len = 1200", "series_len = 999")):
        short.write_text(CASE2.replace(key, value))
        rc = main(["scan", "--config", str(short), "--from", "1e-4", "--to", "1e-2",
                   "--steps", "2", "--log",
                   "--output", str(tmp_path / "short")])
        assert rc == 1
        assert f"error: {key.split()[0]} must be >= " in capsys.readouterr().err
        assert not (tmp_path / "short.csv").exists()
        assert not (tmp_path / "short.json").exists()
    # a failed sample records why it failed: here its orbit overflows
    rc = main(["scan", "--config", case2_cfg, "--from", "5", "--to", "10",
               "--steps", "2", "--output", str(base)])
    assert rc == 0
    csv_lines = (tmp_path / "scan.csv").read_text().strip().splitlines()
    assert len(csv_lines) == 3
    assert all(',true,"OverflowError: ' in line for line in csv_lines[1:])


@pytest.mark.parametrize("output", ["scan", "scan.csv", "scan.json"])
def test_scan_output_suffix_is_stripped(case2_cfg, tmp_path, output):
    """``--output`` names the scan's two files by their base: a ``.csv`` or
    ``.json`` suffix is dropped, so each form writes ``scan.csv`` and
    ``scan.json`` and nothing else."""
    out = tmp_path / "out"
    out.mkdir()
    rc = main(["scan", "--config", case2_cfg, "--from", "1e-4", "--to", "1e-2",
               "--steps", "2", "--output", str(out / output)])
    assert rc == 0
    assert sorted(path.name for path in out.iterdir()) == ["scan.csv", "scan.json"]


def _scan_gammas(path):
    lines = path.read_text().strip().splitlines()[1:]
    return [float(line.split(",")[0]) for line in lines]


def test_scan_partial_override_keeps_config_range(tmp_path):
    """A flag overrides its own field of the config's [scan] section only."""
    base = tmp_path / "scan"
    rc = main(["scan", "--config", str(CONFIGS / "case2.cfg"), "--steps", "2",
               "--output", str(base)])
    assert rc == 0
    assert _scan_gammas(tmp_path / "scan.csv") == list(np.geomspace(1e-6, 0.05, 2))
    # a range and a linear grid that differ from the defaults stay as well
    cfg = tmp_path / "linear.cfg"
    cfg.write_text(CASE2 + "\n[scan]\nfrom = 1e-4\nto = 1e-2\n"
                   "steps = 50\nlog = false\n")
    rc = main(["scan", "--config", str(cfg), "--steps", "3",
               "--output", str(base)])
    assert rc == 0
    assert _scan_gammas(tmp_path / "scan.csv") == list(np.linspace(1e-4, 1e-2, 3))


@pytest.mark.parametrize("variant", ["case12", "case34"])
def test_chaos_test_json(case2_cfg, tmp_path, variant):
    out = tmp_path / "chaos.json"
    rc = main(["chaos-test", "--config", case2_cfg, "--variant", variant,
               "--iters", "1500", "--output", str(out)])
    assert rc == 0
    rep = json.loads(out.read_text())
    assert rep["variant"] == variant
    assert 0.0 <= rep["K"] <= 1.001
    # only the circle-map family reports a rotation interval
    assert (rep["rotation"] is None) == (variant == "case12")


def test_dump_config_flag(case2_cfg, capsys, tmp_path, monkeypatch):
    rc = main(["classify", "--config", case2_cfg, "--output", "ignored.json",
               "--dump-config"])
    assert rc == 0
    text = capsys.readouterr().out
    cfg = parse_config_text(text)
    assert cfg.params.c == 0.6
    # --dump-config needs no output path; every other run does
    monkeypatch.chdir(tmp_path)
    assert main(["classify", "--config", case2_cfg, "--dump-config"]) == 0
    assert capsys.readouterr().out == text
    assert main(["classify", "--config", case2_cfg]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "--output" in captured.err
    assert sorted(os.listdir(tmp_path)) == ["case2.cfg"]


def test_dump_config_shows_the_overridden_numerics(case2_cfg, capsys):
    """--dump-config prints the numerics the run would use: flag overrides
    applied and validated; without flags it is the parsed config."""
    rc = main(["classify", "--config", case2_cfg, "--output", "ignored.json",
               "--seed", "-1", "--dump-config"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "seed" in captured.err
    rc = main(["certify", "--config", case2_cfg, "--output", "ignored.json",
               "--horizon", "400", "--dump-config"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "\nhorizon = 400\n" in text
    assert parse_config_text(text).numerics.horizon == 400
    rc = main(["certify", "--config", case2_cfg, "--output", "ignored.json",
               "--dump-config"])
    assert rc == 0
    assert capsys.readouterr().out == dump_config(parse_config_text(CASE2))


def test_dump_config_shows_the_overridden_scan(case2_cfg, capsys):
    """--dump-config prints the [scan] the run would use: the scan flags
    override the config's section, or the defaults without one, and are
    validated before the dump; without flags or a section there is no
    [scan]."""
    shipped = str(Path(__file__).resolve().parents[1] / "configs" / "case2.cfg")
    rc = main(["scan", "--config", shipped, "--from", "1e-5", "--steps", "3",
               "--seed", "5", "--dump-config"])
    assert rc == 0
    cfg = parse_config_text(capsys.readouterr().out)
    assert (cfg.scan.lo, cfg.scan.hi, cfg.scan.steps, cfg.scan.log) == (1e-5, 0.05, 3, True)
    assert cfg.numerics.seed == 5
    rc = main(["scan", "--config", shipped, "--from", "1", "--to", "0.5", "--dump-config"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: scan range must satisfy 0 < from < to < inf\n"
    assert main(["scan", "--config", case2_cfg, "--steps", "4", "--dump-config"]) == 0
    assert parse_config_text(capsys.readouterr().out).scan == ScanSpec(steps=4)
    assert main(["scan", "--config", case2_cfg, "--dump-config"]) == 0
    assert capsys.readouterr().out == dump_config(parse_config_text(CASE2))


def test_incomplete_diophantine_section_is_a_validation_error(tmp_path, capsys):
    """A [diophantine] section must set d1 and d2; the message names the
    missing keys, and a missing model key keeps its own message."""
    for body, missing in (("d1 = 0.1\n", "diophantine.d2"),
                          ("n_max = 5\n", "diophantine.d1 and diophantine.d2"),
                          ("", "diophantine.d1 and diophantine.d2")):
        path = tmp_path / "dio.cfg"
        path.write_text("[model]\nc = 0.6\ne = 0.2\n\n[diophantine]\n" + body)
        assert main(["classify", "--config", str(path), "--output",
                     str(tmp_path / "c.json")]) == 1
        assert capsys.readouterr().err == f"error: config must provide {missing}\n"
    with pytest.raises(ValidationError) as err:
        parse_config_text("[model]\nc = 0.6\n\n[diophantine]\nd1 = 0.1\n")
    assert str(err.value) == "config must provide model.c and model.e"
    assert not (tmp_path / "c.json").exists()


def test_exit_code_validation(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[model]\nc = 0.6\ne = 0.2\nbogus = 3\n")
    rc = main(["classify", "--config", str(bad), "--output",
               str(tmp_path / "x.json")])
    assert rc == 1
    # unknown flag routes through the same validation exit path
    rc = main(["classify", "--not-a-flag"])
    assert rc == 1


def test_exit_code_numeric(tmp_path):
    cfg = tmp_path / "g0.cfg"
    cfg.write_text("[model]\nc = 0.6\ne = 0.2\ngamma = 0.0\nomega = 0.3\n")
    # unforced orbit collapses onto the invariant plane: numeric failure
    rc = main(["return-map", "--config", str(cfg), "--variant", "case12",
               "--iters", "10", "--x0", "0.001", "--s0", "0.25",
               "--output", str(tmp_path / "orbit.csv")])
    assert rc == 2
    # the orbit failed while the rows were built: no partial file is left
    assert not (tmp_path / "orbit.csv").exists()
    # at small mu1 the full map's orbit leaves the section x > 0
    weak = tmp_path / "weak.cfg"
    weak.write_text(CASE2.replace("mu1 = 1.0", "mu1 = 0.01"))
    rc = main(["return-map", "--config", str(weak), "--variant", "full",
               "--output", str(tmp_path / "full.csv")])
    assert rc == 2
    assert not (tmp_path / "full.csv").exists()
    # a float overflow inside the map is a numeric failure too
    rc = main(["return-map", "--config", str(weak), "--variant", "case12",
               "--x0", "1e200", "--output", str(tmp_path / "big.csv")])
    assert rc == 2
    assert not (tmp_path / "big.csv").exists()


@pytest.mark.parametrize("argv", [
    ["return-map", "--variant", "full", "--x0", "0"],
    ["return-map", "--variant", "case12", "--x0", "-0.1"],
    ["chaos-test", "--variant", "case12", "--x0", "0"],
    ["return-map", "--variant", "case12", "--x0", "inf"],
])
def test_nonpositive_x0_is_a_validation_error(case2_cfg, tmp_path, capsys, argv):
    out = tmp_path / "out.csv"
    rc = main(argv + ["--config", case2_cfg, "--output", str(out)])
    assert rc == 1
    assert "error: --x0 must be > 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["return-map", "--variant", "case12", "--s0", "nan"],
    ["return-map", "--variant", "full", "--s0", "nan"],
    ["return-map", "--variant", "case34", "--s0", "inf"],
    ["chaos-test", "--variant", "case12", "--s0", "nan"],
    ["chaos-test", "--variant", "case34", "--s0", "nan"],
    ["chaos-test", "--variant", "case34", "--s0=-inf"],
])
def test_nonfinite_s0_is_a_validation_error(case2_cfg, tmp_path, capsys, argv):
    out = tmp_path / "out.csv"
    rc = main(argv + ["--config", case2_cfg, "--output", str(out)])
    assert rc == 1
    assert "error: --s0 must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["return-map", "--variant", "case12", "--iters", "0"], "--iters must be >= 1, got 0"),
    (["return-map", "--variant", "full", "--iters", "-3"], "--iters must be >= 1, got -3"),
    (["chaos-test", "--variant", "case34", "--iters", "-300"],
     "--iters must be >= 1, got -300"),
    (["chaos-test", "--variant", "case12", "--iters", "0"], "--iters must be >= 1, got 0"),
    (["chaos-test", "--variant", "case12", "--lags", "0"],
     "autocorrelation needs lags >= 1, got 0"),
    (["chaos-test", "--variant", "case34", "--lags", "-2"],
     "autocorrelation needs lags >= 1, got -2"),
])
def test_bad_sizes_are_a_validation_error(case2_cfg, tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    rc = main(argv + ["--config", case2_cfg, "--output", str(out)])
    assert rc == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_variant_is_a_validation_error(case2_cfg, tmp_path, capsys):
    """The map layer, not the parser, rejects an unknown variant, naming the
    known ones; no CSV is written."""
    out = tmp_path / "out.csv"
    rc = main(["return-map", "--config", case2_cfg, "--variant", "bogus",
               "--output", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: unknown variant 'bogus'; expected one of {VARIANTS}\n")
    assert not out.exists()


@pytest.mark.parametrize("command, old, new", [
    (["classify"], "gamma = 0.01", "gamma = nan"),
    (["return-map", "--variant", "case12"], "gamma = 0.01", "gamma = nan"),
    (["return-map", "--variant", "full"], "omega = 0.3", "omega = inf"),
    (["chaos-test"], "mu1 = 1.0", "mu1 = nan"),
    (["chaos-test", "--variant", "case34"], "mu3 = 1.0", "mu3 = -inf"),
    (["certify"], "mu3 = 1.0", "mu3 = 1.0\nDelta2 = nan"),
    (["classify"], "seed = 7", "seed = 7\nrel_tol = nan"),
    (["classify"], "seed = 7", "seed = 7\nabs_tol = inf"),
    (["classify"], "seed = 7", "seed = 7\nmax_step = nan"),
    (["classify"], "d1 = 0.01", "d1 = nan"),
    (["classify"], "d2 = 2.0", "d2 = inf"),
    (["scan", "--steps", "2"], "n_max = 30", "n_max = 30\n[scan]\nfrom = nan"),
    (["scan", "--steps", "2"], "n_max = 30", "n_max = 30\n[scan]\nto = inf"),
    (["scan", "--steps", "2", "--to", "inf"], "", ""),
    (["simulate"], "seed = 7", "seed = 7\nmax_step = 0"),
    (["poincare"], "seed = 7", "seed = 7\nmax_step = -1"),
])
def test_nonfinite_config_value_is_a_validation_error(tmp_path, capsys, command, old, new):
    cfg = tmp_path / "cfg" / "bad.cfg"
    cfg.parent.mkdir()
    cfg.write_text(CASE2.replace(old, new) if old else CASE2)
    out = tmp_path / "out"
    out.mkdir()
    rc = main(command + ["--config", str(cfg), "--output", str(out / "result.csv")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("argv, message", [
    (["simulate", "--x0", "nan"], "state must be finite"),
    (["simulate", "--z0", "inf"], "state must be finite"),
    (["simulate", "--x0=-0.5"], "coordinates must be >= 0"),
    (["simulate", "--y0=-1e-300"], "coordinates must be >= 0"),
    (["simulate", "--t-end", "inf"], "t_end must be finite"),
    (["simulate", "--t-end", "nan"], "t_end must be finite"),
    (["simulate", "--t-end=-inf"], "t_end must be finite"),
    (["poincare", "--x0", "nan"], "x must lie in"),
])
def test_bad_flow_start_is_a_validation_error(case2_cfg, tmp_path, capsys,
                                              monkeypatch, argv, message):
    """A non-finite or negative start, or a non-finite end time, exits 1
    before any integration starts or any output is opened."""
    import mayleonard.flow as flow

    def never(*args, **kwargs):
        raise AssertionError("the flow was integrated")

    monkeypatch.setattr(flow, "_run_stepper", never)
    out = tmp_path / "out.csv"
    rc = main(argv + ["--config", case2_cfg, "--output", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists()


def test_max_step_inf_stays_uncapped():
    """Positive control of the NaN check: an explicit inf (uncapped) is accepted."""
    cfg = parse_config_text(CASE2.replace("seed = 7", "seed = 7\nmax_step = inf"))
    assert cfg.numerics.max_step == float("inf")


# each command's argv, the package layers its process loads beyond those that
# every command loads, whether it loads numpy, and which of the scipy
# packages in SCIPY_PACKAGES it loads
EVERY_COMMAND_LOADS = {"mayleonard", "mayleonard.errors", "mayleonard.config",
                       "mayleonard.params", "mayleonard._io", "mayleonard.cli"}
ALL_BUT_FLOW = {"returnmap", "singular", "diagnostics"}
SCIPY_PACKAGES = ("scipy", "scipy.integrate", "scipy.optimize")
# the flow driver binds LSODA's and Brent's C entries from scipy's compiled
# modules, without the scipy.integrate and scipy.optimize packages
FLOW_SCIPY = {"scipy"}
RUN = ["--config", "small.cfg", "--output", "out"]
COMMAND_LOADS = {
    "--version": (["--version"], set(), False, set()),
    "return-map --help": (["return-map", "--help"], set(), False, set()),
    "--dump-config": (["classify", "--config", "small.cfg", "--dump-config"],
                      set(), False, set()),
    "simulate": (["simulate", *RUN, "--t-end", "1"], {"flow"}, True, FLOW_SCIPY),
    "poincare": (["poincare", *RUN, "--returns", "1"], {"flow"}, True, FLOW_SCIPY),
    "certify": (["certify", *RUN, "--a", "0.3", "--horizon", "40"],
                {"singular"}, True, set()),
    "certify --battery": (["certify", *RUN, "--a", "0.3", "--battery", "--horizon", "40"],
                          {"singular"}, True, set()),
    "singular-limit": (["singular-limit", *RUN, "--n-count", "2"], {"singular"}, True, set()),
    "return-map": (["return-map", *RUN, "--variant", "case12", "--iters", "50"],
                   {"returnmap"}, True, set()),
    "return-map rescaled": (["return-map", *RUN, "--variant", "rescaled", "--a", "0.3",
                             "--iters", "50"], {"returnmap", "singular"}, True, set()),
    "classify": (["classify", *RUN], ALL_BUT_FLOW, True, set()),
    "scan": (["scan", *RUN, "--from", "1e-4", "--to", "1e-2", "--steps", "2"],
             ALL_BUT_FLOW, True, set()),
    "chaos-test case12": (["chaos-test", *RUN, "--iters", "1000"], ALL_BUT_FLOW, True, set()),
    "chaos-test case34": (["chaos-test", *RUN, "--variant", "case34", "--iters", "1000"],
                          ALL_BUT_FLOW, True, set()),
}


@pytest.mark.parametrize("command", COMMAND_LOADS)
def test_each_command_loads_only_its_layers(tmp_path, command):
    """A fresh process running one command loads the layers that command
    runs and no other: only simulate and poincare load ``flow`` and scipy,
    and of scipy only the top-level package, not ``scipy.integrate`` or
    ``scipy.optimize``; poincare loads no map layer, and the parser,
    ``--version`` and ``--dump-config`` load no numeric layer and no numpy."""
    argv, layers, numpy_loaded, scipy_loaded = COMMAND_LOADS[command]
    # the smallest scan sizes the density scan accepts; no other command reads them
    (tmp_path / "small.cfg").write_text(CASE2.replace("series_len = 1200",
                                                      "series_len = 1000"))
    script = textwrap.dedent("""
        import json, sys
        from mayleonard.cli import main
        try:
            rc = main(sys.argv[1:])
        except SystemExit as exc:           # --version and --help exit here
            rc = exc.code
        print(json.dumps([rc, sorted(m for m in sys.modules if m.startswith("mayleonard")),
                          "numpy" in sys.modules,
                          [m for m in %r if m in sys.modules]]))
    """ % (SCIPY_PACKAGES,))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script, *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rc, loaded, numpy_seen, scipy_seen = json.loads(proc.stdout.splitlines()[-1])
    assert rc == 0, proc.stderr
    assert set(loaded) == EVERY_COMMAND_LOADS | {f"mayleonard.{m}" for m in layers}
    assert (numpy_seen, set(scipy_seen)) == (numpy_loaded, scipy_loaded)
