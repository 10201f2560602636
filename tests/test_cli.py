import json

import pytest

from mayleonard.cli import main
from mayleonard.config import dump_config, parse_config_text
from mayleonard.errors import ValidationError

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
    text = CASE2 + "\n[scan]\naxis = gamma\nfrom = 1e-6\nto = 0.05\nsteps = 50\nlog = true\n"
    cfg = parse_config_text(text)
    assert cfg.params.c == 0.6 and cfg.params.gamma == 0.01
    assert cfg.numerics.seed == 7
    assert cfg.diophantine.n_max == 30
    assert cfg.scan.axis == "gamma" and cfg.scan.log is True
    again = parse_config_text(dump_config(cfg))
    assert again == cfg


def test_config_rejects_unknown_key():
    with pytest.raises(ValidationError) as err:
        parse_config_text(CASE2 + "\n[model]\nbogus = 1\n")
    assert "bogus" in str(err.value) or "model" in str(err.value)
    with pytest.raises(ValidationError) as err:
        parse_config_text("[mystery]\nx = 1\n")
    assert "mystery" in str(err.value)
    with pytest.raises(ValidationError):
        parse_config_text("[model]\nc = 0.6\n")      # missing e


def test_classify_reports_case2(case2_cfg, tmp_path):
    out = tmp_path / "report.json"
    rc = main(["classify", "--config", case2_cfg, "--output", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
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


def test_certify_json(case2_cfg, tmp_path):
    out = tmp_path / "cert.json"
    rc = main(["certify", "--config", case2_cfg, "--a", "0.3",
               "--horizon", "200", "--output", str(out)])
    assert rc == 0
    cert = json.loads(out.read_text())
    assert "certificate" in cert and "transition_matrix" in cert
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


def test_scan_outputs(case2_cfg, tmp_path):
    base = tmp_path / "scan"
    rc = main(["scan", "--config", case2_cfg, "--from", "1e-4", "--to", "1e-2",
               "--steps", "4", "--log", "--no-battery",
               "--output", str(base)])
    assert rc == 0
    csv_lines = (tmp_path / "scan.csv").read_text().strip().splitlines()
    assert csv_lines[0].startswith("gamma,lambda1,lambda2,K")
    assert len(csv_lines) == 5
    # the certificate was not run: its column is empty, not "false"
    col = csv_lines[0].split(",").index("battery_h4")
    assert all(line.split(",")[col] == "" for line in csv_lines[1:])
    # no sample failed: the last column, the failure reason, is empty
    assert csv_lines[0].endswith(",failed,error")
    assert all(line.endswith(",false,") for line in csv_lines[1:])
    summary = json.loads((tmp_path / "scan.json").read_text())
    assert summary["n_samples"] == 4
    assert 0.0 <= summary["fraction"] <= 1.0
    # a failed sample records why it failed
    short = tmp_path / "short.cfg"
    short.write_text(CASE2.replace("iterations = 10000", "iterations = 5000"))
    rc = main(["scan", "--config", str(short), "--from", "1e-4", "--to", "1e-2",
               "--steps", "2", "--log", "--no-battery", "--output", str(base)])
    assert rc == 0
    csv_lines = (tmp_path / "scan.csv").read_text().strip().splitlines()
    assert len(csv_lines) == 3
    assert all(line.endswith(",true,iterations must be >= 10000")
               for line in csv_lines[1:])
    # so does one whose orbit overflows
    rc = main(["scan", "--config", case2_cfg, "--from", "5", "--to", "10",
               "--steps", "2", "--no-battery", "--output", str(base)])
    assert rc == 0
    csv_lines = (tmp_path / "scan.csv").read_text().strip().splitlines()
    assert len(csv_lines) == 3
    assert all(',true,"OverflowError: ' in line for line in csv_lines[1:])


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


def test_dump_config_flag(case2_cfg, capsys):
    rc = main(["classify", "--config", case2_cfg, "--output", "ignored.json",
               "--dump-config"])
    assert rc == 0
    text = capsys.readouterr().out
    cfg = parse_config_text(text)
    assert cfg.params.c == 0.6


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
])
def test_nonpositive_x0_is_a_validation_error(case2_cfg, tmp_path, capsys, argv):
    out = tmp_path / "out.csv"
    rc = main(argv + ["--config", case2_cfg, "--output", str(out)])
    assert rc == 1
    assert "error: --x0 must be > 0" in capsys.readouterr().err
    assert not out.exists()
