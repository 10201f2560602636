import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
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
    import mayleonard.cli as cli

    def no_certificate(*args, **kwargs):
        raise AssertionError("the certificate ran")

    monkeypatch.setattr(cli, "misiurewicz_check", no_certificate)
    out = tmp_path / "cert.json"
    assert main(["certify", "--config", str(CONFIGS / "case1.cfg"), "--n", "0",
                 "--output", str(out)]) == 1
    assert "error: n must be a positive index" in capsys.readouterr().err
    assert not out.exists()


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
    # sizes that would fail every sample are rejected before any output opens
    short = tmp_path / "short.cfg"
    for key, value in (("iterations = 10000", "iterations = 5000"),
                       ("series_len = 1200", "series_len = 999")):
        short.write_text(CASE2.replace(key, value))
        rc = main(["scan", "--config", str(short), "--from", "1e-4", "--to", "1e-2",
                   "--steps", "2", "--log", "--no-battery",
                   "--output", str(tmp_path / "short")])
        assert rc == 1
        assert f"error: {key.split()[0]} must be >= " in capsys.readouterr().err
        assert not (tmp_path / "short.csv").exists()
        assert not (tmp_path / "short.json").exists()
    # a failed sample records why it failed: here its orbit overflows
    rc = main(["scan", "--config", case2_cfg, "--from", "5", "--to", "10",
               "--steps", "2", "--no-battery", "--output", str(base)])
    assert rc == 0
    csv_lines = (tmp_path / "scan.csv").read_text().strip().splitlines()
    assert len(csv_lines) == 3
    assert all(',true,"OverflowError: ' in line for line in csv_lines[1:])


def _scan_gammas(path):
    lines = path.read_text().strip().splitlines()[1:]
    return [float(line.split(",")[0]) for line in lines]


def test_scan_partial_override_keeps_config_range(tmp_path):
    """A flag overrides its own field of the config's [scan] section only."""
    base = tmp_path / "scan"
    rc = main(["scan", "--config", str(CONFIGS / "case2.cfg"), "--steps", "2",
               "--no-battery", "--output", str(base)])
    assert rc == 0
    assert _scan_gammas(tmp_path / "scan.csv") == list(np.geomspace(1e-6, 0.05, 2))
    # a range and a linear grid that differ from the defaults stay as well
    cfg = tmp_path / "linear.cfg"
    cfg.write_text(CASE2 + "\n[scan]\nfrom = 1e-4\nto = 1e-2\n"
                   "steps = 50\nlog = false\n")
    rc = main(["scan", "--config", str(cfg), "--steps", "3", "--no-battery",
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


def test_dump_config_flag(case2_cfg, capsys):
    rc = main(["classify", "--config", case2_cfg, "--output", "ignored.json",
               "--dump-config"])
    assert rc == 0
    text = capsys.readouterr().out
    cfg = parse_config_text(text)
    assert cfg.params.c == 0.6


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


def test_max_step_inf_stays_uncapped():
    """Positive control of the NaN check: an explicit inf (uncapped) is accepted."""
    cfg = parse_config_text(CASE2.replace("seed = 7", "seed = 7\nmax_step = inf"))
    assert cfg.numerics.max_step == float("inf")


def test_only_flow_commands_import_scipy(tmp_path):
    """Every command but simulate and poincare runs without loading scipy;
    poincare, the positive control, loads it."""
    cfg = tmp_path / "small.cfg"
    # the smallest scan sizes the density scan accepts; no other command reads them
    cfg.write_text(CASE2.replace("series_len = 1200", "series_len = 1000"))
    common = ["--config", str(cfg), "--output"]
    runs = {
        "classify": ["classify", *common, "c.json"],
        "return-map": ["return-map", *common, "o.csv", "--variant", "case12", "--iters", "50"],
        "singular-limit": ["singular-limit", *common, "t.csv", "--n-count", "2"],
        "certify --battery": ["certify", *common, "b.json", "--a", "0.3", "--battery",
                              "--horizon", "40"],
        "scan": ["scan", *common, "scan", "--from", "1e-4", "--to", "1e-2", "--steps", "2"],
        "chaos-test case12": ["chaos-test", *common, "k12.json", "--iters", "1000"],
        "chaos-test case34": ["chaos-test", *common, "k34.json", "--variant", "case34",
                              "--iters", "1000"],
        "poincare": ["poincare", *common, "p.csv", "--returns", "1"],
    }
    script = textwrap.dedent(f"""
        import json, sys
        from mayleonard.cli import main
        loaded = {{}}
        for name, argv in {runs!r}.items():
            if main(argv) != 0:
                sys.exit(f"{{name}} failed")
            loaded[name] = "scipy" in sys.modules
        print(json.dumps(loaded))
    """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert loaded == {name: name == "poincare" for name in runs}
