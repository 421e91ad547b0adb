import json
import math

import numpy as np
import pytest

from memoryflow import cli
from memoryflow.cli import ExperimentConfig, main


@pytest.fixture()
def workdir(tmp_path):
    (tmp_path / "exp1.kernel.json").write_text(
        json.dumps({"family": "exponential", "delta": 1.0}))
    (tmp_path / "flat.kernel.json").write_text(
        json.dumps({"family": "flatzone"}))
    (tmp_path / "model.json").write_text(json.dumps({
        "J": 1, "domain": "interval_pi", "f": "zero",
        "kernel": "exp1.kernel.json"}))
    (tmp_path / "config.json").write_text(json.dumps({
        "model": "model.json", "framework": "history",
        "dt": 5e-3, "t_end": 1.0, "ensemble": 2, "seed": 7,
        "initial": {"random_ball": {"radius": 1.0, "space": "H0"}},
        "out": "out"}))
    return tmp_path


def read_summary(path):
    return json.loads((path / "summary.txt").read_text())


def test_kernel_check_exponential(workdir, capsys):
    rc = main(["kernel", "check", str(workdir / "exp1.kernel.json"),
               "--nec", "1", "1", "--dafermos", "1", "--flatness"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "pass" in out
    assert "flatness rate" in out
    assert "FAIL" not in out


def test_kernel_check_flatzone_dafermos_fails_but_admissible(workdir, capsys):
    rc = main(["kernel", "check", str(workdir / "flat.kernel.json"),
               "--dafermos", "0.5"])
    out = capsys.readouterr().out
    assert rc == 0  # admissible: its own certificate passes
    assert "FAIL" in out  # the pointwise condition does not hold


def test_kernel_check_inadmissible(tmp_path, capsys):
    table = tmp_path / "bad.csv"
    table.write_text("s,mu\n0.0,1.0\n1.0,2.0\n2.0,0.0\n")
    spec = tmp_path / "bad.kernel.json"
    spec.write_text(json.dumps({"family": "tabulated", "table": str(table),
                                "theta": 1.0, "delta": 1.0}))
    rc = main(["kernel", "check", str(spec)])
    assert rc == 1
    assert "failed" in capsys.readouterr().err


def test_simulate_zero_data(workdir, capsys):
    cfg = json.loads((workdir / "config.json").read_text())
    cfg["initial"] = "zero"
    (workdir / "zero.json").write_text(json.dumps(cfg))
    rc = main(["simulate", "--config", str(workdir / "zero.json"),
               "--out", str(workdir / "outz")])
    assert rc == 0
    data = np.loadtxt(workdir / "outz" / "traj_0.csv", delimiter=",",
                      skiprows=1)
    assert np.all(data[:, 1:] == 0.0)


def test_simulate_deterministic_rerun(workdir, capsys):
    for tag in ("a", "b"):
        rc = main(["simulate", "--config", str(workdir / "config.json"),
                   "--out", str(workdir / ("out_" + tag))])
        assert rc == 0
    csv_a = (workdir / "out_a" / "traj_1.csv").read_bytes()
    csv_b = (workdir / "out_b" / "traj_1.csv").read_bytes()
    assert csv_a == csv_b
    # summaries agree apart from the timestamp line
    sa = read_summary(workdir / "out_a")
    sb = read_summary(workdir / "out_b")
    sa.pop("generated"), sb.pop("generated")
    assert sa == sb


def test_simulate_batch_row_matches_solo_run(workdir, capsys):
    # an ensemble is a batch axis: member 0 of a 4-member run is byte for
    # byte the 1-member run, with the RK4 stages (cubic) and without (zero)
    for f in ("cubic", "zero"):
        (workdir / ("model_%s.json" % f)).write_text(json.dumps({
            "J": 4, "f": f, "g": [0.5, 0.0, 0.3, 0.0],
            "kernel": "exp1.kernel.json"}))
        cfg = json.loads((workdir / "config.json").read_text())
        cfg["model"] = "model_%s.json" % f
        for members in (1, 4):
            cfg["ensemble"] = members
            name = "%s%d" % (f, members)
            (workdir / (name + ".json")).write_text(json.dumps(cfg))
            rc = main(["simulate", "--config", str(workdir / (name + ".json")),
                       "--out", str(workdir / ("out_" + name))])
            assert rc == 0
        a = (workdir / ("out_%s1" % f) / "traj_0.csv").read_bytes()
        b = (workdir / ("out_%s4" % f) / "traj_0.csv").read_bytes()
        assert a == b


def test_simulate_initial_from_file(workdir, capsys):
    (workdir / "init.csv").write_text("u_1,v_1\n0.25,-0.5\n")
    cfg = json.loads((workdir / "config.json").read_text())
    cfg["initial"] = {"file": "init.csv"}
    cfg["ensemble"] = 1
    (workdir / "from_file.json").write_text(json.dumps(cfg))
    rc = main(["simulate", "--config", str(workdir / "from_file.json"),
               "--out", str(workdir / "outf")])
    assert rc == 0
    data = np.loadtxt(workdir / "outf" / "traj_0.csv", delimiter=",",
                      skiprows=1)
    assert data[0, 1] == 0.25 and data[0, 2] == -0.5


def test_simulate_t_end_off_grid(workdir, capsys):
    cfg = json.loads((workdir / "config.json").read_text())
    cfg["dt"] = 3e-3
    cfg["t_end"] = 1.0  # not a multiple of dt
    (workdir / "offgrid.json").write_text(json.dumps(cfg))
    rc = main(["simulate", "--config", str(workdir / "offgrid.json"),
               "--out", str(workdir / "outg")])
    assert rc == 0
    # the summary names the time the run actually reached
    summary = read_summary(workdir / "outg")
    data = np.loadtxt(workdir / "outg" / "traj_0.csv", delimiter=",", skiprows=1)
    assert summary["t_final"] == data[-1, 0]
    assert summary["t_final"] != summary["t_end"] == 1.0


def test_compare_matches_oracle(workdir, capsys):
    # single-mode linear config; the gap between frameworks is scheme-level
    rc = main(["--tol", "1e-5", "compare",
               "--config", str(workdir / "config.json"),
               "--out", str(workdir / "cmp")])
    assert rc == 0
    summary = read_summary(workdir / "cmp")
    assert summary["within_tolerance"]
    # and the history run itself tracks the 3x3 matrix-exponential oracle
    data = np.loadtxt(workdir / "cmp" / "compare.csv", delimiter=",",
                      skiprows=1)
    assert data.shape[0] == 2


def test_compare_tolerance_failure(workdir, capsys):
    rc = main(["--tol", "1e-16", "compare",
               "--config", str(workdir / "config.json"),
               "--out", str(workdir / "cmp2")])
    assert rc == 1


def test_malformed_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"model": "x",\n  "dt": }')
    rc = main(["simulate", "--config", str(bad)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "line" in err


@pytest.mark.parametrize("field,value", [("framework", "bogus"),
                                         ("ensemble", 0), ("ensemble", 2.5)])
def test_config_rejects_bad_field(workdir, field, value):
    cfg = json.loads((workdir / "config.json").read_text())
    cfg[field] = value
    (workdir / "bad.json").write_text(json.dumps(cfg))
    with pytest.raises(ValueError, match=field):
        ExperimentConfig.from_file(str(workdir / "bad.json"))


@pytest.mark.parametrize("command,flag,value", [
    ("simulate", "--cloud-stride", "-3"), ("simulate", "--cloud-stride", "0"),
    ("simulate", "--cloud-every", "-0.05"), ("simulate", "--cloud-every", "5"),
    ("energy-report", "--samples", "0"), ("lk-split", "--samples", "0"),
    ("energy-report", "--samples", "1"), ("lk-split", "--samples", "5")])
def test_bad_flag_exits_two(workdir, command, flag, value, capsys, monkeypatch):
    # config t_end is 1.0 and dt 5e-3; nothing is run or written
    def no_run(*args, **kwargs):
        raise AssertionError("an integration started")
    for name in ("integrate", "integrate_ensemble", "lk_split"):
        monkeypatch.setattr(cli, name, no_run)
    out = workdir / "bad_flag"
    try:
        rc = main([command, "--config", str(workdir / "config.json"),
                   "--out", str(out), flag, value])
    except SystemExit as exc:
        rc = exc.code
    assert rc == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


@pytest.fixture()
def blowup_config(workdir):
    # J=1 cubic from a ball of radius 1e3 at dt=0.1 leaves the guard
    (workdir / "model_blowup.json").write_text(json.dumps({
        "J": 1, "f": "cubic", "kernel": "exp1.kernel.json"}))
    cfg = json.loads((workdir / "config.json").read_text())
    cfg.update({"model": "model_blowup.json", "dt": 0.1, "t_end": 2.0,
                "initial": {"random_ball": {"radius": 1e3, "space": "H0"}}})
    (workdir / "blowup.json").write_text(json.dumps(cfg))
    return workdir / "blowup.json"


@pytest.mark.parametrize("command", ["simulate", "compare", "lk-split"])
def test_blowup_exits_one(blowup_config, workdir, command, capsys):
    rc = main([command, "--config", str(blowup_config),
               "--out", str(workdir / "blown")])
    assert rc == 1
    assert "blow-up detected" in capsys.readouterr().err


def test_energy_report(workdir, capsys):
    rc = main(["energy-report", "--config", str(workdir / "config.json"),
               "--out", str(workdir / "en"), "--samples", "20"])
    assert rc == 0
    data = np.loadtxt(workdir / "en" / "energy.csv", delimiter=",", skiprows=1)
    assert data.shape == (20, 6)
    E0 = data[:, 1]
    assert np.all(np.diff(E0) <= 1e-8 * E0[0])


def test_lk_split_cli(workdir, capsys):
    cfg = json.loads((workdir / "config.json").read_text())
    cfg["t_end"] = 2.0
    cfg["model"] = "model_cubic.json"
    (workdir / "model_cubic.json").write_text(json.dumps({
        "J": 2, "f": "cubic", "kernel": "exp1.kernel.json"}))
    (workdir / "lk.json").write_text(json.dumps(cfg))
    rc = main(["lk-split", "--config", str(workdir / "lk.json"),
               "--out", str(workdir / "lk"), "--separation", "1e-3"])
    assert rc == 0
    summary = read_summary(workdir / "lk")
    assert summary["max_superposition_residual"] < 1e-12
    assert summary["k_ratio_sup"] is not None


def test_attract_roundtrip(workdir, tmp_path, capsys):
    # synthetic clouds decaying toward the origin at rate 0.5
    bundle = tmp_path / "bundle"
    surrogate = tmp_path / "surrogate"
    bundle.mkdir(), surrogate.mkdir()
    rng = np.random.default_rng(3)
    base = rng.normal(size=(12, 3))
    for t in np.linspace(0.0, 10.0, 11):
        pts = base * math.exp(-0.5 * t)
        lines = ["# label=t norm=H0"] + \
            [",".join("%.17g" % x for x in row) for row in pts]
        (bundle / ("cloud_t%.6f.csv" % t)).write_text("\n".join(lines) + "\n")
    (surrogate / "cloud.csv").write_text("# label=surrogate norm=H0\n0,0,0\n")
    out = tmp_path / "report.csv"
    rc = main(["attract", "--bundle", str(bundle),
               "--surrogate", str(surrogate), "--out", str(out)])
    assert rc == 0
    summary = json.loads((tmp_path / "summary.txt").read_text())
    assert summary["omega"] == pytest.approx(0.5, abs=1e-6)
