import json
import math
import re

import numpy as np
import pytest

from memoryflow import cli
from memoryflow.attractors import load_cloud_csv
from memoryflow.cli import ExperimentConfig, main
from memoryflow.evolution import integrate_ensemble
from memoryflow.kernels import (
    KernelError,
    KernelFileError,
    _read_kernel_table,
    load_kernel_file,
)
from memoryflow.spaces import ExtendedVector, lambda_map, norm_H
from memoryflow.viscoelastic import _read_eigenfile, assemble, load_g_csv, load_model_file


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


@pytest.mark.parametrize("field,value", [
    ("delta", math.nan), ("delta", 0.0), ("delta", "2"), ("delta", None),
    ("ds", math.inf), ("ds", -1e-3), ("ds", None), ("s_max", math.nan), ("s_max", 0),
    ("s_max", None), ("theta", math.nan), ("theta", -1.0)])
def test_kernel_file_rejects_bad_number(workdir, field, value, capsys):
    # NaN used to fail deep inside the grid set-up, naming no field
    if field == "theta":
        (workdir / "t.csv").write_text("s,mu\n0.0,2.0\n1.0,1.0\n2.0,0.0\n")
        spec = {"family": "tabulated", "table": "t.csv", "theta": 1.0, "delta": 1.0}
    else:
        spec = {"family": "exponential", "delta": 1.0}
    spec[field] = value
    (workdir / "exp1.kernel.json").write_text(json.dumps(spec))
    with pytest.raises(KernelError, match="kernel field %r" % field):
        load_kernel_file(str(workdir / "exp1.kernel.json"))
    assert main(["simulate", "--config", str(workdir / "config.json"),
                 "--out", str(workdir / "out")]) == 2
    assert "kernel field %r" % field in capsys.readouterr().err


@pytest.mark.parametrize("jumps,name", [
    ([[math.nan, 0.5]], "jumps[0]"), ([[1.0, "x"]], "jumps[0]"), ([[1.0]], "jumps[0]"),
    ([[1.0, 0.5, 2.0]], "jumps[0]"), ([[1.0, None]], "jumps[0]"),
    ([[1.0, True]], "jumps[0]"), ([[0.0, 0.5]], "jumps[0]"), ([[1.0, 1.0]], "jumps[0]"),
    ([[1.0, 0.5], [math.inf, 0.2]], "jumps[1]"), ([[1.0, 0.5], [2.0, -0.1]], "jumps[1]"),
    (3, "jumps"), (False, "jumps"), ({"1.0": 0.5}, "jumps")])
def test_kernel_file_rejects_bad_jumps(workdir, jumps, name, capsys):
    # a NaN location used to surface as "mu must be finite", and a string
    # or a short entry as a bare Python error, naming no field
    spec = {"family": "exponential", "delta": 1.0, "jumps": jumps}
    (workdir / "exp1.kernel.json").write_text(json.dumps(spec))
    with pytest.raises(KernelError, match=r"kernel field '%s'" % name.replace("[", r"\[")):
        load_kernel_file(str(workdir / "exp1.kernel.json"))
    assert main(["simulate", "--config", str(workdir / "config.json"),
                 "--out", str(workdir / "out")]) == 2
    assert "kernel field '%s'" % name in capsys.readouterr().err


@pytest.mark.parametrize("field,value", [
    ("table", None), ("table", 5), ("table", ["t.csv"]), ("normalize", "no"),
    ("normalize", 1), ("delta", "2"), ("family", "gaussian")],
    ids=["no-table", "table-number", "table-list", "normalize-text", "normalize-number",
         "delta-text", "family"])
def test_tabulated_kernel_file_fields_exit_two(workdir, field, value, capsys):
    # a missing table used to crash with a KeyError and a number with a
    # TypeError, and "normalize": "no" normalized; None leaves the field out
    (workdir / "t.csv").write_text("s,mu\n0,6\n0.25,3\n0.5,1.5\n1,0\n")
    spec = {"family": "tabulated", "table": "t.csv", "theta": 1.0, "delta": 1.0,
            "normalize": True}
    (workdir / "exp1.kernel.json").write_text(json.dumps(spec))
    assert main(["kernel", "check", str(workdir / "exp1.kernel.json")]) == 0
    spec[field] = value
    spec = {k: v for k, v in spec.items() if v is not None}
    (workdir / "exp1.kernel.json").write_text(json.dumps(spec))
    with pytest.raises(KernelError, match="kernel field '%s'" % field):
        load_kernel_file(str(workdir / "exp1.kernel.json"))
    capsys.readouterr()
    for argv in (["kernel", "check", str(workdir / "exp1.kernel.json")],
                 ["simulate", "--config", str(workdir / "config.json")]):
        assert main(argv) == 2
        assert "kernel field '%s'" % field in capsys.readouterr().err
    assert not (workdir / "out").exists()


@pytest.mark.parametrize("table,what", [
    ("s,m\n0,6\n1,0\n", "no 'mu' column"), ("t,mu\n0,6\n1,0\n", "no 's' column"),
    ("s,mu\n0,6\n0.5,abc\n1,0\n", "line 3 "), ("s,mu\n0,6\n0.5\n1,0\n", "line 3 ")],
    ids=["no-mu", "no-s", "cell", "short-row"])
def test_tabulated_kernel_table_errors_exit_two(workdir, table, what, capsys):
    # a header s,m used to exit 2 with "no field of name mu", naming neither
    # the file nor the field, and a cell abc became NaN and exited 1
    (workdir / "t.csv").write_text(table)
    kernel = workdir / "exp1.kernel.json"
    kernel.write_text(json.dumps({"family": "tabulated", "table": "t.csv", "theta": 1.0,
                                  "delta": 1.0, "normalize": True}))
    with pytest.raises(KernelFileError, match=what):
        load_kernel_file(str(kernel))
    for argv in (["kernel", "check", str(kernel)],
                 ["simulate", "--config", str(workdir / "config.json")]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "kernel field 'table' (t.csv) in %s" % kernel in err and what in err
    assert not (workdir / "out").exists()


def test_tabulated_kernel_table_that_parses_stays_a_failed_check(workdir, capsys):
    # "nan" is a number; the table is read and then fails admissibility
    (workdir / "t.csv").write_text("s,mu\n# a comment line\n0,nan\n\n1,0\n")
    kernel = workdir / "exp1.kernel.json"
    kernel.write_text(json.dumps({"family": "tabulated", "table": "t.csv", "theta": 1.0,
                                  "delta": 1.0}))
    assert main(["kernel", "check", str(kernel)]) == 1
    assert "kernel check failed" in capsys.readouterr().err


def test_tabulated_kernel_negative_abscissa_is_a_failed_check(workdir, capsys):
    # it used to fail as "mu must be finite and nonnegative on the grid"
    (workdir / "t.csv").write_text("s,mu\n-0.25,6\n1,0\n")
    kernel = workdir / "exp1.kernel.json"
    kernel.write_text(json.dumps({"family": "tabulated", "table": "t.csv", "theta": 1.0,
                                  "delta": 1.0, "normalize": True}))
    assert main(["kernel", "check", str(kernel)]) == 1
    assert "start at s = -0.25, but mu lives on s >= 0" in capsys.readouterr().err


def test_kernel_check_empty_grid_is_a_failed_check(workdir, capsys):
    # s_max below ds/2 used to pass every check on an empty grid, exit 0
    kernel = workdir / "exp1.kernel.json"
    kernel.write_text(json.dumps({"family": "exponential", "delta": 1.0, "s_max": 0.004}))
    assert main(["kernel", "check", str(kernel)]) == 1
    err = capsys.readouterr().err
    assert "kernel check failed" in err and "quadrature grid is empty" in err


@pytest.mark.parametrize("field,value", [("s_max", 1e308), ("ds", 1e-308)])
def test_kernel_grid_without_a_finite_node_count(workdir, capsys, field, value):
    # s_max/ds, or the tail bound over ds, overflowed to inf, and kernel check
    # and simulate died with an OverflowError traceback
    kernel = workdir / "exp1.kernel.json"
    kernel.write_text(json.dumps({"family": "exponential", "delta": 1.0, field: value}))
    assert main(["kernel", "check", str(kernel)]) == 1
    err = capsys.readouterr().err
    assert "kernel check failed" in err and "not a finite number of grid nodes" in err
    assert main(["simulate", "--config", str(workdir / "config.json"),
                 "--out", str(workdir / "out")]) == 2
    assert "not a finite number of grid nodes" in capsys.readouterr().err


@pytest.mark.parametrize("field,value,what", [
    ("ds", 1e308, "ds = 1e+308 leaves one quadrature node below s_max"),
    ("ds", 30.0, "ds = 30 leaves one quadrature node below s_max"),
    ("s_max", 1e15, "s_max = 1e+15 over ds = 0.01 is 1e+17 grid nodes, more than the budget"),
    ("s_max", 1e20, "s_max = 1e+20 over ds = 0.01 is 1e+22 grid nodes, more than the budget")],
    ids=["ds-1e308", "ds-30", "s_max-1e15", "s_max-1e20"])
def test_kernel_grid_of_one_node_or_over_the_budget(workdir, capsys, field, value, what):
    # a ds past exp1's cutoff of 23.03 left one node and raised s_max to ds:
    # kernel check passed every line, and at 1e308 simulate died with an
    # OverflowError traceback; s_max 1e20 raised numpy's "Maximum allowed
    # size exceeded", which names no field, and 1e15 asked for about 8e17
    # bytes (test_kernels checks that the refusal allocates nothing)
    kernel = workdir / "exp1.kernel.json"
    kernel.write_text(json.dumps({"family": "exponential", "delta": 1.0, field: value}))
    assert main(["kernel", "check", str(kernel)]) == 1
    err = capsys.readouterr().err
    assert "kernel check failed" in err and what in err
    assert main(["simulate", "--config", str(workdir / "config.json"),
                 "--out", str(workdir / "out")]) == 2
    assert what in capsys.readouterr().err


@pytest.mark.parametrize("name", ["exp1.kernel.json", "model.json", "config.json"],
                         ids=["kernel", "model", "experiment"])
def test_json_file_that_is_not_an_object_exits_two(workdir, capsys, name):
    # a top-level list used to exit 1 with an AttributeError traceback
    (workdir / name).write_text("[1, 2]")
    argvs = [["simulate", "--config", str(workdir / "config.json")]]
    if name == "exp1.kernel.json":
        argvs.append(["kernel", "check", str(workdir / name)])
    for argv in argvs:
        assert main(argv) == 2
        assert "the top level of %s must be a JSON object, not list" % (workdir / name) \
            in capsys.readouterr().err
    assert not (workdir / "out").exists()


@pytest.mark.parametrize("flags", [["--nec", "1", "nan"], ["--dafermos", "nan"]])
def test_kernel_check_rejects_nan_flags(workdir, flags, capsys):
    # a NaN delta used to pass the domination scan with worst ratio 0
    with pytest.raises(SystemExit) as exc:
        main(["kernel", "check", str(workdir / "exp1.kernel.json")] + flags)
    assert exc.value.code == 2
    assert flags[0] in capsys.readouterr().err


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


def test_initial_file_skips_comments_and_blank_lines(workdir, capsys):
    # the second physical line used to be taken as the data row
    (workdir / "init.csv").write_text("u_1,v_1\n# drawn by hand\n\n0.25,-0.5  # u, v\n")
    cfg = json.loads((workdir / "config.json").read_text())
    cfg.update({"initial": {"file": "init.csv"}, "ensemble": 1})
    (workdir / "from_file.json").write_text(json.dumps(cfg))
    assert main(["simulate", "--config", str(workdir / "from_file.json"),
                 "--out", str(workdir / "outf")]) == 0
    data = np.loadtxt(workdir / "outf" / "traj_0.csv", delimiter=",", skiprows=1)
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


def test_compare_gap_is_the_largest_uv_gap_of_the_two_runs(workdir, capsys):
    # compare takes |du| and |dv| in place of the history rows; its gaps are
    # still those of the two runs, bit for bit
    config = str(workdir / "config.json")
    assert main(["--tol", "1e-5", "compare", "--config", config,
                 "--out", str(workdir / "cmp")]) == 0
    cfg = ExperimentConfig.from_file(config)
    model, kernel = cli.load_experiment(cfg)
    ops = assemble(model, kernel)
    z0s = [cli.initial_state(cfg, model, kernel, k) for k in range(cfg.ensemble)]
    hist = integrate_ensemble(z0s, ops, kernel, "history", cfg.dt, cfg.t_end)
    z0s = [ExtendedVector(z.u.copy(), z.v.copy(), lambda_map(z.memory, kernel))
           for z in z0s]
    state = integrate_ensemble(z0s, ops, kernel, "state", cfg.dt, cfg.t_end)
    gaps = [max(np.max(np.abs(h.u_snaps - s.u_snaps)), np.max(np.abs(h.v_snaps - s.v_snaps)))
            for h, s in zip(hist, state)]
    data = np.loadtxt(workdir / "cmp" / "compare.csv", delimiter=",", skiprows=1)
    assert list(data[:, 1]) == gaps
    assert read_summary(workdir / "cmp")["worst_uv_gap"] == max(gaps) > 0.0


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
                                         ("ensemble", 0), ("ensemble", 2.5),
                                         ("t_end", math.inf), ("dt", math.nan),
                                         ("seed", 1.7), ("seed", True),
                                         ("seed", -1), ("model", None),
                                         ("initial.random_ball", 3),
                                         ("initial.random_ball.space", "H2"),
                                         ("initial.random_ball.radius", math.nan),
                                         ("initial.random_ball.radius", -1.0)])
def test_config_rejects_bad_field(workdir, field, value):
    cfg = json.loads((workdir / "config.json").read_text())
    *outer, name = field.split(".")
    node = cfg
    for key in outer:
        node = node[key]
    node[name] = value
    (workdir / "bad.json").write_text(json.dumps(cfg))
    with pytest.raises(ValueError, match=field):
        ExperimentConfig.from_file(str(workdir / "bad.json"))
    assert main(["simulate", "--config", str(workdir / "bad.json")]) == 2


@pytest.mark.parametrize("command", ["simulate", "compare", "energy-report", "lk-split"])
def test_run_over_the_array_budget_exits_2(workdir, command, capsys):
    # 1e12 steps: refused before any run array is allocated, naming the sizes
    cfg = json.loads((workdir / "config.json").read_text())
    cfg["dt"], cfg["t_end"] = 1e-9, 1e3
    (workdir / "huge.json").write_text(json.dumps(cfg))
    assert main([command, "--config", str(workdir / "huge.json"),
                 "--out", str(workdir / "out")]) == 2
    err = capsys.readouterr().err
    assert "t_end = 1000 over dt = 1e-09" in err and "J = 1 modes" in err


@pytest.mark.parametrize("command,flag,value", [
    ("simulate", "--cloud-stride", "-3"), ("simulate", "--cloud-stride", "0"),
    ("simulate", "--cloud-every", "-0.05"), ("simulate", "--cloud-every", "5"),
    ("energy-report", "--samples", "0"), ("lk-split", "--samples", "0"),
    ("energy-report", "--samples", "1"), ("lk-split", "--samples", "5"),
    ("energy-report", "--sigma", "2"), ("energy-report", "--eps", "-1"),
    ("energy-report", "--nu-small", "0"), ("energy-report", "--delta-split", "0"),
    # the kernel mass is 1 and truncation needs nu_small / 2 below it
    ("energy-report", "--nu-small", "2"),
    ("hypotheses", "--radii", "-1"), ("lk-split", "--separation", "nan")])
def test_bad_flag_exits_two(workdir, command, flag, value, capsys, monkeypatch):
    # config t_end is 1.0 and dt 5e-3; nothing is run or written
    def no_run(*args, **kwargs):
        raise AssertionError("an integration started")
    for name in ("integrate", "integrate_ensemble", "lk_split",
                 "hypothesis_probe_suite"):
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


def test_bad_global_seed_exits_two(workdir, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--seed", "-3", "simulate", "--config", str(workdir / "config.json")])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


@pytest.mark.parametrize("J", [0, 2.5, True, None])
def test_model_file_rejects_bad_J(workdir, J):
    (workdir / "bad_model.json").write_text(json.dumps({
        "J": J, "f": "zero", "kernel": "exp1.kernel.json"}))
    with pytest.raises(ValueError, match="'J'"):
        load_model_file(str(workdir / "bad_model.json"))


@pytest.mark.parametrize("J,f,words", [
    (3, "zero", ["J = 3", "2 eigenvalues"]),
    (2, "cubic", ["f = 'cubic'", "domain"])])
def test_model_file_eigenvalues_checked_before_any_work(workdir, capsys, J, f, words):
    (workdir / "eig.txt").write_text("1\n4\n")
    (workdir / "eig_model.json").write_text(json.dumps({
        "J": J, "domain": {"eigenfile": "eig.txt"}, "f": f,
        "kernel": "exp1.kernel.json"}))
    cfg = json.loads((workdir / "config.json").read_text())
    cfg["model"] = "eig_model.json"
    (workdir / "eig_cfg.json").write_text(json.dumps(cfg))
    rc = main(["simulate", "--config", str(workdir / "eig_cfg.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert all(word in err for word in words)
    assert not (workdir / "out").exists()


@pytest.mark.parametrize("eigenvalues", ["1\nnan\n9\n", "nan\n4\n9\n", "1\n4\ninf\n"],
                         ids=["nan", "nan-first", "inf"])
def test_model_file_nonfinite_eigenvalues_exit_two(workdir, capsys, eigenvalues):
    # a NaN used to pass the ordering check and end in a blow-up, exit 1
    (workdir / "eig.txt").write_text(eigenvalues)
    (workdir / "eig_model.json").write_text(json.dumps({
        "J": 3, "domain": {"eigenfile": "eig.txt"}, "f": "zero",
        "kernel": "exp1.kernel.json"}))
    cfg = json.loads((workdir / "config.json").read_text())
    cfg["model"] = "eig_model.json"
    (workdir / "eig_cfg.json").write_text(json.dumps(cfg))
    assert main(["simulate", "--config", str(workdir / "eig_cfg.json")]) == 2
    assert "eigenvalues must be finite" in capsys.readouterr().err
    assert not (workdir / "out").exists()


@pytest.mark.parametrize("eigenvalues,words", [
    ("1\nx\n", ["line 2", "'x'"]), ("", ["holds no eigenvalues"])],
    ids=["not-a-number", "empty"])
def test_model_file_eigenfile_errors_name_the_file(workdir, capsys, recwarn,
                                                   eigenvalues, words):
    # a bare np.loadtxt named neither the field nor the file, counted rows
    # from 0, and warned on an empty file
    (workdir / "eig.txt").write_text(eigenvalues)
    (workdir / "eig_model.json").write_text(json.dumps({
        "J": 2, "domain": {"eigenfile": "eig.txt"}, "f": "zero",
        "kernel": "exp1.kernel.json"}))
    cfg = json.loads((workdir / "config.json").read_text())
    cfg["model"] = "eig_model.json"
    (workdir / "eig_cfg.json").write_text(json.dumps(cfg))
    assert main(["simulate", "--config", str(workdir / "eig_cfg.json")]) == 2
    err = capsys.readouterr().err
    assert all(word in err for word in
               ["model field 'domain.eigenfile'", "eig.txt", "eig_model.json"] + words)
    assert not recwarn.list
    assert not (workdir / "out").exists()


@pytest.mark.parametrize("where,field,value", [
    ("config", "kernel", 3), ("config", "model", ["model.json"]), ("config", "out", 1.5),
    ("config", "out", None), ("config", "initial.file", 7),
    ("config", "initial.file", None), ("model", "kernel", {"file": "exp1.kernel.json"}),
    ("model", "domain.eigenfile", 2)],
    ids=["config-kernel-number", "config-model-list", "config-out-number",
         "config-out-null", "config-initial.file-number", "config-initial.file-null",
         "model-kernel-object", "model-domain.eigenfile-number"])
def test_path_fields_that_are_not_strings_exit_two(workdir, capsys, where, field, value):
    # each used to raise a TypeError in path_beside and exit 1 with a traceback
    cfg = json.loads((workdir / "config.json").read_text())
    model = json.loads((workdir / "model.json").read_text())
    node = cfg if where == "config" else model
    *outer, name = field.split(".")
    for key in outer:
        node[key] = node = {}
    node[name] = value
    cfg["model"] = cfg["model"] if field == "model" else "bad_model.json"
    (workdir / "bad_model.json").write_text(json.dumps(model))
    (workdir / "bad_cfg.json").write_text(json.dumps(cfg))
    assert main(["simulate", "--config", str(workdir / "bad_cfg.json")]) == 2
    assert "%s field '%s' must be a path" % (where, field) in capsys.readouterr().err
    assert not (workdir / "out").exists()


@pytest.mark.parametrize("command", ["simulate", "compare", "energy-report"])
@pytest.mark.parametrize("row", ["0.1,0.2,0.3", "0.1,nan,0.3,0.4", "0.1,x,0.3,0.4",
                                 "0.1,0.2,0.3,0.4,0.5", ""],
                         ids=["three", "nan", "text", "five", "empty"])
def test_initial_file_checked_before_any_work(workdir, capsys, command, row):
    # a J = 2 model needs 2J = 4 finite values in the first data row
    (workdir / "two.json").write_text(json.dumps({
        "J": 2, "f": "zero", "kernel": "exp1.kernel.json"}))
    (workdir / "init.csv").write_text("u_1,u_2,v_1,v_2\n%s\n" % row)
    cfg = json.loads((workdir / "config.json").read_text())
    cfg.update({"model": "two.json", "initial": {"file": "init.csv"}})
    (workdir / "init_cfg.json").write_text(json.dumps(cfg))
    assert main([command, "--config", str(workdir / "init_cfg.json")]) == 2
    err = capsys.readouterr().err
    assert "initial.file" in err and str(workdir / "init.csv") in err
    assert not (workdir / "out").exists()


@pytest.mark.parametrize("command", ["simulate", "compare", "energy-report"])
@pytest.mark.parametrize("field,value", [
    ("f", {"cubic": 1}), ("f", {"cubic_minus_linear": math.nan}),
    ("f", {"cubic_minus_linear": "0.5"}), ("f", "quartic"), ("f", 3),
    ("g", {"a": 1}), ("g", [1, math.nan]), ("g", [1, "x"]), ("g", [1, True]),
    ("g", [1]), ("g", 0.5)],
    ids=["f-cubic-dict", "f-beta-nan", "f-beta-text", "f-unknown", "f-number",
         "g-dict", "g-nan", "g-text", "g-bool", "g-short", "g-number"])
def test_model_file_fields_checked_before_any_work(workdir, capsys, command, field,
                                                    value):
    # {"cubic": 1} used to crash with a KeyError, a dict g to run unforced,
    # a NaN in g to blow up at the first step, and a text entry to exit 2
    # without naming g
    (workdir / "bad_model.json").write_text(json.dumps({
        "J": 2, "f": "zero", "kernel": "exp1.kernel.json", field: value}))
    with pytest.raises(ValueError, match="model field '%s'" % field):
        load_model_file(str(workdir / "bad_model.json"))
    cfg = json.loads((workdir / "config.json").read_text())
    cfg["model"] = "bad_model.json"
    (workdir / "bad_cfg.json").write_text(json.dumps(cfg))
    assert main([command, "--config", str(workdir / "bad_cfg.json")]) == 2
    err = capsys.readouterr().err
    assert "model field '%s'" % field in err and str(workdir / "bad_model.json") in err
    assert not (workdir / "out").exists()


@pytest.mark.parametrize("text,where", [
    ("mode,coeff\n1,0.5\n3,0.2\n", "line 3"), ("", "the header row"),
    ("mode,value\n1,0.5\n", "the header row"), ("mode,coeff\n1,0.5,7\n", "line 2")],
    ids=["above-J", "empty", "no-coeff", "extra-cell"])
def test_g_csv_bad_row_checked_before_any_work(workdir, capsys, text, where):
    # an empty file used to exit 1 with an IndexError traceback
    (workdir / "g.csv").write_text(text)
    (workdir / "g_model.json").write_text(json.dumps({
        "J": 2, "f": "zero", "g": "g.csv", "kernel": "exp1.kernel.json"}))
    cfg = json.loads((workdir / "config.json").read_text())
    cfg["model"] = "g_model.json"
    (workdir / "g_cfg.json").write_text(json.dumps(cfg))
    assert main(["simulate", "--config", str(workdir / "g_cfg.json")]) == 2
    err = capsys.readouterr().err
    assert "model field 'g': %s of %s" % (where, workdir / "g.csv") in err
    assert not (workdir / "out").exists()


def test_model_without_kernel_exits_two(workdir, capsys):
    (workdir / "no_kernel.json").write_text(json.dumps({"J": 1, "f": "zero"}))
    cfg = json.loads((workdir / "config.json").read_text())
    cfg["model"] = "no_kernel.json"
    (workdir / "no_kernel_cfg.json").write_text(json.dumps(cfg))
    rc = main(["simulate", "--config", str(workdir / "no_kernel_cfg.json")])
    assert rc == 2
    assert "kernel" in capsys.readouterr().err


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


@pytest.mark.parametrize("sigma", [0.0, 0.5])
def test_energy_report_matches_per_sample_functionals(workdir, monkeypatch, sigma):
    from memoryflow import viscoelastic
    from memoryflow.evolution import integrate, sample_times
    from memoryflow.spaces import save_rows
    from memoryflow.viscoelastic import assemble, dissipation_rhs, energy_sigma, phi_functional
    from support import phi_control_ratio
    (workdir / "model_cubic.json").write_text(json.dumps({
        "J": 3, "f": "cubic", "g": [0.5, 0.0, 0.3], "kernel": "exp1.kernel.json"}))
    cfg = json.loads((workdir / "config.json").read_text())
    cfg["model"] = "model_cubic.json"
    (workdir / "energy.json").write_text(json.dumps(cfg))
    # counted under both names, so a call from within viscoelastic counts too
    phi_calls = []
    for module in (cli, viscoelastic):
        monkeypatch.setattr(module, "phi_functional",
                            lambda *a: phi_calls.append(a) or phi_functional(*a))
    samples, eps, nu, split = 12, 0.05, 0.1, 0.5   # eps, nu, split: the CLI defaults
    rc = main(["energy-report", "--config", str(workdir / "energy.json"),
               "--out", str(workdir / "en"), "--sigma", str(sigma),
               "--samples", str(samples)])
    assert rc == 0
    assert len(phi_calls) == samples
    monkeypatch.undo()
    # the per-sample loop that evaluated each functional on its own
    config = ExperimentConfig.from_file(str(workdir / "energy.json"))
    model, kernel = cli.load_experiment(config)
    z0 = cli.initial_state(config, model, kernel, 0)
    traj = integrate(z0, assemble(model, kernel), kernel, "history",
                     config.dt, config.t_end)
    rows, phi_c = [], 0.0
    for t in sample_times(config.t_end, config.dt, samples):
        z = traj.state_at(t, kernel)
        es = energy_sigma(z, sigma, model)
        phi = phi_functional(z, sigma, nu, split, model, kernel)
        rows.append((t, energy_sigma(z, 0.0, model), es, phi, es + eps * phi,
                     dissipation_rhs(z, 0.0, kernel)))
        phi_c = max(phi_c, phi_control_ratio(z, sigma, nu, split, model, kernel))
    save_rows(str(workdir / "want.csv"), "time,E0,E_sigma,Phi,Gamma,dissipation_rhs", rows)
    assert ((workdir / "en" / "energy.csv").read_bytes()
            == (workdir / "want.csv").read_bytes())
    assert read_summary(workdir / "en")["phi_control_constant"] == phi_c
    assert phi_c > 0.0


def test_energy_report_on_a_cut_kernel_matches_functionals_of_reconstruct_eta(workdir):
    # exp1 cut at s_max = 1 and a run to 1.5, so samples lie on both sides of
    # s_max; the command's states are blocked, the oracle's fields formed
    from memoryflow.evolution import integrate, reconstruct_eta, sample_times
    from memoryflow.spaces import save_rows
    from memoryflow.viscoelastic import dissipation_rhs, energy_sigma, phi_functional
    dt = 2.0 ** -6
    (workdir / "cut.kernel.json").write_text(json.dumps(
        {"family": "exponential", "delta": 1.0, "s_max": 1.0, "ds": 2 * dt}))
    (workdir / "model_cut.json").write_text(json.dumps({
        "J": 3, "f": "cubic", "g": [0.5, 0.0, 0.3], "kernel": "cut.kernel.json"}))
    cfg = json.loads((workdir / "config.json").read_text())
    cfg.update(model="model_cut.json", dt=dt, t_end=1.5)
    (workdir / "cut.json").write_text(json.dumps(cfg))
    samples, sigma, eps, nu, split = 12, 0.5, 0.05, 0.1, 0.5
    rc = main(["energy-report", "--config", str(workdir / "cut.json"),
               "--out", str(workdir / "en"), "--sigma", str(sigma),
               "--samples", str(samples)])
    assert rc == 0
    config = ExperimentConfig.from_file(str(workdir / "cut.json"))
    model, kernel = cli.load_experiment(config)
    z0 = cli.initial_state(config, model, kernel, 0)
    traj = integrate(z0, assemble(model, kernel), kernel, "history", dt, 1.5)
    ts = sample_times(1.5, dt, samples)
    assert kernel.grid[-1] < 1.0 < ts[-1] and ts[0] < kernel.grid[-1]
    rows, phi_c = [], 0.0
    for t in ts:
        z = traj.state_at(t, kernel)
        z = ExtendedVector(z.u, z.v, reconstruct_eta(traj, t, kernel))
        es = energy_sigma(z, sigma, model)
        phi = phi_functional(z, sigma, nu, split, model, kernel)
        rows.append((t, energy_sigma(z, 0.0, model), es, phi, es + eps * phi,
                     dissipation_rhs(z, 0.0, kernel)))
        phi_c = max(phi_c, abs(phi) / norm_H(z, sigma) ** 2)
    save_rows(str(workdir / "want.csv"), "time,E0,E_sigma,Phi,Gamma,dissipation_rhs", rows)
    assert ((workdir / "en" / "energy.csv").read_bytes()
            == (workdir / "want.csv").read_bytes())
    assert read_summary(workdir / "en")["phi_control_constant"] == phi_c


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


def test_data_files_resolve_against_their_file(tmp_path, monkeypatch, capsys):
    # the kernel table, the eigenvalue file and the g CSV are named relative
    # to the file that names them, and the run starts from another directory
    cfg_dir, elsewhere = tmp_path / "cfg", tmp_path / "elsewhere"
    cfg_dir.mkdir(), elsewhere.mkdir()
    s = np.arange(0.0, 20.25, 0.5)
    (cfg_dir / "tab.csv").write_text(
        "s,mu\n" + "".join("%.17g,%.17g\n" % (x, math.exp(-x)) for x in s))
    (cfg_dir / "tab.kernel.json").write_text(json.dumps({
        "family": "tabulated", "table": "tab.csv", "theta": 1.1, "delta": 0.9,
        "normalize": True}))
    (cfg_dir / "eig.txt").write_text("1\n4\n")
    (cfg_dir / "g.csv").write_text("mode,coeff\n1,0.5\n")
    (cfg_dir / "model.json").write_text(json.dumps({
        "J": 2, "domain": {"eigenfile": "eig.txt"}, "f": "zero", "g": "g.csv",
        "kernel": "tab.kernel.json"}))
    (cfg_dir / "config.json").write_text(json.dumps({
        "model": "model.json", "dt": 5e-3, "t_end": 0.1, "initial": "zero",
        "out": "out"}))
    monkeypatch.chdir(elsewhere)
    rc = main(["simulate", "--config", str(cfg_dir / "config.json")])
    assert rc == 0
    summary = read_summary(cfg_dir / "out")
    assert summary["kernel"] == "tabulated:tab.csv"
    # zero data driven by g = 0.5 on mode 1 only
    data = np.loadtxt(cfg_dir / "out" / "traj_0.csv", delimiter=",", skiprows=1)
    assert data[-1, 1] > 0.0 and np.all(data[:, 2] == 0.0)


def test_attract_bad_cloud_header_exits_two(tmp_path, capsys):
    # a '#' header without key=value pairs used to exit 2 with "dictionary
    # update sequence element #0 has length 1; 2 is required"
    bundle, surrogate = tmp_path / "bundle", tmp_path / "surrogate"
    bundle.mkdir(), surrogate.mkdir()
    for t in range(5):
        (bundle / ("cloud_t%.6f.csv" % t)).write_text("# label=t norm=H0\n1,2\n")
    bad = surrogate / "cloud.csv"
    bad.write_text("# surrogate cloud\n0,0\n")
    with pytest.raises(ValueError, match=re.escape("line 1 of %s" % bad)):
        load_cloud_csv(str(bad))
    rc = main(["attract", "--bundle", str(bundle), "--surrogate", str(surrogate),
               "--out", str(tmp_path / "report.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "line 1 of %s" % bad in err and "key=value" in err
    assert not (tmp_path / "report.csv").exists()


@pytest.mark.parametrize("where,text,line", [
    ("bundle", "# label=t norm=H0\n1,2\nnan,2\n", 3),
    ("bundle", "# label=t norm=H0\n1,2,3\n", 2),
    ("surrogate", "# label=s norm=H0\n0,0,0\n", 2)],
    ids=["nan", "bundle-width", "surrogate-width"])
def test_attract_bad_cloud_values_exit_two(tmp_path, capsys, where, text, line):
    # a NaN used to give distance 0 and exit 0, a bundle cloud of another
    # width to exit 2 with a bare "dimension mismatch", and surrogate clouds
    # of two widths with numpy's vstack message
    bundle, surrogate = tmp_path / "bundle", tmp_path / "surrogate"
    bundle.mkdir(), surrogate.mkdir()
    for t in range(6):
        (bundle / ("cloud_t%.6f.csv" % t)).write_text("# label=t norm=H0\n%d,2\n" % t)
    (surrogate / "a.csv").write_text("# label=s norm=H0\n0,0\n")
    bad = bundle / "cloud_t2.000000.csv" if where == "bundle" else surrogate / "b.csv"
    bad.write_text(text)
    assert main(["attract", "--bundle", str(bundle), "--surrogate", str(surrogate),
                 "--out", str(tmp_path / "report.csv")]) == 2
    assert "cloud file: line %d of %s" % (line, bad) in capsys.readouterr().err
    assert not (tmp_path / "report.csv").exists()


@pytest.mark.parametrize("where,name,text,message", [
    ("surrogate", "b.csv", "# label=s norm=H0\n", "cloud file: %s holds no points"),
    ("bundle", "cloud_t2.000000.csv", "# label=t norm=H0\n", "cloud file: %s holds no points"),
    ("bundle", "cloud_tX.csv", "# label=t norm=H0\n1,2\n", "bundle file %s: the name"),
    ("bundle", "cloud_tnan.csv", "# label=t norm=H0\n1,2\n", "bundle file %s: the name")],
    ids=["surrogate-empty", "bundle-empty", "bundle-name", "bundle-nan-time"])
def test_attract_errors_name_the_file(tmp_path, capsys, where, name, text, message):
    # a cloud of its header line alone used to exit 2 with "cloud must be
    # nonempty", and a bundle file cloud_tX.csv with "could not convert
    # string to float: 'X'"; neither named the file
    bundle, surrogate = tmp_path / "bundle", tmp_path / "surrogate"
    bundle.mkdir(), surrogate.mkdir()
    for t in range(6):
        (bundle / ("cloud_t%.6f.csv" % t)).write_text("# label=t norm=H0\n%d,2\n" % t)
    (surrogate / "a.csv").write_text("# label=s norm=H0\n0,0\n")
    bad = (bundle if where == "bundle" else surrogate) / name
    bad.write_text(text)
    assert main(["attract", "--bundle", str(bundle), "--surrogate", str(surrogate),
                 "--out", str(tmp_path / "report.csv")]) == 2
    assert "error: " + message % bad in capsys.readouterr().err
    assert not (tmp_path / "report.csv").exists()


# the five readers of text tables: file name, the lines above the rows, the
# cell separator, the field their errors name in directory d, the call that
# reads the file p in d, and the numbers it reads from the rows 1 0.5, 2 -0.25
TABLE_READERS = [
    ("g.csv", "mode,coeff\n", ",", lambda d: "model field 'g'",
     lambda d, p: load_g_csv(str(p), 2), [0.5, -0.25]),
    ("t.csv", "s,mu\n", ",", lambda d: "kernel field 'table' (t.csv) in %s" % (d / "k.json"),
     lambda d, p: np.array(_read_kernel_table(str(d / "k.json"), "t.csv")),
     [[1.0, 2.0], [0.5, -0.25]]),
    ("eig.txt", "", " ",
     lambda d: "model field 'domain.eigenfile' (eig.txt) in %s" % (d / "m.json"),
     lambda d, p: _read_eigenfile(str(d / "m.json"), "eig.txt"), [1.0, 0.5, 2.0, -0.25]),
    ("init.csv", "u_1,v_1\n", ",", lambda d: "config field 'initial.file'",
     lambda d, p: cli._initial_row(str(p)), [1.0, 0.5]),
    ("cloud.csv", "# label=c norm=H0\n", ",", lambda d: "cloud file",
     lambda d, p: load_cloud_csv(str(p)).points, [[1.0, 0.5], [2.0, -0.25]])]


@pytest.mark.parametrize("name,head,sep,field,read,numbers", TABLE_READERS,
                         ids=["g", "kernel-table", "eigenfile", "initial", "cloud"])
def test_table_readers_share_one_grammar(tmp_path, name, head, sep, field, read, numbers):
    path = tmp_path / name
    first, second = sep.join(["1", "0.5"]), sep.join(["2", "-0.25"])
    path.write_text(head + first + "\n" + second + "\n")
    assert np.array_equal(read(tmp_path, path), numbers)
    path.write_text(head + "# a comment\n\n%s  # a trailing comment\n%s\n" % (first, second))
    assert np.array_equal(read(tmp_path, path), numbers)
    # the bad row is on physical line 4 below the head; the eigenfile has no
    # header and rows of any length, so a short row is no error there
    where = "%s: line %d of %s" % (field(tmp_path), head.count("\n") + 4, path)
    for bad in [sep.join(["2", "x"])] + (["2"] if head else []):
        path.write_text(head + "# a comment\n\n%s\n%s\n" % (first, bad))
        with pytest.raises(ValueError, match=re.escape(where)):
            read(tmp_path, path)


def test_simulate_state_clouds_then_attract(workdir, tmp_path, capsys):
    # --framework and the global --seed override the config; the clouds
    # feed attract, whose --out names a directory that does not exist yet
    cfg = json.loads((workdir / "config.json").read_text())
    cfg.update({"t_end": 0.1, "framework": "state", "seed": 3})
    (workdir / "seed3.json").write_text(json.dumps(cfg))
    rc = main(["simulate", "--config", str(workdir / "seed3.json"),
               "--out", str(workdir / "direct")])
    assert rc == 0
    cfg.update({"framework": "history", "seed": 7})
    (workdir / "short.json").write_text(json.dumps(cfg))
    out = workdir / "overridden"
    rc = main(["--seed", "3", "simulate", "--config", str(workdir / "short.json"),
               "--framework", "state", "--cloud-every", "0.02", "--out", str(out)])
    assert rc == 0
    summary = read_summary(out)
    assert summary["framework"] == "state" and summary["seed"] == 3
    for name in ("traj_0.csv", "traj_1.csv"):
        assert (out / name).read_bytes() == (workdir / "direct" / name).read_bytes()
    clouds = sorted((out / "clouds").glob("cloud_t*.csv"))
    assert [c.name for c in clouds] == ["cloud_t%.6f.csv" % t
                                        for t in (0.02, 0.04, 0.06, 0.08, 0.1)]
    report = tmp_path / "new" / "dir" / "attract.csv"
    rc = main(["attract", "--bundle", str(out / "clouds"),
               "--surrogate", str(out / "clouds"), "--out", str(report)])
    assert rc == 0
    data = np.loadtxt(report, delimiter=",", skiprows=1)
    assert data.shape == (5, 2) and np.all(data[:, 1] == 0.0)
    assert "note" in json.loads((report.parent / "summary.txt").read_text())


def test_hypotheses_cli(workdir, capsys):
    (workdir / "model4.json").write_text(json.dumps({
        "J": 4, "f": "cubic", "kernel": "exp1.kernel.json"}))
    cfg = json.loads((workdir / "config.json").read_text())
    cfg.update({"model": "model4.json", "t_end": 0.1})
    (workdir / "hyp.json").write_text(json.dumps(cfg))
    rc = main(["hypotheses", "--config", str(workdir / "hyp.json"),
               "--out", str(workdir / "hyp"), "--radii", "1", "2"])
    assert rc == 0
    data = np.loadtxt(workdir / "hyp" / "hypotheses.csv", delimiter=",",
                      skiprows=1)
    assert data.shape == (2, 3) and list(data[:, 0]) == [1.0, 2.0]
    summary = read_summary(workdir / "hyp")
    assert summary["radii"] == [1.0, 2.0]
    assert summary["identity_gap"] < 1e-12


@pytest.mark.parametrize("beta,expect", [(0.5, 0), (1.0, 2)])
def test_simulate_cubic_minus_linear(workdir, beta, expect, capsys):
    # beta must stay below lambda_1 = 1; the model differs from plain cubic
    cfg = json.loads((workdir / "config.json").read_text())
    cfg["t_end"] = 0.1
    for name, f in (("cml", {"cubic_minus_linear": beta}), ("cubic", "cubic")):
        (workdir / ("model_%s.json" % name)).write_text(json.dumps({
            "J": 2, "f": f, "kernel": "exp1.kernel.json"}))
        cfg["model"] = "model_%s.json" % name
        (workdir / (name + ".json")).write_text(json.dumps(cfg))
    rc = main(["simulate", "--config", str(workdir / "cml.json"),
               "--out", str(workdir / "cml")])
    assert rc == expect
    if expect:
        assert "beta" in capsys.readouterr().err
        return
    assert main(["simulate", "--config", str(workdir / "cubic.json"),
                 "--out", str(workdir / "cubic")]) == 0
    a = np.loadtxt(workdir / "cml" / "traj_0.csv", delimiter=",", skiprows=1)
    b = np.loadtxt(workdir / "cubic" / "traj_0.csv", delimiter=",", skiprows=1)
    assert not np.array_equal(a, b)


@pytest.mark.parametrize("command", ["simulate", "lk-split", "hypotheses", "energy-report"])
def test_every_run_command_refuses_a_jump_kernel_naming_its_file(workdir, capsys, command):
    # lk-split used to run on a kernel the model refuses, and the refusal
    # named no file
    kernel = workdir / "jump.kernel.json"
    kernel.write_text(json.dumps({"family": "exponential", "delta": 1.0,
                                  "jumps": [[1.0, 0.5]]}))
    (workdir / "model_jump.json").write_text(json.dumps({
        "J": 1, "f": "zero", "kernel": "jump.kernel.json"}))
    cfg = json.loads((workdir / "config.json").read_text())
    cfg["model"] = "model_jump.json"
    (workdir / "jump.json").write_text(json.dumps(cfg))
    assert main([command, "--config", str(workdir / "jump.json"),
                 "--out", str(workdir / "jump")]) == 2
    assert "kernel file %s: viscoelastic model requires a jump-free kernel" % kernel \
        in capsys.readouterr().err
    assert not (workdir / "jump").exists()


def test_kernel_file_with_jumps(workdir, capsys):
    # a jump kernel passes its checks but the wave model refuses it
    (workdir / "jump.kernel.json").write_text(json.dumps({
        "family": "exponential", "delta": 1.0, "jumps": [[1.0, 0.5]]}))
    rc = main(["kernel", "check", str(workdir / "jump.kernel.json")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "jump_exponential(delta=1,n=1)" in out and "FAIL" not in out
    (workdir / "model_jump.json").write_text(json.dumps({
        "J": 1, "f": "zero", "kernel": "jump.kernel.json"}))
    cfg = json.loads((workdir / "config.json").read_text())
    cfg["model"] = "model_jump.json"
    (workdir / "jump.json").write_text(json.dumps(cfg))
    rc = main(["simulate", "--config", str(workdir / "jump.json"),
               "--out", str(workdir / "jump")])
    assert rc == 2
    assert "jump-free" in capsys.readouterr().err
