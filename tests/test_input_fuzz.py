"""Fuzz of the input boundary: every input file kind, one mutation at a time.

Each example writes a small, valid set of input files, mutates one field of
one JSON file or one cell or line of one text table, and runs in-process
every CLI command that reads it.  A command must exit 0, 1 or 2 and raise
nothing, and an exit 2 must name the field, the file or the flag it
refuses: bad input fails at the reader that reads it, not deep inside numpy.

The commands run as from a shell, where numpy's floating-point warnings
print and do not raise; values near the float range (a 1e308 cell) still
overflow inside numpy, in the kernel builders, the stepper and `attract`.
"""

import contextlib
import io
import itertools
import json
import os
import re
import warnings

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from memoryflow.cli import main


def cloud(t, shift):
    rows = "".join("%g,%g,%g\n" % (shift + i, 0.5 * i, -0.25) for i in range(3))
    return "# label=t=%g norm=H0\n%s" % (t, rows)


def base_files():
    """file name -> JSON object or text: a run of a few dozen steps that
    reads every input kind (the exponential jump kernel only by `kernel
    check`, since the model refuses jumps)."""
    files = {
        "experiment.json": {"model": "model.json", "dt": 0.05, "t_end": 1.0,
                            "ensemble": 2, "seed": 1, "initial": {"file": "init.csv"},
                            "out": "out"},
        "model.json": {"J": 2, "domain": {"eigenfile": "eig.txt"}, "f": "zero",
                       "g": "g.csv", "kernel": "tab.kernel.json"},
        "tab.kernel.json": {"family": "tabulated", "table": "tab.csv", "theta": 1.0,
                            "delta": 1.0, "normalize": True, "ds": 0.05},
        "jump.kernel.json": {"family": "exponential", "delta": 1.0, "jumps": [[1.0, 0.5]],
                             "ds": 0.1, "s_max": 3.0},
        "tab.csv": "s,mu\n0,6\n0.25,3\n0.5,1.5\n1,0\n",
        "eig.txt": "1 4\n",
        "g.csv": "mode,coeff\n1,0.5\n",
        "init.csv": "u_1,u_2,v_1,v_2\n0.5,0,0,0.25\n",
        "surrogate/cloud.csv": cloud(0.0, 0.0),
    }
    for k in range(5):
        files["bundle/cloud_t%.6f.csv" % (0.5 * k)] = cloud(0.5 * k, 2.0 ** -k)
    return files


# what each input kind's mutation reaches: the file, and for JSON the fields
JSON_FIELDS = {
    "experiment.json": ["model", "kernel", "dt", "t_end", "ensemble", "seed",
                        "framework", "out", "initial"],
    "model.json": ["J", "domain", "f", "g", "kernel"],
    "tab.kernel.json": ["family", "table", "theta", "delta", "normalize", "ds",
                        "s_max", "id"],
    "jump.kernel.json": ["family", "delta", "jumps", "ds", "s_max"],
}
INITIALS = ["zero", {"random_ball": {"radius": 1.0, "space": "H1"}},
            {"file": "init.csv"}]
TABLES = ["tab.csv", "eig.txt", "g.csv", "init.csv", "surrogate/cloud.csv",
          "bundle/cloud_t0.000000.csv"]

VALUES = st.sampled_from([None, True, False, "", "x", "zero", "H0", [], [1.0], [[1.0, 0.5]],
                          {}, {"a": 1}, -1, 0, 1, 2, 0.5, 1e-3, 1e308, 1e30, -1e30,
                          float("nan"), float("inf")])
CELLS = st.sampled_from(["", "x", "nan", "inf", "-inf", "-1", "0", "1e308", "1e30",
                         "2", "0.5", "1,2", "#", "1 2"])


@st.composite
def json_mutation(draw):
    name = draw(st.sampled_from(sorted(JSON_FIELDS)))
    field = draw(st.sampled_from(JSON_FIELDS[name] + ["unknown"]))
    how = draw(st.sampled_from(["set", "set", "set", "delete", "not_an_object"]))
    value = draw(VALUES)

    def mutate(spec):
        if how == "not_an_object":
            return [spec]
        if how == "delete":
            spec.pop(field, None)
        else:
            spec[field] = value
        return spec
    return name, mutate, "%s %s %s=%r" % (name, how, field, value)


@st.composite
def initial_mutation(draw):
    initial = json.loads(json.dumps(draw(st.sampled_from(INITIALS))))
    key, inner = next(iter(initial.items())) if isinstance(initial, dict) \
        else (None, None)
    value = draw(VALUES)
    if isinstance(inner, dict):
        inner[draw(st.sampled_from(["radius", "space", "unknown"]))] = value
    elif key is not None and draw(st.booleans()):
        initial[key] = value
    else:
        initial = value

    def mutate(spec):
        spec["initial"] = initial
        return spec
    return "experiment.json", mutate, "initial=%r" % (initial,)


@st.composite
def table_mutation(draw):
    name = draw(st.sampled_from(TABLES))
    how = draw(st.sampled_from(["cell", "cell", "drop_line", "add_line", "empty",
                                "missing"]))
    cell = draw(CELLS)
    line_no = draw(st.integers(0, 10))

    def mutate(text):
        lines = text.splitlines()
        i = line_no % len(lines)
        if how == "cell":
            cells = lines[i].split(",")
            cells[line_no % len(cells)] = cell
            lines[i] = ",".join(cells)
        elif how == "drop_line":
            del lines[i]
        elif how == "add_line":
            lines.insert(i, cell)
        elif how == "empty":
            lines = []
        else:
            return None
        return "".join(line + "\n" for line in lines)
    return name, mutate, "%s %s line %d cell %r" % (name, how, line_no, cell)


def write_inputs(root, mutation):
    name, mutate, _ = mutation
    for path, data in base_files().items():
        if path == name:
            data = mutate(json.loads(json.dumps(data)) if isinstance(data, dict) else data)
            if data is None:
                continue
        full = os.path.join(root, path)
        os.makedirs(os.path.dirname(full), exist_ok=True)
        with open(full, "w") as fh:
            fh.write(json.dumps(data) if isinstance(data, (dict, list)) else data)


def commands(root, name):
    """The argv of every command that reads the file `name`."""
    cfg = os.path.join(root, "experiment.json")
    out = lambda tag: ["--out", os.path.join(root, "out_" + tag)]
    if name.startswith(("bundle", "surrogate")):
        return [["attract", "--bundle", os.path.join(root, "bundle"),
                 "--surrogate", os.path.join(root, "surrogate"),
                 "--out", os.path.join(root, "out_attract", "attract.csv")]]
    runs = [["kernel", "check", os.path.join(root, k), "--nec", "1", "1",
             "--dafermos", "1", "--flatness"]
            for k in ("tab.kernel.json", "jump.kernel.json")]
    if name == "jump.kernel.json":
        return runs[1:]
    return runs[:1] + [
        ["simulate", "--config", cfg, "--cloud-every", "0.5"] + out("sim"),
        ["simulate", "--config", cfg, "--framework", "state"] + out("state"),
        ["--tol", "1", "compare", "--config", cfg] + out("compare"),
        ["energy-report", "--config", cfg, "--samples", "4"] + out("energy"),
        ["lk-split", "--config", cfg, "--samples", "6"] + out("lk"),
        ["hypotheses", "--config", cfg, "--radii", "1"] + out("hyp"),
    ]


# a refusal names an input file or a path in the run's directory, a field,
# or a flag; the run budget names t_end and dt with their values
NAMES_WHAT = r"\.(json|csv|txt)\b|%s|\bfield\b|--[a-z]|\bt_end = "

_examples = itertools.count()


@settings(derandomize=True, deadline=None, max_examples=150,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutation=st.one_of(json_mutation(), initial_mutation(), table_mutation()))
def test_every_command_refuses_a_mutated_input_at_its_reader(tmp_path, mutation):
    root = str(tmp_path / ("case%d" % next(_examples)))
    write_inputs(root, mutation)
    names_what = re.compile(NAMES_WHAT % re.escape(root))
    for argv in commands(root, mutation[0]):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            rc = main(argv)
        assert rc in (0, 1, 2), (mutation[2], argv, rc)
        if rc == 2:
            assert names_what.search(err.getvalue()), (mutation[2], argv, err.getvalue())
