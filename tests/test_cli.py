import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import cdde_bound
from cdde_bound import cli
from cdde_bound.certificate import compute_certificate
from cdde_bound.cli import VERIFY_GRID, build_scenario, grid_reports, load_problem, main
from cdde_bound.simulator import Trajectory, simulate, simulate_corners, verify_domination

from conftest import SAMPLE_PROBLEM
from oracles import verify_domination_dense


def write_problem(tmp_path, mutate=None, name="problem.json"):
    doc = json.loads(SAMPLE_PROBLEM.read_text())
    if mutate:
        mutate(doc)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def test_check_sample_passes(capsys, sample_problem_path):
    code = main(["check", str(sample_problem_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("PASS") == 4
    assert "FAIL" not in out


def test_check_reads_xi_from_options_and_flag_overrides(tmp_path, capsys):
    # the weights of the witness solve: the file's options.xi, overridden by --xi
    path = write_problem(tmp_path, lambda d: d["options"].update(xi=[1, 2, 3, 4, 5]))
    runs = {}
    for name, argv in [("file", [str(path)]),
                       ("flag", [str(SAMPLE_PROBLEM), "--xi", "1,2,3,4,5"]),
                       ("override", [str(path), "--xi", "1,1,1,1,1"]),
                       ("default", [str(SAMPLE_PROBLEM)])]:
        assert main(["check"] + argv) == 0
        runs[name] = capsys.readouterr().out
    assert "witness p = [7.55363, 19.0146, 8.38317]" in runs["file"]
    assert runs["file"] == runs["flag"]
    assert runs["override"] == runs["default"] != runs["file"]


def test_check_identity_d_fails(tmp_path, capsys):
    path = write_problem(tmp_path, lambda d: d["system"].update(
        D=[[1.0, 0.0], [0.0, 1.0]]))
    code = main(["check", str(path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL D is Schur" in out


def test_check_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["check", str(path)]) == 2
    assert "input error" in capsys.readouterr().err


def test_check_missing_field_exits_2(tmp_path, capsys):
    path = write_problem(tmp_path, lambda d: d["system"].pop("h_max"))
    assert main(["check", str(path)]) == 2


def test_check_bad_dimensions_exit_2(tmp_path):
    path = write_problem(tmp_path, lambda d: d["system"].update(
        psi_bar=[1.0, 2.0]))
    assert main(["check", str(path)]) == 2


def test_bound_writes_outputs(tmp_path, capsys, sample_problem_path):
    out = tmp_path / "out"
    code = main(["bound", str(sample_problem_path), "--out", str(out),
                 "--t-end", "4", "--step", "0.01"])
    assert code == 0
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["T_star"] == 2.0
    assert cert["mu"] == pytest.approx(0.999 * 0.0707, abs=5e-4)
    assert cert["eta"] == pytest.approx([0.7249, 1.4756, 0.5780], abs=5e-4)
    lines = (out / "staircase.csv").read_text().splitlines()
    assert lines[0] == "t,xb_1,xb_2,xb_3,yb_1,yb_2"
    assert len(lines) == 402
    stdout = capsys.readouterr().out
    assert "T_star" in stdout


def test_bound_deterministic_bytes(tmp_path, sample_problem_path):
    outs = []
    for name in ("o1", "o2"):
        out = tmp_path / name
        assert main(["bound", str(sample_problem_path), "--out", str(out),
                     "--t-end", "4", "--step", "0.01"]) == 0
        outs.append(((out / "certificate.json").read_bytes(),
                     (out / "staircase.csv").read_bytes()))
    assert outs[0] == outs[1]


def test_bound_golden_bytes(tmp_path, sample_problem_path):
    # SHA-256 of the sample outputs, written in a child process under
    # OpenBLAS's Prescott kernels (SSE3, no FMA), which run on every x86-64
    # host: the certificate's LAPACK solves and inversions round differently
    # under other kernels (the FMA ones and Nehalem's give other digests),
    # the staircase does not.  CI pins numpy and with it OpenBLAS.
    out = tmp_path / "out"
    src = Path(cdde_bound.__file__).resolve().parents[1]
    env = dict(os.environ, OPENBLAS_CORETYPE="Prescott",
               PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-m", "cdde_bound", "bound", str(sample_problem_path),
                    "--out", str(out), "--t-end", "4", "--step", "0.01"],
                   env=env, check=True, capture_output=True)
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in ("certificate.json", "staircase.csv")}
    assert digests == {
        "certificate.json": "aaca5fc3cea61d5099caa16b5848d27cb850684521a46974d94625be6c9b73ba",
        "staircase.csv": "d77b7fc2cc372c7c61b66fb13ae5923f53e58b6ce9c48de87403c1a4f11762f2",
    }


def test_bound_with_xi_near_underflow_exits_1_without_warnings(tmp_path, capsys):
    # the witness of xi = 1e-310 scales to an infinite (p, q): refused where
    # it is scaled, with no RuntimeWarning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["bound", str(SAMPLE_PROBLEM), "--xi", ",".join(["1e-310"] * 5),
                     "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("FAIL comparison-vectors: ") and "scale of xi" in err


def time_rescaled(c):
    """The sample with time measured in units 1/c: A, B and omega_bar
    divide by c, h_max multiplies by c.  The scenario section is dropped,
    so the scenario is the default one, at the rescaled bars."""
    def mutate(doc):
        del doc["scenario"]
        system = doc["system"]
        for name in ("A", "B"):
            system[name] = (np.array(system[name]) / c).tolist()
        system["omega_bar"] = (np.array(system["omega_bar"]) / c).tolist()
        system["h_max"] *= c
    return mutate


def d_near_one(doc):
    """A scalar system with D = 1 - 1e-9, in the default scenario."""
    del doc["scenario"]
    doc["system"].update(A=[[-1.0]], B=[[1e-12]], C=[[1.0]], D=[[1.0 - 1e-9]], h_max=0.1,
                         omega_bar=[0.0], d_bar=[0.0], psi_bar=[1.0], phi_bar=[1.0])


@pytest.mark.parametrize("mutate", [
    pytest.param(d_near_one, id="d-near-one"),
    pytest.param(time_rescaled(1e9), id="sample-time-rescaled-1e9"),
])
def test_bound_contraction_factor_below_mu_min_exits_1(tmp_path, capsys, mutate):
    path = write_problem(tmp_path, mutate)
    assert main(["bound", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("FAIL contraction-factor:") and "below MU_MIN" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out" / "certificate.json").exists()


def non_metzler_in_fast_time(doc):
    """The sample with ``A[0][2] = -0.5``, then in time units of 1e-12, so
    that the entry is -5e-13."""
    doc["system"]["A"][0][2] = -0.5
    time_rescaled(1e12)(doc)


def test_non_metzler_sample_in_fast_time_exits_1(tmp_path, capsys):
    """A negative entry is refused at any size: rescaling time makes it
    small, not nonnegative."""
    path = write_problem(tmp_path, non_metzler_in_fast_time)
    assert main(["check", str(path)]) == 1
    out, err = capsys.readouterr()
    assert "FAIL structure: A not Metzler at (0, 2): -5e-13\n" in out
    assert "PASS A is Metzler" not in out and err == ""
    assert main(["bound", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err == "FAIL structural-validation: A not Metzler at (0, 2): -5e-13\n"
    assert not (tmp_path / "out" / "certificate.json").exists()


def x1_in_units_of(c):
    """The sample with ``x_1`` measured in units 1/c: row 1 of ``A`` and of
    ``B`` and ``omega_bar_1`` and ``psi_bar_1`` multiply by c off ``A``'s
    diagonal, column 1 of ``A`` and ``C`` divides by c."""
    def mutate(doc):
        s = doc["system"]
        s["A"][0][1:] = [c * a for a in s["A"][0][1:]]
        for row in s["A"][1:] + s["C"]:
            row[0] /= c
        s["B"][0] = [c * b for b in s["B"][0]]
        s["omega_bar"][0] *= c
        s["psi_bar"][0] *= c
    return mutate


def test_bound_with_x1_in_units_of_1e_minus_12_exits_0(tmp_path, capsys):
    """The coupling matrix's entries span 2e-13 to 3e11 and ``A``'s 1-norm
    condition is 1.9e22; the witness proves ``A`` and its shifts Hurwitz
    whatever the condition, so ``bound`` certifies the copy."""
    path = write_problem(tmp_path, x1_in_units_of(1e12))
    assert main(["bound", str(path), "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == ""
    assert (tmp_path / "out" / "certificate.json").exists()


def test_verify_with_x1_in_units_of_1e_minus_12_exits_0(tmp_path, capsys):
    """``psi_bar_1`` and ``omega_bar_1`` are 2e12 and 5e11 on that copy; the
    divergence limit scales with the largest envelope entry, so the default
    scenario at each grid point stays within it."""
    def mutate(doc):
        del doc["scenario"]
        x1_in_units_of(1e12)(doc)
    path = write_problem(tmp_path, mutate)
    assert main(["verify", str(path), "--t-end", "6"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert [line.endswith("-> OK") for line in out.splitlines()] == [True] * 6


# a JSON integer past float range in each family of fields, each refused by
# every command, since every command loads the scenario too; a 5 000-digit
# one is past Python's limit on converting a string of digits to an int
HUGE = "1" + "0" * 400
ALL_COMMANDS = ("check", "bound", "simulate", "verify")
HUGE_INT_FIELDS = [
    ("A", lambda d, v: d["system"]["A"][0].__setitem__(1, v)),
    ("h_max", lambda d, v: d["system"].__setitem__("h_max", v)),
    ("psi_bar", lambda d, v: d["system"]["psi_bar"].__setitem__(0, v)),
    ("scenario.omega: amplitude",
     lambda d, v: d["scenario"]["omega"]["amplitude"].__setitem__(0, v)),
    ("scenario.omega: frequency",
     lambda d, v: d["scenario"]["omega"]["frequency"].__setitem__(0, v)),
    ("scenario.h1: offset", lambda d, v: d["scenario"]["h1"].__setitem__("offset", v)),
    ("psi", lambda d, v: d["scenario"]["psi"].__setitem__(0, v)),
    ("scenario.phi", lambda d, v: d["scenario"]["phi"].__setitem__(0, v)),
    ("options.step", lambda d, v: d["options"].__setitem__("step", v)),
    ("options.t_end", lambda d, v: d["options"].__setitem__("t_end", v)),
    ("options.xi", lambda d, v: d["options"].__setitem__("xi", [1, 1, v, 1, 1])),
]


@pytest.mark.parametrize("field, mutate, command, digits", [
    pytest.param(field, mutate, command, HUGE, id=f"{command}-{field}")
    for field, mutate in HUGE_INT_FIELDS for command in ALL_COMMANDS
] + [pytest.param("h_max", HUGE_INT_FIELDS[1][1], "check", "1" + "0" * 4999,
                  id="check-h_max-5000-digits")])
def test_json_integer_past_float_range_exits_2(tmp_path, capsys, field, mutate, command,
                                               digits):
    """The integer reads as inf, as the float literal 1e400 does, so the
    field's own finiteness check refuses it with one input error line."""
    errs = []
    for literal in ("1e400", digits):
        doc = json.loads(SAMPLE_PROBLEM.read_text())
        mutate(doc, "@")
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(doc).replace('"@"', literal))
        assert main([command, str(path), "--out", str(tmp_path / "out")]
                    if command in ("bound", "simulate") else [command, str(path)]) == 2
        errs.append(capsys.readouterr().err)
    assert errs[1] == errs[0]
    assert errs[1].startswith("input error: ") and errs[1].count("\n") == 1
    assert field in errs[1]
    assert not (tmp_path / "out").exists()


# a boolean or a string where the file holds a number, in each family of
# fields; float() would read true as 1.0 and "0.3" as 0.3
NOT_A_NUMBER_FIELDS = [
    ("system.h_max", "true", lambda d, v: d["system"].__setitem__("h_max", v)),
    ("system.D[0][1]", '"0.3"', lambda d, v: d["system"]["D"][0].__setitem__(1, v)),
    ("system.A[1][0]", "false", lambda d, v: d["system"]["A"][1].__setitem__(0, v)),
    ("system.omega_bar[2]", '"0.1"', lambda d, v: d["system"]["omega_bar"].__setitem__(2, v)),
    ("scenario.omega.amplitude[0]", "true",
     lambda d, v: d["scenario"]["omega"]["amplitude"].__setitem__(0, v)),
    ("scenario.d.frequency[1]", '"0.2"',
     lambda d, v: d["scenario"]["d"]["frequency"].__setitem__(1, v)),
    ("scenario.h1.offset", "true", lambda d, v: d["scenario"]["h1"].__setitem__("offset", v)),
    ("scenario.psi[1]", '"5"', lambda d, v: d["scenario"]["psi"].__setitem__(1, v)),
    ("scenario.phi[0]", "true", lambda d, v: d["scenario"]["phi"].__setitem__(0, v)),
    ("options.t_end", '"4"', lambda d, v: d["options"].__setitem__("t_end", v)),
    ("options.alpha_step", "true", lambda d, v: d["options"].__setitem__("alpha_step", v)),
    ("options.xi[2]", "true", lambda d, v: d["options"].__setitem__("xi", [1, 1, v, 1, 1])),
]


@pytest.mark.parametrize("field, literal, mutate, command", [
    pytest.param(field, literal, mutate, command, id=f"{command}-{field}")
    for field, literal, mutate in NOT_A_NUMBER_FIELDS for command in ALL_COMMANDS])
def test_boolean_or_string_number_exits_2(tmp_path, capsys, field, literal, mutate, command):
    """Every command refuses the file on load, naming the field."""
    doc = json.loads(SAMPLE_PROBLEM.read_text())
    mutate(doc, "@")
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc).replace('"@"', literal))
    out = ["--out", str(tmp_path / "out")] if command in ("bound", "simulate") else []
    assert main([command, str(path)] + out) == 2
    assert capsys.readouterr().err == f"input error: {field} must be a number, got {literal}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ALL_COMMANDS)
def test_scenario_outside_its_envelopes_exits_2(tmp_path, capsys, command):
    # h2 = 1.5 + |cos t| peaks at 2.5 > h_max: every command, check and bound
    # among them, refuses the file on load with one line that names the
    # field and the component
    path = write_problem(tmp_path, lambda d: d["scenario"]["h2"].update(offset=1.5))
    out = ["--out", str(tmp_path / "out")] if command in ("bound", "simulate") else []
    assert main([command, str(path)] + out) == 2
    assert capsys.readouterr().err == "input error: scenario.h2[0] reaches 2.5 > h_max = 2.0\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, callee, flags", [
    ("bound", "_write_staircase_csv", ["--out", "OUT"]),
    ("simulate", "simulate", ["--out", "OUT"]),
    ("verify", "simulate_corners", []),
    ("verify", "simulate", ["--a", "1"]),
])
def test_unallocatable_grid_exits_2(tmp_path, capsys, monkeypatch, sample_problem_path,
                                    command, callee, flags):
    """numpy raises MemoryError for a grid it cannot allocate; the callee
    that would allocate it raises it here instead."""
    def out_of_memory(*args, **kwargs):
        raise MemoryError
    monkeypatch.setattr(cli, callee, out_of_memory)
    flags = [str(tmp_path / "out") if f == "OUT" else f for f in flags]
    assert main([command, str(sample_problem_path), "--t-end", "1e9"] + flags) == 2
    assert capsys.readouterr().err == ("input error: not enough memory for 1000000000000 "
                                       "time steps, t_end / step = 1000000000.0 / 0.001\n")
    assert not (tmp_path / "out" / "certificate.json").exists()


@pytest.mark.parametrize("options, flags", [
    pytest.param({"xi": [1.0, 1.0, 1.0, 1.0]}, [], id="xi-short"),
    pytest.param({"xi": [1.0, 1.0, 0.0, 1.0, 1.0]}, [], id="xi-zero"),
    pytest.param({"xi": [1.0, 1.0, -2.0, 1.0, 1.0]}, [], id="xi-negative"),
    pytest.param({"xi": "ones"}, [], id="xi-not-array"),
    pytest.param({"step": "abc"}, [], id="step-text"),
    pytest.param({"alpha_step": 0.0}, [], id="alpha-step-zero"),
    pytest.param({"t_end": -1.0}, [], id="t-end-negative"),
    pytest.param({}, ["--alpha-step", "0"], id="flag-alpha-step-zero"),
    pytest.param({}, ["--alpha-step", "-1"], id="flag-alpha-step-negative"),
    pytest.param({}, ["--t-end", "0"], id="flag-t-end-zero"),
    pytest.param({}, ["--step", "inf"], id="flag-step-inf"),
    pytest.param({}, ["--xi", "1,1,1,1,0"], id="flag-xi-zero"),
])
def test_bound_malformed_options_exit_2(tmp_path, capsys, options, flags):
    path = write_problem(tmp_path, lambda d: d.setdefault("options", {}).update(options))
    assert main(["bound", str(path), "--out", str(tmp_path / "out")] + flags) == 2
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize("t_end, step", [("1e300", "1e-300"), ("1e200", "1e-100")],
                         ids=["overflowing", "past-2**53"])
@pytest.mark.parametrize("command", ["bound", "simulate", "verify"])
def test_step_count_overflow_exits_2(tmp_path, capsys, sample_problem_path, command, t_end, step):
    out = {"bound": ["--out", str(tmp_path / "out")],
           "simulate": ["--out", str(tmp_path / "traj.csv")]}.get(command, [])
    assert main([command, str(sample_problem_path), "--t-end", t_end, "--step", step] + out) == 2
    assert capsys.readouterr().err.startswith("input error: t_end / step must be at most 2**53")
    assert not any(tmp_path.iterdir())


def test_bound_short_circuit_flag(tmp_path, sample_problem_path):
    def shrink(doc):
        # the sample's scenario would leave the smaller bars: the default one
        del doc["scenario"]
        doc["system"]["psi_bar"] = [0.07, 0.14, 0.05]
        doc["system"]["phi_bar"] = [0.37, 0.11]
    path = write_problem(tmp_path, shrink)
    out = tmp_path / "out"
    assert main(["bound", str(path), "--out", str(out),
                 "--t-end", "1", "--step", "0.01"]) == 0
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["constant_bound"] is True


def test_bound_alpha_step_refinement(tmp_path, sample_problem_path):
    ts = []
    for name, astep in (("c", "0.001"), ("f", "0.0005")):
        out = tmp_path / name
        assert main(["bound", str(sample_problem_path), "--out", str(out),
                     "--alpha-step", astep, "--t-end", "1", "--step", "0.01"]) == 0
        ts.append(json.loads((out / "certificate.json").read_text())["T"])
    assert abs(ts[0] - 1.2056) <= 0.05
    assert abs(ts[1] - 1.2056) <= 0.05


def test_simulate_full_horizon_row_count(tmp_path, sample_problem_path):
    out = tmp_path / "traj.csv"
    code = main(["simulate", str(sample_problem_path), "--a", "1", "--b", "1",
                 "--out", str(out)])          # defaults: t_end 40, step 1e-3
    assert code == 0
    with open(out) as fh:
        rows = sum(1 for _ in fh) - 1
    assert rows == 40001


def test_cli_entrypoint_help():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import cdde_bound
    # the child imports the package under test, installed or not
    src = str(Path(cdde_bound.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "cdde_bound", "--help"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "check" in proc.stdout and "verify" in proc.stdout


def test_simulate_row_count_and_grid(tmp_path, capsys, sample_problem_path):
    out = tmp_path / "traj.csv"
    code = main(["simulate", str(sample_problem_path), "--a", "1", "--b", "1",
                 "--t-end", "1", "--step", "0.001", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,x_1,x_2,x_3,y_1,y_2"
    assert len(lines) == 1002          # header + t_end/step + 1 samples


def test_simulate_zero_scenario_all_zero(tmp_path, sample_problem_path):
    def zero_init(doc):
        doc["scenario"]["psi"] = [0.0, 0.0, 0.0]
        doc["scenario"]["phi"] = [0.0, 0.0]
    path = write_problem(tmp_path, zero_init)
    out = tmp_path / "traj.csv"
    assert main(["simulate", str(path), "--a", "0", "--b", "0",
                 "--t-end", "0.5", "--step", "0.001", "--out", str(out)]) == 0
    rows = out.read_text().splitlines()[1:]
    for row in rows[:: 100]:
        vals = [float(tok) for tok in row.split(",")][1:]
        assert all(v == 0.0 for v in vals)


def test_simulate_deterministic_bytes(tmp_path, sample_problem_path):
    outs = []
    for name in ("t1.csv", "t2.csv"):
        out = tmp_path / name
        assert main(["simulate", str(sample_problem_path),
                     "--t-end", "0.5", "--step", "0.001", "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_simulate_golden_bytes(tmp_path, sample_problem_path):
    # SHA-256 of the sample's trajectory as written by the per-row "%.9g"
    # writer, before the numpy encoder replaced it
    out = tmp_path / "traj.csv"
    assert main(["simulate", str(sample_problem_path), "--t-end", "2",
                 "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        "7897e2ef282e85f58d7784a93d227d1a21686b3f0f2591c98778fc684d1c9232"


def test_simulate_inadmissible_scale_fails(tmp_path, capsys, sample_problem_path):
    out = tmp_path / "traj.csv"
    code = main(["simulate", str(sample_problem_path), "--a", "2",
                 "--t-end", "10", "--step", "0.002", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == \
        "input error: scenario.omega[0] reaches 1.0 > omega_bar[0] = 0.5\n"


def test_verify_single_combo(tmp_path, capsys, sample_problem_path):
    code = main(["verify", str(sample_problem_path), "--a", "1", "--b", "1",
                 "--t-end", "4", "--step", "0.002"])
    out = capsys.readouterr().out
    assert code == 0
    assert "OK" in out and "VIOLATION" not in out


def test_verify_rejects_scenario_exceeding_certified_envelope(tmp_path, capsys):
    # certificate computed for a smaller omega_bar than the scenario drives:
    # the scenario check on load names the first offending component
    def shrink_bounds(doc):
        doc["system"]["omega_bar"] = [0.05, 0.03, 0.01]
    path = write_problem(tmp_path, shrink_bounds)
    code = main(["verify", str(path), "--a", "1", "--b", "1",
                 "--t-end", "10", "--step", "0.002"])
    assert code == 2
    assert capsys.readouterr().err == \
        "input error: scenario.omega[0] reaches 0.5 > omega_bar[0] = 0.05\n"


def test_verify_sample_stdout_pinned(capsys, sample_problem_path):
    # the sample's verify report, byte for byte; the simulator's recurrence
    # and the grid's shared staircase must not move a printed digit
    code = main(["verify", str(sample_problem_path), "--t-end", "6"])
    assert code == 0
    assert capsys.readouterr().out == (
        "a=0 b=0: x margins [-0.965916, -1.56819, 0] y margins [-3.53962, -1.87129] -> OK\n"
        "a=0 b=1: x margins [-0.961585, -1.55707, 0] y margins [-3.23962, -1.77416] -> OK\n"
        "a=0.5 b=0: x margins [-0.932937, -1.55059, 0] y margins [-3.53962, -1.8658] -> OK\n"
        "a=0.5 b=1: x margins [-0.928607, -1.53947, 0] y margins [-3.23962, -1.76907] -> OK\n"
        "a=1 b=0: x margins [-0.899959, -1.53299, 0] y margins [-3.53962, -1.8603] -> OK\n"
        "a=1 b=1: x margins [-0.895628, -1.52187, 0] y margins [-3.23962, -1.76358] -> OK\n")


def test_verify_grid_runs_all_six(capsys, sample_problem_path):
    code = main(["verify", str(sample_problem_path),
                 "--t-end", "2", "--step", "0.004"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("-> OK") == 6


def test_verify_grid_matches_direct_runs(sample_problem_path):
    # the grid is composed from three corner runs by superposition and checked
    # against one sampled staircase; each report must agree with a direct run
    # of its own scenario, violating or not: tampered certificates make every
    # point violate at t = 0 (eta halved) or later, by d scale (T_star / 5)
    spec, cfg, _ = load_problem(sample_problem_path)
    computed = compute_certificate(spec)
    for cert, violations in ((computed, [None] * 6),
                             (replace(computed, eta=0.5 * computed.eta), [0.0] * 6),
                             (replace(computed, T_star=0.2 * computed.T_star), [2.8, 2.404] * 3)):
        grid = grid_reports(spec, cfg, cert, t_end=4.0, step=0.004)
        assert len(grid) == len(VERIFY_GRID)
        assert [None if rep.ok else round(rep.first_violation_time, 9)
                for rep in grid] == violations
        for (a, b), got in zip(VERIFY_GRID, grid):
            scenario = build_scenario(spec, cfg, a=a, b=b, t_end=4.0, step=0.004)
            want = verify_domination(simulate(scenario), cert)
            assert np.abs(got.x_margin - want.x_margin).max() <= 1e-12
            assert np.abs(got.y_margin - want.y_margin).max() <= 1e-12
            assert got.first_violation_time == want.first_violation_time


def test_verify_grid_equals_dense_oracle(monkeypatch, sample_problem_path):
    # each of the six points, checked against the shared staircase runs, bit
    # for bit against the dense check of the trajectory it was composed to;
    # tampered certificates make them violate at t = 0 or later
    checked = []

    def recording(traj, cert, **kwargs):
        checked.append(traj)
        return verify_domination(traj, cert, **kwargs)

    monkeypatch.setattr(cli, "verify_domination", recording)
    spec, cfg, _ = load_problem(sample_problem_path)
    computed = compute_certificate(spec)
    for cert in (computed, replace(computed, eta=0.5 * computed.eta),
                 replace(computed, T_star=0.2 * computed.T_star)):
        checked.clear()
        reports = grid_reports(spec, cfg, cert, t_end=6.0, step=1e-3)
        assert len(checked) == len(reports) == len(VERIFY_GRID)
        assert [rep.ok for rep in reports] == [cert is computed] * len(VERIFY_GRID)
        for got, traj in zip(reports, checked):
            want = verify_domination_dense(traj, cert)
            for g, w in ((got.x_margin, want.x_margin), (got.y_margin, want.y_margin)):
                assert np.array_equal(g.view(np.int64), w.view(np.int64))
            assert got.first_violation_time == want.first_violation_time


def with_nan(traj):
    """The trajectory with x_1 NaN at its fourth grid time."""
    x = traj.x_samples.copy()
    x[3, 0] = np.nan
    return Trajectory(traj.times, x, traj.y_samples)


@pytest.mark.parametrize("path", ["one-scenario", "grid"])
def test_verify_reports_a_nan_sample_as_a_violation(monkeypatch, capsys, sample_problem_path,
                                                    path):
    # the divergence check stops a run before verify sees a NaN, so the
    # simulator is replaced; a NaN in the W corner reaches every grid point
    argv = ["verify", str(sample_problem_path), "--t-end", "2", "--step", "0.01"]
    if path == "one-scenario":
        monkeypatch.setattr(cli, "simulate", lambda scenario: with_nan(simulate(scenario)))
        argv += ["--a", "1", "--b", "1"]
    else:
        monkeypatch.setattr(cli, "simulate_corners", lambda scenario: [
            with_nan(t) if i == 1 else t for i, t in enumerate(simulate_corners(scenario))])
    assert main(argv) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == (1 if path == "one-scenario" else len(VERIFY_GRID))
    for line in lines:
        assert "x margins [nan, " in line
        assert line.endswith("-> VIOLATION at t=0.03")


def test_simulate_diverging_system_fails_cleanly(tmp_path, capsys):
    # A = I makes x grow like e^t, past the divergence limit near t = 26
    path = write_problem(tmp_path, lambda d: d["system"].update(
        A=[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
    code = main(["simulate", str(path), "--t-end", "40", "--step", "0.01",
                 "--out", str(tmp_path / "traj.csv")])
    err = capsys.readouterr().err
    assert code == 1
    # the first failing grid time of the per-step integrator; the limit is
    # 1e12 times the largest envelope entry, phi_bar's 15
    assert err == "FAIL scenario: state magnitude exceeded 1.5e+13 at t=25.96\n"
    assert not (tmp_path / "traj.csv").exists()


def test_verify_nonfinite_sample_reported_without_warnings(tmp_path, capsys):
    # a finite frequency overflows the phase from t = 1.798 on: refused on
    # load, over the flag's horizon, and numpy stays quiet
    path = write_problem(tmp_path, lambda d: d["scenario"].update(
        omega={"kind": "abs_sin", "amplitude": [0.1, 0.1, 0.1], "frequency": [1e308]}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["verify", str(path), "--t-end", "3"])
    assert code == 2
    assert capsys.readouterr().err == ("input error: scenario.omega.frequency[0] = 1e+308 "
                                       "overflows the phase by t = 3.001\n")
    assert not caught


@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_scenario_checked_on_the_grid_the_command_runs(tmp_path, capsys, command):
    """A frequency of 1e307 overflows the phase from t = 17.98 on: past the
    run that ``--t-end 3`` asks for, so that run goes ahead, but within the
    file's horizon of 40, which the same command refuses without the flag."""
    path = write_problem(tmp_path, lambda d: d["scenario"].update(
        omega={"kind": "abs_sin", "amplitude": [0.1, 0.1, 0.1], "frequency": [1e307]}))
    out = ["--out", str(tmp_path / "traj.csv")] if command == "simulate" else []
    assert main([command, str(path), "--t-end", "3"] + out) == 0
    capsys.readouterr()
    assert main([command, str(path)] + out) == 2
    assert capsys.readouterr().err == ("input error: scenario.omega.frequency[0] = 1e+307 "
                                       "overflows the phase by t = 40.001\n")


@pytest.mark.parametrize("command", ["simulate", "verify"])
@pytest.mark.parametrize("scenario, flags", [
    pytest.param({"omega": {"kind": "abs_sin", "amplitude": [math.nan, 0.3, 0.1]}}, [],
                 id="amplitude-nan"),
    pytest.param({"omega": {"kind": "abs_sin", "amplitude": [0.5, 0.3, 0.1],
                            "frequency": [math.inf]}}, [], id="frequency-inf"),
    pytest.param({"d": {"kind": "const_plus_abs_cos", "amplitude": [0.1, 0.05],
                        "offset": math.nan}}, [], id="offset-nan"),
    pytest.param({"h1": {"kind": "constant", "amplitude": [math.nan]}}, [], id="h1-nan"),
    pytest.param({"h1": [math.nan]}, [], id="h1-nan-array"),
    pytest.param({}, ["--a", "nan"], id="flag-a-nan"),
    pytest.param({}, ["--b", "inf"], id="flag-b-inf"),
    pytest.param(None, ["--a", "nan"], id="flag-a-nan-default-scenario"),
])
def test_simulate_verify_nonfinite_inputs_exit_2(tmp_path, capsys, command, scenario, flags):
    def mutate(doc):
        if scenario is None:
            del doc["scenario"]
        else:
            doc["scenario"].update(scenario)
    path = write_problem(tmp_path, mutate)
    out = ["--out", str(tmp_path / "traj.csv")] if command == "simulate" else []
    assert main([command, str(path), "--t-end", "0.5"] + out + flags) == 2
    assert capsys.readouterr().err.startswith("input error: ")


def _identity_d(doc):
    doc["system"]["D"] = [[1.0, 0.0], [0.0, 1.0]]


def _identity_d_h2_below_step(doc):
    _identity_d(doc)
    doc["scenario"]["h2"] = [0.0005]


def _h_max(value):
    # the initial history on [-h_max, 0) is checked on the time grid
    return lambda doc: doc["system"].update(h_max=value)


@pytest.mark.parametrize("command, mutate, flags, code, err", [
    ("check", _identity_d, [], 1, ""),
    ("bound", _identity_d, [], 1, "FAIL stability-hypotheses: "),
    ("verify", _identity_d, [], 1, "FAIL stability-hypotheses: "),
    # no step closes, so I - D is never inverted
    ("simulate", _identity_d, [], 0, ""),
    ("simulate", _identity_d_h2_below_step, [], 1,
     "FAIL scenario: h2 falls below the step 0.001, where I - D must be invertible: "),
    ("bound", None, ["--out", "{file}"], 2, "input error: cannot write "),
    ("bound", None, ["--out", "{file}/out"], 2, "input error: cannot write "),
    ("simulate", None, ["--out", "{file}/traj.csv"], 2, "input error: cannot write "),
    ("simulate", None, ["--out", "{missing}/traj.csv"], 2, "input error: cannot write "),
    ("simulate", None, ["--step", "3"], 1, "FAIL scenario: step 3.0 exceeds the delay bound 2.0"),
    ("verify", None, ["--step", "3"], 1, "FAIL scenario: step 3.0 exceeds the delay bound 2.0"),
    ("simulate", _h_max(1e308), [], 2, "input error: h_max / step must be at most 2**53"),
    ("verify", _h_max(1e13), [], 2, "input error: h_max / step must be at most 2**53"),
], ids=["check-identity-d", "bound-identity-d", "verify-identity-d", "simulate-identity-d",
        "simulate-identity-d-h2-below-step", "bound-out-is-file", "bound-out-under-file",
        "simulate-out-under-file", "simulate-out-in-missing-dir", "simulate-step-above-h-max",
        "verify-step-above-h-max", "simulate-history-steps-overflowing",
        "verify-history-steps-past-2**53"])
def test_failures_exit_with_a_code_not_a_traceback(tmp_path, capsys, command, mutate, flags,
                                                  code, err):
    path = write_problem(tmp_path, mutate)
    (tmp_path / "file").write_text("a regular file\n")
    flags = [f.format(file=tmp_path / "file", missing=tmp_path / "missing") for f in flags]
    if command in ("bound", "simulate") and "--out" not in flags:
        flags += ["--out", str(tmp_path / "out")]
    if command in ("simulate", "verify"):
        flags += ["--t-end", "1"]
    assert main([command, str(path)] + flags) == code
    assert capsys.readouterr().err.startswith(err)


def test_bound_failed_staircase_write_leaves_no_certificate(tmp_path, capsys,
                                                            sample_problem_path):
    # staircase.csv cannot be written; a caller that looks for
    # certificate.json must not find one from the failed run
    out = tmp_path / "out"
    (out / "staircase.csv").mkdir(parents=True)
    assert main(["bound", str(sample_problem_path), "--out", str(out),
                 "--t-end", "4", "--step", "0.01"]) == 2
    assert capsys.readouterr().err.startswith(f"input error: cannot write {out / 'staircase.csv'}")
    assert not (out / "certificate.json").exists()
