import hashlib
import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from cdde_bound.certificate import compute_certificate
from cdde_bound.cli import VERIFY_GRID, build_scenario, grid_reports, load_problem, main
from cdde_bound.simulator import simulate, verify_domination

from conftest import SAMPLE_PROBLEM


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
    # SHA-256 of the sample outputs as written by the per-column inverse and
    # the linear alpha_max scan, before the certificate code was vectorized.
    # The digest depends on the BLAS kernels: OpenBLAS on an FMA core type
    # writes these bytes, OPENBLAS_CORETYPE=Prescott, Nehalem or Sandybridge
    # writes a certificate.json with digest a14e8dd2...; CI pins numpy.
    out = tmp_path / "out"
    assert main(["bound", str(sample_problem_path), "--out", str(out),
                 "--t-end", "4", "--step", "0.01"]) == 0
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in ("certificate.json", "staircase.csv")}
    assert digests == {
        "certificate.json": "753b705485ec8b2a8134fd448177a46101d11c8b9196f9fa3908ec6be8fec643",
        "staircase.csv": "d77b7fc2cc372c7c61b66fb13ae5923f53e58b6ce9c48de87403c1a4f11762f2",
    }


def time_rescaled(c):
    """The sample with time measured in units 1/c: A, B and omega_bar
    divide by c, h_max multiplies by c."""
    def mutate(doc):
        system = doc["system"]
        for name in ("A", "B"):
            system[name] = (np.array(system[name]) / c).tolist()
        system["omega_bar"] = (np.array(system["omega_bar"]) / c).tolist()
        system["h_max"] *= c
    return mutate


@pytest.mark.parametrize("mutate", [
    pytest.param(lambda d: d["system"].update(
        A=[[-1.0]], B=[[1e-12]], C=[[1.0]], D=[[1.0 - 1e-9]], h_max=0.1,
        omega_bar=[0.0], d_bar=[0.0], psi_bar=[1.0], phi_bar=[1.0]), id="d-near-one"),
    pytest.param(time_rescaled(1e9), id="sample-time-rescaled-1e9"),
])
def test_bound_contraction_factor_below_mu_min_exits_1(tmp_path, capsys, mutate):
    path = write_problem(tmp_path, mutate)
    assert main(["bound", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("FAIL contraction-factor:") and "below MU_MIN" in err
    assert "Traceback" not in err
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
    assert code == 1
    assert "scenario" in capsys.readouterr().err


def test_verify_single_combo(tmp_path, capsys, sample_problem_path):
    code = main(["verify", str(sample_problem_path), "--a", "1", "--b", "1",
                 "--t-end", "4", "--step", "0.002"])
    out = capsys.readouterr().out
    assert code == 0
    assert "OK" in out and "VIOLATION" not in out


def test_verify_rejects_scenario_exceeding_certified_envelope(tmp_path, capsys):
    # certificate computed for a smaller omega_bar than the scenario drives:
    # the admissibility check names the first offending time and exits nonzero
    def shrink_bounds(doc):
        doc["system"]["omega_bar"] = [0.05, 0.03, 0.01]
    path = write_problem(tmp_path, shrink_bounds)
    code = main(["verify", str(path), "--a", "1", "--b", "1",
                 "--t-end", "10", "--step", "0.002"])
    assert code == 1
    assert "at t=" in capsys.readouterr().err


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


def test_simulate_diverging_system_fails_cleanly(tmp_path, capsys):
    # A = I makes x grow like e^t, past the divergence limit near t = 26
    path = write_problem(tmp_path, lambda d: d["system"].update(
        A=[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
    code = main(["simulate", str(path), "--t-end", "40", "--step", "0.01",
                 "--out", str(tmp_path / "traj.csv")])
    err = capsys.readouterr().err
    assert code == 1
    # the first failing grid time of the per-step integrator
    assert err == "FAIL scenario: state magnitude exceeded 1e+12 at t=23.45\n"
    assert not (tmp_path / "traj.csv").exists()


def test_verify_nonfinite_sample_reported_without_warnings(tmp_path, capsys):
    # a finite frequency overflows the phase from t = 1.798 on: the NaN
    # sample is named as such, and numpy stays quiet
    path = write_problem(tmp_path, lambda d: d["scenario"].update(
        omega={"kind": "abs_sin", "amplitude": [0.1, 0.1, 0.1], "frequency": [1e308]}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["verify", str(path), "--t-end", "3"])
    assert code == 1
    assert capsys.readouterr().err == "FAIL scenario: omega not finite at t=1.798: nan\n"
    assert not caught


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
