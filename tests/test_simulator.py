import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

from cdde_bound.certificate import compute_certificate, ultimate_bound
from cdde_bound.linalg import solve
from cdde_bound.model import SystemSpec
from cdde_bound.simulator import (JUMP_TOL, InvalidScenario, MismatchedScenarios,
                                  SignalSpec, SimulationScenario, UnstableStep,
                                  comparison_check, simulate,
                                  simulate_many, verify_domination, write_csv,
                                  write_trajectory_csv)

from conftest import make_sample_scenario
from oracles import simulate_stepwise


def scalar_scenario(a_val=-1.0, psi=1.0, t_end=1.0, step=1e-3, omega=None, c_val=0.0,
                    delay=1.0):
    spec = SystemSpec(A=[[a_val]], B=[[0.0]], C=[[c_val]], D=[[0.0]], h_max=1.0,
                      omega_bar=[1.0] if omega else [0.0], d_bar=[0.0],
                      psi_bar=[abs(psi)], phi_bar=[0.0])
    return SimulationScenario(
        spec=spec,
        omega=omega if omega else SignalSpec.zero(1),
        d=SignalSpec.zero(1),
        h1=SignalSpec.constant([delay]), h2=SignalSpec.constant([delay]),
        psi=[psi], phi=[0.0], t_end=t_end, step=step)


def test_signal_kinds():
    t = 1.3
    assert SignalSpec.zero(2)(t) == pytest.approx([0.0, 0.0])
    assert SignalSpec.constant([1.5, 2.0])(t) == pytest.approx([1.5, 2.0])
    s = SignalSpec("abs_sin", (0.5, 0.3), (0.2, 0.1))
    assert s(t) == pytest.approx([0.5 * abs(math.sin(0.2 * t)),
                                  0.3 * abs(math.sin(0.1 * t))])
    c = SignalSpec("const_plus_abs_cos", (1.0,), (1.0,), 1.0)
    assert c(t) == pytest.approx([1.0 + abs(math.cos(t))])
    assert c.sample(np.array([0.0, t]))[1] == pytest.approx(c(t))
    assert c.scaled(2.0)(t) == pytest.approx([2.0 + 2.0 * abs(math.cos(t))])


def test_signal_frequency_broadcast_and_validation():
    s = SignalSpec("abs_sin", (1.0, 2.0), (0.5,))
    assert s.frequency == (0.5, 0.5)
    with pytest.raises(ValueError):
        SignalSpec("wiggle", (1.0,))
    with pytest.raises(ValueError):
        SignalSpec("abs_sin", (1.0, 2.0), (0.1, 0.2, 0.3))
    for args in [((math.nan,),), ((1.0,), (math.inf,)), ((1.0,), (1.0,), -math.inf)]:
        with pytest.raises(ValueError, match="must be finite"):
            SignalSpec("const_plus_abs_sin", *args)


def test_zero_data_stays_at_origin(sample_spec):
    scenario = make_sample_scenario(sample_spec, 0.0, 0.0, t_end=2.0, step=1e-3,
                                    psi=np.zeros(3), phi=np.zeros(2))
    traj = simulate(scenario)
    assert np.abs(traj.x_samples).max() <= 1e-14
    assert np.abs(traj.y_samples).max() <= 1e-14


def test_scalar_decay_matches_exact_solution():
    traj = simulate(scalar_scenario())
    assert traj.x_samples[-1, 0] == pytest.approx(math.exp(-1.0), abs=1e-9)


def test_trajectory_grid_shape(sample_spec):
    scenario = make_sample_scenario(sample_spec, 1.0, 1.0, t_end=1.0, step=1e-3)
    traj = simulate(scenario)
    assert traj.times.shape == (1001,)
    assert traj.x_samples.shape == (1001, 3)
    assert traj.y_samples.shape == (1001, 2)
    assert np.allclose(np.diff(traj.times), 1e-3)


def test_step_halving_convergence(sample_spec):
    coarse = simulate(make_sample_scenario(sample_spec, 1.0, 1.0, t_end=10.0, step=1e-3))
    fine = simulate(make_sample_scenario(sample_spec, 1.0, 1.0, t_end=10.0, step=5e-4))
    for t in (1.0, 5.0, 10.0):
        i, j = int(round(t / 1e-3)), int(round(t / 5e-4))
        assert np.abs(coarse.x_samples[i] - fine.x_samples[j]).max() <= 1e-6
        assert np.abs(coarse.y_samples[i] - fine.y_samples[j]).max() <= 1e-6


def test_vanishing_delay_matches_closed_ode(sample_spec):
    # h1 = h2 = 0 closes the output algebraically; the result is the ODE
    # x' = (A + B inv(I-D) C) x + B inv(I-D) d + omega, checked against its
    # matrix-exponential solution.
    spec = sample_spec
    scenario = SimulationScenario(
        spec=spec, omega=SignalSpec.constant(spec.omega_bar),
        d=SignalSpec.constant(spec.d_bar),
        h1=SignalSpec.constant([0.0]), h2=SignalSpec.constant([0.0]),
        psi=spec.psi_bar, phi=spec.phi_bar, t_end=2.0, step=1e-3)
    traj = simulate(scenario)
    gain = np.linalg.solve(np.eye(2) - spec.D, np.eye(2))
    a_cl = spec.A + spec.B @ gain @ spec.C
    forcing = spec.B @ gain @ spec.d_bar + spec.omega_bar
    x_eq = -np.linalg.solve(a_cl, forcing)
    x_exact = x_eq + expm(a_cl * 2.0) @ (spec.psi_bar - x_eq)
    # the delayed term is frozen per step once the delay drops below the
    # step, so first-order accuracy is the most this regime guarantees
    assert np.abs(traj.x_samples[-1] - x_exact).max() <= 5e-3
    y_exact = gain @ (spec.C @ x_exact + spec.d_bar)
    assert np.abs(traj.y_samples[-1] - y_exact).max() <= 5e-3


def test_positivity_on_random_scenarios(sample_spec):
    rng = np.random.default_rng(17)
    for _ in range(20):
        scenario = make_sample_scenario(
            sample_spec, rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0),
            t_end=3.0, step=2e-3,
            psi=rng.uniform(0.0, 1.0, 3) * sample_spec.psi_bar,
            phi=rng.uniform(0.0, 1.0, 2) * sample_spec.phi_bar)
        traj = simulate(scenario)
        assert traj.x_samples.min() >= -1e-12
        assert traj.y_samples.min() >= -1e-12


def test_monotone_in_disturbances(sample_spec):
    lo = make_sample_scenario(sample_spec, 0.3, 0.5, t_end=4.0, step=2e-3)
    hi = make_sample_scenario(sample_spec, 0.9, 1.0, t_end=4.0, step=2e-3)
    tr_lo, tr_hi = simulate(lo), simulate(hi)
    assert (tr_lo.x_samples <= tr_hi.x_samples + 1e-9).all()
    assert (tr_lo.y_samples <= tr_hi.y_samples + 1e-9).all()


def test_comparison_check_reflexive(sample_spec):
    s = make_sample_scenario(sample_spec, 1.0, 1.0, t_end=2.0, step=2e-3)
    assert comparison_check(s, s)


def test_comparison_check_ordered_initial_data(sample_spec):
    hi = make_sample_scenario(sample_spec, 1.0, 1.0, t_end=4.0, step=2e-3)
    lo = make_sample_scenario(sample_spec, 1.0, 1.0, t_end=4.0, step=2e-3,
                              psi=0.5 * sample_spec.psi_bar)
    assert comparison_check(lo, hi)


def test_comparison_check_rejects_misordered(sample_spec):
    hi = make_sample_scenario(sample_spec, 1.0, 1.0, t_end=2.0, step=2e-3,
                              psi=0.5 * sample_spec.psi_bar)
    lo = make_sample_scenario(sample_spec, 1.0, 1.0, t_end=2.0, step=2e-3)
    with pytest.raises(MismatchedScenarios):
        comparison_check(lo, hi)


def test_comparison_check_rejects_different_driving(sample_spec):
    a = make_sample_scenario(sample_spec, 1.0, 1.0, t_end=2.0, step=2e-3)
    b = make_sample_scenario(sample_spec, 0.5, 1.0, t_end=2.0, step=2e-3)
    with pytest.raises(MismatchedScenarios):
        comparison_check(a, b)


def test_invalid_scenario_disturbance_over_bound(sample_spec):
    # the doubled signal first exceeds omega_bar once the sine has risen
    scenario = make_sample_scenario(sample_spec, 2.0, 1.0, t_end=10.0, step=2e-3)
    with pytest.raises(InvalidScenario):
        simulate(scenario)


def test_invalid_scenario_psi_over_bound(sample_spec):
    scenario = make_sample_scenario(sample_spec, 1.0, 1.0, t_end=1.0, step=1e-3,
                                    psi=2.0 * sample_spec.psi_bar)
    with pytest.raises(InvalidScenario):
        simulate(scenario)


def test_invalid_scenario_delay_over_bound(sample_spec):
    scenario = make_sample_scenario(sample_spec, 1.0, 1.0, t_end=1.0, step=1e-3)
    bad = SimulationScenario(spec=sample_spec, omega=scenario.omega, d=scenario.d,
                             h1=SignalSpec.constant([3.0]), h2=scenario.h2,
                             psi=scenario.psi, phi=scenario.phi,
                             t_end=1.0, step=1e-3)
    with pytest.raises(InvalidScenario):
        simulate(bad)


def test_invalid_scenario_step_exceeds_delay_bound(sample_spec):
    scenario = make_sample_scenario(sample_spec, 1.0, 1.0, t_end=10.0, step=3.0)
    with pytest.raises(InvalidScenario):
        simulate(scenario)


def test_unstable_step_detected():
    scenario = scalar_scenario(a_val=40.0, psi=1.0, t_end=1.0, step=1e-3)
    with pytest.raises(UnstableStep):
        simulate(scenario)


@pytest.mark.parametrize("a_val, c_val, delay, t_end, message", [
    (40.0, 0.0, 1.0, 1.0, "state magnitude exceeded 1e+12 at t=0.691"),
    (40.0, 0.0, 5e-4, 1.0, "state magnitude exceeded 1e+12 at t=0.691"),
    (1.0, 1e10, 1.0, 10.0, "output magnitude exceeded 1e+12 at t=4.606"),
    (1.0, 1e10, 5e-4, 10.0, "output magnitude exceeded 1e+12 at t=4.606"),
    (40.0, 1.0, 1.0, 1.0, "state magnitude exceeded 1e+12 at t=0.691"),
    (1e6, 0.0, 1.0, 1.0, "state magnitude exceeded 1e+12 at t=0.002"),
], ids=["state", "state-one-step-windows", "output", "output-closed", "both", "state-overflow"])
def test_divergence_names_first_failing_grid_time(a_val, c_val, delay, t_end, message):
    # the divergence checks run once per block of steps; they must still name
    # the first failing grid time of the per-step integrator, state before
    # output, and the rest of the block may overflow without a numpy warning
    scenario = scalar_scenario(a_val=a_val, c_val=c_val, delay=delay, t_end=t_end)
    for run in (simulate_many, simulate_stepwise):
        with pytest.raises(UnstableStep) as err:
            run([scenario])
        assert str(err.value) == message


@pytest.mark.parametrize("h1, h2", [
    (SignalSpec.constant([0.0]), SignalSpec.constant([0.0])),
    (SignalSpec.constant([0.015]), SignalSpec.constant([0.015])),
    (SignalSpec.constant([0.5]), SignalSpec("const_plus_abs_sin", (0.02,), (40.0,), 0.0)),
], ids=["delay-free", "one-and-a-half-steps", "h2-crossing-the-step"])
def test_short_delays_match_stepwise(sample_spec, h1, h2):
    # windows of one or two steps; in the last case h2 dips below the step
    # over and over, so a window must end where closed and held steps meet
    scenarios = [replace(make_sample_scenario(sample_spec, a, 1.0, t_end=3.0, step=0.01),
                         h1=h1, h2=h2) for a in (0.0, 1.0)]
    for got, want in zip(simulate_many(scenarios), simulate_stepwise(scenarios)):
        for name in ("x_samples", "y_samples"):
            ref = getattr(want, name)
            assert np.abs(getattr(got, name) - ref).max() <= 1e-12 * np.abs(ref).max()


def test_output_overflow_reported_without_warning():
    # y = 1e300 x overflows at the first step; the per-step loop warned here
    with pytest.raises(UnstableStep, match="^output magnitude exceeded 1e[+]12 at t=0.001$"):
        simulate(scalar_scenario(a_val=1e6, c_val=1e300))


def test_verify_domination_zero_trajectory(sample_spec):
    cert = compute_certificate(sample_spec)
    scenario = make_sample_scenario(sample_spec, 0.0, 0.0, t_end=2.0, step=1e-3,
                                    psi=np.zeros(3), phi=np.zeros(2))
    report = verify_domination(simulate(scenario), cert)
    assert report.ok
    assert (report.x_margin <= 0.0).all()
    assert (report.y_margin <= 0.0).all()


def test_verify_domination_detects_violation(sample_spec):
    from cdde_bound.simulator import Trajectory
    cert = compute_certificate(sample_spec)
    scenario = make_sample_scenario(sample_spec, 1.0, 1.0, t_end=2.0, step=1e-3)
    traj = simulate(scenario)
    scaled = Trajectory(times=traj.times, x_samples=10.0 * traj.x_samples,
                        y_samples=10.0 * traj.y_samples)
    report = verify_domination(scaled, cert)
    assert not report.ok
    assert report.first_violation_time is not None
    assert report.x_margin.max() > 0 or report.y_margin.max() > 0


def test_trajectory_csv(tmp_path, sample_spec):
    cert = compute_certificate(sample_spec)
    scenario = make_sample_scenario(sample_spec, 1.0, 1.0, t_end=0.5, step=1e-3)
    traj = simulate(scenario)
    out = tmp_path / "traj.csv"
    write_trajectory_csv(traj, out, cert)
    lines = out.read_text().splitlines()
    assert lines[0] == "t,x_1,x_2,x_3,y_1,y_2,xb_1,xb_2,xb_3,yb_1,yb_2"
    assert len(lines) == 502
    first = [float(tok) for tok in lines[1].split(",")]
    assert first[0] == 0.0
    assert first[1:4] == pytest.approx(sample_spec.psi_bar.tolist(), abs=1e-8)


def assert_batch_matches_single_runs(scenarios, tol=1e-12):
    batch = simulate_many(scenarios)
    assert len(batch) == len(scenarios)
    for scenario, got in zip(scenarios, batch):
        want = simulate(scenario)
        assert np.array_equal(got.times, want.times)
        assert np.abs(got.x_samples - want.x_samples).max() <= tol
        assert np.abs(got.y_samples - want.y_samples).max() <= tol


def test_batch_members_match_single_runs(sample_spec):
    # the sample's time-varying delays; histories of at least half phi_bar
    # give every member a y jump at t = 0, so all share one jump list
    rng = np.random.default_rng(3)
    scenarios = [make_sample_scenario(sample_spec, a, b, t_end=5.0, step=2e-3,
                                      psi=rng.uniform(0.0, 1.0, 3) * sample_spec.psi_bar,
                                      phi=rng.uniform(0.5, 1.0, 2) * sample_spec.phi_bar)
                 for a, b in [(0.0, 0.0), (1.0, 0.3), (0.4, 1.0), (0.7, 0.7)]]
    assert_batch_matches_single_runs(scenarios)


def test_batch_tracks_the_union_of_jumps(sample_spec):
    # one member rests at the equilibrium of constant disturbances, so its
    # history matches y(0) and it has no jump; the other starts with a jump.
    # The shared jump list must keep the jump for the second member.
    spec = sample_spec
    w, d = 0.8 * spec.omega_bar, 0.5 * spec.d_bar
    coupling = np.block([[spec.A, spec.B], [spec.C, spec.D - np.eye(2)]])
    eq = np.linalg.solve(coupling, -np.concatenate([w, d]))
    wave = make_sample_scenario(spec, 1.0, 1.0, t_end=6.0, step=2e-3)
    rest = SimulationScenario(spec=spec, omega=SignalSpec.constant(w),
                              d=SignalSpec.constant(d), h1=wave.h1, h2=wave.h2,
                              psi=eq[:3], phi=eq[3:], t_end=6.0, step=2e-3)
    alone = [simulate(rest), simulate(wave)]
    assert np.abs(alone[0].y_samples[0] - eq[3:]).max() <= JUMP_TOL
    assert np.abs(alone[1].y_samples[0] - spec.phi_bar).max() > 1.0
    assert_batch_matches_single_runs([rest, wave])
    assert_batch_matches_single_runs([wave, rest])


def test_batch_members_are_views(sample_spec):
    scenarios = [make_sample_scenario(sample_spec, a, 1.0, t_end=0.5, step=1e-3)
                 for a in (0.0, 1.0)]
    first, second = simulate_many(scenarios)
    assert first.x_samples.base is second.x_samples.base
    assert not first.x_samples.flags.writeable


def test_batch_checks_every_member(sample_spec):
    ok = make_sample_scenario(sample_spec, 1.0, 1.0, t_end=10.0, step=2e-3)
    too_strong = make_sample_scenario(sample_spec, 2.0, 1.0, t_end=10.0, step=2e-3)
    with pytest.raises(InvalidScenario):
        simulate_many([ok, too_strong])
    # with A = 40 only the member that starts away from zero diverges
    growing = scalar_scenario(a_val=40.0)
    with pytest.raises(UnstableStep, match="^state magnitude exceeded 1e[+]12 at t=0.691$"):
        simulate_many([replace(growing, psi=[0.0]), growing])


@pytest.mark.parametrize("field, value", [
    ("spec", None), ("h1", SignalSpec.constant([1.5])), ("h2", SignalSpec.constant([1.5])),
    ("step", 2e-3), ("t_end", 2.0)], ids=["system", "h1", "h2", "step", "t_end"])
def test_batch_rejects_mismatched_members(sample_spec, field, value):
    base = make_sample_scenario(sample_spec, 1.0, 1.0, t_end=1.0, step=1e-3)
    if field == "spec":
        value = replace(sample_spec, A=2.0 * sample_spec.A)
    with pytest.raises(MismatchedScenarios):
        simulate_many([base, replace(base, **{field: value})])


def test_csv_writer_matches_fstring_reference(tmp_path):
    times = np.array([0.0, 1e-3, 2.5, 40.0, 1e16])
    block = np.array([[np.inf, -np.inf, np.nan],
                      [-0.0, 5e-324, 2.2250738585072014e-308],
                      [1e16, 123456789.0, 1.0 / 3.0],
                      [-1.5e-7, 1e-300, 9.999999995],
                      [0.1, -2.0, 1234567890123.0]])
    out = tmp_path / "t.csv"
    write_csv(out, times, {"x": block[:, :2], "y": block[:, 2:]})
    rows = np.hstack([times[:, None], block])
    want = "t,x_1,x_2,y_1\n" + "".join(
        ",".join(f"{v:.9g}" for v in row) + "\n" for row in rows)
    assert out.read_bytes() == want.encode()
