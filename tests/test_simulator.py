import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

from cdde_bound.certificate import compute_certificate, staircase_runs
from cdde_bound.cli import build_scenario, load_problem, main
from cdde_bound.csvio import _CSV_CELLS, _CSV_ROWS, _encode, write_csv
from cdde_bound.model import SystemSpec
from cdde_bound.simulator import (BLOCK_STEPS, BLOCK_VALUES, InvalidScenario, SignalSpec,
                                  SimulationScenario, Trajectory, UnstableStep, _Run,
                                  _simulate, simulate, simulate_corners, verify_domination,
                                  write_trajectory_csv)

from conftest import SAMPLE_PROBLEM, make_sample_scenario
from oracles import (MismatchedScenarios, comparison_check, csv_rows_fstring, scaled_members,
                     simulate_stepwise, verify_domination_dense)

# verify's corners F, W and Delta, the scales of simulate_corners
CORNERS = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]


def scalar_scenario(a_val=-1.0, psi=1.0, t_end=1.0, step=1e-3, omega=None, c_val=0.0,
                    delay=1.0):
    spec = SystemSpec(A=[[a_val]], B=[[0.0]], C=[[c_val]], D=[[0.0]], h_max=1.0,
                      omega_bar=[1.0] if omega else [0.0], d_bar=[0.0],
                      psi_bar=[abs(psi)], phi_bar=[0.0])
    return SimulationScenario(
        spec=spec,
        omega=omega if omega else SignalSpec("zero", (0.0,)),
        d=SignalSpec("zero", (0.0,)),
        h1=SignalSpec.constant([delay]), h2=SignalSpec.constant([delay]),
        psi=[psi], phi=[0.0], t_end=t_end, step=step)


def test_signal_kinds():
    t = 1.3
    assert SignalSpec("zero", (0.0, 0.0))(t) == pytest.approx([0.0, 0.0])
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
    # the doubled signal exceeds omega_bar once the sine has risen, at
    # t = 2.6; refused when built, whatever the horizon
    for t_end in (10.0, 1.0):
        with pytest.raises(InvalidScenario,
                           match=r"^scenario.omega\[0\] reaches 1.0 > omega_bar\[0\] = 0.5$"):
            make_sample_scenario(sample_spec, 2.0, 1.0, t_end=t_end, step=2e-3)


def test_invalid_scenario_psi_over_bound(sample_spec):
    with pytest.raises(InvalidScenario,
                       match=r"^scenario.psi\[0\] reaches 4.0 > psi_bar\[0\] = 2.0$"):
        make_sample_scenario(sample_spec, 1.0, 1.0, t_end=1.0, step=1e-3,
                             psi=2.0 * sample_spec.psi_bar)


def test_invalid_scenario_delay_over_bound(sample_spec):
    scenario = make_sample_scenario(sample_spec, 1.0, 1.0, t_end=1.0, step=1e-3)
    with pytest.raises(InvalidScenario, match=r"^scenario.h1\[0\] reaches 3.0 > h_max = 2.0$"):
        replace(scenario, h1=SignalSpec.constant([3.0]))


def test_scenario_check_admits_a_peak_equal_to_its_bar(sample_spec):
    # the benchmark's inputs peak at their bars: the sample's delays 1 +
    # |sin t| and 1 + |cos t| at h_max = 2 and its omega amplitudes at
    # omega_bar, under the scales 0.5 and 1; random bars times factors up to
    # 1 for d and psi.  Each passes; one ulp above its bar is refused
    def up(x):
        return float(np.nextafter(x, np.inf))

    make_sample_scenario(sample_spec, 0.5, 1.0, t_end=1.0)
    base = make_sample_scenario(sample_spec, 1.0, 1.0, t_end=1.0)
    d = SignalSpec("abs_cos", tuple(sample_spec.d_bar), (0.7, 1.3))
    replace(base, d=d, psi=sample_spec.psi_bar * 1.0)
    faults = [
        ("h1", dict(spec=replace(sample_spec, h_max=float(np.nextafter(2.0, 0.0)))),
         "reaches 2.0 > h_max = 1.9999999999999998"),
        # 1 + |cos| peaks at 2 + 4.4e-16, one ulp of 2 above h_max
        ("h2", dict(h2=SignalSpec("const_plus_abs_cos", (up(up(1.0)),), (1.0,), 1.0)),
         "reaches 2.0000000000000004 > h_max = 2.0"),
        ("omega[1]", dict(omega=SignalSpec("abs_sin", (0.5, up(0.3), 0.1), (0.2, 0.1, 0.3))),
         "reaches 0.30000000000000004 > omega_bar[1] = 0.3"),
        ("d[0]", dict(d=d.scaled(up(1.0))), "reaches 0.30000000000000004 > d_bar[0] = 0.3"),
        ("psi[2]", dict(psi=[2.0, 5.0, up(3.0)]), "reaches 3.0000000000000004 > psi_bar[2] = 3.0"),
    ]
    for field, change, message in faults:
        field += "[0]" if field in ("h1", "h2") else ""
        with pytest.raises(InvalidScenario) as err:
            replace(base, **change)
        assert str(err.value) == f"scenario.{field} {message}"


def test_invalid_scenario_step_exceeds_delay_bound(sample_spec):
    scenario = make_sample_scenario(sample_spec, 1.0, 1.0, t_end=10.0, step=3.0)
    with pytest.raises(InvalidScenario):
        simulate(scenario)


@pytest.mark.parametrize("field", ["t_end", "step"])
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_scenario_grid_must_be_finite(sample_spec, field, value):
    with pytest.raises(ValueError, match="t_end and step must be finite and positive"):
        make_sample_scenario(sample_spec, 1.0, 1.0, **{field: value})


def _identity_d(scenario):
    """The scenario on its system with D = I, whose I - D is singular."""
    return replace(scenario, spec=replace(scenario.spec, D=np.eye(scenario.spec.m)))


def test_singular_closure_unused_while_h2_stays_above_step(sample_spec):
    # h2 = 1 + |cos t| >= 1.54 on [0, 1]: no step closes, and every delayed
    # y is the history's, so y = C x + phi + d
    scenario = _identity_d(make_sample_scenario(sample_spec, 1.0, 1.0, t_end=1.0, step=1e-3))
    traj = simulate(scenario)
    want = traj.x_samples @ sample_spec.C.T + sample_spec.phi_bar + scenario.d.sample(traj.times)
    np.testing.assert_allclose(traj.y_samples, want, rtol=1e-14, atol=0.0)


def test_singular_closure_fails_the_step_that_closes(sample_spec):
    # h2 = 2 |cos t| falls below the step at one grid time, t = 1.571
    scenario = replace(_identity_d(make_sample_scenario(sample_spec, 1.0, 1.0, t_end=2.0,
                                                        step=1e-3)),
                       h2=SignalSpec("abs_cos", (2.0,), (1.0,)))
    ts = np.arange(2001) * 1e-3
    assert (scenario.h2.sample(ts)[:, 0] < 1e-3).sum() == 1
    with pytest.raises(InvalidScenario, match="^h2 falls below the step 0.001, where I - D "
                                              "must be invertible: exactly singular$"):
        simulate(scenario)


@pytest.mark.parametrize("fault, message", [
    ("psi", "scenario.psi[0] reaches 2.0 > psi_bar[0] = 1.0"),
    ("omega", "scenario.omega[0] reaches 2.0 > omega_bar[0] = 1.0")], ids=["psi", "omega"])
def test_singular_closure_loses_to_an_envelope_violation(fault, message):
    # every step closes, so a run of this scenario fails its closure at
    # t = 0; the faulty scenario is refused before, when it is built
    calm = replace(_identity_d(scalar_scenario(t_end=2.0, omega=SignalSpec.constant([0.5]),
                                               c_val=1.0)),
                   h2=SignalSpec.constant([5e-4]))
    with pytest.raises(InvalidScenario, match="^h2 falls below the step"):
        simulate_corners(calm)
    with pytest.raises(InvalidScenario) as err:
        simulate_corners(replace(calm, psi=[2.0]) if fault == "psi"
                         else replace(calm, omega=SignalSpec("abs_sin", (2.0,), (0.29,))))
    assert str(err.value) == message


def test_unstable_step_detected():
    scenario = scalar_scenario(a_val=40.0, psi=1.0, t_end=1.0, step=1e-3)
    with pytest.raises(UnstableStep):
        simulate(scenario)


@pytest.mark.parametrize("a_val, c_val, delay, t_end, psi, message", [
    (40.0, 0.0, 1.0, 1.0, 1.0, "state magnitude exceeded 1e+12 at t=0.691"),
    (40.0, 0.0, 5e-4, 1.0, 1.0, "state magnitude exceeded 1e+12 at t=0.691"),
    (1.0, 1e10, 1.0, 10.0, 1.0, "output magnitude exceeded 1e+12 at t=4.606"),
    (1.0, 1e10, 5e-4, 10.0, 1.0, "output magnitude exceeded 1e+12 at t=4.606"),
    (40.0, 1.0, 1.0, 1.0, 1.0, "state magnitude exceeded 1e+12 at t=0.691"),
    (1e6, 0.0, 1.0, 1.0, 1.0, "state magnitude exceeded 1e+12 at t=0.002"),
    (40.0, 0.0, 1.0, 2.0, 1e-6, "state magnitude exceeded 1e+12 at t=1.037"),
    (40.0, 0.0, 1.0, 1.0, 1e6, "state magnitude exceeded 1e+18 at t=0.691"),
    (40.0, 0.0, 1.0, 1.0, 1e12, "state magnitude exceeded 1e+24 at t=0.691"),
], ids=["state", "state-one-step-windows", "output", "output-closed", "both", "state-overflow",
        "state-small-envelope", "state-envelope-1e6", "state-envelope-1e12"])
def test_divergence_names_first_failing_grid_time(a_val, c_val, delay, t_end, psi, message):
    # the divergence checks run once per block of steps; they must still name
    # the first failing grid time of the per-step integrator, state before
    # output, and the rest of the block may overflow without a numpy warning.
    # The limit is 1e12 * max(1, psi_bar): x = psi e^(40 t) reaches it at the
    # same time for any psi = psi_bar >= 1, later for a smaller one
    scenario = scalar_scenario(a_val=a_val, c_val=c_val, delay=delay, t_end=t_end, psi=psi)
    for run in (simulate, lambda sc: simulate_stepwise([sc])):
        with pytest.raises(UnstableStep) as err:
            run(scenario)
        assert str(err.value) == message


@pytest.mark.parametrize("h1, h2", [
    (SignalSpec.constant([0.0]), SignalSpec.constant([0.0])),
    (SignalSpec.constant([0.015]), SignalSpec.constant([0.015])),
    (SignalSpec.constant([0.5]), SignalSpec("const_plus_abs_sin", (0.02,), (40.0,), 0.0)),
    (SignalSpec.constant([0.02]), SignalSpec.constant([0.03])),
], ids=["delay-free", "one-and-a-half-steps", "h2-crossing-the-step", "whole-steps"])
def test_short_delays_match_stepwise(sample_spec, h1, h2):
    # windows of one or two steps; in the third case h2 dips below the step
    # over and over, so a window must end where closed and held steps meet.
    # In the last, delays of two and three steps carry each jump's image to
    # a grid time or within a few ulps of one, so crossings land on a step's
    # end or a few ulps from its start, and the stored jump times stay
    # strictly increasing
    scenario = replace(make_sample_scenario(sample_spec, 1.0, 1.0, t_end=3.0, step=0.01),
                       h1=h1, h2=h2)
    scales = [(0.0, 1.0), (1.0, 1.0)]
    trajs, _, jump_times = blocks_of(scenario, scales)
    assert (np.diff(jump_times) > 0.0).all()
    for got, want in zip(trajs, simulate_stepwise(scaled_members(scenario, scales))):
        for name in ("x_samples", "y_samples"):
            ref = getattr(want, name)
            assert np.abs(getattr(got, name) - ref).max() <= 1e-12 * np.abs(ref).max()


def test_overflowing_step_map_power_fakes_no_divergence():
    # A = diag(-1e4, -1) at step 1e-3: RK4 multiplies the stiff mode by ~291
    # per step, so P^128 overflows.  That mode starts at 0 and is never
    # excited, so it stays 0 step by step; the doubling scan must not turn
    # 0 * inf into a NaN state and a false divergence
    spec = SystemSpec(A=[[-1e4, 0.0], [0.0, -1.0]], B=[[0.0], [0.0]], C=[[0.0, 1.0]],
                      D=[[0.0]], h_max=1.0, omega_bar=[0.0, 0.0], d_bar=[0.0],
                      psi_bar=[0.0, 1.0], phi_bar=[0.0])
    zero = SignalSpec("zero", (0.0,))
    scenario = SimulationScenario(spec=spec, omega=SignalSpec("zero", (0.0, 0.0)), d=zero,
                                  h1=SignalSpec.constant([1.0]), h2=SignalSpec.constant([1.0]),
                                  psi=[0.0, 1.0], phi=zero, t_end=2.0, step=1e-3)
    got, (want,) = simulate(scenario), simulate_stepwise([scenario])
    assert (got.x_samples[:, 0] == 0.0).all()
    np.testing.assert_allclose(got.x_samples, want.x_samples, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(got.y_samples, want.y_samples, rtol=1e-12, atol=0.0)


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


@pytest.fixture(scope="module")
def sample_run(sample_spec):
    """The sample's certificate and its a = b = 1 run over three dwells."""
    scenario = make_sample_scenario(sample_spec, 1.0, 1.0, t_end=6.0, step=1e-2)
    return compute_certificate(sample_spec), simulate(scenario)


def assert_same_report(got, want):
    for g, w in ((got.x_margin, want.x_margin), (got.y_margin, want.y_margin)):
        assert np.array_equal(g.view(np.int64), w.view(np.int64))
    assert got.first_violation_time == want.first_violation_time


@pytest.mark.parametrize("constant", [False, True], ids=["staircase", "constant-bound"])
@pytest.mark.parametrize("bump", [None, "t=0", "run-start", "mid-run", "y-only", "last-row"])
def test_verify_domination_equals_dense_oracle(sample_run, bump, constant):
    # run maxima minus the run's bound against the difference at every time
    cert, traj = sample_run
    starts = staircase_runs(cert, traj.times)[0]
    assert starts.tolist() == [0, 200, 400, 600]          # the last row a run of its own
    cert = replace(cert, constant_bound=constant)
    x, y = traj.x_samples.copy(), traj.y_samples.copy()
    if bump is not None:
        target, row, col = {"t=0": (x, 0, 0), "run-start": (x, starts[1], 1),
                            "mid-run": (x, (starts[1] + starts[2]) // 2, 2),
                            "y-only": (y, starts[2] + 10, 0), "last-row": (y, -1, 1)}[bump]
        target[row, col] += 100.0
    bumped = Trajectory(traj.times, x, y)
    want = verify_domination_dense(bumped, cert)
    assert_same_report(verify_domination(bumped, cert), want)
    if not constant:
        # the certificate holds on the sample; each bump is the first violation
        assert want.first_violation_time == (None if bump is None else traj.times[row])


@pytest.mark.parametrize("constant", [False, True], ids=["staircase", "constant-bound"])
@pytest.mark.parametrize("name", ["x", "y"])
def test_verify_domination_flags_a_nan_sample(sample_run, name, constant):
    # a NaN fails every comparison, so it is a violation at its own time,
    # and it does not hide a real violation later in its run
    cert, traj = sample_run
    cert = replace(cert, constant_bound=constant)
    x, y = np.zeros_like(traj.x_samples), np.zeros_like(traj.y_samples)
    target = x if name == "x" else y
    target[3, 0] = np.nan
    target[5, 1] = 1e3
    bad = Trajectory(traj.times, x, y)
    report = verify_domination(bad, cert)
    assert not report.ok
    assert report.first_violation_time == traj.times[3]
    assert np.isnan((report.x_margin if name == "x" else report.y_margin)[0])
    assert_same_report(report, verify_domination_dense(bad, cert))


def test_trajectory_csv(tmp_path, sample_spec):
    scenario = make_sample_scenario(sample_spec, 1.0, 1.0, t_end=0.5, step=1e-3)
    traj = simulate(scenario)
    out = tmp_path / "traj.csv"
    write_trajectory_csv(traj, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "t,x_1,x_2,x_3,y_1,y_2"
    assert len(lines) == 502
    first = [float(tok) for tok in lines[1].split(",")]
    assert first[0] == 0.0
    assert first[1:4] == pytest.approx(sample_spec.psi_bar.tolist(), abs=1e-8)


def assert_batch_matches_single_runs(scenario, scales, tol=1e-12):
    """Each member of the scaled run against its scenario run alone."""
    batch = _simulate(scenario, scales)
    assert len(batch) == len(scales)
    for member, got in zip(scaled_members(scenario, scales), batch):
        want = simulate(member)
        assert np.array_equal(got.times, want.times)
        assert np.abs(got.x_samples - want.x_samples).max() <= tol
        assert np.abs(got.y_samples - want.y_samples).max() <= tol


def test_batch_members_match_single_runs(sample_spec):
    # the sample's time-varying delays; a history of at least half phi_bar
    # gives every member a y jump at t = 0, so all share one jump list
    rng = np.random.default_rng(3)
    scenario = make_sample_scenario(sample_spec, 1.0, 1.0, t_end=5.0, step=2e-3,
                                    psi=rng.uniform(0.0, 1.0, 3) * sample_spec.psi_bar,
                                    phi=rng.uniform(0.5, 1.0, 2) * sample_spec.phi_bar)
    assert_batch_matches_single_runs(scenario, [(0.0, 0.0), (1.0, 0.3), (0.4, 1.0), (0.7, 0.7)])
    # simulate_corners is the run at verify's corners, bit for bit
    for got, want in zip(simulate_corners(scenario), _simulate(scenario, CORNERS)):
        for name in ("x_samples", "y_samples"):
            assert np.array_equal(getattr(got, name), getattr(want, name))


def test_batch_tracks_the_union_of_jumps(sample_spec):
    # a scenario at rest, psi = phi = 0, without omega: the member without
    # d stays at 0 = phi(0), so it has no jump of its own, and the member
    # with d starts with a jump of d(0).  The shared jump list must keep the
    # jumps for the second member, in either order.  (A member with omega
    # but no jump of its own would read its history across the union's
    # jumps piecewise, and agree with its own run to truncation error.)
    rest = make_sample_scenario(sample_spec, 1.0, 1.0, t_end=6.0, step=2e-3,
                                psi=np.zeros(3), phi=np.zeros(2))
    scales = [(0.0, 0.0), (0.0, 1.0)]
    own = [blocks_of(rest, [scale])[2] for scale in scales]
    assert len(own[0]) == 0 < len(own[1])
    _, _, union = blocks_of(rest, scales)
    np.testing.assert_array_equal(union, own[1])
    assert_batch_matches_single_runs(rest, scales)
    assert_batch_matches_single_runs(rest, scales[::-1])


def test_batch_members_are_views(sample_spec):
    scenario = make_sample_scenario(sample_spec, 1.0, 1.0, t_end=0.5, step=1e-3)
    first, second, _ = simulate_corners(scenario)
    assert first.x_samples.base is second.x_samples.base
    assert not first.x_samples.flags.writeable


def test_batch_checks_every_member():
    # with A = 40, psi = 0 and d = 0 only the corner with omega, W,
    # leaves 0 and diverges; the run names its first failing grid time
    growing = scalar_scenario(a_val=40.0, psi=0.0, omega=SignalSpec.constant([1.0]))
    with pytest.raises(UnstableStep) as alone:
        simulate(growing)
    with pytest.raises(UnstableStep) as corners:
        simulate_corners(growing)
    assert str(corners.value) == str(alone.value)
    assert str(alone.value).startswith("state magnitude exceeded 1e+12 at t=")
    # the same free corner alone stays at 0
    assert not _simulate(growing, [(0.0, 0.0)])[0].x_samples.any()


def _precedence_cases():
    """Scenarios, built on demand, with faults in several fields, for the
    members (0, 0) and (1, 1).  The members share one scenario, checked as
    it is built, so the error raised is its first fault, in the order psi,
    phi, omega, d, h1, h2, whichever member carries it, and it comes before
    any member's divergence, which needs a run.  The faulty signal, 2
    |sin(0.29 t)|, first exceeds its bar of 1 at t = 1.806, late in the run;
    the check on its parameters refuses it whatever the time."""
    late = SignalSpec("abs_sin", (2.0,), (0.29,))
    calm = scalar_scenario(t_end=2.0, omega=SignalSpec.constant([0.5]))
    growing = scalar_scenario(a_val=40.0, t_end=2.0, omega=SignalSpec.constant([0.5]))
    quiet_d = replace(calm, spec=replace(calm.spec, d_bar=[1.0]),
                      omega=SignalSpec("zero", (0.0,)))
    omega_late = "scenario.omega[0] reaches 2.0 > omega_bar[0] = 1.0"
    return {
        # the first member, without omega, would diverge at t = 0.691
        "late-omega-after-divergence": (lambda: replace(growing, omega=late), omega_late),
        # d = 0.5 is above its bar of 0 too, but omega comes first
        "d-at-block-0-then-late-omega": (
            lambda: replace(calm, d=SignalSpec.constant([0.5]), omega=late), omega_late),
        # psi, which every member shares, comes before omega
        "psi-before-omega": (lambda: replace(calm, omega=late, psi=[2.0]),
                             "scenario.psi[0] reaches 2.0 > psi_bar[0] = 1.0"),
        "late-d-in-second-member": (lambda: replace(quiet_d, d=late),
                                    "scenario.d[0] reaches 2.0 > d_bar[0] = 1.0"),
    }


@pytest.mark.parametrize("case", list(_precedence_cases()))
def test_error_precedence_is_member_by_member(case):
    scenario, message = _precedence_cases()[case]
    with pytest.raises(InvalidScenario) as err:
        _simulate(scenario(), [(0.0, 0.0), (1.0, 1.0)])
    assert str(err.value) == message


def blocks_of(scenario, scales, block_values=BLOCK_VALUES):
    """The scenario's run at the scales with ``block_values`` for
    BLOCK_VALUES: the trajectories, the length of each block, and the
    stored jump times at the end."""
    lengths, runs, block = [], [], _Run.block

    def counted(run, k0, k1):
        lengths.append(k1 - k0)
        runs.append(run)
        block(run, k0, k1)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Run, "block", counted)
        mp.setattr("cdde_bound.simulator.BLOCK_VALUES", block_values)
        trajs = _simulate(scenario, scales)
    return trajs, lengths, runs[-1].jump_times


def assert_close_runs(got, want):
    for g, w in zip(got, want):
        assert np.array_equal(g.times, w.times)
        for name in ("x_samples", "y_samples"):
            ref = getattr(w, name)
            assert np.abs(getattr(g, name) - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("t_end", [6.0, 40.0])
def test_verify_corners_match_512_step_blocks(capsys, monkeypatch, t_end):
    # verify's three corners, S = 3 and n = 3: blocks of 15 360 // 9 = 1 706
    # steps, whose windows run across the edges of the 512-step blocks
    spec, scenario_cfg, _ = load_problem(SAMPLE_PROBLEM)
    scenario = build_scenario(spec, scenario_cfg, a=1.0, b=1.0, t_end=t_end, step=1e-3)
    budgeted, lengths, _ = blocks_of(scenario, CORNERS)
    assert lengths[:-1] == [1706] * (len(lengths) - 1)
    short, lengths, _ = blocks_of(scenario, CORNERS, 0)
    assert lengths[:-1] == [BLOCK_STEPS] * (len(lengths) - 1)
    assert_close_runs(budgeted, short)
    stdout = []
    for block_values in (BLOCK_VALUES, 0):
        monkeypatch.setattr("cdde_bound.simulator.BLOCK_VALUES", block_values)
        assert main(["verify", str(SAMPLE_PROBLEM), "--t-end", str(t_end)]) == 0
        stdout.append(capsys.readouterr().out)
    assert stdout[0] == stdout[1]


@pytest.mark.parametrize("h1, h2", [
    (SignalSpec.constant([0.256]), SignalSpec.constant([0.256])),
    (SignalSpec("const_plus_abs_sin", (1.0,), (1.0,), 1.0),
     SignalSpec("const_plus_abs_cos", (1.0,), (1.0,), 1.0)),
], ids=["jumps-on-512-step-edges", "time-varying"])
def test_delay_batch_with_jumps_matches_512_step_blocks(sample_spec, h1, h2):
    # two members with y jumps from t = 0 on; a delay of 256 steps
    # reproduces them on every edge of the 512-step blocks
    scenario = replace(make_sample_scenario(sample_spec, 1.0, 1.0, t_end=3.0, step=1e-3),
                       h1=h1, h2=h2)
    scales = [(1.0, 1.0), (0.5, 0.0)]
    budgeted, lengths, jumps = blocks_of(scenario, scales)
    assert lengths == [2560, 440]
    short, lengths, short_jumps = blocks_of(scenario, scales, 0)
    assert lengths == [BLOCK_STEPS] * 5 + [440]
    assert len(jumps) > 1
    np.testing.assert_array_equal(jumps, short_jumps)
    assert_close_runs(budgeted, short)


def test_wide_batch_keeps_512_step_blocks():
    # the shape of a wide run, S = 1, n = 30, m = 8: 512 steps hold
    # exactly BLOCK_VALUES states
    n, m = 30, 8
    spec = SystemSpec(A=-np.eye(n), B=np.zeros((n, m)), C=np.zeros((m, n)), D=np.zeros((m, m)),
                      h_max=1.0, omega_bar=np.ones(n), d_bar=np.ones(m),
                      psi_bar=np.ones(n), phi_bar=np.ones(m))
    scenario = SimulationScenario(spec=spec, omega=SignalSpec.constant(np.ones(n)),
                                  d=SignalSpec.constant(np.ones(m)),
                                  h1=SignalSpec.constant([1.0]), h2=SignalSpec.constant([1.0]),
                                  psi=np.ones(n), phi=np.ones(m), t_end=1.1, step=1e-3)
    _, lengths, _ = blocks_of(scenario, [(1.0, 1.0)])
    assert lengths == [BLOCK_STEPS, BLOCK_STEPS, 76]


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


def _repeated_rows():
    """(times, columns) cases with repeated rows, which the encoder writes
    like any other."""
    rng = np.random.default_rng(3)
    signed_zero = np.array([[0.0, 1.0], [-0.0, 1.0], [-0.0, 1.0], [0.0, 1.0], [0.0, 1.0]])
    nan_rows = np.array([[np.nan, 2.0]] * 3 + [[np.nan, -np.inf]] * 2)
    rows = _CSV_ROWS + 10
    # one run of equal rows from _CSV_ROWS - 5 to _CSV_ROWS + 5
    across = rng.uniform(size=(rows, 3))
    across[_CSV_ROWS - 5:_CSV_ROWS + 5] = across[_CSV_ROWS - 5]
    # a constant-bound staircase: every row of the first block equal
    constant = np.tile([0.25, 1.0 / 3.0, 7e-9], (_CSV_ROWS + 3, 1))
    return {
        "signed-zero": (np.arange(5) * 0.5, {"x": signed_zero}),
        "nan-rows": (np.arange(5) * 0.5, {"x": nan_rows[:, :1], "y": nan_rows[:, 1:]}),
        "run-across-blocks": (np.arange(rows) * 1e-3, {"xb": across[:, :2], "yb": across[:, 2:]}),
        "constant-block": (np.arange(_CSV_ROWS + 3) * 0.04,
                           {"xb": constant[:, :2], "yb": constant[:, 2:]}),
        "t-only": (np.arange(_CSV_ROWS + 3) * 1e-3, {}),
    }


@pytest.mark.parametrize("case", list(_repeated_rows()))
def test_csv_tail_reuse_matches_fstring_reference(tmp_path, case):
    times, columns = _repeated_rows()[case]
    out = tmp_path / "t.csv"
    write_csv(out, times, columns)
    rows = np.hstack([times[:, None], *columns.values()])
    header = ["t"] + [f"{p}_{i + 1}" for p, c in columns.items() for i in range(c.shape[1])]
    want = ",".join(header) + "\n" + "".join(
        ",".join(f"{v:.9g}" for v in row) + "\n" for row in rows)
    assert out.read_bytes() == want.encode()


def _runs():
    """(times, starts, columns) cases for the writer's run path: one row of
    each column per run."""
    rng = np.random.default_rng(5)

    def values(runs, cols):
        return rng.uniform(size=(runs, cols)) * 10.0 ** rng.integers(-12, 12, (runs, cols))

    rows = 2 * _CSV_ROWS + 7
    special = np.array([[-0.0, np.nan], [np.inf, 5e-324], [1e16, -2.0]])
    return {
        # the third run crosses two block boundaries
        "across-blocks": (np.arange(rows) * 1e-3, np.array([0, 100, _CSV_ROWS - 3, 2 * _CSV_ROWS + 2]),
                          {"xb": values(4, 3), "yb": values(4, 2)}),
        "at-block-edges": (np.arange(rows) * 0.04, np.array([0, _CSV_ROWS - 1, _CSV_ROWS, 2 * _CSV_ROWS]),
                           {"xb": values(4, 2)}),
        "one-row-runs": (np.arange(_CSV_ROWS + 5) * 0.3, np.arange(_CSV_ROWS + 5),
                         {"xb": values(_CSV_ROWS + 5, 3), "yb": values(_CSV_ROWS + 5, 2)}),
        "constant-bound": (np.arange(rows) * 0.01, np.array([0]),
                           {"xb": np.array([[0.25, 1.0 / 3.0]]), "yb": np.array([[7e-9]])}),
        "special-values": (np.arange(6) * 0.5, np.array([0, 2, 5]),
                           {"x": special[:, :1], "y": special[:, 1:]}),
        "t-only": (np.arange(_CSV_ROWS + 3) * 1e-3, np.array([0, 7]), {}),
    }


@pytest.mark.parametrize("case", list(_runs()))
def test_csv_run_path_matches_fstring_reference(tmp_path, case):
    times, starts, columns = _runs()[case]
    out = tmp_path / "t.csv"
    write_csv(out, times, columns, starts)
    counts = np.diff(starts, append=times.size)
    rows = np.hstack([times[:, None], *(np.repeat(c, counts, axis=0) for c in columns.values())])
    header = ["t"] + [f"{p}_{i + 1}" for p, c in columns.items() for i in range(c.shape[1])]
    assert out.read_bytes() == (",".join(header) + "\n").encode() + csv_rows_fstring(rows)


@pytest.mark.parametrize("value", [
    12345678.25, 123456789.5,   # exact decimal ties: the fallback rounds them half-even
    9.999999995, 99999.99995,   # near ties: the scaled product rounds onto .5
    9.9999999995, 999999999.7,  # round up to a power of ten: the mantissa carries
    1e-05, 1.5e-07, 0.0001, 123456789.0, 1e16, 1e30,     # exponent forms
    1e31, 1e+100, 1e-300, 5e-324, 2.2250738585072014e-308,   # outside the exact powers
    0.0, math.nan, math.inf,
])
def test_csv_encoder_cases(value):
    block = np.array([[value, -value], [value / 3.0, np.nextafter(value, 0.0)]])
    assert _encode(block) == csv_rows_fstring(block)


def test_csv_writer_encodes_wide_blocks_in_chunks(tmp_path):
    # 40 columns: each full block is encoded in several calls
    assert _CSV_ROWS > _CSV_CELLS // 40
    rng = np.random.default_rng(7)
    times = np.arange(600) * 1e-3
    x = rng.standard_normal((600, 39)) * 10.0 ** rng.integers(-6, 6, (600, 39))
    out = tmp_path / "t.csv"
    write_csv(out, times, {"x": x})
    header = "t," + ",".join(f"x_{i + 1}" for i in range(39)) + "\n"
    assert out.read_bytes() == header.encode() + csv_rows_fstring(np.hstack([times[:, None], x]))
