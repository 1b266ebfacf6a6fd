"""Property tests: the stacked LU, the logarithmic margin search and the
blocked decay-rate sweep against the one-matrix-at-a-time oracles; the
batched simulator against single runs and against superposition; the
windowed simulator against the per-step one."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cdde_bound.envelope import finite_time
from cdde_bound.linalg import SingularMatrix, inverse
from cdde_bound.simulator import SignalSpec, simulate, simulate_many
from cdde_bound.stability import alpha_max

from conftest import make_sample_scenario, make_sample_system
from oracles import alpha_max_scan, finite_time_loop, inverse_by_columns, simulate_stepwise

SEEDS = st.integers(0, 2**32 - 1)
UNIT = st.floats(0.0, 1.0)
# History scales of at least 1/2 keep y(0) - phi(0) away from zero on the
# sample, so every member starts with a y jump and all share one jump list.
# A member that is continuous where another jumps gets extra knots and split
# steps, and then agrees only to the integrator's truncation error.
HISTORY = st.floats(0.5, 1.0)
SAMPLE = make_sample_system()


@st.composite
def placed_margin(draw):
    """Random Metzler matrix shifted so its spectral abscissa is -margin,
    with margin on the alpha grid or half a step off it."""
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(SEEDS))
    step = draw(st.sampled_from([1e-3, 1e-2, 0.05]))
    k = draw(st.integers(1, 120))
    offset = draw(st.sampled_from([0.0, 0.5]))
    off = rng.uniform(0.0, 1.0, (n, n)) * (rng.uniform(size=(n, n)) < 0.6)
    np.fill_diagonal(off, 0.0)
    a0 = off - np.diag(rng.uniform(0.0, 2.0, n))
    abscissa = np.linalg.eigvals(a0).real.max()
    a = a0 - (abscissa + (k + offset) * step) * np.eye(n)
    return a, step, k, offset, rng


@settings(max_examples=80, deadline=None)
@given(placed_margin())
def test_alpha_max_equals_linear_scan(case):
    a, step, k, offset, _ = case
    got = alpha_max(a, step)
    assert got == alpha_max_scan(a, step)
    if offset:
        assert got == k * step


@settings(max_examples=60, deadline=None)
@given(placed_margin())
def test_finite_time_equals_per_rate_loop(case):
    a, step, k, offset, rng = case
    if k == 1 and not offset:
        return              # the oracle needs a nonempty grid
    n = a.shape[0]
    theta = rng.uniform(0.1, 2.0, n)
    delta = theta * rng.uniform(0.05, 1.2, n)
    got = finite_time(a, theta, delta, step)
    want = finite_time_loop(a, theta, delta, step)
    assert np.array_equal(got.per_component_alpha, want.per_component_alpha)
    np.testing.assert_allclose(got.per_component_T, want.per_component_T, rtol=1e-12, atol=0)
    assert got.T == got.per_component_T.max()


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 9), st.integers(1, 12), SEEDS)
def test_stacked_inverse_equals_per_matrix(n, g, seed):
    rng = np.random.default_rng(seed)
    stack = rng.standard_normal((g, n, n)) + (n + 1) * np.eye(n)
    got = inverse(stack)
    assert got.shape == (g, n, n)
    for j in range(g):
        for want in (inverse(stack[j]), inverse_by_columns(stack[j])):
            assert np.abs(got[j] - want).max() <= 1e-13 * np.abs(want).max()


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 7), st.integers(1, 10), SEEDS, st.data())
def test_stack_with_one_singular_member_raises(n, g, seed, data):
    rng = np.random.default_rng(seed)
    stack = rng.standard_normal((g, n, n)) + (n + 1) * np.eye(n)
    bad = data.draw(st.integers(0, g - 1))
    stack[bad, rng.integers(n)] = 0.0
    with pytest.raises(SingularMatrix, match=f"stack member {bad}$"):
        inverse(stack)


def sample_run(a, b, psi_scale=1.0, phi_scale=1.0):
    """The sample's rectified-sine scenario with its time-varying delays,
    on a horizon that holds the first jump generations."""
    return make_sample_scenario(SAMPLE, a, b, t_end=4.0, step=1e-2,
                                psi=psi_scale * SAMPLE.psi_bar,
                                phi=phi_scale * SAMPLE.phi_bar)


@settings(max_examples=15, deadline=None)
@given(st.lists(st.tuples(UNIT, UNIT, UNIT, HISTORY), min_size=1, max_size=4))
def test_batch_member_equals_its_single_run(members):
    scenarios = [sample_run(*member) for member in members]
    for scenario, got in zip(scenarios, simulate_many(scenarios)):
        want = simulate(scenario)
        assert np.abs(got.x_samples - want.x_samples).max() <= 1e-12
        assert np.abs(got.y_samples - want.y_samples).max() <= 1e-12


@settings(max_examples=15, deadline=None)
@given(UNIT, UNIT, UNIT, HISTORY)
def test_superposed_corners_equal_direct_run(a, b, psi_scale, phi_scale):
    free, omega, dist = simulate_many([sample_run(0.0, 0.0, psi_scale, phi_scale),
                                       sample_run(1.0, 0.0, psi_scale, phi_scale),
                                       sample_run(0.0, 1.0, psi_scale, phi_scale)])
    want = simulate(sample_run(a, b, psi_scale, phi_scale))
    for name in ("x_samples", "y_samples"):
        base = getattr(free, name)
        got = base + a * (getattr(omega, name) - base) + b * (getattr(dist, name) - base)
        assert np.abs(got - getattr(want, name)).max() <= 1e-12


@st.composite
def delay(draw, step):
    """A delay signal within the sample's bound h_max = 2: constant (free,
    an exact multiple of the step, between one and two steps, or below one
    step, where the output is closed algebraically) or time-varying with
    slope below 1, which may dip below the step."""
    kind = draw(st.sampled_from(["free", "multiple", "one_to_two_steps", "below_step",
                                 "varying"]))
    if kind == "varying":
        amp = draw(st.floats(0.01, 1.0))
        return SignalSpec(draw(st.sampled_from(["const_plus_abs_sin", "const_plus_abs_cos"])),
                          (amp,), (draw(st.floats(0.0, 0.99 / amp)),), draw(st.floats(0.0, 1.0)))
    value = {"free": lambda: draw(st.floats(step, 2.0)),
             "multiple": lambda: draw(st.integers(1, 40)) * step,
             "one_to_two_steps": lambda: draw(st.floats(step, 2.0 * step)),
             "below_step": lambda: draw(st.floats(0.0, step, exclude_max=True))}[kind]()
    return SignalSpec.constant([value])


@st.composite
def delay_batch(draw):
    """Sample-system members sharing random delays on a coarse grid.  An
    optional member at rest (all data zero) has no jump of its own, so the
    batch's union jump list differs from its own."""
    step = draw(st.sampled_from([1.0 / 128.0, 0.01, 0.02]))
    h1, h2 = draw(delay(step)), draw(delay(step))
    t_end = draw(st.floats(0.5, 3.0))
    members = draw(st.lists(st.tuples(UNIT, UNIT, UNIT, UNIT), min_size=1, max_size=3))
    if draw(st.booleans()):
        members.insert(draw(st.integers(0, len(members))), (0.0, 0.0, 0.0, 0.0))
    return [replace(make_sample_scenario(SAMPLE, a, b, t_end=t_end, step=step,
                                         psi=psi * SAMPLE.psi_bar, phi=phi * SAMPLE.phi_bar),
                    h1=h1, h2=h2)
            for a, b, psi, phi in members]


@settings(max_examples=40, deadline=None)
@given(delay_batch())
def test_windowed_run_equals_stepwise_run(scenarios):
    for got, want in zip(simulate_many(scenarios), simulate_stepwise(scenarios)):
        assert np.array_equal(got.times, want.times)
        for name in ("x_samples", "y_samples"):
            ref = getattr(want, name)
            assert np.abs(getattr(got, name) - ref).max() <= 1e-12 * np.abs(ref).max()
