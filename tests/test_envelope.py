import math
import time

import numpy as np
import pytest
from scipy.linalg import expm

from cdde_bound.envelope import (ConvergenceResult, DecayRateTooLarge,
                                 NonpositiveThreshold, exponential_estimate,
                                 finite_time, gamma_component, time_to_threshold)
from cdde_bound.stability import NotMetzler, NotStable, alpha_max

from conftest import grid_min_factor, random_metzler_hurwitz


def test_gamma_scalar_is_theta():
    assert gamma_component([[-1.0]], 0.5, [2.0], 0) == pytest.approx(2.0)


def test_gamma_decoupled_diagonal():
    a = np.diag([-1.0, -2.0])
    assert gamma_component(a, 0.5, [1.0, 1.0], 0) == pytest.approx(1.0)
    assert gamma_component(a, 0.5, [1.0, 1.0], 1) == pytest.approx(1.0)


def test_gamma_scale_invariance():
    rng = np.random.default_rng(1)
    for _ in range(30):
        a, margins = random_metzler_hurwitz(rng)
        alpha = 0.9 * margins.min()
        theta = rng.uniform(0.0, 3.0, 3)
        c = rng.uniform(0.1, 10.0)
        g1 = gamma_component(a, alpha, theta, 1)
        g2 = gamma_component(a, alpha, c * theta, 1)
        assert g2 == pytest.approx(c * g1, rel=1e-12)


def test_gamma_sample_matches_simplex_grid(sample_spec):
    a = np.asarray(sample_spec.A)
    theta = np.ones(3)
    for i in range(3):
        closed = gamma_component(a, 0.5, theta, i)
        brute = grid_min_factor(a, 0.5, theta, i)
        assert closed <= brute + 1e-12 * (1.0 + abs(closed))
        assert brute - closed <= 0.02 * (1.0 + closed)


def test_gamma_errors():
    with pytest.raises(DecayRateTooLarge):
        gamma_component([[-1.0]], 2.0, [1.0], 0)
    with pytest.raises(NotMetzler):
        gamma_component([[-1.0, -0.1], [0.0, -1.0]], 0.1, [1.0, 1.0], 0)
    with pytest.raises(IndexError):
        gamma_component([[-1.0]], 0.5, [1.0], 1)
    with pytest.raises(ValueError):
        gamma_component([[-1.0]], 0.5, [-1.0], 0)


def test_empty_index_set_guard():
    # -inv(A + alpha I) = 1e-13 passes the sign test but is not above NONNEG_TOL,
    # so the column has no entry in the ratio minimum
    from cdde_bound.envelope import EmptyIndexSet
    with pytest.raises(EmptyIndexSet):
        gamma_component([[-1e13]], 0.5, [1.0], 0)


def test_exponential_estimate_rejects_nonpositive_rate(sample_spec):
    with pytest.raises(ValueError):
        exponential_estimate(sample_spec.A, 0.0, np.ones(3))


def test_exponential_estimate_bounds_the_flow():
    # envelope validity against the exact matrix-exponential flow from the
    # extreme initial state (monotonicity makes it worst-case)
    rng = np.random.default_rng(99)
    for _ in range(100):
        a, margins = random_metzler_hurwitz(rng, coupling=rng.uniform(0.2, 1.5))
        alpha = rng.uniform(0.1, 0.95) * margins.min()
        theta = rng.uniform(0.0, 2.0, 3)
        est = exponential_estimate(a, alpha, theta)
        dt = 0.1
        step_flow = expm(a * dt)
        u = theta.copy()
        for k in range(101):
            t = k * dt
            assert (u <= est.gamma * math.exp(-alpha * t) + 1e-8).all()
            u = step_flow @ u


def test_time_to_threshold_closed_forms():
    assert time_to_threshold(1.0, 2.0, 0.7) == 0.0
    assert time_to_threshold(2.0, 1.0, math.log(2.0)) == pytest.approx(1.0)
    assert time_to_threshold(2.0, 1.0, 1.0) == pytest.approx(math.log(2.0))
    with pytest.raises(NonpositiveThreshold):
        time_to_threshold(1.0, 0.0, 1.0)
    with pytest.raises(NonpositiveThreshold):
        time_to_threshold(1.0, -1.0, 1.0)


def test_finite_time_scalar_inside_from_start():
    res = finite_time([[-1.0]], [1.0], [1.0], 1e-3)
    assert res.T == 0.0
    assert res.per_component_T == pytest.approx([0.0])


def test_finite_time_scalar_matches_exact_crossing():
    # exact solution 2 e^{-t} crosses 1 at ln 2; best grid rate is 0.999
    res = finite_time([[-1.0]], [2.0], [1.0], 1e-3)
    assert res.T == pytest.approx(math.log(2.0) / 0.999, abs=1e-12)
    assert abs(res.T - math.log(2.0)) <= 2e-3
    assert res.per_component_alpha == pytest.approx([0.999])


def test_finite_time_requires_positive_delta():
    with pytest.raises(NonpositiveThreshold):
        finite_time([[-1.0]], [1.0], [0.0], 1e-3)


def test_finite_time_requires_stability():
    with pytest.raises(NotStable):
        finite_time([[1.0]], [1.0], [1.0], 1e-3)


def test_finite_time_near_minimality_diagonal():
    # With the slow mode binding, the grid-optimal envelope is nearly tight:
    # at T the extreme solution is inside the box, slightly before it is not.
    a = np.diag([-1.0, -0.7])
    theta = np.array([1.0, 2.0])
    delta = np.array([1.0, 1.0])
    step = 1e-3
    res = finite_time(a, theta, delta, step)
    assert res.per_component_T.argmax() == 1
    assert res.T == pytest.approx(math.log(2.0) / 0.699, abs=1e-12)
    for t, ok in [(res.T, True), (res.T * (1.0 - 2.0 * step), False)]:
        u_slow = theta[1] * math.exp(-0.7 * t)
        assert (u_slow <= delta[1] + 1e-9) == ok


def test_finite_time_narrow_margin_fallback():
    # Hurwitz margin below one grid step: the sweep must still produce a rate
    a = [[-0.0005]]
    res = finite_time(a, [2.0], [1.0], 1e-3)
    assert isinstance(res, ConvergenceResult)
    assert 0.0 < res.per_component_alpha[0] < 1e-3
    assert res.T == pytest.approx(math.log(2.0) / res.per_component_alpha[0])


def test_finite_time_refuses_grid_past_float_precision_at_once():
    # 2.5e300 rates: past 2**53, k * alpha_step no longer tells k from k + 1
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"^decay-rate grid of 2\.5e\+300 rates exceeds 2\*\*53"):
        finite_time([[-2.5]], [2.0], [1.0], 1e-300)
    assert time.perf_counter() - start < 1.0


def test_finite_time_grid_refinement_consistency(sample_spec):
    theta = np.ones(3)
    delta = np.full(3, 0.5)
    a = np.asarray(sample_spec.A)
    coarse = finite_time(a, theta, delta, 1e-2)
    fine = finite_time(a, theta, delta, 1e-3)
    assert fine.T <= coarse.T + 1e-12
    assert abs(fine.T - coarse.T) <= 0.05 * (1.0 + fine.T)


def test_alpha_grid_endpoint_used(sample_spec):
    # the sweep may select the largest admissible grid rate
    a = np.asarray(sample_spec.A)
    amax = alpha_max(a, 1e-3)
    res = finite_time(a, np.ones(3), np.full(3, 0.5), 1e-3)
    assert res.per_component_alpha.max() <= amax + 1e-12
