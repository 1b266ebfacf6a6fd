import math
import time

import numpy as np
import pytest
from scipy.linalg import expm

from cdde_bound import envelope
from cdde_bound.certificate import compute_certificate
from cdde_bound.envelope import (ConvergenceResult, DecayRateTooLarge, NonpositiveThreshold,
                                 _envelope_factors, _index_sets, finite_time, gamma_component)
from cdde_bound.linalg import solve
from cdde_bound.stability import NotMetzler, NotStable, alpha_max, is_metzler_hurwitz

from conftest import grid_min_factor, random_metzler_hurwitz
from oracles import alpha_max_scan, finite_time_blocked, time_to_threshold


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
    """No index set is empty: each holds its own diagonal entry, however
    small -inv(A + alpha I) is.  A scalar system whose -inv(A + alpha I) is
    about 1e-13, below any absolute threshold of 1e-12, has the factor
    theta."""
    assert gamma_component([[-1e13]], 0.5, [1.0], 0) == 1.0
    assert gamma_component([[-1e13]], 1e12, [1.0], 0) == 1.0
    args = (np.array([[-1e13]]), np.array([1e12]), np.ones(1))
    got = _envelope_factors(*args)
    assert got.tolist() == [[1.0]]
    reach, _ = _index_sets(np.diag([-1e13, -1.0, -2.0]), np.zeros(3))
    assert reach[:, :, 0].tolist() == np.eye(3, dtype=bool).tolist()


@pytest.mark.parametrize("a", [[[1e13]], [[1e13, 0.0], [1.0, -1e13]]],
                         ids=["scalar", "reducible-2x2"])
def test_gamma_component_refuses_a_positive_diagonal(a):
    """The inverse of A + 0.5 I is at most about 1e-13 in every entry,
    within 1e-12 of nonpositive, and the matrix is well conditioned;
    its row sums are no positive witness all the same, and the rate is
    checked before any factor is formed."""
    with pytest.raises(DecayRateTooLarge, match=r"^alpha=0\.5: shifted matrix not Hurwitz$"):
        gamma_component(a, 0.5, np.ones(len(a)), 0)


def test_gamma_component_is_free_of_time_units(sample_spec):
    """The index set is exact, not a threshold on the entries of -inv(A +
    alpha I): in time units c times faster, A and alpha grow by c, those
    entries shrink by c, and the factors do not move."""
    a = np.asarray(sample_spec.A)
    theta = np.asarray(sample_spec.psi_bar)
    for i in range(3):
        ref = gamma_component(a, 0.5, theta, i)
        for c in 10.0 ** np.arange(-12, 14):
            assert gamma_component(c * a, c * 0.5, theta, i) == pytest.approx(ref, rel=1e-12)


def test_gamma_rejects_nonpositive_rate(sample_spec):
    with pytest.raises(ValueError):
        gamma_component(sample_spec.A, 0.0, np.ones(3), 0)


def test_gamma_bounds_the_flow():
    # envelope validity against the exact matrix-exponential flow from the
    # extreme initial state (monotonicity makes it worst-case)
    rng = np.random.default_rng(99)
    for _ in range(100):
        a, margins = random_metzler_hurwitz(rng, coupling=rng.uniform(0.2, 1.5))
        alpha = rng.uniform(0.1, 0.95) * margins.min()
        theta = rng.uniform(0.0, 2.0, 3)
        gamma = np.array([gamma_component(a, alpha, theta, i) for i in range(3)])
        dt = 0.1
        step_flow = expm(a * dt)
        u = theta.copy()
        for k in range(101):
            t = k * dt
            assert (u <= gamma * math.exp(-alpha * t) + 1e-8).all()
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


def test_finite_time_narrow_margin_fallback(sample_spec):
    # Hurwitz margin below one grid step: the sweep must still produce a rate
    a = [[-0.0005]]
    res = finite_time(a, [2.0], [1.0], 1e-3)
    assert isinstance(res, ConvergenceResult)
    assert 0.0 < res.per_component_alpha[0] < 1e-3
    assert res.T == pytest.approx(math.log(2.0) / res.per_component_alpha[0])
    # the sample certificate's sweep at alpha_step 5, above the margin: the
    # halved rate, bit for bit as the sweep over the whole grid picks it
    cert = compute_certificate(sample_spec)
    shift = solve(sample_spec.A, sample_spec.B @ cert.q)
    args = (sample_spec.A, cert.p + shift, (1.0 - cert.mu) * cert.p + shift, 5.0)
    assert alpha_max(sample_spec.A, 5.0) == 0.0
    got, want = finite_time(*args), finite_time_blocked(*args)
    assert [np.asarray(v).tobytes() for v in (got.T, got.per_component_T, got.per_component_alpha)] \
        == [np.asarray(v).tobytes() for v in (want.T, want.per_component_T, want.per_component_alpha)]


# a random sparse Metzler matrix (20 % of the off-diagonal entries), margin
# 0.5407778: no path leads to index 2 from another index, nor from index 4 or
# 6 to any other, so its Hurwitz shifts have inverses with exact zeros
REDUCIBLE = np.array([
    [-1.95457478880388, 0.0, 0.0, 0.0, 0.0, 0.70661930597437, 0.0],
    [0.1673209193266051, -0.6682805886424219, 0.9429801416464726, 0.28622572480963504, 0.0, 0.0, 0.0],
    [0.0, 0.0, -0.5461949930085086, 0.0, 0.0, 0.0, 0.0],
    [0.7761948424810876, 0.0, 0.0, -0.7806443417546042, 0.0, 0.0, 0.0],
    [0.11943794454053969, 0.0, 0.0, 0.0, -1.2224087469105933, 0.0, 0.0],
    [0.0, 0.03508293908761306, 0.0, 0.4317652197750126, 0.0, -1.3894716626775374, 0.0],
    [0.3631753944652705, 0.0, 0.0, 0.5370491414816025, 0.0, 0.0, -1.7281090922244253],
])


def test_reducible_margin_is_searched_on_the_reachable_pattern():
    """Computed, the exact zeros of ``inv(A + 0.5406 I)`` read above a sign
    threshold of 1e-12, but those at 0.5405 and 0.5407 do not: a sign test of
    every entry made the search starting at the margin return 0.5407 and
    the sweep then fail at 0.5406, and the doubling search stop at 0.5405.
    The witness test reads no entry's sign: every grid rate below the
    margin passes, T is the one the doubling search's grid gave, and the
    linear scan and the sweep over the whole grid agree."""
    step, eye = 1e-4, np.eye(7)
    for k in range(5400, 5408):
        assert is_metzler_hurwitz(REDUCIBLE + (k * step) * eye)
    assert not is_metzler_hurwitz(REDUCIBLE + (5408 * step) * eye)
    assert alpha_max(REDUCIBLE, step) == 5407 * step
    assert alpha_max(REDUCIBLE, step) == alpha_max_scan(REDUCIBLE, step)
    result = finite_time(REDUCIBLE, np.ones(7), np.full(7, 0.5), step)
    assert result.T == 7.487875340535612
    want = finite_time_blocked(REDUCIBLE, np.ones(7), np.full(7, 0.5), step)
    assert np.array_equal(result.per_component_T, want.per_component_T)
    assert np.array_equal(result.per_component_alpha, want.per_component_alpha)


def test_grid_ends_at_the_witnessed_rate(monkeypatch):
    """A grid of 4.4e15 rates, past 2**51, where ``round(alpha_max /
    step)`` is one index past the margin search's last pass, whose shifted
    matrix is exactly 0: the sweep's grid ends at that last pass, whose
    witness proves every rate of the grid Hurwitz."""
    a, step = [[-1.3572947460946414]], 3.0665315678708617e-16
    top = alpha_max(a, step)
    assert round(top / step) * step > top
    grids = []
    monkeypatch.setattr(envelope, "_sweep",
                        lambda m, theta, dlt, step, k_max: grids.append(k_max) or (theta, theta))
    finite_time(a, [1.0], [0.5], step)
    assert grids == [round(top / step) - 1]
    assert grids[0] * step == top
    assert is_metzler_hurwitz(np.array(a) + grids[0] * step)


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
