"""Property tests: the stacked LU, the logarithmic margin search and the
blocked decay-rate sweep against the one-matrix-at-a-time oracles."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cdde_bound.envelope import finite_time
from cdde_bound.linalg import SingularMatrix, inverse
from cdde_bound.stability import alpha_max

from oracles import alpha_max_scan, finite_time_loop, inverse_by_columns

SEEDS = st.integers(0, 2**32 - 1)


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
