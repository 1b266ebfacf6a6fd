"""The members-last decay-rate sweep, the margin search, the Hurwitz test
and the stacked inverse against the members-first code in ``oracles``, bit
for bit: equal results, or the same exception type, message and cause."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from cdde_bound.envelope import BLOCK_BYTES, _envelope_factors, finite_time
from cdde_bound.linalg import inverse
from cdde_bound.stability import alpha_max, is_metzler_hurwitz

SEEDS = st.integers(0, 2**32 - 1)


def outcome(fn, *args):
    """``("ok", result)``, or ``("raised", (type, message, cause type, cause
    message))`` for the exception ``fn(*args)`` raises."""
    try:
        return "ok", fn(*args)
    except Exception as exc:            # compared, not swallowed
        cause = exc.__cause__
        return "raised", (type(exc), str(exc), type(cause), str(cause) if cause else None)


def bits(*values) -> list[bytes]:
    return [np.asarray(v, dtype=float).view(np.int64).tobytes() for v in values]


def assert_same(got, want):
    assert got[0] == want[0], (got, want)
    if got[0] == "raised":
        assert got[1] == want[1]
    elif hasattr(got[1], "per_component_T"):
        g, w = got[1], want[1]
        assert bits(g.T, g.per_component_T, g.per_component_alpha) == \
            bits(w.T, w.per_component_T, w.per_component_alpha)
    else:
        assert np.shape(got[1]) == np.shape(want[1])
        assert bits(got[1]) == bits(want[1])


@st.composite
def sweep_case(draw):
    """A Metzler-Hurwitz ``A`` whose grid of ``k_max`` rates ends on a block
    boundary, inside a block or before the first rate (the halving branch),
    with a target box that some components may already contain.  Diagonal
    matrices with repeated entries give exact ties between components and,
    through ratios equal at every rate, between rates."""
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(SEEDS))
    step = draw(st.sampled_from([1e-3, 1e-2, 0.05]))
    per_block = BLOCK_BYTES // (8 * n * n)
    end = draw(st.sampled_from(["boundary", "inside", "halving"]))
    blocks = draw(st.integers(1, 2))
    if end == "boundary":
        k = blocks * per_block
    elif end == "inside":
        k = (blocks - 1) * per_block + draw(st.integers(1, min(per_block - 1, 400)))
    else:
        k = 0
    if draw(st.booleans()):
        a0 = -np.diag(rng.choice([1.0, 2.0], n))
        theta = np.full(n, draw(st.sampled_from([0.0, 1.0, 3.0])))
    else:
        off = rng.uniform(0.0, 1.0, (n, n)) * (rng.uniform(size=(n, n)) < 0.6)
        np.fill_diagonal(off, 0.0)
        a0 = off - np.diag(rng.uniform(0.0, 2.0, n))
        theta = rng.uniform(0.0, 2.0, n) * (rng.uniform(size=n) < 0.8)
    abscissa = np.linalg.eigvals(a0).real.max()
    a = a0 - (abscissa + (k + 0.5) * step) * np.eye(n)
    delta = np.maximum(theta, 0.5) * rng.uniform(0.05, 1.2, n)
    return a, theta, delta, step


@settings(max_examples=60, deadline=None)
@given(sweep_case())
def test_sweep_equals_members_first_code(case):
    a, theta, delta, step = case
    assert_same(outcome(alpha_max, a, step), outcome(oracles.alpha_max, a, step))
    assert_same(outcome(finite_time, a, theta, delta, step),
                outcome(oracles.finite_time, a, theta, delta, step))
    # the Hurwitz test on both sides of the margin, and the factors on the
    # first block of the grid
    k = max(1, int(round(alpha_max(a, step) / step)))
    for shifted in (a + (k - 1) * step * np.eye(len(a)), a + (k + 1) * step * np.eye(len(a))):
        assert is_metzler_hurwitz(shifted) == oracles.is_metzler_hurwitz(shifted)
    alphas = np.arange(1, min(k, BLOCK_BYTES // (8 * a.size)) + 1) * step
    assert_same(outcome(_envelope_factors, a, alphas, theta),
                outcome(oracles._envelope_factors, a, alphas, theta))


def _near_singular_pair():
    """The singular [[-1, 1], [1, -1]] shifted by -1e-3: the shift back by
    1e-3 leaves a member whose reciprocal condition is about 6e-17."""
    return np.array([[-1.0, 1.0], [1.0, -1.0]]) - 1e-3 * np.eye(2)


ERROR_CASES = {
    "singular-member-exact": (_envelope_factors, oracles._envelope_factors,
                              (np.array([[-1.0]]), np.array([0.5, 1.0, 1.5]), np.ones(1))),
    "singular-member-condition": (_envelope_factors, oracles._envelope_factors,
                                  (_near_singular_pair(), np.array([5e-4, 1e-3]), np.ones(2))),
    "member-not-hurwitz": (_envelope_factors, oracles._envelope_factors,
                           (np.array([[-1.0]]), np.array([0.5, 2.0]), np.ones(1))),
    "no-positive-entry": (_envelope_factors, oracles._envelope_factors,
                          (np.array([[-1e13]]), np.array([1e12]), np.ones(1))),
    "no-positive-entry-sweep": (finite_time, oracles.finite_time,
                                (np.diag([-1e13, -1.0]), [1.0, 1.0], [0.5, 0.5], 1e-3)),
    "non-finite-member": (_envelope_factors, oracles._envelope_factors,
                          (np.array([[1e308]]), np.array([1e308]), np.ones(1))),
    "non-finite-shift": (alpha_max, oracles.alpha_max, ([[-1.7e308]], 1e308)),
    "non-finite-shift-2x2": (alpha_max, oracles.alpha_max, (-1.7e308 * np.eye(2), 1e308)),
    "non-finite-shift-sweep": (finite_time, oracles.finite_time,
                               ([[-1.7e308]], [1.0], [0.5], 1e308)),
    "not-hurwitz": (alpha_max, oracles.alpha_max, ([[1.0]], 1e-3)),
    "not-metzler": (alpha_max, oracles.alpha_max, ([[-1.0, -0.5], [0.0, -1.0]], 1e-3)),
    "not-square": (alpha_max, oracles.alpha_max, ([[-1.0, 0.0]], 1e-3)),
    "bad-step": (alpha_max, oracles.alpha_max, ([[-1.0]], 0.0)),
}


@pytest.mark.parametrize("case", list(ERROR_CASES))
def test_errors_equal_members_first_code(case):
    new, old, args = ERROR_CASES[case]
    # an overflowing shift warns in the members-first code before it raises
    with np.errstate(over="ignore", invalid="ignore"):
        got, want = outcome(new, *args), outcome(old, *args)
    assert got[0] == "raised"
    assert_same(got, want)


HURWITZ_CASES = {
    "hurwitz": [[-1.0, 0.5], [0.2, -1.0]],
    "singular": [[0.0]],
    "unstable": [[1.0]],
    "ill-conditioned": _near_singular_pair() + 1e-3 * np.eye(2),
    "overflowing-norm": [[-1.5e308, 1e308], [1e308, -1.5e308]],
    "not-metzler": [[-1.0, -0.5], [0.0, -1.0]],
    "not-square": [[-1.0, 0.0]],
    "non-finite": [[-np.inf]],
}


@pytest.mark.parametrize("case", list(HURWITZ_CASES))
def test_hurwitz_test_equals_members_first_code(case):
    m = HURWITZ_CASES[case]
    assert_same(outcome(is_metzler_hurwitz, m), outcome(oracles.is_metzler_hurwitz, m))


@st.composite
def stack_case(draw):
    """A stack (G, n, n) laid out members first, members last (as the sweep
    passes it) or with transposed members, and maybe a singular member."""
    n, g = draw(st.integers(1, 9)), draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(SEEDS))
    stack = rng.standard_normal((g, n, n)) * 10.0 ** rng.uniform(-3, 3) + (n + 1) * np.eye(n)
    bad = draw(st.sampled_from(["none", "zero-row", "scaled-row"]))
    if bad != "none":
        j, i = rng.integers(g), rng.integers(n)
        stack[j, i] = 0.0 if bad == "zero-row" else stack[j, (i + 1) % n] * (1.0 + 1e-15)
    layout = draw(st.sampled_from(["members-first", "members-last", "transposed-members"]))
    if layout == "members-last":
        stack = np.ascontiguousarray(stack.transpose(1, 2, 0)).transpose(2, 0, 1)
    elif layout == "transposed-members":
        stack = np.ascontiguousarray(stack.transpose(0, 2, 1)).transpose(0, 2, 1)
    return stack[0] if draw(st.booleans()) else stack


@settings(max_examples=120, deadline=None)
@given(stack_case())
def test_inverse_equals_members_first_code(stack):
    assert_same(outcome(inverse, stack), outcome(oracles.inverse, stack))
