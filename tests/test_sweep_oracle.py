"""The members-last decay-rate sweep, the margin search, the Hurwitz test
and the stacked inverse against the members-first code in ``oracles``, and
the pruned sweep against the members-last sweep over the whole grid, bit
for bit: equal results, or the same exception type, message and cause.
Also the lemma the pruning rests on: no rate inside a gap of the grid
enters its box before the gap's floor."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import oracles
from cdde_bound import envelope
from cdde_bound.certificate import compute_certificate
from cdde_bound.envelope import (_LOG_SCREEN_RTOL, BLOCK_BYTES, _envelope_factors, _gap_floor,
                                 _min_ratios, _neg_inverses, _prunable, finite_time)
from cdde_bound.linalg import inverse, solve
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
    through ratios equal at every rate, between rates; their entry times
    fall with the rate, so the best is at ``k_max``.  A box one ulp inside
    the factors at one rate of the grid puts the best at ``k = 1`` where
    the factor grows with the rate.  Diagonal factors are ``theta`` up to
    an ulp that varies with the rate, so there the best is the first rate
    whose factor rounds down: a tie at t = 0 inside the grid, which the
    smallest rate wins.  Grids of up to eight blocks take the pruned sweep
    through several rounds."""
    n = draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(SEEDS))
    step = draw(st.sampled_from([1e-3, 1e-2, 0.05]))
    per_block = BLOCK_BYTES // (8 * n * n)
    end = draw(st.sampled_from(["boundary", "inside", "halving"]))
    blocks = draw(st.integers(1, 8))
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
    if k and draw(st.booleans()):
        rate = draw(st.integers(1, k)) * step
        factors = oracles._envelope_factors(a, np.array([rate]), theta)[0]
        delta = np.where(factors > 0.0, np.nextafter(factors, 0.0), delta)
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


@settings(max_examples=60, deadline=None)
@given(sweep_case())
def test_pruned_sweep_equals_blocked_sweep(case):
    a, theta, delta, step = case
    assert_same(outcome(finite_time, a, theta, delta, step),
                outcome(oracles.finite_time_blocked, a, theta, delta, step))


def test_pruned_sweep_equals_blocked_sweep_on_fine_sample_grid(sample_spec):
    """The sample certificate's sweep at alpha_step 1e-5: about 174 000
    rates, 48 blocks of the whole-grid sweep."""
    cert = compute_certificate(sample_spec)
    shift = solve(sample_spec.A, sample_spec.B @ cert.q)
    args = (sample_spec.A, cert.p + shift, (1.0 - cert.mu) * cert.p + shift, 1e-5)
    assert_same(outcome(finite_time, *args), outcome(oracles.finite_time_blocked, *args))


@settings(max_examples=40, deadline=None)
@given(sweep_case(), st.sampled_from([2, 3, 8, 40]))
def test_gap_floor_bounds_every_rate_inside_the_gap(case, width):
    """Gaps of ``width`` grid steps: the entry time at every rate strictly
    inside one, times one plus the pruning margin, is at least its floor."""
    a, theta, delta, step = case
    k_max = int(round(alpha_max(a, step) / step))
    assume(k_max > 2)
    alphas = np.arange(1, k_max + 1) * step
    a_vec, b, mask = _neg_inverses(a, alphas, theta)
    ratio = _min_ratios(a_vec, b, mask, out=np.empty_like(b)) / delta
    t = np.log(np.maximum(ratio, 1.0)) / alphas[:, None]
    ends = np.unique(np.r_[np.arange(0, k_max, width), k_max - 1])
    lo, hi = ends[:-1], ends[1:]
    floor = _gap_floor(a_vec[lo], b[:, :, hi], mask[:, :, hi], alphas[hi], delta)
    inside = np.setdiff1d(np.arange(k_max), ends)
    gap = np.searchsorted(hi, inside)
    assert (t[inside] * (1.0 + _LOG_SCREEN_RTOL) >= floor[gap]).all()


@pytest.mark.parametrize("a, theta, prunable", [
    ([[-2.0, 1.0], [1.0, -2.0]], [1.0, 0.0], True),
    ([[-2.0]], [1.0], True),
    ([[-2.0, 1.0, 0.0], [0.0, -2.0, 1.0], [1.0, 0.0, -2.0]], [0.0, 0.0, 1.0], True),
    ([[-2.0, 1.0], [0.0, -2.0]], [1.0, 1.0], False),       # 2 does not reach 1
    ([[-2.0, 1.0], [1.0, -2.0]], [0.0, 0.0], False),       # a = 0
    ([[-2.0, 1.0], [-1e-13, -2.0]], [1.0, 1.0], False),    # Metzler only to NONNEG_TOL
], ids=["coupled", "scalar", "cycle", "reducible", "zero-theta", "negative-entry"])
def test_prunable_needs_positive_n_and_a(a, theta, prunable):
    assert _prunable(np.array(a), np.array(theta)) is prunable


def test_negative_factor_is_refused_as_on_the_whole_grid():
    """Component 3 of this reducible system has ``theta = 0`` and reaches no
    other component, so its ``a`` vanishes, and its factor rounds below
    zero at scattered rates of the grid (k = 2, 3, 5, ...).  The grid is
    swept whole, and the error names the minimum of its first block."""
    a0 = np.array([[-0.82703602052534, 0.8757445027640773, 0.509970796133141, 0.0],
                   [0.0, -1.4781097662805465, 0.0, 0.8863188504787867],
                   [0.0, 0.0, -0.3685683670628046, 0.0],
                   [0.6064078164849519, 0.6590523743997361, 0.504067246065619,
                    -1.869019816327096]])
    step = 1e-4
    a = a0 - (a0[2, 2] + (7286 + 0.5) * step) * np.eye(4)
    theta = [0.8497695747555352, 1.2254014086871803, 0.0, 0.3129002844201616]
    delta = [0.060892925697237435, 0.9292984356046446, 0.47554026449019665,
             0.28472489786602706]
    got = outcome(finite_time, a, theta, delta, step)
    assert got[0] == "raised" and got[1][1].startswith("gamma must be nonnegative, got -")
    assert_same(got, outcome(oracles.finite_time_blocked, a, theta, delta, step))


def test_error_met_by_the_pruned_sweep_is_the_whole_grids(monkeypatch):
    """Inverses made to fail the Hurwitz test from alpha = 0.5 on: the first
    round of the pruned sweep meets one, and the error raised is the whole
    grid's, which names its first block that has one."""
    a = np.array([[-2.0, 1.0], [1.0, -2.0]])
    real = envelope.inverse

    def failing(stack):
        inv = real(stack)
        inv[stack[:, 0, 0] - a[0, 0] >= 0.5] *= -1.0
        return inv

    monkeypatch.setattr(envelope, "inverse", failing)
    got = outcome(finite_time, a, [1.0, 1.0], [0.5, 0.5], 1e-4)
    assert got[0] == "raised" and got[1][1] == "alpha in [0.0001, 0.8192]: shifted matrix not Hurwitz"
    assert_same(got, outcome(oracles.finite_time_blocked, a, [1.0, 1.0], [0.5, 0.5], 1e-4))


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
