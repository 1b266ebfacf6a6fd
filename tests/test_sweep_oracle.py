"""The members-last envelope factors and the stacked inverse against one
members-first ``np.linalg.inv``, and the pruned sweep against the
members-last sweep over the whole grid, bit for bit: equal results, or the
same exception type, message and cause.  The margin search against the
eigenvalue margin, and the Hurwitz test against exact arithmetic; the
error table as pinned exceptions.  Also what the pruning rests on: the
index sets against an exact inverse, and no rate inside a gap of the grid
entering its box before the gap's floor."""

import functools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.linalg import expm

from cdde_bound import envelope
from cdde_bound.certificate import compute_certificate
from cdde_bound.envelope import (_LOG_SCREEN_RTOL, BLOCK_BYTES, DecayRateTooLarge,
                                 _envelope_factors, _gap_floor, _index_sets, _min_ratios,
                                 _neg_inverses, finite_time, gamma_component)
from cdde_bound.linalg import SingularMatrix, inverse, solve
from cdde_bound.stability import NotMetzler, NotStable, alpha_max, is_metzler_hurwitz
from conftest import random_metzler_hurwitz
from oracles import (envelope_factors_members_first, finite_time_blocked,
                     fraction_neg_inverse, hurwitz_exact)

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


@functools.cache
def level_thresholds(n: int, top: int = 4096) -> tuple[int, ...]:
    """The grid sizes ``G <= top`` from which the first round of the sweep
    at dimension ``n`` plans one round more than at ``G - 1``."""
    levels = [envelope._levels(g, 1, n) for g in range(1, top + 1)]
    return tuple(g for g in range(2, top + 1) if levels[g - 1] != levels[g - 2])


@st.composite
def sweep_case(draw):
    """A Metzler-Hurwitz ``A`` whose grid of ``k_max`` rates has a size at
    which the sweep branches: one or two rates, a perfect square or next to
    one, just below or at a size from which the first round plans one round
    more, any size up to 4096, or no rate before the first (the halving
    branch).  The target box may already contain some components.
    Diagonal matrices with repeated entries give exact ties between
    components and, through ratios equal at every rate, between rates;
    their entry times fall with the rate, so the best is at ``k_max``.  A
    box one ulp inside the factors at one rate of the grid puts the best at
    ``k = 1`` where the factor grows with the rate.  Diagonal factors are
    ``theta`` up to an ulp that varies with the rate, so there the best is
    the first rate whose factor rounds down: a tie at t = 0 inside the
    grid, which the smallest rate wins."""
    n = draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(SEEDS))
    step = draw(st.sampled_from([1e-3, 1e-2, 0.05]))
    size = draw(st.sampled_from(["small", "square", "threshold", "any", "halving"]))
    if size == "small":
        k = draw(st.integers(1, 2))
    elif size == "square":
        k = draw(st.integers(2, 64)) ** 2 + draw(st.integers(-1, 1))
    elif size == "threshold" and level_thresholds(n):
        k = draw(st.sampled_from(level_thresholds(n))) - draw(st.integers(0, 1))
    elif size == "halving":
        k = 0
    else:
        k = draw(st.integers(3, 4096))
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
        factors = _envelope_factors(a, np.array([rate]), theta)[0]
        delta = np.where(factors > 0.0, np.nextafter(factors, 0.0), delta)
    return a, theta, delta, step


@settings(max_examples=60, deadline=None)
@given(sweep_case())
def test_sweep_equals_references(case):
    """The margin search returns the last grid rate below the eigenvalue
    margin, half a step away; the Hurwitz test agrees with the margin on
    both sides of it, and with exact arithmetic up to n = 8; the factors on
    the first block of the grid, if it has a rate, are those of a
    members-first stack, bit for bit."""
    a, theta, delta, step = case
    k_max = math.floor(-np.linalg.eigvals(a).real.max() / step)
    assert alpha_max(a, step) == k_max * step
    eye = np.eye(len(a))
    for k in (k_max, k_max + 1):
        shifted = a + (k * step) * eye
        assert is_metzler_hurwitz(shifted) == (k == k_max)
        if len(a) <= 8:
            assert hurwitz_exact(shifted) == (k == k_max)
    alphas = np.arange(1, min(k_max, BLOCK_BYTES // (8 * a.size)) + 1) * step
    if alphas.size:
        assert bits(_envelope_factors(a, alphas, theta)) == \
            bits(envelope_factors_members_first(a, alphas, theta))


@settings(max_examples=60, deadline=None)
@given(sweep_case())
def test_pruned_sweep_equals_blocked_sweep(case):
    a, theta, delta, step = case
    assert_same(outcome(finite_time, a, theta, delta, step),
                outcome(finite_time_blocked, a, theta, delta, step))


def test_pruned_sweep_equals_blocked_sweep_on_fine_sample_grid(sample_spec):
    """The sample certificate's sweep at alpha_step 1e-5: about 174 000
    rates, 48 blocks of the whole-grid sweep."""
    cert = compute_certificate(sample_spec)
    shift = solve(sample_spec.A, sample_spec.B @ cert.q)
    args = (sample_spec.A, cert.p + shift, (1.0 - cert.mu) * cert.p + shift, 1e-5)
    assert_same(outcome(finite_time, *args), outcome(finite_time_blocked, *args))


# a ceiling on the rates the sweep inverts: the sample's grids of 1 741,
# 174 000 and 1.7 million rates at alpha_step 1e-3, 1e-5 and 1e-6, and the
# 1x1 system whose margin lies 1.4e10 rates up a grid of step 1e-10, whose
# gaps near the margin never close; from the second on, the counts of the
# sweep that split open gaps into four parts, a block of rates per round
SWEEP_COST_CASES = {"sample-1e-3": (1e-3, 1000), "sample-1e-5": (1e-5, 9225),
                    "sample-1e-6": (1e-6, 23190), "near-margin-1e-10": (1e-10, 438633)}


@pytest.mark.parametrize("case", list(SWEEP_COST_CASES))
def test_sweep_inverts_at_most_its_ceiling(monkeypatch, sample_spec, case):
    """The rates that reach ``inverse`` stay within the case's ceiling."""
    step, ceiling = SWEEP_COST_CASES[case]
    if case.startswith("sample"):
        cert = compute_certificate(sample_spec)
        shift = solve(sample_spec.A, sample_spec.B @ cert.q)
        args = (sample_spec.A, cert.p + shift, (1.0 - cert.mu) * cert.p + shift, step)
    else:
        args = ([[-1.3572947460946414]], [1.0], [0.5], step)
    rates = []
    real = envelope.inverse

    def counting(stack):
        rates.append(stack.shape[0])
        return real(stack)

    monkeypatch.setattr(envelope, "inverse", counting)
    finite_time(*args)
    assert sum(rates) <= ceiling


def test_sweep_memory_is_a_few_chunks():
    """A dense n = 120 system with 300 grid rates, on inputs like a
    certificate's (delta about 0.7 theta): the sweep keeps only ``a``, one
    vector per open gap, from one round to the next, so the tracemalloc
    peak of ``finite_time`` is that of a few chunks, each at most
    ``max(BLOCK_BYTES, 8 n^2)`` bytes, beside a few ``n x n`` matrices of
    the margin search and a round's vectors per rate."""
    n = 120
    rng = np.random.default_rng(1)
    m = rng.uniform(0.0, 2.0 / n, (n, n))
    np.fill_diagonal(m, -rng.uniform(0.5, 1.5, n))
    a = m - (np.linalg.eigvals(m).real.max() + 0.3005) * np.eye(n)
    theta = rng.uniform(1.0, 5.0, n)
    args = (a, theta, theta * rng.uniform(0.68, 0.71, n), 1e-3)
    finite_time(*args)
    tracemalloc.start()
    try:
        finite_time(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * max(BLOCK_BYTES, 8 * n * n) + 8 * (8 * n * n)


def test_pruned_sweep_with_one_rate_per_block_equals_default_blocks(monkeypatch):
    """A block of ``8 n^2`` bytes holds one rate, as the default one does
    from n = 182 on: each round still evaluates a rate, so the sweep closes
    every gap and finds what the default block size finds."""
    rng = np.random.default_rng(5)
    cases = []
    for _ in range(40):
        n = int(rng.integers(2, 7))
        a, _ = random_metzler_hurwitz(rng, n)
        theta = rng.uniform(0.5, 1.5, n)
        cases.append((a, theta, 0.05 * theta, 1e-2))
    want = [outcome(finite_time, *case) for case in cases]
    for case, default in zip(cases, want):
        monkeypatch.setattr(envelope, "BLOCK_BYTES", 8 * case[0].size)
        assert_same(outcome(finite_time, *case), default)


@settings(max_examples=40, deadline=None)
@given(sweep_case(), st.sampled_from([2, 3, 8, 40]))
def test_gap_floor_bounds_every_rate_inside_the_gap(case, width):
    """Gaps of ``width`` grid steps: the entry time at every rate strictly
    inside one, times one plus the pruning margin, is at least its floor."""
    a, theta, delta, step = case
    k_max = int(round(alpha_max(a, step) / step))
    assume(k_max > 2)
    alphas = np.arange(1, k_max + 1) * step
    reach, unreached = _index_sets(a, theta)
    a_vec, b = _neg_inverses(a, alphas, theta, unreached)
    ratio = _min_ratios(a_vec, b, reach, out=np.empty_like(b)) / delta
    t = np.log(np.maximum(ratio, 1.0)) / alphas[:, None]
    ends = np.unique(np.r_[np.arange(0, k_max, width), k_max - 1])
    lo, hi = ends[:-1], ends[1:]
    floor = _gap_floor(a_vec[lo], b[:, :, hi], reach, alphas[hi], delta)
    inside = np.setdiff1d(np.arange(k_max), ends)
    gap = np.searchsorted(hi, inside)
    assert (t[inside] * (1.0 + _LOG_SCREEN_RTOL) >= floor[gap]).all()


@pytest.mark.parametrize("a, theta", [
    ([[-2.0, 1.0], [1.0, -2.0]], [1.0, 0.0]),
    ([[-2.0]], [1.0]),
    ([[-2.0, 1.0, 0.0], [0.0, -2.0, 1.0], [1.0, 0.0, -2.0]], [0.0, 0.0, 1.0]),
    ([[-2.0, 1.0], [0.0, -2.0]], [1.0, 1.0]),           # 2 does not reach 1
    ([[-2.0, 1.0], [1.0, -2.0]], [0.0, 0.0]),           # a = 0
    ([[-2.0, 1.0], [-1e-13, -2.0]], [1.0, 1.0]),        # a tiny negative entry
], ids=["coupled", "scalar", "cycle", "reducible", "zero-theta", "negative-entry"])
def test_prunable_needs_positive_n_and_a(a, theta):
    """Every grid is pruned; the floors need the index sets of ``N = -inv(A
    + alpha I)`` and ``a = N theta``, which ``_index_sets`` takes from the
    graph of ``A``.  At every admissible rate, ``N`` is positive exactly
    where the mask holds and ``a`` exactly where the support of ``theta``
    reaches; a negative entry, however small, is no edge."""
    reach, unreached = _index_sets(np.array(a), np.array(theta))
    for alpha in (0.25, 0.5, 0.75):
        shifted = np.array(a) + alpha * np.eye(len(a))
        n_exact = fraction_neg_inverse(shifted)
        a_exact = [sum(v * Fraction(t) for v, t in zip(row, theta)) for row in n_exact]
        assert reach[:, :, 0].tolist() == [[v > 0 for v in row] for row in n_exact]
        assert (~unreached).tolist() == [v > 0 for v in a_exact]


def test_reducible_system_with_a_vanishing_factor_certifies():
    """Component 3 of this reducible system has ``theta = 0`` and is reached
    from no other component, so its ``a`` vanishes and so does its factor:
    it is inside its box from t = 0.  Computed, that ``a`` rounds below
    zero at scattered rates of the grid (k = 2, 3, 5, ...) and would make
    the factor negative, so the sweep sets it to 0.  Each
    component's envelope at its chosen rate bounds the exact flow from
    ``theta``, and the flow is in the box after the component's time."""
    a0 = np.array([[-0.82703602052534, 0.8757445027640773, 0.509970796133141, 0.0],
                   [0.0, -1.4781097662805465, 0.0, 0.8863188504787867],
                   [0.0, 0.0, -0.3685683670628046, 0.0],
                   [0.6064078164849519, 0.6590523743997361, 0.504067246065619,
                    -1.869019816327096]])
    step = 1e-4
    a = a0 - (a0[2, 2] + (7286 + 0.5) * step) * np.eye(4)
    theta = np.array([0.8497695747555352, 1.2254014086871803, 0.0, 0.3129002844201616])
    delta = np.array([0.060892925697237435, 0.9292984356046446, 0.47554026449019665,
                      0.28472489786602706])
    res = finite_time(a, theta, delta, step)
    assert res.per_component_T[2] == 0.0
    assert_same(("ok", res), outcome(finite_time_blocked, a, theta, delta, step))
    gamma = np.array([gamma_component(a, alpha, theta, i)
                      for i, alpha in enumerate(res.per_component_alpha)])
    for t in np.linspace(0.0, 3.0 * res.T, 61):
        u = expm(a * t) @ theta
        assert (u <= gamma * np.exp(-res.per_component_alpha * t) * (1.0 + 1e-9) + 1e-12).all()
        inside = t >= res.per_component_T
        assert (u[inside] <= delta[inside] * (1.0 + 1e-9)).all()


def test_error_met_by_the_pruned_sweep_is_raised_by_it(monkeypatch):
    """Members made singular from alpha = 0.5 on: the first round of the
    pruned sweep, which evaluates the top rate of each part of the grid up
    to the last, meets one and raises it, naming the round's rates."""
    a = np.array([[-2.0, 1.0], [1.0, -2.0]])
    real = envelope.inverse

    def failing(stack):
        if (stack[:, 0, 0] - a[0, 0] >= 0.5).any():
            raise SingularMatrix("made singular")
        return real(stack)

    monkeypatch.setattr(envelope, "inverse", failing)
    with pytest.raises(DecayRateTooLarge,
                       match=r"^alpha in \[0\.0099, 0\.9999\]: shifted matrix singular$"):
        finite_time(a, [1.0, 1.0], [0.5, 0.5], 1e-4)


# the exceptions the members-first code raised, type, message and cause
ERROR_CASES = {
    "singular-member-exact": (
        _envelope_factors, (np.array([[-1.0]]), np.array([0.5, 1.0, 1.5]), np.ones(1)),
        (DecayRateTooLarge, "alpha in [0.5, 1.5]: shifted matrix singular",
         SingularMatrix, "exactly singular in stack member 1")),
    "member-not-hurwitz": (
        gamma_component, ([[-1.0]], 2.0, [1.0], 0),
        (DecayRateTooLarge, "alpha=2.0: shifted matrix not Hurwitz", type(None), None)),
    "non-finite-member": (
        _envelope_factors, (np.array([[1e308]]), np.array([1e308]), np.ones(1)),
        (ValueError, "matrix contains non-finite entries", type(None), None)),
    "not-hurwitz": (
        alpha_max, ([[1.0]], 1e-3),
        (NotStable, "matrix is not Hurwitz, no positive decay rate exists", type(None), None)),
    "not-metzler": (
        alpha_max, ([[-1.0, -0.5], [0.0, -1.0]], 1e-3),
        (NotMetzler, "off-diagonal entry -0.5 is negative", type(None), None)),
    "not-square": (
        alpha_max, ([[-1.0, 0.0]], 1e-3),
        (NotMetzler, "matrix must be square, got (1, 2)", type(None), None)),
    "bad-step": (
        alpha_max, ([[-1.0]], 0.0),
        (ValueError, "step must be positive and finite, got 0.0", type(None), None)),
}


@pytest.mark.parametrize("case", list(ERROR_CASES))
def test_errors_equal_members_first_code(case):
    """Each case raises what the members-first code raised, now pinned."""
    fn, args, want = ERROR_CASES[case]
    # "non-finite-member"'s shift 1e308 + 1e308 overflows, with a warning
    with np.errstate(over="ignore"):
        got = outcome(fn, *args)
    assert got == ("raised", want)


def test_stiff_diagonal_is_certified():
    """``diag(-1e13, -1)`` is Hurwitz with margin 1 and has the 1-norm
    condition 1e13: the witness proves every rate of the grid, whatever the
    condition, and both components reach their box at the last one."""
    a = np.diag([-1e13, -1.0])
    assert is_metzler_hurwitz(a)
    res = finite_time(a, [1.0, 1.0], [0.5, 0.5], 1e-3)
    assert res.per_component_alpha.tolist() == [0.999, 0.999]
    assert res.T == math.log(2.0) / 0.999


def test_margin_just_past_a_grid_rate_is_searched_to_it():
    """The margin of ``A`` lies one ulp past the grid rate 0.002, where the
    1-norm condition of ``A + 0.002 I`` is 1.8e18: the witness proves that
    rate, so the search returns it and the sweep enters its box there."""
    a = np.diag([-np.nextafter(0.002, 1.0), -0.785])
    assert alpha_max(a, 1e-3) == 0.002
    assert hurwitz_exact(a + 0.002 * np.eye(2))
    res = finite_time(a, [1.0, 1.0], [0.5, 0.25], 1e-3)
    assert res.T == math.log(4.0) / 0.002


@pytest.mark.parametrize("a", [[[-1.7e308]], -1.7e308 * np.eye(2)], ids=["1x1", "2x2"])
def test_overflowing_shift_ends_the_margin_search(a):
    # the shift by 2e308 overflows to a +inf diagonal, which fails the
    # diagonal test; the members-first code raised on it instead
    assert alpha_max(a, 1e308) == 1e308


def test_overflowing_shift_ends_the_sweep_grid():
    res = finite_time([[-1.7e308]], [1.0], [0.5], 1e308)
    assert res.per_component_alpha.tolist() == [1e308]
    assert res.T == math.log(2.0) / 1e308 == 6.931471805599453e-309


# the verdict, or the exception, of the members-first code; its condition
# threshold refused "overflowing-norm", whose eigenvalues are -0.5e308 and
# -2.5e308.  "ill-conditioned" has the eigenvalue 1.1e-16.
HURWITZ_CASES = {
    "hurwitz": ([[-1.0, 0.5], [0.2, -1.0]], True),
    "singular": ([[0.0]], False),
    "unstable": ([[1.0]], False),
    "ill-conditioned": ([[-1.0 + 2.0**-53, 1.0], [1.0, -1.0 + 2.0**-53]], False),
    "overflowing-norm": ([[-1.5e308, 1e308], [1e308, -1.5e308]], True),
    "not-metzler": ([[-1.0, -0.5], [0.0, -1.0]],
                    (NotMetzler, "off-diagonal entry -0.5 is negative", type(None), None)),
    "not-square": ([[-1.0, 0.0]], (NotMetzler, "matrix must be square, got (1, 2)",
                                   type(None), None)),
    "non-finite": ([[-np.inf]], (ValueError, "A contains non-finite entries", type(None), None)),
}


@pytest.mark.parametrize("case", list(HURWITZ_CASES))
def test_hurwitz_test_equals_members_first_code(case):
    """Each verdict is the exact one, and is what the members-first code
    gave but where its condition threshold refused a Hurwitz matrix."""
    m, want = HURWITZ_CASES[case]
    if isinstance(want, bool):
        assert is_metzler_hurwitz(m) is want
        assert hurwitz_exact(m) is want
    else:
        assert outcome(is_metzler_hurwitz, m) == ("raised", want)


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
    """``inverse`` equals ``np.linalg.inv`` of the stack copied members
    first, bit for bit, or names the first member LAPACK finds singular."""
    try:
        want = np.linalg.inv(np.ascontiguousarray(stack))
    except np.linalg.LinAlgError:
        singular = [j for j, m in enumerate(stack.reshape(-1, *stack.shape[-2:]))
                    if np.linalg.slogdet(m).sign == 0]
        member = f" in stack member {singular[0]}" if stack.ndim == 3 else ""
        assert outcome(inverse, stack) == \
            ("raised", (SingularMatrix, "exactly singular" + member, type(None), None))
    else:
        assert_same(outcome(inverse, stack), ("ok", want))
