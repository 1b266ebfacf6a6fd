"""Property tests: the stacked inverse, the logarithmic margin search and
the blocked decay-rate sweep against the one-matrix-at-a-time oracles; the
Hurwitz witness test against eigenvalues and exact arithmetic; the
screened entry-time choice against an exact log at every rate; emitted
certificates against numpy.linalg, and their contraction factor against
all three ratio families; the scaled run's members against single runs
and against superposition; the windowed simulator against the per-step
one; a signal's samples and its scalar path against the one-signal
formula; the scenario check on a preset's parameters against dense
sampling and the preset's analytic extremes; the CSV encoder against
Python's "%.9g"."""

import math
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings, strategies as st

from cdde_bound import certificate, stability
from cdde_bound.certificate import (MU_SAFETY, CertificateError, compute_certificate,
                                    raw_contraction_factor)
from cdde_bound.csvio import _encode
from cdde_bound.envelope import _block_entry_times, finite_time
from cdde_bound.linalg import SingularMatrix, inverse
from cdde_bound.model import SystemSpec
from cdde_bound.signals import SIGNAL_KINDS, InvalidScenario, validate_scenario
from cdde_bound.simulator import SignalSpec, _simulate, simulate, simulate_corners
from cdde_bound.stability import alpha_max

import oracles
from conftest import make_sample_scenario, make_sample_system
from oracles import (alpha_max_scan, block_entry_times_all_logs, csv_rows_fstring,
                     finite_time_loop, hurwitz_exact, inverse_by_columns, scaled_members,
                     signal_values, simulate_stepwise)

SEEDS = st.integers(0, 2**32 - 1)
UNIT = st.floats(0.0, 1.0)
# History scales of at least 1/2 keep y(0) - phi(0) away from zero on the
# sample, so every member starts with a y jump and all share one jump list.
# A member that is continuous where another jumps gets extra knots and split
# steps, and then agrees only to the integrator's truncation error.
HISTORY = st.floats(0.5, 1.0)
SAMPLE = make_sample_system()
EPS = np.finfo(float).eps


def placed_case(n: int, seed: int, step: float, k: int, offset: float) -> tuple:
    """Random n x n Metzler matrix shifted so its spectral abscissa is
    -(k + offset) * step, with the step, k, offset and the generator that
    drew it."""
    rng = np.random.default_rng(seed)
    off = rng.uniform(0.0, 1.0, (n, n)) * (rng.uniform(size=(n, n)) < 0.6)
    np.fill_diagonal(off, 0.0)
    a0 = off - np.diag(rng.uniform(0.0, 2.0, n))
    abscissa = np.linalg.eigvals(a0).real.max()
    a = a0 - (abscissa + (k + offset) * step) * np.eye(n)
    return a, step, k, offset, rng


@st.composite
def placed_margin(draw):
    """``placed_case`` with the margin on the alpha grid or half a step off it."""
    return placed_case(draw(st.integers(1, 6)), draw(SEEDS),
                       draw(st.sampled_from([1e-3, 1e-2, 0.05])), draw(st.integers(1, 120)),
                       draw(st.sampled_from([0.0, 0.5])))


@settings(max_examples=80, deadline=None)
@given(placed_margin())
def test_alpha_max_equals_linear_scan(case):
    """The search returns what the linear scan with the same predicate
    returns, a rate at which ``A + alpha I`` is Hurwitz in exact arithmetic,
    and, with the margin half a step past ``k * step``, that rate."""
    a, step, k, offset, _ = case
    got = alpha_max(a, step)
    assert got == alpha_max_scan(a, step)
    assert hurwitz_exact(a + got * np.eye(len(a)))
    if offset:
        assert got == k * step


def _failing_eigvals(_):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


def _scaled_eigvals(factor):
    real = np.linalg.eigvals
    return lambda m: factor * real(m)


# the margin search started from a failed, a NaN, a far and a near estimate
EIGVALS = {
    "linalg-error": _failing_eigvals,
    "nan": lambda m: np.full(len(m), np.nan),
    "ten-times": _scaled_eigvals(10.0),
    "tenth": _scaled_eigvals(0.1),
}


@pytest.mark.parametrize("start", list(EIGVALS))
@settings(max_examples=40, deadline=None)
@given(case=placed_margin())
def test_alpha_max_from_any_start_equals_linear_scan(start, case):
    a, step, _, _, _ = case
    with mock.patch.object(stability.np.linalg, "eigvals", EIGVALS[start]):
        got = alpha_max(a, step)
    assert got == alpha_max_scan(a, step)


def log_gamma_rounding(a: np.ndarray, theta: np.ndarray, alpha: float, i: int) -> float:
    """A first-order bound on the rounding of ``log gamma_i`` at the rate
    alpha, for ``-inv(A + alpha I)`` formed from one pivoted LU, column by
    column or at once: each column solve is backward stable with ``|dM| <=
    3 n u |P L| |U|`` (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2002, Thm. 9.4), so ``|dN| <= 3 n u K N`` with ``K = N |P
    L| |U|``, and every ratio ``a_j / b_j`` that can set gamma moves by at
    most ``3 n u ((K a)_j / a_j + (K b)_j / b_j)`` relative, both terms at
    least 1, which covers the rounding of the product ``a = N theta`` and of
    the ratio too.  Here ``u = eps / 2``, and the bound takes ``eps``."""
    n = len(a)
    m = a + alpha * np.eye(n)
    p, low, up = scipy.linalg.lu(m)
    neg_inv = -np.linalg.inv(m)
    k_mat = np.abs(neg_inv) @ np.abs(p @ low) @ np.abs(up)
    av, b = neg_inv @ theta, neg_inv[:, i]
    j = b > 0.0
    return 3 * n * EPS * float(((k_mat @ av)[j] / av[j] + k_mat[:, i][j] / b[j]).max())


@settings(max_examples=60, deadline=None)
@given(placed_margin())
# a draw that read 3.1e-12 relative in T against the loop at rtol 1e-12:
# gamma_0 at the one rate 1e-3 of a margin of 1.5e-3, with A + alpha I of
# condition 1.9e4, so log(gamma / delta) = 0.0742 carries a rounding of
# 2.3e-13 between the two inversions
@example(case=placed_case(5, 325, 1e-3, 1, 0.5))
# a draw whose exact inverse has zeros (A's second row is diagonal only)
# that rounding puts at 1.6e-12, above an absolute sign margin of 1e-12
@example(case=placed_case(4, 42, 1e-3, 1, 0.5))
def test_finite_time_equals_per_rate_loop(case):
    """Per component, the same rate, exactly, and the same ``alpha T =
    log(gamma / delta)`` (or 0) to the rounding of gamma in either
    inversion (``log_gamma_rounding``): a difference at the rounding of
    gamma is 1 / (alpha T) times larger in T, relative."""
    a, step, k, offset, rng = case
    if k == 1 and not offset:
        return              # the oracle needs a nonempty grid
    n = a.shape[0]
    theta = rng.uniform(0.1, 2.0, n)
    delta = theta * rng.uniform(0.05, 1.2, n)
    got = finite_time(a, theta, delta, step)
    want = finite_time_loop(a, theta, delta, step)
    assert np.array_equal(got.per_component_alpha, want.per_component_alpha)
    for i, alpha in enumerate(got.per_component_alpha):
        log_got, log_want = alpha * got.per_component_T[i], alpha * want.per_component_T[i]
        tol = 2.0 * log_gamma_rounding(a, theta, alpha, i) + 4.0 * EPS * log_want
        assert abs(log_got - log_want) <= tol
    assert got.T == got.per_component_T.max()


def _tie_ratio(t0: float, alpha: float) -> float | None:
    """A ratio r with math.log(r) / alpha == t0 exactly, found by walking
    from exp(t0 * alpha) one ulp at a time; None if the walk misses it."""
    r = math.exp(t0 * alpha)
    for _ in range(32):
        t = math.log(r) / alpha
        if t == t0:
            return r
        r = float(np.nextafter(r, np.inf if t < t0 else -np.inf))
    return None


@st.composite
def entry_grid(draw):
    """Envelope factors (G, n) over the rates k * step, k = 1..G, with
    columns that hold the cases the log screen must keep: exact ties between
    rates, ratios of 1 and 1 + k ulp, and a component already inside its
    target box (t = 0 at every rate)."""
    rng = np.random.default_rng(draw(SEEDS))
    g, n = draw(st.integers(1, 40)), draw(st.integers(1, 4))
    alphas = np.arange(1, g + 1) * draw(st.sampled_from([1e-3, 0.05, 0.3]))
    # powers of two, so gamma / dlt gives each ratio back exactly
    dlt = 2.0 ** rng.integers(-3, 4, n).astype(float)
    ratio = np.exp(rng.uniform(-0.5, 5.0, (g, n)))
    for i in range(n):
        kind = draw(st.sampled_from(["random", "ulps", "ties", "inside"]))
        if kind == "ulps":
            ratio[:, i] = 1.0 + rng.integers(0, 5, g) * np.spacing(1.0)
        elif kind == "inside":
            ratio[:, i] = np.where(rng.uniform(size=g) < 0.3, 1.0, rng.uniform(0.1, 1.0, g))
        elif kind == "ties":
            # every rate that can reach the time of row g0 exactly ties with
            # it; the others enter later
            g0 = int(rng.integers(g))
            t0 = math.log(ratio[g0, i] + 3.0) / alphas[g0]
            for row, alpha in enumerate(alphas):
                tie = _tie_ratio(t0, alpha)
                ratio[row, i] = tie if tie is not None else 1.5 * math.exp(t0 * alpha)
    return ratio * dlt, dlt, alphas


def _tie_rounded_apart():
    """Rates 1 and 2 whose entry times tie exactly under math.log, where
    np.log puts the first, which must win, an ulp above the second.  The two
    logs differ on about 1 in 1000 ratios below e; where this platform's
    logs agree on every sampled ratio, a plain tie is returned."""
    r = np.exp(np.random.default_rng(0).uniform(0.0, 1.0, 1 << 12))
    for r1 in r[np.log(r) > np.fromiter(map(math.log, r), float)].tolist():
        r2 = _tie_ratio(math.log(r1), 2.0)
        if r2 is not None and np.log(r2) / 2.0 == math.log(r1):
            return np.array([[r1], [r2]]), np.ones(1), np.array([1.0, 2.0])
    return np.array([[2.0], [4.0]]), np.ones(1), np.array([1.0, 2.0])


@settings(max_examples=200, deadline=None)
@given(entry_grid())
@example(_tie_rounded_apart())
def test_log_screen_keeps_the_exact_choice(case):
    gamma, dlt, alphas = case
    got_first, got_t = _block_entry_times(gamma, dlt, alphas)
    want_first, want_t = block_entry_times_all_logs(gamma, dlt, alphas)
    assert np.array_equal(got_first, want_first)
    assert np.array_equal(got_t, want_t)


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


@st.composite
def metzler_stack(draw):
    """A stack (G, n, n) of Metzler matrices on one off-diagonal pattern,
    dense, or sparse and reducible (edges only within a block or from a
    lower block to a higher one), each member's diagonal scaled by a factor
    in 1e-13...1e13 and spread over two decades, mostly negative."""
    n, g = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(SEEDS))
    pattern = ~np.eye(n, dtype=bool)
    if draw(st.sampled_from(["dense", "sparse reducible"])) == "sparse reducible":
        block = rng.integers(0, 3, n)
        pattern &= (block[:, None] >= block[None, :]) & (rng.uniform(size=(n, n)) < 0.6)
    stack = rng.uniform(0.0, 1.0, (g, n, n)) * pattern
    scale = 10.0 ** (rng.uniform(-13.0, 13.0, (g, 1)) + rng.uniform(-1.0, 1.0, (g, n)))
    sign = np.where(rng.uniform(size=(g, n)) < 0.85, -1.0, 1.0)
    stack[:, np.arange(n), np.arange(n)] = sign * scale
    return stack


@settings(max_examples=300, deadline=None)
@given(metzler_stack())
def test_hurwitz_predicate_agrees_with_eigenvalues(stack):
    """The one Hurwitz predicate against ``max Re eig < 0`` on each member
    whose spectral abscissa is away from 0 by more than 1e-6 of the largest
    entry and whose 1-norm condition is below 1e6, where rounding cannot
    move either answer."""
    abscissa = np.array([np.linalg.eigvals(m).real.max() for m in stack])
    scale = np.abs(stack).max(axis=(1, 2))
    clear = np.abs(abscissa) > 1e-6 * scale
    clear &= np.array([np.linalg.cond(m, 1) for m in stack]) < 1e6
    if not clear.any():
        return
    hurwitz = [stability._hurwitz(m) for m in stack[clear]]
    assert hurwitz == (abscissa[clear] < 0.0).tolist()


def exact_product(M, v) -> list[Fraction]:
    """``M v`` in exact arithmetic on the float entries of ``M`` and ``v``."""
    return [sum(Fraction(float(m)) * Fraction(float(x)) for m, x in zip(row, v)) for row in M]


def random_metzler(rng: np.random.Generator, n: int, density: float) -> np.ndarray:
    """Off-diagonal entries in [0, 1) with the given density, diagonal in (-2, 0]."""
    a = rng.uniform(0.0, 1.0, (n, n)) * (rng.uniform(size=(n, n)) < density)
    np.fill_diagonal(a, -rng.uniform(0.0, 2.0, n))
    return a


@settings(max_examples=300, deadline=None)
@given(SEEDS, st.integers(1, 6), st.sampled_from([0.3, 1.0]), st.floats(-13.0, 13.0),
       st.sampled_from([-0.1, -1e-6, -1e-9, -1e-12, -1e-15, 0.0, 1e-15, 1e-12, 1e-9]))
def test_hurwitz_passes_are_exact(seed, n, density, exponent, offset):
    """Random Metzler matrices scaled by 10^-13...10^13 and shifted so that
    their computed spectral abscissa is ``offset`` times their largest
    entry: every pass of the one Hurwitz predicate has a float witness
    ``v`` with ``v > 0`` and ``M v < 0`` in exact arithmetic.  Well inside
    the margin, the predicate passes."""
    rng = np.random.default_rng(seed)
    a = random_metzler(rng, n, density) * 10.0 ** exponent
    scale = np.abs(a).max()
    m = a + (offset * scale - np.linalg.eigvals(a).real.max()) * np.eye(n)
    seen, real = [], stability._is_witness

    def spy(M, v):
        seen.append((M, v, real(M, v)))
        return seen[-1][2]

    with mock.patch.object(stability, "_is_witness", spy):
        passed = stability.is_metzler_hurwitz(m)
    assert passed == any(verdict for _, _, verdict in seen)
    for M, v, verdict in seen:
        if verdict:
            assert np.array_equal(M, m) and (v > 0.0).all()
            assert all(r < 0 for r in exact_product(M, v))
    if offset <= -1e-6:
        assert passed


@settings(max_examples=400, deadline=None)
@given(SEEDS, st.integers(1, 6), st.one_of(st.floats(-15.0, 15.0), st.floats(-322.0, -300.0)),
       st.floats(-100.0, 100.0), st.sampled_from([-1e-6, -1e-13, -1e-15, -1e-16, 0.0, 1e-16]))
def test_witness_test_is_exact_within_rounding_of_zero(seed, n, mv_exp, tilt, offset):
    """Pairs ``(M, v)`` whose float product is 0 up to rounding, with each
    diagonal entry then moved by ``offset`` times itself: the exact sign of
    ``M v`` is what rounding makes of it, and the witness test passes only
    where it is negative.  ``M`` is scaled by ``10^(mv_exp / 2 + tilt)``
    and ``v`` by ``10^(mv_exp / 2 - tilt)``, so their products reach down
    into the subnormals."""
    rng = np.random.default_rng(seed)
    m = random_metzler(rng, n, 1.0) * 10.0 ** (mv_exp / 2.0 + tilt)
    v = rng.uniform(0.5, 2.0, n) * 10.0 ** (mv_exp / 2.0 - tilt)
    m[np.diag_indices(n)] -= (m @ v) / v
    m[np.diag_indices(n)] *= 1.0 - offset
    if stability._is_witness(m, v):
        assert all(r < 0 for r in exact_product(m, v))


@settings(max_examples=100, deadline=None)
@given(SEEDS, st.integers(1, 6), st.sampled_from([0.3, 1.0]), st.floats(-13.0, 13.0),
       st.one_of(st.integers(1, 40).map(float), st.floats(1.5, 40.0)))
def test_margin_witness_covers_every_grid_rate(seed, n, density, exponent, steps):
    """The witness of ``alpha_max``'s last passing index ``k_max``, the row
    sums of ``-inv(A + k_max step I)``, proves every rate of the sweep's
    grid Hurwitz: ``fl(A + k step I) v < 0`` in exact arithmetic for each
    ``k <= k_max``, with the stack built as ``envelope._neg_inverses``
    builds it.  Margins fall on the grid and off it."""
    rng = np.random.default_rng(seed)
    a = random_metzler(rng, n, density)
    a -= (np.linalg.eigvals(a).real.max() + rng.uniform(0.05, 1.0)) * np.eye(n)
    a *= 10.0 ** exponent
    step = -np.linalg.eigvals(a).real.max() / steps
    k_max = int(round(alpha_max(a, step) / step))
    eye = np.eye(n)
    top = a + (k_max * step) * eye
    with np.errstate(all="ignore"):
        assert stability._hurwitz(top)
    v = -inverse(top).sum(axis=1)
    alphas = np.arange(k_max + 1) * step
    shifted = eye[:, :, None] * alphas
    shifted += a[:, :, None]
    for k in range(k_max + 1):
        assert np.array_equal(shifted[:, :, k], a + (k * step) * eye)
        assert all(r < 0 for r in exact_product(shifted[:, :, k], v))


@st.composite
def admissible_system(draw, d_shapes=st.just("sparse"), loads=st.floats(0.05, 0.95)):
    """Random admissible system, n <= 6, m <= 3, built around a positive
    vector v = (p, q) with [[A, B], [C, D - I]] v < 0: the diagonal of A
    absorbs the x rows, and C, D are scaled so that C p + D q <= load * q
    with equality in some row.  ``D`` is sparse, sparse with rows of zeros,
    or zero, as ``d_shapes`` draws; a load of 1 or more, as ``loads`` may
    draw, gives a system at or past the edge of the class."""
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(SEEDS))

    def sparse(rows, cols):
        return rng.uniform(0.0, 1.0, (rows, cols)) * (rng.uniform(size=(rows, cols)) < 0.7)

    p, q = rng.uniform(0.5, 2.0, n), rng.uniform(0.5, 2.0, m)
    A, B, C, D = sparse(n, n), sparse(n, m), sparse(m, n), sparse(m, m)
    d_shape = draw(d_shapes)
    if d_shape == "zero rows":
        D[rng.uniform(size=m) < 0.5] = 0.0
    elif d_shape == "zero":
        D[:] = 0.0
    np.fill_diagonal(A, 0.0)
    np.fill_diagonal(A, -(A @ p + B @ q + rng.uniform(0.05, 1.0, n) * p) / p)
    load = (C @ p + D @ q) / q
    if load.max() > 0.0:
        shrink = draw(loads) / load.max()
        C, D = C * shrink, D * shrink
    return SystemSpec(A=A, B=B, C=C, D=D, h_max=draw(st.floats(0.0, 2.0)),
                      omega_bar=rng.uniform(0.0, 1.0, n), d_bar=rng.uniform(0.0, 1.0, m),
                      psi_bar=rng.uniform(0.0, 5.0, n), phi_bar=rng.uniform(0.0, 5.0, m))


@settings(max_examples=60, deadline=None)
@given(admissible_system())
def test_certificate_holds_against_numpy(spec):
    A, B, C, D, m = spec.A, spec.B, spec.C, spec.D, spec.m
    cert = compute_certificate(spec, alpha_step=1e-2)
    p, q, keep = cert.p, cert.q, 1.0 - cert.mu
    families = [(-np.linalg.solve(A, B @ q), p),
                (np.linalg.solve(np.eye(m) - D, C @ p), q),
                (C @ p + D @ q, q)]
    for lhs, rhs in families:
        assert (lhs <= keep * rhs).all()
    # mu is never raised above the safety-scaled raw factor; the two raw
    # factors differ by the solvers' rounding only
    raw = 1.0 - max(float((lhs / rhs).max()) for lhs, rhs in families)
    assert cert.mu <= MU_SAFETY * raw + 1e-12
    coupling = np.block([[A, B], [C, D - np.eye(m)]])
    want = np.linalg.solve(coupling, -np.concatenate([spec.omega_bar, spec.d_bar]))
    got = np.concatenate([cert.eta, cert.varsigma])
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12 * np.abs(want).max())


@settings(max_examples=200, deadline=None)
@given(admissible_system(st.sampled_from(["sparse", "zero rows", "zero"]),
                         st.one_of(st.floats(0.05, 0.95), st.floats(0.95, 1.5),
                                   st.sampled_from([1.0 - 1e-9, 1.0]))))
def test_dropped_m2_family_never_moves_mu(spec):
    """The contraction factor from two ratio families is the one from all
    three, bit for bit: in the certificate, or in the stage that refuses
    it, and directly on the certificate's pair."""

    def outcome():
        try:
            return compute_certificate(spec, alpha_step=1e-2)
        except CertificateError as exc:
            return exc.stage

    got = outcome()
    with mock.patch.object(certificate, "raw_contraction_factor", oracles.raw_contraction_factor):
        want = outcome()
    if isinstance(got, str) or isinstance(want, str):
        assert got == want
        return
    assert np.float64(got.mu).tobytes() == np.float64(want.mu).tobytes()
    raw = raw_contraction_factor(spec, got.p, got.q)
    assert np.float64(raw).tobytes() == \
        np.float64(oracles.raw_contraction_factor(spec, got.p, got.q)).tobytes()


def sample_run(a, b, psi_scale=1.0, phi_scale=1.0):
    """The sample's rectified-sine scenario with its time-varying delays,
    on a horizon that holds the first jump generations."""
    return make_sample_scenario(SAMPLE, a, b, t_end=4.0, step=1e-2,
                                psi=psi_scale * SAMPLE.psi_bar,
                                phi=phi_scale * SAMPLE.phi_bar)


@settings(max_examples=15, deadline=None)
@given(UNIT, HISTORY, st.lists(st.tuples(UNIT, UNIT), min_size=1, max_size=4))
def test_batch_member_equals_its_single_run(psi_scale, phi_scale, scales):
    scenario = sample_run(1.0, 1.0, psi_scale, phi_scale)
    for (a, b), got in zip(scales, _simulate(scenario, scales)):
        want = simulate(sample_run(a, b, psi_scale, phi_scale))
        assert np.abs(got.x_samples - want.x_samples).max() <= 1e-12
        assert np.abs(got.y_samples - want.y_samples).max() <= 1e-12


@settings(max_examples=15, deadline=None)
@given(UNIT, UNIT, UNIT, HISTORY)
def test_superposed_corners_equal_direct_run(a, b, psi_scale, phi_scale):
    free, omega, dist = simulate_corners(sample_run(1.0, 1.0, psi_scale, phi_scale))
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
    """One sample-system scenario with random delays on a coarse grid, and
    its members' scales of omega and d.  The scenario may be at rest (psi =
    phi = 0), and an optional member (0, 0) of it then has no jump of its
    own, so the run's union jump list differs from its own."""
    step = draw(st.sampled_from([1.0 / 128.0, 0.01, 0.02]))
    h1, h2 = draw(delay(step)), draw(delay(step))
    t_end = draw(st.floats(0.5, 3.0))
    psi, phi = (0.0, 0.0) if draw(st.booleans()) else (draw(UNIT), draw(UNIT))
    scales = draw(st.lists(st.tuples(UNIT, UNIT), min_size=1, max_size=3))
    if draw(st.booleans()):
        scales.insert(draw(st.integers(0, len(scales))), (0.0, 0.0))
    scenario = replace(make_sample_scenario(SAMPLE, 1.0, 1.0, t_end=t_end, step=step,
                                            psi=psi * SAMPLE.psi_bar, phi=phi * SAMPLE.phi_bar),
                       h1=h1, h2=h2)
    return scenario, scales


@settings(max_examples=40, deadline=None)
@given(delay_batch())
def test_windowed_run_equals_stepwise_run(case):
    scenario, scales = case
    for got, want in zip(_simulate(scenario, scales),
                         simulate_stepwise(scaled_members(scenario, scales))):
        assert np.array_equal(got.times, want.times)
        for name in ("x_samples", "y_samples"):
            ref = getattr(want, name)
            assert np.abs(getattr(got, name) - ref).max() <= 1e-12 * np.abs(ref).max()


def ulps_from(x: float, d: int) -> float:
    """x moved by d units in the last place."""
    return float((np.array(x).view(np.int64) + d).view(np.float64))


# every cell kind the encoder treats apart: NaN, infinities, signed zeros,
# subnormals, powers of ten a few ulp off (where floor(log10) can be off by
# one), exact binary fractions (exact decimal ties among them) and any double
CSV_CELLS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0]),
    st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308),
    st.builds(lambda k, d, s: s * ulps_from(10.0 ** k, d), st.integers(-300, 300),
              st.integers(-3, 3), st.sampled_from([1.0, -1.0])),
    st.builds(lambda m, j: m / 2.0 ** j, st.integers(-10 ** 12, 10 ** 12), st.integers(0, 16)),
    st.floats(-1e3, 1e3),
    st.floats(),
)


@st.composite
def csv_block(draw):
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 40))
    cells = draw(st.lists(CSV_CELLS, min_size=rows * cols, max_size=rows * cols))
    return np.array(cells, dtype=float).reshape(rows, cols)


@settings(max_examples=100, deadline=None)
@given(csv_block())
def test_csv_encoder_equals_fstring(block):
    assert _encode(block) == csv_rows_fstring(block)


# frequencies members share or not, zero, negative, and one whose phase
# overflows to inf (a NaN value) beyond t = 1.8
FREQS = st.sampled_from([0.0, -0.0, 0.1, 0.2, 0.3, -0.5, 40.0, 1e308])


@st.composite
def signal_batch(draw):
    dim = draw(st.integers(1, 3))
    members = []
    for _ in range(draw(st.integers(1, 5))):
        sig = SignalSpec(draw(st.sampled_from(SIGNAL_KINDS)),
                         tuple(draw(st.lists(st.floats(-3.0, 3.0), min_size=dim, max_size=dim))),
                         tuple(draw(st.lists(FREQS, min_size=dim, max_size=dim))),
                         draw(st.floats(-3.0, 3.0)))
        scale = draw(st.sampled_from([None, 0.0, 0.5]))
        members.append(sig if scale is None else sig.scaled(scale))
    times = np.array(draw(st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=20)))
    return members, times


@settings(max_examples=200, deadline=None)
@given(signal_batch())
def test_signal_batch_equals_member_samples(case):
    # each signal's sample is the one-signal formula, bit for bit
    members, times = case
    for sig in members:
        got, want = sig.sample(times), signal_values(sig, times)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(SIGNAL_KINDS), st.floats(-3.0, 3.0), FREQS, st.floats(-3.0, 3.0),
       st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=50))
def test_scalar_delay_path_equals_sample(kind, amp, freq, offset, times):
    sig = SignalSpec(kind, (amp,), (freq,), offset)
    with np.errstate(over="ignore", invalid="ignore"):
        got = np.array([sig.scalar(t) for t in times])
    want = sig.sample(np.array(times))[:, 0]
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def preset_extremes(sig) -> list[list[float]]:
    """Each component's values at the extremes of its wave: |sin(f t)| and
    |cos(f t)| reach 0 and 1 when f != 0, and stay at |sin 0| = 0 and
    |cos 0| = 1 when f = 0; ``constant`` has the wave 1, ``zero`` the value
    0.  Python floats, one component at a time."""
    out = []
    for a, f in zip(sig.amplitude, sig.frequency):
        if sig.kind in ("zero", "constant"):
            out.append([0.0 if sig.kind == "zero" else a])
            continue
        waves = [0.0, 1.0] if f != 0.0 else [abs(math.sin(0.0) if "sin" in sig.kind
                                                    else math.cos(0.0))]
        offset = sig.offset if sig.kind.startswith("const_plus") else 0.0
        out.append([w * a + offset for w in waves])
    return out


# values at and around zero, the sign boundary, and any others
PRESET_VALUES = st.one_of(st.floats(-3.0, 3.0),
                          st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-12, -1e-12]))


@st.composite
def one_signal_scenario(draw):
    """A scenario whose one field ``field`` holds a random preset, at rest
    elsewhere, on a system with n = m; the field's bar is free, or within
    one ulp of the preset's peak."""
    field = draw(st.sampled_from(["phi", "omega", "d", "h1", "h2"]))
    dim = 1 if field in ("h1", "h2") else draw(st.integers(1, 3))
    sig = SignalSpec(draw(st.sampled_from(SIGNAL_KINDS)),
                     tuple(draw(st.lists(PRESET_VALUES, min_size=dim, max_size=dim))),
                     tuple(draw(st.lists(FREQS, min_size=dim, max_size=dim))),
                     draw(PRESET_VALUES))
    peaks = [max(v) for v in preset_extremes(sig)]
    if draw(st.booleans()):
        bar = [float(np.nextafter(p, draw(st.sampled_from([-np.inf, p, np.inf]))))
               for p in peaks]
    else:
        bar = draw(st.lists(st.floats(0.0, 3.0), min_size=dim, max_size=dim))
    h_max = max(bar[0], 0.0) if field in ("h1", "h2") else draw(st.floats(0.5, 3.0))
    spec = SystemSpec(A=-np.eye(dim), B=np.zeros((dim, dim)), C=np.zeros((dim, dim)),
                      D=np.zeros((dim, dim)), h_max=h_max,
                      **{name: bar if name == field + "_bar" else [0.0] * dim
                         for name in ("omega_bar", "d_bar", "psi_bar", "phi_bar")})
    rest = {"phi": SignalSpec("zero", (0.0,) * dim), "omega": SignalSpec("zero", (0.0,) * dim),
            "d": SignalSpec("zero", (0.0,) * dim), "h1": SignalSpec.constant([0.0]),
            "h2": SignalSpec.constant([0.0])}
    rest[field] = sig
    t_end = draw(st.floats(0.1, 20.0))
    step = draw(st.sampled_from([1e-3, 0.01, 0.1]))
    return field, spec, rest, t_end, step


@settings(max_examples=300, deadline=None)
@given(one_signal_scenario())
def test_scenario_check_equals_dense_sampling(case):
    field, spec, signals, t_end, step = case
    sig = signals[field]
    # the times a run reads: [-h_max, 0] for the history, else the grid's span
    times = (np.linspace(-spec.h_max, 0.0, 2001) if field == "phi"
             else np.linspace(0.0, t_end + step, 2001))
    samples = signal_values(sig, times)
    lo, hi = sig.bounds()
    # the closed-form range holds every sample that is a number
    assert (np.isnan(samples) | ((lo <= samples) & (samples <= hi))).all()
    bar = np.array([spec.h_max]) if field in ("h1", "h2") else getattr(spec, field + "_bar")
    values = [list(col) + ext for col, ext in zip(samples.T, preset_extremes(sig))]
    violation = any(not (0.0 <= v <= b) for col, b in zip(values, bar) for v in col)
    try:
        validate_scenario(spec, psi=np.zeros(spec.n), t_end=t_end, step=step, **signals)
    except InvalidScenario as exc:
        assert violation
        assert str(exc).startswith(f"scenario.{field}")
    else:
        assert not violation
