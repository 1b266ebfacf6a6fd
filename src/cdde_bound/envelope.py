"""Optimized exponential componentwise envelopes for x' = A x.

For a Metzler-Hurwitz ``A``, a decay rate ``alpha`` with ``A + alpha I``
still Hurwitz and an initial box ``0 <= u(0) <= theta_bar``, each component
admits a bound ``u_i(t) <= gamma_i * exp(-alpha t)``.  The tightest factor
for a fixed rate is the infimum of a degree-0 homogeneous rational function
over the positive orthant, which collapses to a finite minimum of ratios:

    gamma_i = min over {j : b_j > 0} of a_j / b_j,

with ``a = -inv(A + alpha I) @ theta_bar`` and ``b`` the i-th column of
``-inv(A + alpha I)``.  Sweeping alpha over a grid and inverting the bound
gives, per component, the earliest certified entry time into a target box,
and the slowest component sets the overall convergence time.

The sweep inverts only the rates that can still hold a component's earliest
entry time.  ``N(alpha) = -inv(A + alpha I)`` grows in every entry with
alpha, so the factors at the two ends of a gap of the grid bound the entry
times at every rate inside it from below; a gap whose bound exceeds every
component's best time so far is never inverted.  The result is the one the
sweep over the whole grid gives, bit for bit, or the error it raises: a
grid on which some entry of ``N`` or ``a = N theta_bar`` vanishes in exact
arithmetic, so that its sign is rounding noise, is swept whole, and so is
one on which the pruned sweep meets an error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import SingularMatrix, as_matrix, as_vector, inverse
from .model import NONNEG_TOL, negative
from .stability import NotStable, _require_metzler, alpha_max, is_metzler_hurwitz

# finite_time evaluates the alpha grid in blocks whose (n, n, G) float64
# arrays take about this many bytes each; about three are alive at once
BLOCK_BYTES = 1 << 18
# each round of finite_time after the first splits the gaps of the alpha grid
# that are still open into this many parts.  Medians of 24 interleaved calls
# (CPU time, one BLAS thread, 2-vCPU host) with 2, 4, 8 and 16 parts: 9.5,
# 8.5, 8.7 and 7.5 ms on the seed-1 n = 30 benchmark system and 8.8, 8.0,
# 8.4 and 8.3 ms on seed 7; 5.2, 4.4, 4.6 and 4.6 ms at n = 10 (seed 1);
# 40, 40, 42 and 49 ms on the sample at alpha_step 1e-6 and 261, 248, 280
# and 321 ms on the seed-1 n = 30 system at 1e-5.  4 is the fastest or
# within 14 % of it everywhere
_GAP_PARTS = 4
# finite_time refuses a grid of more rates: beyond 2**53, k * alpha_step no
# longer tells neighbouring k apart in float64
_GRID_MAX = 2**53
# relative margin of the np.log screen in _block_entry_times: numpy's log is
# within an ulp (~1e-16) of math.log, near 1 included, so a margin far above
# that keeps every row that may attain the exact minimum.  finite_time keeps
# a gap of the grid open while its floor is within the same margin of a best
# time; the smallest ratio of an entry time to its gap's floor measured was
# 1 + 2.6e-4 over 120 random systems and 1 + 2.6e-5 on the sample at
# alpha_step 1e-5
_LOG_SCREEN_RTOL = 1e-9


class DecayRateTooLarge(ValueError):
    """A + alpha I is not Hurwitz for the requested alpha."""


class EmptyIndexSet(RuntimeError):
    """No positive denominator coefficient; unreachable for valid inputs."""


class NonpositiveThreshold(ValueError):
    """Target box has a nonpositive component."""


@dataclass(frozen=True, eq=False)
class ExponentialEstimate:
    """Componentwise bound u_i(t) <= gamma[i] * exp(-alpha * t)."""

    alpha: float
    gamma: np.ndarray


@dataclass(frozen=True, eq=False)
class ConvergenceResult:
    """Certified entry times into the target box, per component and overall."""

    T: float
    per_component_T: np.ndarray
    per_component_alpha: np.ndarray


def _neg_inverses(A: np.ndarray, alphas: np.ndarray,
                  theta: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(a, b, mask)`` at each rate ``alphas[g]``, by one inversion of the
    stack ``A + alphas[g] I``, which must be Hurwitz: ``b[j, i, g]`` is
    ``-inv(A + alphas[g] I)[j, i]``, ``a[g] = b[:, :, g] @ theta`` and
    ``mask = b > NONNEG_TOL`` has an entry in every column.

    The stack is built with the members on the last axis, ``(n, n, G)``, and
    every per-member test runs along it, G entries at a time: the condition
    test in ``inverse``, the index mask, the ratios and their minimum.  Only
    LAPACK and the product ``a`` see the members first."""
    span = f"alpha={alphas[0]}" if alphas.size == 1 else f"alpha in [{alphas[0]}, {alphas[-1]}]"
    shifted = np.eye(A.shape[0])[:, :, None] * alphas
    shifted += A[:, :, None]
    try:
        neg_inv = inverse(shifted.transpose(2, 0, 1))
    except SingularMatrix as exc:
        raise DecayRateTooLarge(f"{span}: shifted matrix singular") from exc
    # a Metzler matrix is Hurwitz iff it is nonsingular with inv <= 0
    if not (neg_inv <= NONNEG_TOL).all():
        raise DecayRateTooLarge(f"{span}: shifted matrix not Hurwitz")
    np.negative(neg_inv, out=neg_inv)
    a = neg_inv @ theta                                 # (G, n)
    # b[j, i, g] = neg_inv[g, j, i], written over the spent stack
    b = shifted
    np.copyto(b, neg_inv.transpose(1, 2, 0))
    mask = b > NONNEG_TOL
    if not mask.any(axis=0).all():
        raise EmptyIndexSet("a column of the shifted inverse has no positive entry")
    return a, b, mask


def _min_ratios(a: np.ndarray, b: np.ndarray, mask: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``min a[g, j] / b[j, i, g]`` over the j with ``mask[j, i, g]``, as
    ``(G, n)``; the ratios are written into ``out``, which may be ``b``."""
    np.divide(a.T[:, None, :], b, out=out, where=mask)
    np.copyto(out, np.inf, where=~mask)
    return out.min(axis=0).T


def _envelope_factors(A: np.ndarray, alphas: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Optimal factors ``gamma[g, i]`` at each rate ``alphas[g]``, by one
    inversion of the stack ``A + alphas[g] I``, which must be Hurwitz."""
    a, b, mask = _neg_inverses(A, alphas, theta)
    return _min_ratios(a, b, mask, out=b)


def _gap_floor(a_lo: np.ndarray, b_hi: np.ndarray, mask_hi: np.ndarray,
               alphas_hi: np.ndarray, dlt: np.ndarray) -> np.ndarray:
    """Lower bound ``(G, n)`` on the entry time of each component at every
    rate strictly between the ends ``lo < hi`` of a gap of the grid, from
    ``a`` at ``lo`` and ``b``, ``mask`` at ``hi`` (``_neg_inverses``).

    For a Metzler ``A`` and a rate below its margin, ``N(alpha) = -inv(A +
    alpha I)`` has the derivative ``N(alpha)^2 >= 0``, so it grows in every
    entry with ``alpha``.  Between ``lo`` and ``hi`` the index set of column
    i is within that at ``hi``, and each ratio ``a_j / N_ji`` is at least
    ``a_j(lo) / N_ji(hi)``.  So the factor is at least the smallest such
    ratio, and the entry time at least its log over ``delta_i`` divided by
    ``alpha_hi``, the largest rate of the gap."""
    floor = _min_ratios(a_lo, b_hi, mask_hi, out=np.empty_like(b_hi))
    return np.log(np.maximum(floor / dlt, 1.0)) / alphas_hi[:, None]


def gamma_component(A, alpha: float, theta_bar, i: int) -> float:
    """Optimal envelope factor for component ``i`` at decay rate ``alpha``."""
    gamma = exponential_estimate(A, alpha, theta_bar).gamma
    if not 0 <= i < gamma.shape[0]:
        raise IndexError(f"component index {i} out of range for dimension {gamma.shape[0]}")
    return float(gamma[i])


def exponential_estimate(A, alpha: float, theta_bar) -> ExponentialEstimate:
    """All componentwise factors at rate ``alpha``, sharing one inversion."""
    if alpha <= 0.0:
        raise ValueError(f"decay rate must be positive, got {alpha}")
    M = as_matrix(A, "A")
    _require_metzler(M)
    theta = as_vector(theta_bar, "theta_bar")
    if negative(theta).any():
        raise ValueError("theta_bar must be nonnegative")
    return ExponentialEstimate(alpha=alpha,
                               gamma=_envelope_factors(M, np.array([alpha]), theta)[0])


def time_to_threshold(gamma_i: float, delta_i: float, alpha: float) -> float:
    """Smallest t >= 0 with gamma_i * exp(-alpha t) <= delta_i."""
    if delta_i <= 0.0:
        raise NonpositiveThreshold(f"threshold must be positive, got {delta_i}")
    if alpha <= 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if gamma_i < 0.0:
        raise ValueError(f"gamma must be nonnegative, got {gamma_i}")
    if gamma_i <= delta_i:
        return 0.0
    return math.log(gamma_i / delta_i) / alpha


def finite_time(A, theta_bar, delta, alpha_step: float) -> ConvergenceResult:
    """Certified time after which every solution sits inside the target box.

    Sweeps the decay-rate grid ``alpha_step, 2*alpha_step, ...`` up to the
    largest admissible rate, takes per component the best (smallest) entry
    time over the grid, and returns the maximum over components.  Every
    solution of x' = A x with 0 <= x(0) <= theta_bar satisfies
    x(t) <= delta for all t >= T.
    """
    M = as_matrix(A, "A")
    theta = as_vector(theta_bar, "theta_bar")
    dlt = as_vector(delta, "delta")
    if theta.shape[0] != M.shape[0] or dlt.shape[0] != M.shape[0]:
        raise ValueError("theta_bar and delta must match the dimension of A")
    if dlt.min() <= 0.0:
        raise NonpositiveThreshold(f"delta must be strictly positive, got {dlt}")
    if negative(theta).any():
        raise ValueError("theta_bar must be nonnegative")

    dim = M.shape[0]
    k_max = int(round(alpha_max(M, alpha_step) / alpha_step))
    if k_max > _GRID_MAX:
        raise ValueError(f"decay-rate grid of {k_max:.3g} rates exceeds 2**53: "
                         f"alpha_step {alpha_step} is too fine")
    if k_max:
        best_t, best_alpha = _sweep(M, theta, dlt, alpha_step, k_max)
    else:
        # Hurwitz margin smaller than the grid step: halve until admissible.
        eye = np.eye(dim)
        halved = (alpha_step / 2.0 ** j for j in range(1, 61))
        rate = next((a for a in halved if is_metzler_hurwitz(M + a * eye)), None)
        if rate is None:
            raise NotStable("no admissible decay rate found")
        alphas = np.array([rate])
        gamma = _checked_factors(_envelope_factors(M, alphas, theta))
        first, best_t = _block_entry_times(gamma, dlt, alphas)
        best_alpha = alphas[first]
    return ConvergenceResult(T=float(best_t.max()),
                             per_component_T=best_t,
                             per_component_alpha=best_alpha)


def _checked_factors(gamma: np.ndarray) -> np.ndarray:
    """``gamma``, which rounding must not have made negative."""
    if gamma.min() < 0.0:
        raise ValueError(f"gamma must be nonnegative, got {gamma.min()}")
    return gamma


def _sweep(M: np.ndarray, theta: np.ndarray, dlt: np.ndarray, step: float,
           k_max: int) -> tuple[np.ndarray, np.ndarray]:
    """The earliest entry time of each component over the rates ``k *
    step``, ``k = 1..k_max``, and the smallest rate that attains it.

    A grid of more than one block is pruned where ``_prunable`` holds.  If
    the pruned sweep meets an error, the whole grid is swept instead, so
    the error raised is the one of its first block that has one."""
    per_block = max(1, BLOCK_BYTES // (8 * M.shape[0] ** 2))
    if k_max > per_block and _prunable(M, theta):
        try:
            return _pruned_sweep(M, theta, dlt, step, k_max, per_block)
        except (ValueError, EmptyIndexSet):
            pass                        # the whole grid raises its first error
    best_t, best_k = np.full(M.shape[0], np.inf), np.zeros(M.shape[0], np.int64)
    for k0 in range(1, k_max + 1, per_block):
        _evaluate(M, theta, dlt, np.arange(k0, min(k0 + per_block, k_max + 1)), step,
                  best_t, best_k)
    return best_t, best_k * step


def _prunable(M: np.ndarray, theta: np.ndarray) -> bool:
    """Whether ``M`` is Metzler without tolerance and every entry of ``N =
    -inv(M + alpha I)`` and of ``a = N @ theta`` is positive at every rate
    in exact arithmetic: ``theta`` has a positive entry and the graph of
    ``M`` is strongly connected.

    The lemma of ``_gap_floor`` needs the first.  Where an entry of ``N``
    or ``a`` is zero, its computed value is rounding noise of either sign,
    at any rate, and the checks that no factor is negative and no ``-N``
    positive need every rate.  Where all are positive, they grow with the
    rate from their values at ``k = 1``."""
    off = ~np.eye(M.shape[0], dtype=bool)
    if (M[off] < 0.0).any() or not (theta > 0.0).any():
        return False
    edge = M > 0.0
    for graph in (edge, edge.T):        # to component 0, and from it
        reach = np.arange(M.shape[0]) == 0
        while not reach.all():
            wider = reach | (graph & reach).any(axis=1)
            if (wider == reach).all():
                return False
            reach = wider
    return True


def _evaluate(M: np.ndarray, theta: np.ndarray, dlt: np.ndarray, ks: np.ndarray, step: float,
              best_t: np.ndarray, best_k: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_neg_inverses`` at the rates ``ks * step``, ``ks`` increasing, by
    one stacked inversion; their entry times are folded into ``best_t`` and
    ``best_k``, the earliest time of each component and its smallest k."""
    alphas = ks * step
    a, b, mask = _neg_inverses(M, alphas, theta)
    gamma = _checked_factors(_min_ratios(a, b, mask, out=np.empty_like(b)))
    first, t = _block_entry_times(gamma, dlt, alphas)
    better = (t < best_t) | ((t == best_t) & (ks[first] < best_k))
    best_t[better] = t[better]
    best_k[better] = ks[first[better]]
    return a, b, mask


def _pruned_sweep(M: np.ndarray, theta: np.ndarray, dlt: np.ndarray, step: float,
                  k_max: int, per_block: int) -> tuple[np.ndarray, np.ndarray]:
    """``_sweep`` over the rates that may hold a component's earliest entry
    time, one stacked inversion per round.

    The first round evaluates ``per_block`` rates spread evenly over the
    grid with both ends.  Between two neighbouring evaluated rates lies a
    gap; ``_gap_floor`` bounds the entry times inside it.  A gap stays
    open while some component may have a rate in it that would be chosen
    over its best evaluated one: a floor below that time (with the
    relative margin of the log screen of ``_block_entry_times``), or one
    equal to it below the rate chosen so far, since ties go to the
    smallest rate.  Best times only fall, so a closed gap stays closed.
    Each later round splits open gaps into ``_GAP_PARTS`` parts and
    evaluates the lowest of the new rates, as many as fit in one block
    beside the ``N`` kept at the upper ends of the open gaps, which is all
    that is kept of the inversions.  The gaps not split wait for the next
    round."""
    dim = M.shape[0]
    best_t, best_k = np.full(dim, np.inf), np.zeros(dim, np.int64)
    # the evaluated k in order and a there; k = 0 (a = 0) stands below the
    # grid, and its gap to k = 1 is never open
    ks, a_ks = np.zeros(1, np.int64), np.zeros((1, dim))
    # the open gaps by their upper ends, and N there, laid out (n, n, G)
    open_hi, open_n = np.zeros(0, np.int64), np.zeros((dim, dim, 0))
    width = max(2, per_block)
    q, r = divmod(k_max - 1, width - 1)
    j = np.arange(width)
    new = 1 + j * q + (j * r) // (width - 1)
    while new.size:
        a, b, mask = _evaluate(M, theta, dlt, new, step, best_t, best_k)
        ks = np.concatenate((ks, new))
        order = np.argsort(ks, kind="stable")
        ks, a_ks = ks[order], np.concatenate((a_ks, a))[order]
        # the gaps below the new rates and below the open upper ends
        hi = np.concatenate((new, open_hi))
        below = np.searchsorted(ks, hi) - 1
        floor = np.concatenate((
            _gap_floor(a_ks[below[:new.size]], b, mask, new * step, dlt),
            _gap_floor(a_ks[below[new.size:]], open_n, open_n > NONNEG_TOL, open_hi * step, dlt)))
        limit = best_t * (1.0 + _LOG_SCREEN_RTOL)
        may_hold = (floor < limit) | ((floor <= limit) & (hi[:, None] <= best_k))
        keep = np.flatnonzero((hi - ks[below] > 1) & may_hold.any(axis=1))
        from_new = keep < new.size
        open_n = np.concatenate((b[:, :, keep[from_new]],
                                 open_n[:, :, keep[~from_new] - new.size]), axis=2)
        open_hi, lo = hi[keep], ks[below[keep]]
        del a, b, mask                  # before the next round's inversion
        parts = np.minimum(open_hi - lo, _GAP_PARTS)
        j = np.arange(1, _GAP_PARTS)
        inside = j < parts[:, None]
        new = np.sort((lo[:, None] + (j * (open_hi - lo)[:, None]) // parts[:, None])[inside])
        # a block less one rate per N kept, so that a round's memory peaks
        # no higher than the first's, but at least half a block
        new = new[:max(per_block - open_hi.size, per_block // 2)]
    return best_t, best_k * step


def _block_entry_times(gamma: np.ndarray, dlt: np.ndarray,
                       alphas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per column of ``gamma`` (G, n), the row with the earliest entry time
    ``time_to_threshold(gamma[g, i], dlt[i], alphas[g])`` and that time; ties
    go to the smallest alpha.

    ``np.log`` screens the grid and ``math.log``, which rounds as it does in
    ``time_to_threshold``, decides: only rows within a relative
    ``_LOG_SCREEN_RTOL`` of a column's screened minimum get an exact time,
    the others ``inf``.  The two logs differ by at most an ulp, so every row
    that attains the exact minimum, ties included, is kept."""
    ratio = gamma / dlt
    above = ratio > 1.0
    approx = np.log(np.where(above, ratio, 1.0)) / alphas[:, None]
    near = approx <= approx.min(axis=0) * (1.0 + _LOG_SCREEN_RTOL)
    t = np.where(near, 0.0, np.inf)
    exact = near & above
    t[exact] = np.fromiter(map(math.log, ratio[exact]), float)
    t /= alphas[:, None]
    first = t.argmin(axis=0)
    return first, t[first, np.arange(t.shape[1])]
