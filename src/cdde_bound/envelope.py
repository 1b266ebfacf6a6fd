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

The index set is exact and the same at every rate: ``b_j > 0`` exactly
where a path of positive off-diagonal entries of ``A`` leads from ``i`` to
``j`` (or ``j = i``), and ``a_j > 0`` exactly where one leads to ``j`` from
the support of ``theta_bar``; where none does, ``a_j`` is 0 and is set
to exactly 0.  The index set is computed once per call, never from the
signs of computed entries.

Each stack ``A + alpha I`` is inverted with no Hurwitz test of its own:
the witness of ``stability.alpha_max`` proves every rate of the sweep
Hurwitz, and ``gamma_component`` tests its one rate.

The sweep inverts only the rates that can still hold a component's earliest
entry time.  ``N(alpha) = -inv(A + alpha I)`` grows in every entry with
alpha, so the factors at the two ends of a gap of the grid bound the entry
times at every rate inside it from below; a gap whose bound exceeds every
component's best time so far is never inverted.  The result is the one the
sweep over the whole grid gives, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import SingularMatrix, as_matrix, as_vector, inverse
from .model import negative
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


class NonpositiveThreshold(ValueError):
    """Target box has a nonpositive component."""


@dataclass(frozen=True, eq=False)
class ConvergenceResult:
    """Certified entry times into the target box, per component and overall."""

    T: float
    per_component_T: np.ndarray
    per_component_alpha: np.ndarray


def _index_sets(M: np.ndarray, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(reach, unreached)``: ``reach[j, i, 0]`` holds where ``j == i`` or a
    path of positive off-diagonal entries of ``M`` leads from ``i`` to ``j``
    (an edge ``k -> l`` for each ``M[l, k] > 0``), and ``unreached[j]`` where
    no such path leads to ``j`` from an ``i`` with ``theta[i] > 0``.

    Below the margin, ``M + alpha I = P - s I`` with ``P >= 0`` and ``s``
    above the spectral radius of ``P``, so ``N = -inv(M + alpha I) = sum_k
    P^k / s^(k+1)`` is positive exactly where ``reach`` holds and 0
    elsewhere, and ``a = N theta`` is 0 exactly where ``unreached`` holds
    (Berman and Plemmons, 1994).  Computed, those zeros are rounding noise."""
    reach = (M > 0.0) | np.eye(M.shape[0], dtype=bool)
    while not ((wider := reach @ reach) == reach).all():
        reach = wider
    return reach[:, :, None], ~reach[:, theta > 0.0].any(axis=1)


def _neg_inverses(A: np.ndarray, alphas: np.ndarray, theta: np.ndarray,
                  unreached: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(a, b)`` at each rate ``alphas[g]``, by one inversion of the stack
    ``A + alphas[g] I``, which must be Hurwitz: ``b[j, i, g]`` is ``-inv(A
    + alphas[g] I)[j, i]`` and ``a[g] = b[:, :, g] @ theta``, 0 where
    ``unreached`` (``_index_sets``).  Its diagonal is ``fl(a_ii +
    alphas[g])``, as in ``stability.alpha_max``.

    The stack is built with the members on the last axis, ``(n, n, G)``, and
    the ratios and their minimum run along it, G entries at a time.  Only
    LAPACK, the finiteness test in ``inverse`` and the product ``a`` see the
    members first."""
    span = f"alpha={alphas[0]}" if alphas.size == 1 else f"alpha in [{alphas[0]}, {alphas[-1]}]"
    shifted = np.eye(A.shape[0])[:, :, None] * alphas
    shifted += A[:, :, None]
    try:
        neg_inv = inverse(shifted.transpose(2, 0, 1))
    except SingularMatrix as exc:
        raise DecayRateTooLarge(f"{span}: shifted matrix singular") from exc
    np.negative(neg_inv, out=neg_inv)
    a = neg_inv @ theta                                 # (G, n)
    a[:, unreached] = 0.0
    # b[j, i, g] = neg_inv[g, j, i], written over the spent stack
    b = shifted
    np.copyto(b, neg_inv.transpose(1, 2, 0))
    return a, b


def _min_ratios(a: np.ndarray, b: np.ndarray, reach: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``min a[g, j] / b[j, i, g]`` over the j with ``reach[j, i, 0]``, as
    ``(G, n)``; the ratios are written into ``out``, which may be ``b``."""
    np.divide(a.T[:, None, :], b, out=out, where=reach)
    np.copyto(out, np.inf, where=~reach)
    return out.min(axis=0).T


def _envelope_factors(A: np.ndarray, alphas: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Optimal factors ``gamma[g, i]`` at each rate ``alphas[g]``, by one
    inversion of the stack ``A + alphas[g] I``, which must be Hurwitz."""
    reach, unreached = _index_sets(A, theta)
    a, b = _neg_inverses(A, alphas, theta, unreached)
    return _min_ratios(a, b, reach, out=b)


def _gap_floor(a_lo: np.ndarray, b_hi: np.ndarray, reach: np.ndarray,
               alphas_hi: np.ndarray, dlt: np.ndarray) -> np.ndarray:
    """Lower bound ``(G, n)`` on the entry time of each component at every
    rate strictly between the ends ``lo < hi`` of a gap of the grid, from
    ``a`` at ``lo`` and ``b`` at ``hi`` (``_neg_inverses``).

    For a Metzler ``A`` and a rate below its margin, ``N(alpha) = -inv(A +
    alpha I)`` has the derivative ``N(alpha)^2 >= 0``, so it grows in every
    entry with ``alpha``, on the index set ``reach`` that is the same at
    every rate.  Each ratio ``a_j / N_ji`` is at least ``a_j(lo) /
    N_ji(hi)``, so the factor is at least the smallest such ratio, and the
    entry time at least its log over ``delta_i`` divided by ``alpha_hi``,
    the largest rate of the gap."""
    floor = _min_ratios(a_lo, b_hi, reach, out=np.empty_like(b_hi))
    return np.log(np.maximum(floor / dlt, 1.0)) / alphas_hi[:, None]


def gamma_component(A, alpha: float, theta_bar, i: int) -> float:
    """Optimal envelope factor for component ``i`` at decay rate ``alpha``."""
    if alpha <= 0.0:
        raise ValueError(f"decay rate must be positive, got {alpha}")
    M = as_matrix(A, "A")
    _require_metzler(M)
    theta = as_vector(theta_bar, "theta_bar")
    if negative(theta).any():
        raise ValueError("theta_bar must be nonnegative")
    if not is_metzler_hurwitz(M + alpha * np.eye(M.shape[0])):
        raise DecayRateTooLarge(f"alpha={alpha}: shifted matrix not Hurwitz")
    gamma = _envelope_factors(M, np.array([alpha]), theta)[0]
    if not 0 <= i < gamma.shape[0]:
        raise IndexError(f"component index {i} out of range for dimension {gamma.shape[0]}")
    return float(gamma[i])


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

    step, top = alpha_step, alpha_max(M, alpha_step)
    k_max = int(round(top / step))
    while k_max * step > top:           # no rate past the witnessed one, on grids past 2**51
        k_max -= 1
    if k_max > _GRID_MAX:
        raise ValueError(f"decay-rate grid of {k_max:.3g} rates exceeds 2**53: "
                         f"alpha_step {alpha_step} is too fine")
    if not k_max:
        # Hurwitz margin smaller than the grid step: sweep the one rate
        # found by halving the step until admissible
        eye = np.eye(M.shape[0])
        halved = (alpha_step / 2.0 ** j for j in range(1, 61))
        step = next((a for a in halved if is_metzler_hurwitz(M + a * eye)), None)
        if step is None:
            raise NotStable("no admissible decay rate found")
        k_max = 1
    best_t, best_alpha = _sweep(M, theta, dlt, step, k_max)
    return ConvergenceResult(T=float(best_t.max()),
                             per_component_T=best_t,
                             per_component_alpha=best_alpha)


def _sweep(M: np.ndarray, theta: np.ndarray, dlt: np.ndarray, step: float,
           k_max: int) -> tuple[np.ndarray, np.ndarray]:
    """The earliest entry time of each component over the rates ``k *
    step``, ``k = 1..k_max``, and the smallest rate that attains it, from
    the rates that may hold it, one stacked inversion per round.

    The first round evaluates as many rates as fit in one block, spread
    evenly over the grid with both ends: the whole grid if it fits.
    Between two neighbouring evaluated rates lies a gap; ``_gap_floor``
    bounds the entry times inside it.  A gap stays open while some
    component may have a rate in it that would be chosen over its best
    evaluated one: a floor below that time (with the relative margin of
    the log screen of ``_block_entry_times``), or one equal to it below the
    rate chosen so far, since ties go to the smallest rate.  Best times
    only fall, so a closed gap stays closed.  Each later round splits open
    gaps into ``_GAP_PARTS`` parts and evaluates the lowest of the new
    rates, as many as fit in one block beside the ``N`` kept at the upper
    ends of the open gaps, which is all that is kept of the inversions.
    The gaps not split wait for the next round."""
    dim = M.shape[0]
    reach, unreached = _index_sets(M, theta)
    per_block = max(1, BLOCK_BYTES // (8 * dim * dim))
    best_t, best_k = np.full(dim, np.inf), np.zeros(dim, np.int64)
    # the evaluated k in order and a there; k = 0 (a = 0) stands below the
    # grid, and its gap to k = 1 is never open
    ks, a_ks = np.zeros(1, np.int64), np.zeros((1, dim))
    # the open gaps by their upper ends, and N there, laid out (n, n, G)
    open_hi, open_n = np.zeros(0, np.int64), np.zeros((dim, dim, 0))
    width = min(k_max, max(2, per_block))
    span = max(1, width - 1)
    q, r = divmod(k_max - 1, span)
    j = np.arange(width)
    new = 1 + j * q + (j * r) // span
    while new.size:
        alphas = new * step
        a, b = _neg_inverses(M, alphas, theta, unreached)
        gamma = _min_ratios(a, b, reach, out=np.empty_like(b))
        if gamma.min() < 0.0:           # rounding must not make a factor negative
            raise ValueError(f"gamma must be nonnegative, got {gamma.min()}")
        first, t = _block_entry_times(gamma, dlt, alphas)
        better = (t < best_t) | ((t == best_t) & (new[first] < best_k))
        best_t[better] = t[better]
        best_k[better] = new[first[better]]
        if new.size == k_max:           # the grid evaluated whole: no gap left
            break
        ks = np.concatenate((ks, new))
        order = np.argsort(ks, kind="stable")
        ks, a_ks = ks[order], np.concatenate((a_ks, a))[order]
        # the gaps below the new rates and below the open upper ends
        hi = np.concatenate((new, open_hi))
        below = np.searchsorted(ks, hi) - 1
        floor = np.concatenate((
            _gap_floor(a_ks[below[:new.size]], b, reach, alphas, dlt),
            _gap_floor(a_ks[below[new.size:]], open_n, reach, open_hi * step, dlt)))
        limit = best_t * (1.0 + _LOG_SCREEN_RTOL)
        may_hold = (floor < limit) | ((floor <= limit) & (hi[:, None] <= best_k))
        keep = np.flatnonzero((hi - ks[below] > 1) & may_hold.any(axis=1))
        from_new = keep < new.size
        open_n = np.concatenate((b[:, :, keep[from_new]],
                                 open_n[:, :, keep[~from_new] - new.size]), axis=2)
        open_hi, lo = hi[keep], ks[below[keep]]
        del a, b                        # before the next round's inversion
        parts = np.minimum(open_hi - lo, _GAP_PARTS)
        j = np.arange(1, _GAP_PARTS)
        inside = j < parts[:, None]
        new = np.sort((lo[:, None] + (j * (open_hi - lo)[:, None]) // parts[:, None])[inside])
        # a block less one rate per N kept, so that a round's memory peaks
        # no higher than the first's, but at least half a block and one rate
        new = new[:max(per_block - open_hi.size, per_block // 2, 1)]
    return best_t, best_k * step


def _block_entry_times(gamma: np.ndarray, dlt: np.ndarray,
                       alphas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per column of ``gamma`` (G, n), the row with the earliest entry time,
    the smallest t >= 0 with ``gamma[g, i] exp(-alphas[g] t) <= dlt[i]``, that
    is ``math.log(gamma[g, i] / dlt[i]) / alphas[g]`` or 0, and that time;
    ties go to the smallest alpha.

    ``np.log`` screens the grid and ``math.log`` decides: only rows within a
    relative ``_LOG_SCREEN_RTOL`` of a column's screened minimum get an exact
    time, the others ``inf``.  The two logs differ by at most an ulp, so every row
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
