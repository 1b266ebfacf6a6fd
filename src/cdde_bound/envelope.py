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
alpha, so ``a`` below a gap of the grid and ``N`` at its top bound the
entry times at every rate inside it from below (Berman and Plemmons, 1994;
the gap bound is in the manner of Shubert, SIAM J. Numer. Anal., 1972); a
gap whose bound exceeds every component's best time so far is never
inverted.  The grid is searched in rounds whose sizes come from the number
of rates and the dimension: each splits every gap still open at once and
inverts the top rate of each part, for the number of rounds ``L`` that
weighs a round's fixed cost against its inversions best, and keeps only
``a`` below the gaps it leaves open.  The result is the one the sweep over
the whole grid gives, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import SingularMatrix, as_matrix, as_vector, inverse
from .model import negative
from .stability import NotStable, _require_metzler, alpha_max, is_metzler_hurwitz

# finite_time inverts a round's rates in chunks whose (n, n, G) float64
# arrays take about this many bytes each; two are alive at once, and none
# outlives its chunk
BLOCK_BYTES = 1 << 18
# a round of finite_time costs, besides its inversions, about as much as
# inverting the rates whose (n, n) matrices fill this many bytes.  Fitted
# as time = c + G * per-rate cost over one-round sweeps, less the index sets
# and a at the rate 0 (CPU time, one BLAS thread, 2-vCPU host): c was
# 70-240 us at n = 3, 10, 30 and 60, as much as 150, 27, 3-4 and 1.4 rates,
# that is 11-39 kB; calls on the benchmark systems with 2**14, 2**15 and
# 2**16 bytes took times within 5 % of one another, and 2**15 allows for the
# colder caches between calls of the CLI
_ROUND_BYTES = 1 << 15
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


class GridTooFine(ValueError):
    """The decay-rate grid holds more than ``_GRID_MAX`` rates."""


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
    shifted = np.eye(A.shape[0])[:, :, None] * alphas
    shifted += A[:, :, None]
    try:
        neg_inv = inverse(shifted.transpose(2, 0, 1))
    except SingularMatrix as exc:
        span = f"alpha={alphas[0]}" if alphas.size == 1 else f"alpha in [{alphas[0]}, {alphas[-1]}]"
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
    if reach.all():                     # an irreducible A: no mask to apply
        np.divide(a.T[:, None, :], b, out=out)
    else:
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
               alphas_hi: np.ndarray, dlt: np.ndarray, out: np.ndarray | None = None
               ) -> np.ndarray:
    """Lower bound ``(G, n)`` on the entry time of each component at every
    rate strictly between the ends ``lo < hi`` of a gap of the grid, from
    ``a`` at ``lo`` and ``b`` at ``hi`` (``_neg_inverses``).

    For a Metzler ``A`` and a rate below its margin, ``N(alpha) = -inv(A +
    alpha I)`` has the derivative ``N(alpha)^2 >= 0``, so it grows in every
    entry with ``alpha``, on the index set ``reach`` that is the same at
    every rate.  Each ratio ``a_j / N_ji`` is at least ``a_j(lo) /
    N_ji(hi)``, so the factor is at least the smallest such ratio, and the
    entry time at least its log over ``delta_i`` divided by ``alpha_hi``,
    the largest rate of the gap.  The ratios are written into ``out`` if
    given."""
    floor = _min_ratios(a_lo, b_hi, reach, out=np.empty_like(b_hi) if out is None else out)
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
        raise GridTooFine(f"decay-rate grid of {k_max:.3g} rates exceeds 2**53: "
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
    the rates that may hold it, in a few rounds of stacked inversions.

    An open gap is an evaluated lower end and the rates above it up to its
    top, none of them evaluated yet.  The first is the whole grid, above
    k = 0: ``A`` is Hurwitz, and ``a`` at the rate 0 is below ``a`` at every
    rate of the grid.  Each round splits every open gap into parts no wider
    than ``_stride`` of the widest and evaluates the top rate of each part,
    so ``_gap_floor`` bounds the entry times at the rates below it from
    ``a`` at the part's lower end and ``N`` at its top.  Those rates stay
    open while some component may have one there that would be chosen over
    its best evaluated one: a floor below that time (with the relative
    margin of the log screen of ``_block_entry_times``), or one equal to it
    below the rate chosen so far, since ties go to the smallest rate.  Best
    times only fall, so a closed gap stays closed.  Only the lower ends of
    the open gaps, ``a`` there and their tops are kept between rounds; a
    round inverts its rates in chunks of ``BLOCK_BYTES``."""
    dim = M.shape[0]
    reach, unreached = _index_sets(M, theta)
    per_block = max(1, BLOCK_BYTES // (8 * dim * dim))
    best_t, best_k = np.full(dim, np.inf), np.zeros(dim, np.int64)
    lo, top = np.zeros(1, np.int64), np.array([k_max])
    a_lo = _neg_inverses(M, np.zeros(1), theta, unreached)[0]
    while True:
        # the new rates in order: the top of each part of each open gap.
        # Below each lies its gap's lower end or the new rate before it; a
        # at the lower ends, then at the new rates
        width = top - lo
        parts = -(-width // _stride(int(width.max()), width.size, dim))
        q, r = np.divmod(width, parts)
        firsts = np.cumsum(parts) - parts
        gap = np.repeat(np.arange(width.size), parts)
        j = np.arange(gap.size) - firsts[gap] + 1
        new = lo[gap] + j * q[gap] + (j * r[gap]) // parts[gap]
        gaps, size = lo.size, new.size
        below = np.arange(gaps - 1, gaps - 1 + size)
        below[firsts] = np.arange(gaps)
        downs = np.concatenate((lo, new))[below]
        wide = new - downs > 1
        a = np.concatenate((a_lo, np.empty((size, dim))))
        floor = np.full((size, dim), np.inf)
        for c in range(0, size, per_block):
            d = min(c + per_block, size)
            alphas = new[c:d] * step
            a[gaps + c:gaps + d], b = _neg_inverses(M, alphas, theta, unreached)
            ratios = np.empty_like(b)
            gamma = _min_ratios(a[gaps + c:gaps + d], b, reach, out=ratios)
            if gamma.min() < 0.0:       # rounding must not make a factor negative
                raise ValueError(f"gamma must be nonnegative, got {gamma.min()}")
            first, t = _block_entry_times(gamma, dlt, alphas)
            better = (t < best_t) | ((t == best_t) & (new[c + first] < best_k))
            best_t[better] = t[better]
            best_k[better] = new[c + first[better]]
            if wide[c:d].any():
                floor[c:d] = _gap_floor(a[below[c:d]], b, reach, alphas, dlt, out=ratios)
            del b, ratios               # before the next chunk's inversion
        limit = best_t * (1.0 + _LOG_SCREEN_RTOL)
        may_hold = (floor < limit) | ((floor <= limit) & (new[:, None] <= best_k))
        keep = np.flatnonzero(wide & may_hold.any(axis=1))
        if not keep.size:
            return best_t, best_k * step
        lo, a_lo, top = downs[keep], a[below[keep]], new[keep] - 1
        del a                           # before the next round's inversion


def _stride(width: int, gaps: int, dim: int) -> int:
    """The width of the gaps the next round leaves, for ``gaps`` open gaps
    at most ``width`` rates wide: ``width ** ((L - 1) / L)``, with ``L =
    _levels(width, gaps, dim)``."""
    levels = _levels(width, gaps, dim)
    return max(1, int(width ** ((levels - 1) / levels)))


def _levels(width: int, gaps: int, dim: int) -> int:
    """The number of rounds ``L`` that closes ``gaps`` open gaps at most
    ``width`` rates wide at the least cost, if each round splits every gap
    into ``width ** (1 / L)`` parts, leaves as many open as it splits and
    costs ``_ROUND_BYTES / (8 dim^2)`` inversions besides its own.  The
    cost is convex in ``L``, so the first rise ends the search.  A gap much
    wider than a round's cost in rates is thus never filled in one round,
    however few gaps are open."""
    round_cost = _ROUND_BYTES / (8 * dim * dim)
    best, levels = math.inf, 1
    for rounds in range(1, 64):
        cost = rounds * (round_cost + gaps * (width ** (1.0 / rounds) - 1.0))
        if cost >= best:
            break
        best, levels = cost, rounds
    return levels


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
