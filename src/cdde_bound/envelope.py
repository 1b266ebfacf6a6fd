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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import SingularMatrix, as_matrix, as_vector
from .model import NONNEG_TOL, negative
from .stability import (NotStable, _neg_inverse_if_hurwitz, _require_metzler, alpha_max,
                        is_metzler_hurwitz)

# finite_time sweeps the alpha grid in blocks whose (G, n, n) float64 arrays
# take about this many bytes each; about three are alive at once
BLOCK_BYTES = 1 << 18


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


def _envelope_factors(A: np.ndarray, alphas: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Optimal factors ``gamma[g, i]`` at each rate ``alphas[g]``, by one
    inversion of the stack ``A + alphas[g] I``, which must be Hurwitz."""
    span = f"alpha={alphas[0]}" if alphas.size == 1 else f"alpha in [{alphas[0]}, {alphas[-1]}]"
    shifted = alphas[:, None, None] * np.eye(A.shape[0])
    shifted += A
    try:
        neg_inv = _neg_inverse_if_hurwitz(shifted)
    except SingularMatrix as exc:
        raise DecayRateTooLarge(f"{span}: shifted matrix singular") from exc
    if neg_inv is None:
        raise DecayRateTooLarge(f"{span}: shifted matrix not Hurwitz")
    a = neg_inv @ theta                                 # (G, n)
    # b = neg_inv[g, :, i]; the ratio a_j / b_j is overwritten into neg_inv
    mask = neg_inv > NONNEG_TOL
    if not mask.any(axis=1).all():
        raise EmptyIndexSet("a column of the shifted inverse has no positive entry")
    np.divide(a[:, :, None], neg_inv, out=neg_inv, where=mask)
    np.copyto(neg_inv, np.inf, where=~mask)
    return neg_inv.min(axis=1)


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
    if k_max:
        per_block = max(1, BLOCK_BYTES // (8 * dim * dim))
        blocks = [np.arange(k0, min(k0 + per_block, k_max + 1)) * alpha_step
                  for k0 in range(1, k_max + 1, per_block)]
    else:
        # Hurwitz margin smaller than the grid step: halve until admissible.
        eye = np.eye(dim)
        halved = (alpha_step / 2.0 ** j for j in range(1, 61))
        rate = next((a for a in halved if is_metzler_hurwitz(M + a * eye)), None)
        if rate is None:
            raise NotStable("no admissible decay rate found")
        blocks = [np.array([rate])]

    best_t = np.full(dim, np.inf)
    best_alpha = np.zeros(dim)
    for alphas in blocks:
        gamma = _envelope_factors(M, alphas, theta)
        if gamma.min() < 0.0:
            raise ValueError(f"gamma must be nonnegative, got {gamma.min()}")
        # time_to_threshold over the block; math.log rounds as it does there
        ratio = gamma / dlt
        t = np.zeros_like(ratio)
        above = ratio > 1.0
        t[above] = np.fromiter(map(math.log, ratio[above]), float)
        t /= alphas[:, None]
        first = t.argmin(axis=0)                # ties go to the smallest alpha
        t_first = t[first, np.arange(dim)]
        better = t_first < best_t
        best_t[better] = t_first[better]
        best_alpha[better] = alphas[first[better]]
    return ConvergenceResult(T=float(best_t.max()),
                             per_component_T=best_t,
                             per_component_alpha=best_alpha)
