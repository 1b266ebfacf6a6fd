"""Reference implementations the vectorized certificate code is checked
against: the per-column inverse, the linear Hurwitz-margin scan and the
per-rate sweep of the decay-rate grid, one matrix at a time."""

import numpy as np

from cdde_bound.envelope import ConvergenceResult, time_to_threshold
from cdde_bound.linalg import SingularMatrix, lu_factor, lu_solve
from cdde_bound.model import NONNEG_TOL
from cdde_bound.stability import is_metzler_hurwitz


def inverse_by_columns(m: np.ndarray) -> np.ndarray:
    """One factorization and n unit-vector solves."""
    lu, perm = lu_factor(m)
    n = lu.shape[0]
    out = np.empty((n, n))
    for i in range(n):
        out[:, i] = lu_solve(lu, perm, np.eye(n)[i])
    return out


def alpha_max_scan(a: np.ndarray, step: float) -> float:
    """Largest k * step with a + k * step I Hurwitz, by a linear scan."""
    eye = np.eye(a.shape[0])
    k = 1
    while is_metzler_hurwitz(a + (k * step) * eye):
        k += 1
    return (k - 1) * step


def finite_time_loop(a: np.ndarray, theta: np.ndarray, delta: np.ndarray,
                     step: float) -> ConvergenceResult:
    """finite_time with one inversion and one ratio minimum per rate and
    component; the grid must be nonempty."""
    n = a.shape[0]
    k_max = int(round(alpha_max_scan(a, step) / step))
    assert k_max >= 1
    best_t = np.full(n, np.inf)
    best_alpha = np.zeros(n)
    for alpha in [k * step for k in range(1, k_max + 1)]:
        try:
            minv = inverse_by_columns(a + alpha * np.eye(n))
        except SingularMatrix:
            raise AssertionError(f"grid rate {alpha} singular") from None
        assert (minv <= NONNEG_TOL).all()
        neg_inv = -minv
        a_vec = neg_inv @ theta
        for i in range(n):
            b = neg_inv[:, i]
            mask = b > NONNEG_TOL
            t_i = time_to_threshold(float((a_vec[mask] / b[mask]).min()),
                                    float(delta[i]), alpha)
            if t_i < best_t[i]:
                best_t[i] = t_i
                best_alpha[i] = alpha
    return ConvergenceResult(T=float(best_t.max()), per_component_T=best_t,
                             per_component_alpha=best_alpha)
