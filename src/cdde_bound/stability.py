"""Stability tests for the positive-system class.

All decisions go through sign-of-inverse characterizations, which are exact
for Metzler/nonnegative matrices:

* a Metzler matrix is Hurwitz iff it is nonsingular with ``inv(M) <= 0``,
* a nonnegative matrix is Schur iff ``I - M`` is nonsingular with
  ``inv(I - M) >= 0``.

No eigenvalue computation is used anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import SingularMatrix, as_matrix, as_vector, inverse, lu_factor, lu_solve
from .model import NONNEG_TOL, SystemSpec, negative


class NotMetzler(ValueError):
    """Matrix has an off-diagonal entry below the Metzler tolerance."""


class NotNonnegative(ValueError):
    """Matrix has a negative entry."""


class NotStable(ValueError):
    """Matrix fails the Hurwitz test where stability is required."""


@dataclass(frozen=True, eq=False)
class StabilityReport:
    a_is_metzler: bool
    bcd_nonnegative: bool
    d_is_schur: bool
    joint_condition_holds: bool
    witness_p: np.ndarray | None = None
    witness_q: np.ndarray | None = None
    diagnostic: str | None = None
    # lu_factor of the coupling matrix, for further solves against it
    coupling_lu: tuple[np.ndarray, np.ndarray] | None = None


def _require_metzler(A: np.ndarray) -> None:
    off = A[~np.eye(A.shape[0], dtype=bool)]
    if negative(off).any():
        raise NotMetzler(f"off-diagonal entry {off.min()} below -{NONNEG_TOL}")


def _neg_inverse_if_hurwitz(M: np.ndarray) -> np.ndarray | None:
    """``-inv(M)`` if the Metzler matrix, or every member of the stack, ``M``
    is Hurwitz (nonsingular with ``inv(M) <= 0``), else None; raises
    SingularMatrix for a singular member."""
    neg_inv = inverse(M)
    if not (neg_inv <= NONNEG_TOL).all():
        return None
    return np.negative(neg_inv, out=neg_inv)


def is_metzler_hurwitz(A) -> bool:
    """Hurwitz test for a Metzler matrix via the sign of its inverse."""
    M = as_matrix(A, "A")
    if M.shape[0] != M.shape[1]:
        raise NotMetzler(f"matrix must be square, got {M.shape}")
    _require_metzler(M)
    try:
        return _neg_inverse_if_hurwitz(M) is not None
    except SingularMatrix:
        return False


def is_schur_nonneg(D) -> bool:
    """Schur test for a nonnegative matrix: ``D`` is Schur iff the Metzler
    matrix ``D - I`` is Hurwitz, i.e. ``inv(I - D) >= 0``."""
    M = as_matrix(D, "D")
    if M.shape[0] != M.shape[1]:
        raise NotNonnegative(f"matrix must be square, got {M.shape}")
    if negative(M).any():
        raise NotNonnegative(f"entry {M.min()} below -{NONNEG_TOL}")
    return is_metzler_hurwitz(M - np.eye(M.shape[0]))


def coupling_matrix(spec: SystemSpec) -> np.ndarray:
    """The block matrix [[A, B], [C, D - I]] coupling both state parts."""
    return np.block([[spec.A, spec.B],
                     [spec.C, spec.D - np.eye(spec.m)]])


def check_joint_condition(spec: SystemSpec, xi=None) -> StabilityReport:
    """Joint positivity-stability check with an explicit witness pair.

    Solves ``[[A, B], [C, D - I]] v = -xi`` and accepts iff the solution is
    strictly positive; the two halves of ``v`` then witness the strict
    inequalities ``A p + B q < 0`` and ``C p + (D - I) q < 0``.
    """
    n, m = spec.n, spec.m
    a_is_metzler = not negative(spec.A[~np.eye(n, dtype=bool)]).any()
    bcd_nonnegative = not any(negative(M).any() for M in (spec.B, spec.C, spec.D))
    d_is_schur = bcd_nonnegative and is_schur_nonneg(spec.D)
    if not (a_is_metzler and bcd_nonnegative):
        return StabilityReport(a_is_metzler, bcd_nonnegative, d_is_schur, False,
                               diagnostic="structural requirements violated")
    xi_vec = np.ones(n + m) if xi is None else as_vector(xi, "xi")
    if xi_vec.shape[0] != n + m:
        raise ValueError(f"xi must have length {n + m}, got {xi_vec.shape[0]}")
    if xi_vec.min() <= 0.0:
        raise ValueError("xi must be strictly positive")
    try:
        factors = lu_factor(coupling_matrix(spec))
    except SingularMatrix as exc:
        return StabilityReport(a_is_metzler, bcd_nonnegative, d_is_schur, False,
                               diagnostic=f"coupling matrix singular: {exc}")
    v = lu_solve(*factors, -xi_vec)
    p, q = v[:n], v[n:]
    if v.min() > NONNEG_TOL:
        return StabilityReport(a_is_metzler, bcd_nonnegative, d_is_schur, True,
                               witness_p=p, witness_q=q, coupling_lu=factors)
    return StabilityReport(a_is_metzler, bcd_nonnegative, d_is_schur, False,
                           diagnostic="witness vector not strictly positive")


def alpha_max(A, step: float) -> float:
    """Largest grid multiple of ``step`` keeping ``A + alpha I`` Hurwitz.

    The spectral abscissa of ``A + alpha I`` is strictly increasing in
    ``alpha``, so the Hurwitz test is monotone in the grid index ``k``: a
    doubling search brackets the first failing ``k`` and a bisection finds
    it, about ``2 log2(alpha_max / step)`` tests.
    """
    if not (np.isfinite(step) and step > 0.0):
        raise ValueError(f"step must be positive and finite, got {step}")
    M = as_matrix(A, "A")
    if not is_metzler_hurwitz(M):
        raise NotStable("matrix is not Hurwitz, no positive decay rate exists")
    eye = np.eye(M.shape[0])

    def hurwitz(k: int) -> bool:
        return is_metzler_hurwitz(M + (k * step) * eye)

    good, bad = 0, 1                    # hurwitz(good) holds throughout
    while hurwitz(bad):
        good, bad = bad, 2 * bad
    while bad - good > 1:               # and from here on, not hurwitz(bad)
        mid = (good + bad) // 2
        good, bad = (mid, bad) if hurwitz(mid) else (good, mid)
    return good * step
