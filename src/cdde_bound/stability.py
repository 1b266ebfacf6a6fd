"""Stability tests for the positive-system class.

Every decision rests on the positive-witness characterizations, exact for
Metzler and nonnegative matrices (Berman and Plemmons, *Nonnegative
Matrices in the Mathematical Sciences*, 1994):

* a Metzler matrix ``M`` is Hurwitz iff some ``v > 0`` has ``M v < 0``,
* a nonnegative matrix ``D`` is Schur iff the Metzler ``D - I`` is Hurwitz.

``_is_witness`` decides ``v > 0`` and ``M v < 0`` exactly for the float
``M``, read through its Metzler majorant, and ``v``: it bounds the rounding
of the product and reads no tolerance, nor does the inverse that gives
``v``, so no verdict depends on units or on the condition of ``M``.
``_hurwitz`` takes ``v`` from the inverse and makes every Hurwitz decision:
the Hurwitz and Schur tests, each step of ``alpha_max``, whose last witness
covers every rate of the sweep of ``envelope``, and the sweep's halving
branch.  ``check_joint_condition`` accepts on ``_is_witness`` with its ``v``,
which one LAPACK solve against the coupling matrix gives together with the
equilibrium of the ultimate bound: the one factorization of that matrix.

The one eigenvalue computation, in ``alpha_max``, only picks where the
margin search starts; the witness test makes every decision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import SingularMatrix, as_matrix, as_vector, inverse, solve
from .model import SystemSpec, negative


class NotMetzler(ValueError):
    """Matrix has a negative off-diagonal entry."""


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
    # the coupling matrix's equilibrium under (omega_bar, d_bar), unclamped
    equilibrium: np.ndarray | None = None


def _require_metzler(A: np.ndarray) -> None:
    off = A[~np.eye(A.shape[0], dtype=bool)]
    if negative(off).any():
        raise NotMetzler(f"off-diagonal entry {off.min()} is negative")


def _is_witness(M: np.ndarray, v: np.ndarray) -> bool:
    """Whether ``v > 0`` and ``M+ v < 0`` hold exactly for the float ``M``
    and ``v``, which proves ``M`` Hurwitz: ``M+``, ``M``'s diagonal and
    ``|M|`` off it, is ``M`` if Metzler and bounds its spectral abscissa.

    A float product of length ``n`` is within ``gamma_n |M| v`` of the exact
    one in any summation order, ``gamma_k = k u / (1 - k u)`` with ``u =
    2^-53``, plus ``2^-1074`` per term for underflow (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2002, section 3.5).  So a pass of
    ``fl(M+ v) + 2 gamma_(n+2) fl(|M| v) + n 2^-1074 < 0``, whose doubled
    ``gamma`` covers the rounding of the bound itself, is exact, and both
    sides scale with ``M`` and ``v``.  A non-finite product fails."""
    n = M.shape[0]
    nu = (n + 2) * 2.0**-53
    major = np.where(np.eye(n, dtype=bool), M, np.abs(M))
    slack = (2.0 * nu / (1.0 - nu)) * (np.abs(M) @ v) + n * 2.0**-1074
    return bool((v > 0.0).all() and (major @ v + slack < 0.0).all())


def _hurwitz(M: np.ndarray) -> bool:
    """Whether the Metzler matrix ``M`` is Hurwitz: ``_is_witness`` of ``v``,
    the row sums of ``-inv(M)``, which for a Hurwitz ``M`` are positive and
    solve ``M v = -1``.  A matrix that ``inverse`` refuses, exactly singular
    or with an inverse that overflows, fails, and so does one with a
    non-finite entry, as the shift of ``alpha_max`` gives when it overflows.
    Runs under the caller's ``errstate``."""
    try:
        v = -inverse(M).sum(axis=1)
    except ValueError:                  # SingularMatrix, or a non-finite entry
        return False
    return _is_witness(M, v)


def is_metzler_hurwitz(A) -> bool:
    """Hurwitz test for a Metzler matrix by a positive witness (``_hurwitz``)."""
    M = as_matrix(A, "A")
    if M.shape[0] != M.shape[1]:
        raise NotMetzler(f"matrix must be square, got {M.shape}")
    _require_metzler(M)
    with np.errstate(all="ignore"):
        return _hurwitz(M)


def is_schur_nonneg(D) -> bool:
    """Schur test for a nonnegative matrix: ``D`` is Schur iff the Metzler
    matrix ``D - I`` is Hurwitz."""
    M = as_matrix(D, "D")
    if M.shape[0] != M.shape[1]:
        raise NotNonnegative(f"matrix must be square, got {M.shape}")
    if negative(M).any():
        raise NotNonnegative(f"entry {M.min()} is negative")
    return is_metzler_hurwitz(M - np.eye(M.shape[0]))


def coupling_matrix(spec: SystemSpec) -> np.ndarray:
    """The block matrix [[A, B], [C, D - I]] coupling both state parts."""
    return np.block([[spec.A, spec.B],
                     [spec.C, spec.D - np.eye(spec.m)]])


def check_joint_condition(spec: SystemSpec, xi=None) -> StabilityReport:
    """Joint positivity-stability check with an explicit witness pair.

    Solves ``[[A, B], [C, D - I]] v = -xi`` and accepts iff ``v`` is a
    witness (``_is_witness``): the two halves of ``v`` then satisfy the
    strict inequalities ``A p + B q < 0`` and ``C p + (D - I) q < 0``
    exactly; the verdict does not depend on the scale of ``xi``.  The same
    solve gives the equilibrium under ``-(omega_bar, d_bar)``.
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
    coupling = coupling_matrix(spec)
    rhs = -np.column_stack((xi_vec, np.concatenate((spec.omega_bar, spec.d_bar))))
    try:
        v, equilibrium = solve(coupling, rhs).T
    except SingularMatrix as exc:
        return StabilityReport(a_is_metzler, bcd_nonnegative, d_is_schur, False,
                               diagnostic=f"coupling matrix singular: {exc}")
    if _is_witness(coupling, v):
        return StabilityReport(a_is_metzler, bcd_nonnegative, d_is_schur, True,
                               witness_p=v[:n], witness_q=v[n:], equilibrium=equilibrium)
    return StabilityReport(a_is_metzler, bcd_nonnegative, d_is_schur, False,
                           diagnostic="no witness: v > 0 with M v < 0 not proven")


def alpha_max(A, step: float) -> float:
    """Largest grid multiple of ``step`` keeping ``A + alpha I`` Hurwitz.

    The spectral abscissa of ``A + alpha I`` is strictly increasing in
    ``alpha``, so the Hurwitz test is monotone in the grid index ``k``.  For
    a Metzler ``A`` the abscissa is a real eigenvalue (Perron-Frobenius), so
    the search starts at the last grid index below the computed margin
    ``-max Re eig(A)``, or at 1 when that is not finite.  From there it
    gallops, doubling its stride, up to the first failing index or down to
    the first passing one (``k = 0`` passes), and a bisection closes the
    bracket.  The witness test decides every index; where the start is exact,
    as on the sample, the search takes 3 tests, the one of ``A`` included.
    The witness of the last passing index is one for every index below it:
    ``fl(a_ii + k step)`` grows with ``k``, and ``M v <= M' v < 0`` for
    ``M <= M'``.
    """
    if not (np.isfinite(step) and step > 0.0):
        raise ValueError(f"step must be positive and finite, got {step}")
    M = as_matrix(A, "A")
    if not is_metzler_hurwitz(M):
        raise NotStable("matrix is not Hurwitz, no positive decay rate exists")
    eye = np.eye(M.shape[0])

    def hurwitz(k: int) -> bool:
        # is_metzler_hurwitz without its check of the structure, which the
        # shift cannot change
        return _hurwitz(M + (k * step) * eye)

    with np.errstate(all="ignore"):     # for eigvals and _hurwitz
        try:
            margin = -np.linalg.eigvals(M).real.max()
        except np.linalg.LinAlgError:
            margin = np.nan
        # from 1, the gallop up is the plain doubling search
        start = min(max(np.ceil(margin / step) - 1.0, 1.0), 2.0**62) if np.isfinite(margin) else 1
        good, bad, stride = 0, int(start), 1    # hurwitz(good) holds throughout
        if hurwitz(bad):
            good = bad
            while hurwitz(good + stride):
                good, stride = good + stride, 2 * stride
            bad = good + stride
        else:
            while bad - stride > 0 and not hurwitz(bad - stride):
                bad, stride = bad - stride, 2 * stride
            good = max(bad - stride, 0)
        while bad - good > 1:           # and from here on, not hurwitz(bad)
            mid = (good + bad) // 2
            good, bad = (mid, bad) if hurwitz(mid) else (good, mid)
    return good * step
