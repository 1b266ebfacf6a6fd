"""Stability tests for the positive-system class.

All decisions go through sign-of-inverse characterizations, which are exact
for Metzler/nonnegative matrices:

* a Metzler matrix is Hurwitz iff it is nonsingular with ``inv(M) <= 0``,
* a nonnegative matrix is Schur iff ``I - M`` is nonsingular with
  ``inv(I - M) >= 0``.

One predicate, ``_hurwitz``, makes every Hurwitz decision of the package:
the Hurwitz and Schur tests, the margin search of ``alpha_max`` and the
decay-rate sweep of ``envelope``.  It tests the sign only where the graph
of ``M`` says the inverse of a Hurwitz ``M`` is nonzero (``_reach``).

The one eigenvalue computation, in ``alpha_max``, only picks where the
margin search starts; the sign test makes every decision.
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


def _reach(M: np.ndarray) -> np.ndarray:
    """``reach[j, i]`` where ``j == i`` or a path of positive off-diagonal
    entries of ``M`` leads from ``i`` to ``j`` (an edge ``k -> l`` for each
    ``M[l, k] > 0``).

    For a Metzler ``M`` and a rate below its margin, ``M + alpha I = P - s I``
    with ``P >= 0`` and ``s`` above the spectral radius of ``P``, so
    ``-inv(M + alpha I)`` is the series ``sum_k P^k / s^(k+1)``: positive
    exactly where ``reach`` holds and 0 elsewhere, at every such rate
    (Berman and Plemmons, *Nonnegative Matrices in the Mathematical
    Sciences*, 1994)."""
    reach = (M > 0.0) | np.eye(M.shape[0], dtype=bool)
    while not ((wider := reach @ reach) == reach).all():
        reach = wider
    return reach


def _hurwitz(stack: np.ndarray, reach: np.ndarray) -> tuple[np.ndarray, bool]:
    """``(inv, hurwitz)`` for a ``(G, n, n)`` stack of finite Metzler
    matrices on the pattern ``reach`` (``_reach``): each member's inverse,
    by one ``inverse`` call, which raises ``SingularMatrix`` for a singular
    member, and whether every member has a negative diagonal and ``inv <=
    NONNEG_TOL`` where ``reach`` holds.

    Both tests are exact.  A Metzler Hurwitz matrix has a negative
    diagonal; testing it keeps the absolute sign tolerance from passing the
    tiny inverse of a large positive one.  A member that is not Hurwitz has
    a diagonal block on a strongly connected set of indices that is not,
    whose inverse, the same block of ``inv``, has a positive entry on
    ``reach``.  Off ``reach`` the exact inverse is 0, and the computed one
    rounding noise of either sign, which near the margin of a reducible
    matrix can exceed the tolerance at one shift and not at a larger one."""
    inv = inverse(stack)
    diagonal = stack.diagonal(axis1=1, axis2=2)
    return inv, bool((diagonal < 0.0).all() and ((inv <= NONNEG_TOL) | ~reach).all())


def _is_hurwitz(M: np.ndarray, reach: np.ndarray) -> bool:
    """``_hurwitz`` of one Metzler matrix, a singular one failing, without
    the checks of the input.  The diagonal is tested before the inversion,
    so a diagonal entry ``>= 0``, or the ``+inf`` of an overflowing shift,
    fails without one.  Runs under the caller's ``errstate``."""
    try:
        return bool((M.diagonal() < 0.0).all()) and _hurwitz(M[None], reach)[1]
    except SingularMatrix:
        return False


def is_metzler_hurwitz(A) -> bool:
    """Hurwitz test for a Metzler matrix via the sign of its inverse."""
    M = as_matrix(A, "A")
    if M.shape[0] != M.shape[1]:
        raise NotMetzler(f"matrix must be square, got {M.shape}")
    _require_metzler(M)
    with np.errstate(all="ignore"):
        return _is_hurwitz(M, _reach(M))


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
    ``alpha``, so the Hurwitz test is monotone in the grid index ``k``.  For
    a Metzler ``A`` the abscissa is a real eigenvalue (Perron-Frobenius), so
    the search starts at the last grid index below the computed margin
    ``-max Re eig(A)``, or at 1 when that is not finite.  From there it
    gallops, doubling its stride, up to the first failing index or down to
    the first passing one (``k = 0`` passes), and a bisection closes the
    bracket.  The sign test decides every index; where the start is exact,
    as on the sample, the search takes 3 tests, the one of ``A`` included.
    """
    if not (np.isfinite(step) and step > 0.0):
        raise ValueError(f"step must be positive and finite, got {step}")
    M = as_matrix(A, "A")
    if not is_metzler_hurwitz(M):
        raise NotStable("matrix is not Hurwitz, no positive decay rate exists")
    eye, reach = np.eye(M.shape[0]), _reach(M)

    def hurwitz(k: int) -> bool:
        # is_metzler_hurwitz without its check of the structure, which the
        # shift cannot change; an overflowing shift has a +inf diagonal
        return _is_hurwitz(M + (k * step) * eye, reach)

    with np.errstate(all="ignore"):     # for eigvals and _is_hurwitz
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
