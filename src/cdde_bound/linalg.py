"""Dense real linear algebra for small systems.

Everything here operates on plain numpy float64 arrays.  ``inverse`` hands a
single matrix or a whole ``(G, n, n)`` stack to LAPACK through one
``np.linalg.inv`` call; it drives every sign-of-inverse test and the
decay-rate sweep.  The coupling matrix and ``solve`` go through a partially
pivoted LU written out here, whose rounding the pinned certificate bytes
depend on.  The matrices handled by this package are provably nonsingular
when the modelling hypotheses hold, so a near-singular one signals a
modelling error and must surface as :class:`SingularMatrix` rather than as
solver-dependent noise.
"""

from __future__ import annotations

import numpy as np

# The one singularity threshold: ``inverse`` rejects a matrix whose
# reciprocal 1-norm condition is below it, ``lu_factor`` one with a pivot
# below it times the largest entry of the input.
PIVOT_RTOL = 1e-12


class SingularMatrix(ValueError):
    """Matrix is singular to working precision."""


class DimensionMismatch(ValueError):
    """Operands have inconsistent dimensions."""


def _as_array(data, name: str, ndim: int) -> np.ndarray:
    a = np.array(data, dtype=float)
    if a.ndim != ndim:
        raise DimensionMismatch(f"{name} must be {ndim}-D, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite entries")
    return a


def as_matrix(data, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D float64 array and require finite entries."""
    return _as_array(data, name, 2)


def as_vector(data, name: str = "vector") -> np.ndarray:
    """Coerce to a 1-D float64 array and require finite entries."""
    return _as_array(data, name, 1)


def _square(a: np.ndarray) -> int:
    nrows, ncols = a.shape[-2:]
    if nrows != ncols:
        raise DimensionMismatch(f"matrix must be square, got {nrows}x{ncols}")
    return nrows


def lu_factor(matrix) -> tuple[np.ndarray, np.ndarray]:
    """Partially pivoted LU factorization.

    Returns ``(lu, perm)`` where ``lu`` packs the unit-lower and upper
    triangular factors and ``perm`` maps factored rows to input rows.
    Raises :class:`SingularMatrix` when a pivot falls below the relative
    threshold.
    """
    lu = as_matrix(matrix)                      # a fresh copy, factored in place
    n = _square(lu)
    scale = np.abs(lu).max(initial=0.0)
    if scale == 0.0:
        raise SingularMatrix("zero matrix")
    tol = PIVOT_RTOL * scale
    perm = np.arange(n)
    for k in range(n):
        p = k + int(np.argmax(np.abs(lu[k:, k])))
        if abs(lu[p, k]) < tol:
            raise SingularMatrix(f"pivot {lu[p, k]:.3e} below threshold {tol:.3e} at column {k}")
        lu[[k, p]] = lu[[p, k]]
        perm[[k, p]] = perm[[p, k]]
        lu[k + 1:, k] /= lu[k, k]
        lu[k + 1:, k + 1:] -= np.outer(lu[k + 1:, k], lu[k, k + 1:])
    return lu, perm


def lu_solve(lu: np.ndarray, perm: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve for a vector ``rhs`` against the factors from :func:`lu_factor`."""
    x = np.asarray(rhs, dtype=float)[perm]
    for i in range(1, lu.shape[0]):
        x[i] -= lu[i, :i] @ x[:i]
    for i in range(lu.shape[0] - 1, -1, -1):
        x[i] -= lu[i, i + 1:] @ x[i + 1:]
        x[i] /= lu[i, i]
    return x


def solve(matrix, rhs) -> np.ndarray:
    """Solve ``matrix @ x = rhs`` by LU with partial pivoting."""
    b = as_vector(rhs, "rhs")
    lu, perm = lu_factor(matrix)
    if lu.shape[0] != b.shape[0]:
        raise DimensionMismatch(f"rhs length {b.shape[0]} does not match matrix order {lu.shape[0]}")
    return lu_solve(lu, perm, b)


def inverse(matrix) -> np.ndarray:
    """Inverse of a matrix or of each member of a stack ``(G, n, n)``, by
    one LAPACK call.  Raises :class:`SingularMatrix`, naming the stack
    member, when a member's reciprocal 1-norm condition is below
    ``PIVOT_RTOL``."""
    a = _as_array(matrix, "matrix", 3 if np.ndim(matrix) == 3 else 2)
    _square(a)
    member = " in stack member {}" if a.ndim == 3 else ""
    try:
        inv = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        # LAPACK met an exact zero pivot; slogdet factors the same way
        j = int(np.argmin(np.abs(np.linalg.slogdet(a).sign)))
        raise SingularMatrix("exactly singular" + member.format(j)) from None
    with np.errstate(all="ignore"):         # an overflowing norm is singular too
        cond = np.abs(a).sum(axis=-2).max(axis=-1) * np.abs(inv).sum(axis=-2).max(axis=-1)
    bad = ~(cond * PIVOT_RTOL < 1.0)
    if bad.any():
        j = int(np.argmax(bad))
        raise SingularMatrix(f"reciprocal condition {1.0 / cond.flat[j]:.3e} below threshold "
                             f"{PIVOT_RTOL:.3e}" + member.format(j))
    return inv


def cmp_leq(u, v, slack: float = 0.0) -> bool:
    """Componentwise order test: ``u[i] <= v[i] + slack`` for all i."""
    if slack < 0.0:
        raise ValueError(f"slack must be nonnegative, got {slack}")
    ua = as_vector(u, "u")
    va = as_vector(v, "v")
    if ua.shape != va.shape:
        raise DimensionMismatch(f"dimension mismatch: {ua.shape[0]} vs {va.shape[0]}")
    return bool((ua <= va + slack).all())
