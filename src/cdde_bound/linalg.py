"""Dense real linear algebra for small systems.

Everything here operates on plain numpy float64 arrays.  The solver is a
partially pivoted LU factorization written out explicitly so that the
singularity threshold is under our control: the coupling matrices handled
by this package are provably nonsingular when the modelling hypotheses
hold, so a near-zero pivot signals a modelling error and must surface as
:class:`SingularMatrix` rather than as solver-dependent noise.
"""

from __future__ import annotations

import numpy as np

# Pivot magnitudes below PIVOT_RTOL times the largest entry of the input
# matrix declare the matrix singular.
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


def lu_factor(matrix) -> tuple[np.ndarray, np.ndarray]:
    """Partially pivoted LU factorization of ``(n, n)`` or of each member of
    a stack ``(G, n, n)``, every member with its own threshold.

    Returns ``(lu, perm)`` where ``lu`` packs the unit-lower and upper
    triangular factors and ``perm`` maps factored rows to input rows.
    Raises :class:`SingularMatrix`, naming the stack member, when a pivot
    falls below the relative threshold.
    """
    a = _as_array(matrix, "matrix", 3 if np.ndim(matrix) == 3 else 2)
    nrows, ncols = a.shape[-2:]
    if nrows != ncols:
        raise DimensionMismatch(f"matrix must be square, got {nrows}x{ncols}")
    lu = a.reshape(-1, nrows, nrows)            # a view of ``a``, factored in place
    member = " in stack member {}" if a.ndim == 3 else ""
    scale = np.abs(lu).max(axis=(1, 2), initial=0.0)
    if not scale.all():
        raise SingularMatrix("zero matrix" + member.format(int(np.argmin(scale))))
    tol = PIVOT_RTOL * scale
    g = np.arange(lu.shape[0])
    perm = np.tile(np.arange(nrows), (lu.shape[0], 1))
    for k in range(nrows):
        col = np.abs(lu[:, k:, k])
        p = col.argmax(axis=1)
        low = col[g, p] < tol
        p += k
        if low.any():
            j = int(np.argmax(low))
            raise SingularMatrix(f"pivot {lu[j, p[j], k]:.3e} below threshold {tol[j]:.3e} "
                                 f"at column {k}" + member.format(j))
        rows, idx = lu[g, p], perm[g, p]
        lu[g, p], perm[g, p] = lu[:, k], perm[:, k]
        lu[:, k], perm[:, k] = rows, idx
        lu[:, k + 1:, k] /= lu[:, k, k, None]
        lu[:, k + 1:, k + 1:] -= lu[:, k + 1:, k, None] * lu[:, k, None, k + 1:]
    return a, perm.reshape(a.shape[:-1])


def lu_solve(lu: np.ndarray, perm: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve for ``rhs`` of shape ``(n,)`` or ``(n, r)``, with the leading
    stack axis of ``lu`` when it has one."""
    n = lu.shape[-1]
    L = lu.reshape(-1, n, n)
    g = np.arange(L.shape[0])[:, None]
    x = np.asarray(rhs, dtype=float).reshape(L.shape[0], n, -1)[g, perm.reshape(-1, n)]
    for i in range(1, n):
        x[:, i] -= (L[:, i, None, :i] @ x[:, :i])[:, 0]
    for i in range(n - 1, -1, -1):
        x[:, i] -= (L[:, i, None, i + 1:] @ x[:, i + 1:])[:, 0]
        x[:, i] /= L[:, i, i, None]
    return x.reshape(np.shape(rhs))


def solve(matrix, rhs) -> np.ndarray:
    """Solve ``matrix @ x = rhs`` by LU with partial pivoting."""
    b = as_vector(rhs, "rhs")
    lu, perm = lu_factor(as_matrix(matrix))
    if lu.shape[0] != b.shape[0]:
        raise DimensionMismatch(f"rhs length {b.shape[0]} does not match matrix order {lu.shape[0]}")
    return lu_solve(lu, perm, b)


def inverse(matrix) -> np.ndarray:
    """Inverse of a matrix or of each member of a stack: one factorization,
    one solve against the identity."""
    lu, perm = lu_factor(matrix)
    return lu_solve(lu, perm, np.broadcast_to(np.eye(lu.shape[-1]), lu.shape))


def cmp_leq(u, v, slack: float = 0.0) -> bool:
    """Componentwise order test: ``u[i] <= v[i] + slack`` for all i."""
    if slack < 0.0:
        raise ValueError(f"slack must be nonnegative, got {slack}")
    ua = as_vector(u, "u")
    va = as_vector(v, "v")
    if ua.shape != va.shape:
        raise DimensionMismatch(f"dimension mismatch: {ua.shape[0]} vs {va.shape[0]}")
    return bool((ua <= va + slack).all())
