"""Dense real linear algebra for small systems.

Everything here operates on plain numpy float64 arrays and hands the work to
LAPACK.  ``solve`` is one ``np.linalg.solve`` call (LU with partial pivoting,
backward stable), for the coupling matrix's witness and equilibrium and the
shift of the contraction factor.  ``inverse`` is the package's only
``np.linalg.inv`` call, for a single matrix or a whole ``(G, n, n)`` stack,
for the Hurwitz predicate, the decay-rate sweep and the simulator.  Neither
reads a tolerance: the witness test of ``stability`` judges what they
return, so they refuse only an exactly singular matrix, and ``inverse`` also
an inverse that overflows.  Either surfaces as :class:`SingularMatrix`
rather than as solver-dependent noise.
"""

from __future__ import annotations

import numpy as np

class SingularMatrix(ValueError):
    """Matrix is singular to working precision."""


class DimensionMismatch(ValueError):
    """Operands have inconsistent dimensions."""


def _as_array(data, name: str, ndim: int, copy: bool = True) -> np.ndarray:
    a = np.array(data, dtype=float) if copy else np.asarray(data, dtype=float)
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


def solve(matrix, rhs) -> np.ndarray:
    """Solve ``matrix @ x = rhs`` for a vector ``rhs``, or for each column of
    an ``(n, k)`` one, by one LAPACK call.  Raises :class:`SingularMatrix`
    when LAPACK meets an exact zero pivot."""
    # validated in place: np.linalg.solve makes its own copies
    a = _as_array(matrix, "matrix", 2, copy=False)
    b = _as_array(rhs, "rhs", 2 if np.ndim(rhs) == 2 else 1, copy=False)
    n = _square(a)
    if b.shape[0] != n:
        raise DimensionMismatch(f"rhs length {b.shape[0]} does not match matrix order {n}")
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        raise SingularMatrix("exact zero pivot") from None


def inverse(matrix) -> np.ndarray:
    """Inverse of a matrix or of each member of a stack ``(G, n, n)``, by
    one LAPACK call.  Raises :class:`SingularMatrix`, naming the stack
    member, when LAPACK meets an exact zero pivot or the inverse is not
    finite, as ``[[1e-310]]``'s is."""
    # validated in place: np.linalg.inv makes its own copy
    a = _as_array(matrix, "matrix", 3 if np.ndim(matrix) == 3 else 2, copy=False)
    _square(a)
    member = " in stack member {}" if a.ndim == 3 else ""
    try:
        inv = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        # LAPACK met an exact zero pivot; slogdet factors the same way
        j = int(np.argmin(np.abs(np.linalg.slogdet(a).sign)))
        raise SingularMatrix("exactly singular" + member.format(j)) from None
    # one test of the whole stack; the failing member is located only on
    # failure, since a reduction over each member's small axes costs more
    if not np.isfinite(inv).all():
        finite = np.isfinite(inv).all(axis=(-2, -1))
        raise SingularMatrix("inverse not finite" + member.format(int(np.argmin(finite))))
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
