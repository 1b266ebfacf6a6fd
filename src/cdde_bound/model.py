"""Problem description for positive coupled differential-difference systems.

The model is

    x'(t) = A x(t) + B y(t - h1(t)) + w(t)
    y(t)  = C x(t) + D y(t - h2(t)) + d(t)

with unknown disturbances ``0 <= w(t) <= omega_bar``, ``0 <= d(t) <= d_bar``,
delays bounded by ``h_max``, initial state ``0 <= x(0) <= psi_bar`` and
initial history ``0 <= y(s) <= phi_bar`` on ``[-h_max, 0)``.  The initial
time is fixed at 0; a nonzero start is a time shift and not modelled.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .linalg import DimensionMismatch, as_matrix, as_vector

# The one sign tolerance.  Entries this far below zero are treated as
# round-off from textual input: values in (-NONNEG_TOL, 0) are clamped to 0
# on load, and every sign decision of the package uses this threshold.
NONNEG_TOL = 1e-12


def negative(a) -> np.ndarray:
    """Mask of the entries that are not ``>= -NONNEG_TOL``; NaN counts as negative."""
    return ~(np.asarray(a) >= -NONNEG_TOL)


def _clamp_roundoff(a: np.ndarray) -> np.ndarray:
    return np.where((a > -NONNEG_TOL) & (a < 0.0), 0.0, a)


@dataclass(frozen=True, eq=False)
class SystemSpec:
    """Immutable system data: matrices, delay bound and envelope vectors."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    h_max: float
    omega_bar: np.ndarray
    d_bar: np.ndarray
    psi_bar: np.ndarray
    phi_bar: np.ndarray

    def __post_init__(self):
        A = as_matrix(self.A, "A")
        B = as_matrix(self.B, "B")
        C = as_matrix(self.C, "C")
        D = as_matrix(self.D, "D")
        n = A.shape[0]
        m = D.shape[0]
        if A.shape != (n, n):
            raise DimensionMismatch(f"A must be square, got {A.shape}")
        if D.shape != (m, m):
            raise DimensionMismatch(f"D must be square, got {D.shape}")
        if B.shape != (n, m):
            raise DimensionMismatch(f"B must be {n}x{m}, got {B.shape}")
        if C.shape != (m, n):
            raise DimensionMismatch(f"C must be {m}x{n}, got {C.shape}")
        vecs = {
            "omega_bar": (self.omega_bar, n),
            "d_bar": (self.d_bar, m),
            "psi_bar": (self.psi_bar, n),
            "phi_bar": (self.phi_bar, m),
        }
        cleaned = {}
        for name, (value, dim) in vecs.items():
            v = as_vector(value, name)
            if v.shape[0] != dim:
                raise DimensionMismatch(f"{name} must have length {dim}, got {v.shape[0]}")
            cleaned[name] = _clamp_roundoff(v)

        # clamp parser round-off: off-diagonals of A and all of B, C, D
        off = ~np.eye(n, dtype=bool)
        A = A.copy()
        A[off] = _clamp_roundoff(A[off])
        B = _clamp_roundoff(B)
        C = _clamp_roundoff(C)
        D = _clamp_roundoff(D)

        h = float(self.h_max)
        if not np.isfinite(h):
            raise ValueError("h_max must be finite")

        for name, value in [("A", A), ("B", B), ("C", C), ("D", D),
                            ("h_max", h), *cleaned.items()]:
            object.__setattr__(self, name, value)
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, np.ndarray):
                value.setflags(write=False)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.D.shape[0]


def validate_structure(spec: SystemSpec) -> list[str]:
    """Collect violated structural requirements as human-readable findings.

    Never raises; an empty list means the system is structurally admissible
    (stability hypotheses are checked separately).
    """
    findings: list[str] = []
    A = spec.A
    for i, j in np.argwhere(negative(A) & ~np.eye(spec.n, dtype=bool)):
        findings.append(f"A not Metzler at ({i}, {j}): {A[i, j]}")
    for name in ("B", "C", "D"):
        M = getattr(spec, name)
        for i, j in np.argwhere(negative(M)):
            findings.append(f"{name} not nonnegative at ({i}, {j}): {M[i, j]}")
    for name in ("omega_bar", "d_bar", "psi_bar", "phi_bar"):
        v = getattr(spec, name)
        for i in np.flatnonzero(negative(v)):
            findings.append(f"{name} not nonnegative at {i}: {v[i]}")
    if spec.h_max < 0.0:
        findings.append(f"h_max negative: {spec.h_max}")
    return findings
