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

from dataclasses import dataclass

import numpy as np

from .linalg import DimensionMismatch, as_matrix, as_vector


def negative(a) -> np.ndarray:
    """Mask of the entries that are not ``>= 0``, the one sign rule of the
    package: NaN counts as negative, ``-0.0`` does not."""
    return ~(np.asarray(a) >= 0.0)


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
        A, B, C, D = (as_matrix(getattr(self, name), name) for name in "ABCD")
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
        # stored as parsed, read-only
        arrays = {"A": A, "B": B, "C": C, "D": D}
        for name, dim in (("omega_bar", n), ("d_bar", m), ("psi_bar", n), ("phi_bar", m)):
            v = arrays[name] = as_vector(getattr(self, name), name)
            if v.shape[0] != dim:
                raise DimensionMismatch(f"{name} must have length {dim}, got {v.shape[0]}")

        h = float(self.h_max)
        if not np.isfinite(h):
            raise ValueError("h_max must be finite")

        object.__setattr__(self, "h_max", h)
        for name, value in arrays.items():
            value.setflags(write=False)
            object.__setattr__(self, name, value)

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
