"""Certified componentwise state bounds for disturbed coupled systems.

The pipeline computes, for an admissible system:

1. the ultimate bound ``(eta, varsigma)`` as the equilibrium of the system
   driven by the maximal constant disturbances,
2. strictly positive comparison vectors ``(p, q)`` scaled to dominate the
   shifted initial envelopes,
3. a contraction factor ``mu`` in (0, 1) making the comparison
   inequalities strict,
4. a dwell time ``T_star`` after which the comparison solution has
   certifiably contracted by ``1 - mu``.

The resulting bound is a geometric staircase: on the k-th dwell interval
``[k T_star, (k+1) T_star)`` the state satisfies
``x(t) <= eta + (1-mu)^k p`` and ``y(t) <= varsigma + (1-mu)^(k+1) q``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import envelope, stability
from .linalg import as_vector, lu_factor, lu_solve, solve
from .model import SystemSpec, _clamp_roundoff, validate_structure

# Shrinking mu by this factor keeps the comparison inequalities strict and
# the downstream target box strictly positive when the closed-form mu makes
# one of them an equality.
MU_SAFETY = 0.999
MU_MIN = 1e-9
MU_MAX = 0.999
# Lower clamp for the comparison-vector scale when all initial envelopes
# vanish: keeps p, q strictly positive.
RHO_MIN = 1e-9


class HypothesisViolated(ValueError):
    """Comparison inequalities do not hold for the supplied vectors."""


class NegativeTime(ValueError):
    """Bound evaluation requested at a negative time."""


class CertificateError(RuntimeError):
    """Pipeline failure, tagged with the stage that raised."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"{stage}: {message}")
        self.stage = stage


@dataclass(frozen=True, eq=False)
class BoundCertificate:
    """Everything needed to evaluate the staircase bound."""

    eta: np.ndarray
    varsigma: np.ndarray
    p: np.ndarray
    q: np.ndarray
    mu: float
    T_star: float
    convergence: envelope.ConvergenceResult
    constant_bound: bool

    def to_dict(self) -> dict:
        return {
            "eta": self.eta.tolist(),
            "varsigma": self.varsigma.tolist(),
            "p": self.p.tolist(),
            "q": self.q.tolist(),
            "mu": self.mu,
            "T_star": self.T_star,
            "constant_bound": self.constant_bound,
            "T": self.convergence.T,
            "per_component_T": self.convergence.per_component_T.tolist(),
        }


def ultimate_bound(spec: SystemSpec, coupling_lu=None) -> tuple[np.ndarray, np.ndarray]:
    """Equilibrium under maximal constant disturbances; the limsup bound.
    ``coupling_lu`` is the coupling matrix's factorization, if already known."""
    if coupling_lu is None:
        coupling_lu = lu_factor(stability.coupling_matrix(spec))
    v = lu_solve(*coupling_lu, -np.concatenate([spec.omega_bar, spec.d_bar]))
    return _clamp_roundoff(v[:spec.n]), _clamp_roundoff(v[spec.n:])


def comparison_vectors(spec: SystemSpec, xi, init_x_bound, init_y_bound,
                       direction=None) -> tuple[np.ndarray, np.ndarray]:
    """Strictly positive comparison pair scaled over the initial envelopes.

    Solves the coupling system for the direction and scales it by the
    largest ratio of initial envelope to direction entry, so the result
    dominates the initial data while preserving the strict inequalities.
    ``direction`` is that solution (the joint-condition witness), if known.
    """
    n, m = spec.n, spec.m
    xi_vec = np.ones(n + m) if xi is None else as_vector(xi, "xi")
    if xi_vec.min() <= 0.0:
        raise ValueError("xi must be strictly positive")
    ix = as_vector(init_x_bound, "init_x_bound")
    iy = as_vector(init_y_bound, "init_y_bound")
    if ix.shape[0] != n or iy.shape[0] != m:
        raise ValueError("initial bounds must match the system dimensions")
    ix = np.maximum(ix, 0.0)
    iy = np.maximum(iy, 0.0)
    if direction is None:
        v = solve(stability.coupling_matrix(spec), -xi_vec)
        direction = v[:n], v[n:]
    p_dir, q_dir = direction
    if p_dir.min() <= 1e-12 or q_dir.min() <= 1e-12:
        raise HypothesisViolated("comparison direction not strictly positive")
    rho = max(float((ix / p_dir).max()), float((iy / q_dir).max()), RHO_MIN)
    return rho * p_dir, rho * q_dir


def raw_contraction_factor(spec: SystemSpec, p, q, shift=None) -> float:
    """Closed-form contraction factor from the three ratio families;
    ``shift`` is ``solve(A, B q)``, if already known."""
    pv = as_vector(p, "p")
    qv = as_vector(q, "q")
    m1 = -(solve(spec.A, spec.B @ qv) if shift is None else shift)
    m2 = solve(np.eye(spec.m) - spec.D, spec.C @ pv)
    m3 = spec.C @ pv + spec.D @ qv
    worst = max(float((m1 / pv).max()), float((m2 / qv).max()),
                float((m3 / qv).max()))
    mu = 1.0 - worst
    if mu <= 0.0:
        raise HypothesisViolated(
            f"comparison inequalities fail for the supplied (p, q): mu={mu}")
    return mu


def contraction_factor(spec: SystemSpec, p, q, shift=None) -> float:
    """Safety-scaled contraction factor, strictly inside (0, 1)."""
    mu = MU_SAFETY * raw_contraction_factor(spec, p, q, shift)
    return min(max(mu, MU_MIN), MU_MAX)


def compute_certificate(spec: SystemSpec, alpha_step: float = 1e-3,
                        xi=None) -> BoundCertificate:
    """Run the full bounding pipeline.

    The short-circuit case (initial envelopes already inside the ultimate
    bound) is recorded in ``constant_bound``; the staircase quantities are
    computed regardless, so the certificate is usable either way.
    """
    findings = validate_structure(spec)
    if findings:
        raise CertificateError("structural-validation", "; ".join(findings))
    report = stability.check_joint_condition(spec, xi)
    if not report.joint_condition_holds:
        raise CertificateError("stability-hypotheses",
                               report.diagnostic or "joint condition fails")

    try:
        eta, varsigma = ultimate_bound(spec, report.coupling_lu)
    except Exception as exc:
        raise CertificateError("ultimate-bound", str(exc)) from exc

    constant = bool((spec.psi_bar <= eta).all() and (spec.phi_bar <= varsigma).all())

    psi_hat = np.maximum(spec.psi_bar, eta)
    phi_hat = np.maximum(spec.phi_bar, varsigma)
    try:
        p, q = comparison_vectors(spec, xi, psi_hat - eta, phi_hat - varsigma,
                                  (report.witness_p, report.witness_q))
    except Exception as exc:
        raise CertificateError("comparison-vectors", str(exc)) from exc

    try:
        shift = solve(spec.A, spec.B @ q)
        mu = contraction_factor(spec, p, q, shift)
    except Exception as exc:
        raise CertificateError("contraction-factor", str(exc)) from exc

    try:
        theta_bar = p + shift
        delta = (1.0 - mu) * p + shift
        conv = envelope.finite_time(spec.A, theta_bar, delta, alpha_step)
    except Exception as exc:
        raise CertificateError("convergence-time", str(exc)) from exc

    # degenerate dwell (delay-free system converging instantly): keep the
    # staircase well defined by flooring at one grid step
    t_star = max(conv.T, spec.h_max)
    if t_star <= 0.0:
        t_star = alpha_step
    return BoundCertificate(eta=eta, varsigma=varsigma, p=p, q=q, mu=mu,
                            T_star=t_star, convergence=conv,
                            constant_bound=constant)


def staircase(cert: BoundCertificate, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Bound vectors valid at time ``t``; nonincreasing in t, limit (eta, varsigma)."""
    if t < 0.0:
        raise NegativeTime(f"bound requested at negative time {t}")
    xb, yb = sample_staircase(cert, [t])
    return xb[0], yb[0]


def sample_staircase(cert: BoundCertificate, times) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized staircase evaluation on a time grid."""
    ts = as_vector(times, "times")
    if ts.size and ts.min() < 0.0:
        raise NegativeTime("bound requested at negative time")
    if cert.constant_bound:
        xb = np.tile(cert.eta, (ts.shape[0], 1))
        yb = np.tile(cert.varsigma, (ts.shape[0], 1))
        return xb, yb
    k = np.floor(ts / cert.T_star)
    factor = (1.0 - cert.mu) ** k
    xb = cert.eta[None, :] + factor[:, None] * cert.p[None, :]
    yb = cert.varsigma[None, :] + (factor * (1.0 - cert.mu))[:, None] * cert.q[None, :]
    return xb, yb


def continuous_envelope(cert: BoundCertificate, t: float
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Smooth geometric envelope dominating the staircase.

    Convenience only: the certified object is the staircase; this curve
    replaces the exponent k by ``t / T_star - 1`` (respectively
    ``t / T_star`` for the second part) and lies on or above it everywhere.
    """
    if t < 0.0:
        raise NegativeTime(f"bound requested at negative time {t}")
    if cert.constant_bound:
        return cert.eta.copy(), cert.varsigma.copy()
    base = 1.0 - cert.mu
    return (cert.eta + base ** (t / cert.T_star - 1.0) * cert.p,
            cert.varsigma + base ** (t / cert.T_star) * cert.q)
