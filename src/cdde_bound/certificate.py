"""Certified componentwise state bounds for disturbed coupled systems.

The pipeline computes, for an admissible system:

1. the ultimate bound ``(eta, varsigma)`` as the equilibrium of the system
   driven by the maximal constant disturbances,
2. strictly positive comparison vectors ``(p, q)`` scaled to dominate the
   shifted initial envelopes,
3. a contraction factor ``mu`` in (0, 1) making the comparison
   inequalities strict, from two of their three ratio families (the third
   never binds; see ``raw_contraction_factor``),
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
from .linalg import as_vector, solve
from .model import SystemSpec, validate_structure

# Shrinking mu by this factor keeps the comparison inequalities strict and
# the downstream target box strictly positive when the closed-form mu makes
# one of them an equality.  A scaled mu below MU_MIN refuses the certificate:
# raising it to MU_MIN would break the inequalities.
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


def ultimate_bound(spec: SystemSpec, equilibrium=None) -> tuple[np.ndarray, np.ndarray]:
    """Equilibrium under maximal constant disturbances; the limsup bound.
    ``equilibrium`` is the one ``check_joint_condition`` solved, if known.
    The exact one is nonnegative, so a negative entry is rounded up to 0."""
    if equilibrium is None:
        equilibrium = solve(stability.coupling_matrix(spec),
                            -np.concatenate([spec.omega_bar, spec.d_bar]))
    bound = np.maximum(equilibrium, 0.0)
    return bound[:spec.n], bound[spec.n:]


def comparison_vectors(direction, init_x_bound, init_y_bound) -> tuple[np.ndarray, np.ndarray]:
    """The joint-condition witness ``direction = (p, q)``, strictly positive,
    scaled by the largest ratio of initial envelope to witness entry, so
    that it dominates the nonnegative initial envelopes and keeps the
    strict inequalities the witness satisfies."""
    p_dir, q_dir = direction
    with np.errstate(over="ignore"):
        rho = max(float((init_x_bound / p_dir).max()), float((init_y_bound / q_dir).max()),
                  RHO_MIN)
        p, q = rho * p_dir, rho * q_dir
    if not (np.isfinite(p).all() and np.isfinite(q).all()):
        raise ValueError(f"the witness scaled by rho = {rho:.3g} is not finite: "
                         "the scale of xi is too far from that of the initial envelopes")
    return p, q


def raw_contraction_factor(spec: SystemSpec, p, q, shift=None) -> float:
    """Closed-form contraction factor from two ratio families, ``-inv(A) B q
    / p`` and ``(C p + D q) / q``; ``shift`` is ``solve(A, B q)``, if
    already known.

    The paper's third family, ``m2 = inv(I - D) C p`` over ``q``, never
    sets the factor.  Let ``s = max((C p + D q) / q)``, so ``C p + D q <=
    s q`` and ``(I - D) m2 = C p <= (I - D) q - (1 - s) q``.  ``D`` is
    Schur, so ``inv(I - D) = I + D + D^2 + ... >= I`` (Neumann series),
    and for ``s <= 1`` ``m2 <= q - (1 - s) inv(I - D) q <= s q``.  For
    ``s > 1`` the pair is refused either way."""
    pv = as_vector(p, "p")
    qv = as_vector(q, "q")
    m1 = -(solve(spec.A, spec.B @ qv) if shift is None else shift)
    m3 = spec.C @ pv + spec.D @ qv
    mu = 1.0 - max(float((m1 / pv).max()), float((m3 / qv).max()))
    if not mu > 0.0:                    # NaN fails too
        raise HypothesisViolated(
            f"comparison inequalities fail for the supplied (p, q): mu={mu}")
    return mu


def contraction_factor(spec: SystemSpec, p, q, shift=None) -> float:
    """Safety-scaled contraction factor in ``[MU_MIN, MU_MAX]``, never above
    the raw factor; raises HypothesisViolated when it would fall below
    ``MU_MIN``."""
    mu = MU_SAFETY * raw_contraction_factor(spec, p, q, shift)
    if mu < MU_MIN:
        raise HypothesisViolated(f"contraction factor {mu:.3e} below MU_MIN = {MU_MIN:.0e}")
    return min(mu, MU_MAX)


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

    eta, varsigma = ultimate_bound(spec, report.equilibrium)
    constant = bool((spec.psi_bar <= eta).all() and (spec.phi_bar <= varsigma).all())

    psi_hat = np.maximum(spec.psi_bar, eta)
    phi_hat = np.maximum(spec.phi_bar, varsigma)
    try:
        p, q = comparison_vectors((report.witness_p, report.witness_q),
                                  psi_hat - eta, phi_hat - varsigma)
    except ValueError as exc:
        raise CertificateError("comparison-vectors", str(exc)) from exc

    try:
        # no threshold needed: the witness proves A Hurwitz, A p < -B q <= 0, p > 0
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
    _, xb, yb = staircase_runs(cert, [t])
    return xb[0], yb[0]


def staircase_runs(cert: BoundCertificate, times) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The staircase on a time grid as runs ``(starts, xb, yb)``: the row
    where each dwell index ``k = floor(t / T_star)`` starts, and a bound row
    per run; a constant bound is one run."""
    ts = as_vector(times, "times")
    if ts.size and ts.min() < 0.0:
        raise NegativeTime(f"bound requested at negative time {ts.min()}")
    k = np.floor(ts / cert.T_star)
    starts = np.flatnonzero(np.r_[ts.size > 0, k[1:] != k[:-1]])
    if cert.constant_bound:
        starts = starts[:1]
        return starts, np.tile(cert.eta, (starts.size, 1)), np.tile(cert.varsigma, (starts.size, 1))
    factor = (1.0 - cert.mu) ** k[starts]
    xb = cert.eta[None, :] + factor[:, None] * cert.p[None, :]
    yb = cert.varsigma[None, :] + (factor * (1.0 - cert.mu))[:, None] * cert.q[None, :]
    return starts, xb, yb


def sample_staircase(cert: BoundCertificate, times) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized staircase evaluation on a time grid: the runs, expanded."""
    starts, *bounds = staircase_runs(cert, times)
    return tuple(np.repeat(b, np.diff(starts, append=np.size(times)), axis=0) for b in bounds)
