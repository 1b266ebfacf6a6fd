"""Componentwise state bounds for positive coupled differential-difference
systems with bounded disturbances, plus a delay-system simulator that
validates every certificate numerically."""

from .certificate import (BoundCertificate, CertificateError, HypothesisViolated,
                          NegativeTime, compute_certificate, comparison_vectors,
                          contraction_factor, raw_contraction_factor, sample_staircase,
                          staircase, ultimate_bound)
from .envelope import (ConvergenceResult, DecayRateTooLarge, EmptyIndexSet,
                       ExponentialEstimate, NonpositiveThreshold, finite_time,
                       gamma_component)
from .linalg import (DimensionMismatch, SingularMatrix, cmp_leq, inverse, solve)
from .model import SystemSpec, validate_structure
from .simulator import (DominationReport, InvalidScenario, MismatchedScenarios,
                        SignalSpec, SimulationScenario, Trajectory, UnstableStep,
                        simulate, verify_domination, write_trajectory_csv)
from .stability import (NotMetzler, NotNonnegative, NotStable, StabilityReport,
                        alpha_max, check_joint_condition, coupling_matrix,
                        is_metzler_hurwitz)

__version__ = "0.1.0"

__all__ = [
    "BoundCertificate", "CertificateError", "ConvergenceResult",
    "DecayRateTooLarge", "DimensionMismatch", "DominationReport",
    "EmptyIndexSet", "ExponentialEstimate", "HypothesisViolated",
    "InvalidScenario", "MismatchedScenarios", "NegativeTime", "NonpositiveThreshold",
    "NotMetzler", "NotNonnegative", "NotStable", "SignalSpec",
    "SimulationScenario", "SingularMatrix", "StabilityReport", "SystemSpec",
    "Trajectory", "UnstableStep", "alpha_max", "check_joint_condition",
    "cmp_leq", "comparison_vectors", "compute_certificate", "contraction_factor",
    "coupling_matrix", "finite_time", "gamma_component", "inverse",
    "is_metzler_hurwitz", "raw_contraction_factor", "sample_staircase", "simulate",
    "solve", "staircase", "ultimate_bound", "validate_structure", "verify_domination",
    "write_trajectory_csv",
]
