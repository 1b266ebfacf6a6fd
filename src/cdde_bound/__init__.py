"""Componentwise state bounds for positive coupled differential-difference
systems with bounded disturbances, plus a delay-system simulator that
validates every certificate numerically."""

from .certificate import (compute_certificate, raw_contraction_factor, sample_staircase,
                          staircase, ultimate_bound)
from .linalg import cmp_leq, solve
from .model import SystemSpec
from .simulator import SignalSpec, SimulationScenario, simulate, verify_domination

__version__ = "0.1.0"

__all__ = [
    "SignalSpec", "SimulationScenario", "SystemSpec", "cmp_leq", "compute_certificate",
    "raw_contraction_factor", "sample_staircase", "simulate", "solve", "staircase",
    "ultimate_bound", "verify_domination",
]
