from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from cdde_bound import SignalSpec, SimulationScenario, SystemSpec

# Property tests draw the same examples on every run (derandomize), and no
# example database replays a failure saved by an earlier run.  The
# "explore" profile draws new ones: pytest --hypothesis-profile explore
# [--hypothesis-seed N], since derandomize would override the seed.
settings.register_profile("default", derandomize=True, database=None)
settings.register_profile("explore", derandomize=False, database=None)

REPO_ROOT = Path(__file__).resolve().parent.parent
SAMPLE_PROBLEM = REPO_ROOT / "sample_problem.json"


def make_sample_system() -> SystemSpec:
    """3x2 benchmark system used throughout the tests."""
    return SystemSpec(
        A=[[-2.5, 0.3, 0.0], [0.5, -2.0, 0.1], [0.4, 0.6, -3.0]],
        B=[[0.2, 0.1], [0.5, 0.3], [0.0, 0.4]],
        C=[[0.3, 0.4, 0.1], [0.2, 0.2, 0.0]],
        D=[[0.6, 0.3], [0.1, 0.2]],
        h_max=2.0,
        omega_bar=[0.5, 0.3, 0.1],
        d_bar=[0.3, 0.1],
        psi_bar=[2.0, 5.0, 3.0],
        phi_bar=[15.0, 5.0],
    )


def make_sample_scenario(spec: SystemSpec, a: float, b: float,
                         t_end: float = 40.0, step: float = 1e-3,
                         psi=None, phi=None) -> SimulationScenario:
    """The rectified-sine scenario family of the benchmark, scaled by (a, b)."""
    return SimulationScenario(
        spec=spec,
        omega=SignalSpec("abs_sin", (0.5 * a, 0.3 * a, 0.1 * a), (0.2, 0.1, 0.3)),
        d=SignalSpec("abs_cos", (0.3 * b, 0.1 * b), (0.1, 0.2)),
        h1=SignalSpec("const_plus_abs_sin", (1.0,), (1.0,), 1.0),
        h2=SignalSpec("const_plus_abs_cos", (1.0,), (1.0,), 1.0),
        psi=spec.psi_bar if psi is None else psi,
        phi=spec.phi_bar if phi is None else phi,
        t_end=t_end,
        step=step,
    )


def simplex_grid(resolution: int) -> np.ndarray:
    """All r >= 0 with integer coordinates summing to `resolution`, scaled."""
    pts = []
    for i in range(resolution + 1):
        for j in range(resolution + 1 - i):
            pts.append((i, j, resolution - i - j))
    return np.array(pts, dtype=float) / resolution


def grid_min_factor(a: np.ndarray, alpha: float, theta: np.ndarray,
                    i: int, resolution: int = 100) -> float:
    """Brute-force the envelope factor over weight vectors on the simplex.

    The factor is (v . theta) / v_i with v = -inv(A^T + alpha I) r; it is
    homogeneous of degree 0 in r, so the unit simplex suffices.  Uses
    numpy.linalg directly, independent of the package solver.
    """
    r = simplex_grid(resolution)
    v = np.linalg.solve(-(a.T + alpha * np.eye(3)), r.T)   # (3, N)
    vi = v[i]
    mask = vi > 1e-15
    vals = (theta @ v[:, mask]) / vi[mask]
    return float(vals.min())


def random_metzler_hurwitz(rng: np.random.Generator, n: int = 3,
                           coupling: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Random Metzler matrix made Hurwitz by strict diagonal dominance.

    Returns the matrix and the per-row dominance margins; any shift below
    the smallest margin keeps the matrix Hurwitz, which gives an admissible
    decay rate independent of the code under test.
    """
    off = rng.uniform(0.0, coupling, size=(n, n))
    np.fill_diagonal(off, 0.0)
    margins = rng.uniform(0.2, 1.5, size=n)
    a = off.copy()
    np.fill_diagonal(a, -(off.sum(axis=1) + margins))
    return a, margins


@pytest.fixture(scope="session")
def sample_spec() -> SystemSpec:
    return make_sample_system()


@pytest.fixture(scope="session")
def sample_problem_path() -> Path:
    return SAMPLE_PROBLEM
