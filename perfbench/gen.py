"""Seeded problem generators for the benchmark workloads.

Every generator takes a ``numpy.random.Generator`` and returns plain
problem documents (the JSON schema the ``cdde-bound`` CLI reads) plus a
metadata record that the program never sees.  Admissibility is confirmed
here with ``numpy.linalg`` alone, independently of the package under test.
"""

from __future__ import annotations

import math

import numpy as np

ALPHA_STEP = 1e-3

# The paper's sample system (sample_problem.json), embedded so that the
# benchmark's inputs depend only on the seed.
SAMPLE_SYSTEM = {
    "A": [[-2.5, 0.3, 0.0], [0.5, -2.0, 0.1], [0.4, 0.6, -3.0]],
    "B": [[0.2, 0.1], [0.5, 0.3], [0.0, 0.4]],
    "C": [[0.3, 0.4, 0.1], [0.2, 0.2, 0.0]],
    "D": [[0.6, 0.3], [0.1, 0.2]],
    "h_max": 2.0,
    "omega_bar": [0.5, 0.3, 0.1],
    "d_bar": [0.3, 0.1],
    "psi_bar": [2.0, 5.0, 3.0],
    "phi_bar": [15.0, 5.0],
}

# verify-sample keeps the sample's delays and step grid but shortens the
# horizon from 40 to 6 (three dwell intervals of T_star = 2), so that one
# `verify` call takes seconds, not tens of seconds.
VERIFY_T_END = 6.0
VERIFY_STEP = 1e-3

# certify-scaling: (n, m, target Hurwitz margins).  The alpha grid of a
# system has about margin / ALPHA_STEP points, so the family spans grids of
# 300 to 1500 points; n = 30 sits at the cheap end to keep a round (one
# certificate per system) near 7 s, so that a run holds several rounds.
CERTIFY_FAMILY = [
    (3, 2, (0.5, 1.0, 1.5)),
    (10, 5, (1.0,)),
    (30, 15, (0.3,)),
]
CERTIFY_OPTIONS = {"alpha_step": ALPHA_STEP, "step": 0.01, "t_end": 10.0}

SIM_N, SIM_M, SIM_SCENARIOS = 30, 8, 3
SIM_T_END, SIM_STEP, SIM_H_MAX = 10.0, 1e-3, 2.0

# Tiny inputs for the smoke test: short horizons and alpha grids of about
# 20 to 60 points.
TINY_T_END, TINY_MARGIN = 1.0, 0.04


class NotAdmissible(ValueError):
    """A generated system failed an independent admissibility check."""


def _abscissa(M: np.ndarray) -> float:
    return float(np.linalg.eigvals(M).real.max())


def admissibility(system: dict) -> dict:
    """Check the model hypotheses with numpy.linalg; return grid metadata.

    A must be Metzler with ``-inv(A) >= 0``, B, C, D nonnegative, D Schur,
    and the witness ``solve([[A, B], [C, D - I]], -1)`` strictly positive.
    """
    A, B, C, D = (np.array(system[k], dtype=float) for k in "ABCD")
    n, m = A.shape[0], D.shape[0]
    off = A[~np.eye(n, dtype=bool)]
    if off.size and off.min() < 0.0:
        raise NotAdmissible("A is not Metzler")
    if min(B.min(), C.min(), D.min()) < 0.0:
        raise NotAdmissible("B, C, D must be nonnegative")
    if np.linalg.inv(A).max() > 0.0:
        raise NotAdmissible("-inv(A) has a negative entry")
    if np.abs(np.linalg.eigvals(D)).max() >= 1.0:
        raise NotAdmissible("D is not Schur")
    coupling = np.block([[A, B], [C, D - np.eye(m)]])
    witness = np.linalg.solve(coupling, -np.ones(n + m))
    if witness.min() <= 0.0:
        raise NotAdmissible("coupling witness is not strictly positive")
    margin = -_abscissa(A)
    return {"n": n, "m": m, "hurwitz_margin": margin,
            "alpha_grid_points": int(math.floor(margin / ALPHA_STEP)),
            "witness_min": float(witness.min())}


def random_system(rng: np.random.Generator, n: int, m: int, margin: float,
                  h_max: float) -> dict:
    """Admissible system whose A has spectral abscissa exactly ``-margin``.

    The margin is moved half a grid step off the alpha grid so that every
    grid point is decided far from the Hurwitz boundary.  Off-diagonal
    entries of A are dense and positive (irreducible), so the inverses the
    certificate tests are strictly signed.
    """
    margin = (round(margin / ALPHA_STEP) + 0.5) * ALPHA_STEP
    M = rng.uniform(0.0, 2.0 / n, (n, n))
    np.fill_diagonal(M, -rng.uniform(0.5, 1.5, n))
    A = M - (_abscissa(M) + margin) * np.eye(n)
    D = rng.uniform(0.0, 1.0, (m, m))
    D *= rng.uniform(0.2, 0.5) / np.abs(np.linalg.eigvals(D)).max()
    B = rng.uniform(0.0, 1.0, (n, m))
    C = rng.uniform(0.0, 1.0, (m, n))
    # scale the coupling so the Schur complement keeps half the margin
    S = B @ np.linalg.inv(np.eye(m) - D) @ C
    lo, hi = 0.0, 1.0
    while _abscissa(A + hi * S) < -0.5 * margin:
        hi *= 2.0
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if _abscissa(A + mid * S) < -0.5 * margin else (lo, mid)
    c = math.sqrt(lo)
    return {
        "A": A.tolist(), "B": (c * B).tolist(), "C": (c * C).tolist(),
        "D": D.tolist(), "h_max": h_max,
        "omega_bar": rng.uniform(0.1, 1.0, n).tolist(),
        "d_bar": rng.uniform(0.1, 1.0, m).tolist(),
        "psi_bar": rng.uniform(1.0, 5.0, n).tolist(),
        "phi_bar": rng.uniform(1.0, 5.0, m).tolist(),
    }


def verify_sample(rng: np.random.Generator, tiny: bool = False) -> list[tuple[str, dict, dict]]:
    """The sample system with the seed varying the disturbance frequencies.

    Delays and grid stay those of the sample, so the jump structure and the
    work per call do not depend on the seed, and neither does the
    certificate, which is checked against the paper's pinned values.
    """
    t_end = TINY_T_END if tiny else VERIFY_T_END
    system = SAMPLE_SYSTEM
    scale = rng.uniform(0.8, 1.25, 5)
    scenario = {
        "omega": {"kind": "abs_sin", "amplitude": system["omega_bar"],
                  "frequency": (np.array([0.2, 0.1, 0.3]) * scale[:3]).tolist()},
        "d": {"kind": "abs_cos", "amplitude": system["d_bar"],
              "frequency": (np.array([0.1, 0.2]) * scale[3:]).tolist()},
        "h1": {"kind": "const_plus_abs_sin", "amplitude": [1.0], "frequency": [1.0], "offset": 1.0},
        "h2": {"kind": "const_plus_abs_cos", "amplitude": [1.0], "frequency": [1.0], "offset": 1.0},
        "psi": system["psi_bar"],
        "phi": system["phi_bar"],
    }
    doc = {"system": system, "scenario": scenario,
           "options": {"alpha_step": ALPHA_STEP, "step": VERIFY_STEP, "t_end": t_end}}
    meta = admissibility(system)
    meta["steps"] = 6 * int(round(t_end / VERIFY_STEP))
    return [("sample", doc, meta)]


def certify_scaling(rng: np.random.Generator, tiny: bool = False) -> list[tuple[str, dict, dict]]:
    """One system per (size, margin) of CERTIFY_FAMILY, margins jittered 2 %."""
    out = []
    for n, m, margins in CERTIFY_FAMILY:
        for j, target in enumerate(margins):
            margin = target * rng.uniform(0.98, 1.02) * (TINY_MARGIN if tiny else 1.0)
            system = random_system(rng, n, m, margin, h_max=float(rng.uniform(0.5, 2.0)))
            meta = admissibility(system)
            out.append((f"n{n}_{j}", {"system": system, "options": dict(CERTIFY_OPTIONS)}, meta))
    return out


def _rectified(rng, kind, amplitude, fmax):
    return {"kind": kind, "amplitude": list(amplitude),
            "frequency": rng.uniform(0.1, fmax, len(amplitude)).tolist()}


def simulate_wide(rng: np.random.Generator, tiny: bool = False) -> list[tuple[str, dict, dict]]:
    """Independent n = 30 scenarios, each with its own system and signals.

    Delays vary in time with slope below one, so ``t - h(t)`` is increasing;
    the history is a rectified cosine that disagrees with the difference
    relation at t = 0, so every scenario carries a chain of y jumps.
    """
    t_end = TINY_T_END if tiny else SIM_T_END
    out = []
    for j in range(SIM_SCENARIOS):
        system = random_system(rng, SIM_N, SIM_M, float(rng.uniform(0.5, 1.5)), SIM_H_MAX)
        delays = []
        for kind in ("const_plus_abs_sin", "const_plus_abs_cos"):
            offset = float(rng.uniform(0.4, 1.0))
            amp = float(rng.uniform(0.3, 0.9))
            freq = float(rng.uniform(0.2, 0.8 / amp))
            delays.append({"kind": kind, "amplitude": [amp], "frequency": [freq], "offset": offset})
        scenario = {
            "omega": _rectified(rng, "abs_sin",
                                np.array(system["omega_bar"]) * rng.uniform(0.5, 1.0, SIM_N), 2.0),
            "d": _rectified(rng, "abs_cos",
                            np.array(system["d_bar"]) * rng.uniform(0.5, 1.0, SIM_M), 2.0),
            "h1": delays[0],
            "h2": delays[1],
            "psi": (np.array(system["psi_bar"]) * rng.uniform(0.5, 1.0, SIM_N)).tolist(),
            "phi": _rectified(rng, "abs_cos",
                              np.array(system["phi_bar"]) * rng.uniform(0.5, 1.0, SIM_M), 1.0),
        }
        doc = {"system": system, "scenario": scenario,
               "options": {"step": SIM_STEP, "t_end": t_end}}
        meta = admissibility(system)
        meta["steps"] = int(round(t_end / SIM_STEP))
        out.append((f"scenario{j}", doc, meta))
    return out


GENERATORS = {
    "verify-sample": verify_sample,
    "certify-scaling": certify_scaling,
    "simulate-wide": simulate_wide,
}
