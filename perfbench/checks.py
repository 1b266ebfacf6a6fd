"""Independent output checks for the benchmark.

Each check re-derives what it tests with ``numpy.linalg`` and plain numpy,
never with the package under test, and returns a list of findings (empty
when the output is correct).  The self-tests feed deliberately broken
outputs and require the checks to catch them.
"""

from __future__ import annotations

import math
import re

import numpy as np

# Acceptance values pinned to the paper's sample system, with the
# tolerances of tests/test_acceptance.py (criteria 1-4).
PINNED = [
    ("eta", [0.7249, 1.4756, 0.5780], 5e-4),
    ("varsigma", [3.7739, 1.1469], 5e-4),
    ("p", [2.3951, 5.5118, 2.4220], 5e-3),
    ("q", [14.1659, 4.9990], 5e-3),
    ("T", 1.2056, 0.05),
    ("T_star", 2.0, 0.0),
]
PINNED_RAW_MU, PINNED_DECAY = (0.0707, 5e-4), (0.9293, 5e-4)
VERIFY_GRID = [(0.0, 0.0), (0.0, 1.0), (0.5, 0.0), (0.5, 1.0), (1.0, 0.0), (1.0, 1.0)]
VERIFY_SLACK = 1e-6

# Relative tolerances of the trajectory residual checks, on the scale of
# the largest value of y and of x.  Correct n = 30 runs leave at most 2e-9
# in the difference relation (CSV rounding to 9 digits).  Simpson's rule
# leaves a median of 2e-9 over the rows and up to 1e-7 at rows next to
# kinks of the rectified sines; an integrator whose step is one order less
# accurate (one Runge-Kutta stage with the wrong forcing) leaves a median of
# about 9e-8, and an error in one term of the dynamics about 1e-3.
Y_RTOL, X_MEDIAN_RTOL, X_RTOL = 1e-7, 2e-8, 1e-5
# Rows within this many steps of a jump or of a kink it induces are not
# used as reference rows.
JUMP_GUARD = 3


def _system(doc):
    s = doc["system"]
    A, B, C, D = (np.array(s[k], dtype=float) for k in "ABCD")
    return A, B, C, D, s


def raw_mu(doc, p, q) -> float:
    A, B, C, D, _ = _system(doc)
    m = D.shape[0]
    ratios = [-np.linalg.solve(A, B @ q) / p,
              np.linalg.solve(np.eye(m) - D, C @ p) / q,
              (C @ p + D @ q) / q]
    return 1.0 - max(float(r.max()) for r in ratios)


def check_certificate(doc: dict, cert: dict, grid_points: int) -> list[str]:
    """Re-derive a certificate.json with numpy.linalg."""
    A, B, C, D, s = _system(doc)
    n, m = A.shape[0], D.shape[0]
    step = float(doc.get("options", {}).get("alpha_step", 1e-3))
    out = []
    eta, vs = np.array(cert["eta"]), np.array(cert["varsigma"])
    p, q = np.array(cert["p"]), np.array(cert["q"])
    mu, T, t_star = float(cert["mu"]), float(cert["T"]), float(cert["T_star"])
    per_T = np.array(cert["per_component_T"])
    coupling = np.block([[A, B], [C, D - np.eye(m)]])
    rhs = -np.concatenate([s["omega_bar"], s["d_bar"]])
    ub = np.concatenate([eta, vs])
    scale = np.abs(ub).max() + 1e-300
    if np.abs(coupling @ ub - rhs).max() > 1e-9 * (np.abs(coupling).max() * scale + np.abs(rhs).max()):
        out.append("(eta, varsigma) residual against the coupling system too large")
    if np.abs(ub - np.maximum(np.linalg.solve(coupling, rhs), 0.0)).max() > 1e-8 * scale:
        out.append("(eta, varsigma) differs from numpy.linalg.solve")
    if not (p.min() > 0.0 and q.min() > 0.0):
        out.append("p or q not strictly positive")
        return out
    if not 0.0 < mu < 1.0:
        out.append(f"mu={mu} outside (0, 1)")
        return out
    keep = 1.0 - mu
    if not (-np.linalg.solve(A, B @ q) < keep * p).all():
        out.append("comparison inequality -inv(A) B q < (1 - mu) p fails")
    if not (np.linalg.solve(np.eye(m) - D, C @ p) < keep * q).all():
        out.append("comparison inequality inv(I - D) C p < (1 - mu) q fails")
    if not (C @ p + D @ q < keep * q).all():
        out.append("comparison inequality C p + D q < (1 - mu) q fails")
    if not t_star >= max(T, float(s["h_max"])):
        out.append(f"T_star={t_star} below max(T, h_max)")
    if per_T.shape != (n,) or T != per_T.max():
        out.append("T is not the largest per_component_T")
    constant = bool((np.array(s["psi_bar"]) <= eta).all() and (np.array(s["phi_bar"]) <= vs).all())
    if cert["constant_bound"] != constant:
        out.append("constant_bound flag disagrees with (psi_bar, phi_bar) <= (eta, varsigma)")
    # per-component entry times: the best time over the alpha grid
    shift = np.linalg.solve(A, B @ q)
    theta, delta = p + shift, keep * p + shift
    alphas = step * np.arange(1, grid_points + 1)
    neg_inv = -np.linalg.inv(A[None, :, :] + alphas[:, None, None] * np.eye(n))
    if (neg_inv < -1e-12).any():
        out.append("alpha grid reaches past the Hurwitz margin")
    a = neg_inv @ theta                                     # (G, n)
    b = neg_inv                                             # b[g, j, i]
    ratio = np.where(b > 1e-12, a[:, :, None] / np.where(b > 1e-12, b, 1.0), np.inf)
    gamma = ratio.min(axis=1)                               # (G, n)
    with np.errstate(divide="ignore"):
        times = np.where(gamma <= delta, 0.0, np.log(gamma / delta) / alphas[:, None])
    best = times.min(axis=0)
    bad = np.abs(best - per_T) > 1e-6 * np.maximum(1.0, per_T)
    if bad.any():
        out.append(f"per_component_T not reached on the alpha grid at components {np.flatnonzero(bad).tolist()}")
    return out


def check_pinned(doc: dict, cert: dict) -> list[str]:
    """The sample certificate against the paper's acceptance values."""
    out = []
    for key, want, tol in PINNED:
        got = np.array(cert[key], dtype=float)
        if np.abs(got - np.array(want)).max() > tol:
            out.append(f"{key}={got.tolist()} differs from pinned {want} by more than {tol}")
    rmu = raw_mu(doc, np.array(cert["p"]), np.array(cert["q"]))
    if abs(rmu - PINNED_RAW_MU[0]) > PINNED_RAW_MU[1]:
        out.append(f"raw mu {rmu} differs from pinned {PINNED_RAW_MU[0]}")
    if abs(1.0 - cert["mu"] - PINNED_DECAY[0]) > PINNED_DECAY[1]:
        out.append(f"decay factor {1.0 - cert['mu']} differs from pinned {PINNED_DECAY[0]}")
    return out


def check_staircase_csv(text: str, doc: dict, cert: dict) -> list[str]:
    """Shape, finiteness and the k = 0 row of staircase.csv."""
    opts = doc["options"]
    n, m = len(cert["eta"]), len(cert["varsigma"])
    lines = text.splitlines()
    rows = int(round(opts["t_end"] / opts["step"])) + 1
    if len(lines) != rows + 1:
        return [f"staircase.csv has {len(lines) - 1} rows, expected {rows}"]
    first = np.array([float(v) for v in lines[1].split(",")])
    if first.shape[0] != 1 + n + m:
        return [f"staircase.csv has {first.shape[0]} columns, expected {1 + n + m}"]
    keep = 1.0 - cert["mu"]
    if cert["constant_bound"]:
        want = np.concatenate([[0.0], cert["eta"], cert["varsigma"]])
    else:
        want = np.concatenate([[0.0], np.add(cert["eta"], cert["p"]),
                               np.add(cert["varsigma"], keep * np.array(cert["q"]))])
    if np.abs(first - want).max() > 1e-8 * np.abs(want).max():
        return ["staircase.csv row t=0 differs from eta + p, varsigma + (1 - mu) q"]
    return []


_VERIFY_LINE = re.compile(r"a=(\S+) b=(\S+): x margins \[(.*)\] y margins \[(.*)\] -> (.*)")


def check_verify_stdout(text: str) -> list[str]:
    """Six grid scenarios, each OK, with every margin at most the slack."""
    got = [_VERIFY_LINE.fullmatch(line) for line in text.splitlines()]
    if len(got) != len(VERIFY_GRID) or not all(got):
        return [f"expected {len(VERIFY_GRID)} scenario lines, got {text!r}"]
    out = []
    for (a, b), mt in zip(VERIFY_GRID, got):
        if (float(mt[1]), float(mt[2])) != (a, b):
            out.append(f"scenario a={mt[1]} b={mt[2]} out of order")
        margins = [float(v) for v in (mt[3] + ", " + mt[4]).split(",")]
        if mt[5] != "OK" or not all(math.isfinite(v) and v <= VERIFY_SLACK for v in margins):
            out.append(f"scenario a={a:g} b={b:g} not dominated: {mt[0]}")
    return out


def signal(cfg, t) -> np.ndarray:
    """Evaluate a problem-file signal on an array of times; shape (len(t), dim)."""
    t = np.asarray(t, dtype=float)
    if isinstance(cfg, list):
        return np.tile(np.array(cfg, dtype=float), (t.shape[0], 1))
    amp = np.array(cfg["amplitude"], dtype=float)
    freq = np.broadcast_to(np.array(cfg.get("frequency", [0.0]), dtype=float), amp.shape)
    kind = cfg["kind"]
    if kind == "zero":
        return np.zeros((t.shape[0], amp.shape[0]))
    if kind == "constant":
        return np.tile(amp, (t.shape[0], 1))
    wave = np.sin if kind.endswith("sin") else np.cos
    out = amp * np.abs(wave(np.multiply.outer(t, freq)))
    return out + cfg.get("offset", 0.0) if kind.startswith("const_plus") else out


def _preimage(g, target, lo, hi):
    """Smallest t in (lo, hi] with g(t) = target for increasing g, or None."""
    if g(hi) < target:
        return None
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if g(mid) < target else (lo, mid)
    return hi


def _jump_times(scn, t_end, h_max):
    """y jumps at 0 and wherever t - h2(t) meets an earlier jump; x' jumps
    wherever t - h1(t) meets a y jump.  Both delayed arguments increase."""
    g1 = lambda t: t - signal(scn["h1"], [t])[0, 0]
    g2 = lambda t: t - signal(scn["h2"], [t])[0, 0]
    jumps = [0.0]
    while True:
        nxt = _preimage(g2, jumps[-1], jumps[-1], min(jumps[-1] + h_max + 1.0, t_end))
        if nxt is None:
            break
        jumps.append(nxt)
    kinks = [k for j in jumps if (k := _preimage(g1, j, 0.0, t_end)) is not None]
    return np.array(jumps), np.array(kinks)


def parse_csv(text: str) -> np.ndarray:
    return np.loadtxt(text.splitlines()[1:], delimiter=",", ndmin=2)


def check_trajectory(data: np.ndarray, doc: dict) -> list[str]:
    """Counts, finiteness, sign, and residuals of both equations at every
    row away from y jumps (the reference rows).

    y rows must satisfy ``y = C x + D y(t - h2) + d``, and x rows the
    differential equation integrated by Simpson's rule over two steps, with
    y at delayed times interpolated from the CSV rows (history before 0).
    """
    A, B, C, D, s = _system(doc)
    n, m = A.shape[0], D.shape[0]
    scn, opts = doc["scenario"], doc["options"]
    h, t_end = opts["step"], opts["t_end"]
    K = int(round(t_end / h))
    if data.shape != (K + 1, 1 + n + m):
        return [f"trajectory has shape {data.shape}, expected {(K + 1, 1 + n + m)}"]
    if not np.isfinite(data).all():
        return ["trajectory has non-finite values"]
    if data[:, 1:].min() < 0.0:
        return [f"trajectory has negative values (min {data[:, 1:].min()})"]
    ts, xs, ys = data[:, 0], data[:, 1:1 + n], data[:, 1 + n:]
    if np.abs(ts - h * np.arange(K + 1)).max() > 1e-9 * t_end:
        return ["time column is not the uniform grid"]
    jumps, kinks = _jump_times(scn, t_end, float(s["h_max"]))
    g1 = ts - signal(scn["h1"], ts)[:, 0]
    g2 = ts - signal(scn["h2"], ts)[:, 0]

    def near(values, events):
        if events.size == 0:
            return np.zeros(values.shape, dtype=bool)
        return np.abs(values[:, None] - events[None, :]).min(axis=1) < JUMP_GUARD * h

    bad = near(ts, np.concatenate([jumps, kinks])) | near(g1, jumps) | near(g2, jumps)
    bad3 = bad[:-2] | bad[1:-1] | bad[2:]
    ref = np.flatnonzero(~bad3) + 1
    if ref.size < K // 2:
        return [f"only {ref.size} of {K + 1} rows away from jumps"]

    def y_at(tq):
        out = np.empty((tq.shape[0], m))
        hist = tq < 0.0
        out[hist] = signal(scn["phi"], tq[hist])
        out[~hist] = np.stack([np.interp(tq[~hist], ts, ys[:, j]) for j in range(m)], axis=1)
        return out

    y_want = xs[ref] @ C.T + y_at(g2[ref]) @ D.T + signal(scn["d"], ts[ref])
    out = []
    y_err = np.abs(ys[ref] - y_want).max() / np.abs(ys).max()
    if y_err > Y_RTOL:
        out.append(f"difference relation residual {y_err:.3e} exceeds {Y_RTOL}")
    f = lambda k: xs[k] @ A.T + y_at(g1[k]) @ B.T + signal(scn["omega"], ts[k])
    simpson = (h / 3.0) * (f(ref - 1) + 4.0 * f(ref) + f(ref + 1))
    x_err = np.abs(xs[ref + 1] - xs[ref - 1] - simpson).max(axis=1) / np.abs(xs).max()
    if np.median(x_err) > X_MEDIAN_RTOL:
        out.append(f"differential equation median residual {np.median(x_err):.3e} "
                   f"exceeds {X_MEDIAN_RTOL}")
    if x_err.max() > X_RTOL:
        out.append(f"differential equation residual {x_err.max():.3e} exceeds {X_RTOL}")
    return out


def self_test_certificate(doc: dict, cert: dict, grid_points: int) -> list[str]:
    """A certificate with mu pushed one part in 1e6 past the raw factor
    must be caught."""
    bad = dict(cert)
    bad["mu"] = raw_mu(doc, np.array(cert["p"]), np.array(cert["q"])) * (1.0 + 1e-6)
    if not check_certificate(doc, bad, grid_points):
        return ["self-test: a certificate with mu past the raw factor passed the checks"]
    return []


def self_test_trajectory(data: np.ndarray, doc: dict) -> list[str]:
    """A trajectory with every x value scaled by 1 + 1e-4 in its second half
    must be caught."""
    bad = data.copy()
    n = len(doc["system"]["A"])
    bad[bad[:, 0] > 0.5 * bad[-1, 0], 1:1 + n] *= 1.0 + 1e-4
    if not check_trajectory(bad, doc):
        return ["self-test: a perturbed trajectory passed the checks"]
    return []
