"""Reference implementations the vectorized code is checked against: the
per-column inverse, the linear Hurwitz-margin scan and the per-rate sweep
of the decay-rate grid, one matrix at a time; the exact inverse and Hurwitz
test in rational arithmetic; the envelope factors of a members-first stack,
which the members-last sweep must match bit for bit; the members-last
sweep over the whole grid, which the pruned sweep must match bit for bit;
the entry-time choice over a block of rates with an exact log at every
rate; the per-step simulator; the entry time of one component at one
rate; the comparison check of ordered initial data; the contraction
factor from all three ratio families; one signal's values on a grid, one
signal at a time; the staircase and the domination check on the dense
time-by-component grid, which the run-by-run ones must match bit for bit;
and Python's own "%.9g" for CSV rows."""

import math
from bisect import bisect_left, bisect_right
from dataclasses import replace
from fractions import Fraction

import numpy as np

from cdde_bound import envelope, simulator, stability
from cdde_bound.certificate import HypothesisViolated
from cdde_bound.envelope import (BLOCK_BYTES, ConvergenceResult, NonpositiveThreshold,
                                 _block_entry_times)
from cdde_bound.linalg import as_matrix, as_vector, inverse, solve
from cdde_bound.model import SystemSpec, negative
from cdde_bound.simulator import (BLOCK_STEPS, DIVERGENCE_LIMIT, JUMP_TOL,
                                  DominationReport, InvalidScenario, Trajectory, UnstableStep)
from cdde_bound.stability import NotStable, is_metzler_hurwitz

# The references keep their own absolute thresholds, independent of the
# package's exact sign and time rule: the length below which a split piece
# ending at a jump, or the advance to a crossing, is skipped, and the
# distance within which a new jump joins a stored one.
PIECE_TOL = 1e-14
GRID_TOL = 1e-12


def inverse_by_columns(m: np.ndarray) -> np.ndarray:
    """n unit-vector solves, one LAPACK call each."""
    n = m.shape[0]
    out = np.empty((n, n))
    for i in range(n):
        out[:, i] = np.linalg.solve(m, np.eye(n)[i])
    return out


def time_to_threshold(gamma_i: float, delta_i: float, alpha: float) -> float:
    """Smallest t >= 0 with gamma_i * exp(-alpha t) <= delta_i."""
    if delta_i <= 0.0:
        raise NonpositiveThreshold(f"threshold must be positive, got {delta_i}")
    if alpha <= 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if gamma_i < 0.0:
        raise ValueError(f"gamma must be nonnegative, got {gamma_i}")
    if gamma_i <= delta_i:
        return 0.0
    return math.log(gamma_i / delta_i) / alpha


def alpha_max_scan(a: np.ndarray, step: float) -> float:
    """Largest k * step with a + k * step I Hurwitz, by a linear scan."""
    eye = np.eye(a.shape[0])
    k = 1
    while is_metzler_hurwitz(a + (k * step) * eye):
        k += 1
    return (k - 1) * step


def reachable(a: np.ndarray) -> np.ndarray:
    """``reach[j, i]``: ``j == i``, or a path of positive off-diagonal
    entries of ``a`` leads from ``i`` to ``j`` (an edge ``k -> l`` for each
    ``a[l, k] > 0``), by a depth-first search from each ``i``."""
    n = a.shape[0]
    reach = np.eye(n, dtype=bool)
    for i in range(n):
        todo = [i]
        while todo:
            k = todo.pop()
            for l in range(n):
                if l != k and a[l, k] > 0.0 and not reach[l, i]:
                    reach[l, i] = True
                    todo.append(l)
    return reach


def finite_time_loop(a: np.ndarray, theta: np.ndarray, delta: np.ndarray,
                     step: float) -> ConvergenceResult:
    """finite_time with one inversion and one ratio minimum per rate and
    component; the grid must be nonempty.  ``-inv(A + alpha I)`` is
    positive exactly where ``reachable`` holds and 0 elsewhere, so its
    computed entries there are asserted positive and the others, rounding
    noise of either sign, are taken as 0."""
    n = a.shape[0]
    k_max = int(round(alpha_max_scan(a, step) / step))
    assert k_max >= 1
    reach = reachable(a)
    best_t = np.full(n, np.inf)
    best_alpha = np.zeros(n)
    for alpha in [k * step for k in range(1, k_max + 1)]:
        try:
            minv = inverse_by_columns(a + alpha * np.eye(n))
        except np.linalg.LinAlgError:
            raise AssertionError(f"grid rate {alpha} singular") from None
        assert (minv[reach] < 0.0).all()
        neg_inv = np.where(reach, -minv, 0.0)
        a_vec = neg_inv @ theta
        for i in range(n):
            b = neg_inv[:, i]
            mask = b > 0.0
            t_i = time_to_threshold(float((a_vec[mask] / b[mask]).min()),
                                    float(delta[i]), alpha)
            if t_i < best_t[i]:
                best_t[i] = t_i
                best_alpha[i] = alpha
    return ConvergenceResult(T=float(best_t.max()), per_component_T=best_t,
                             per_component_alpha=best_alpha)


def fraction_neg_inverse(m) -> list[list[Fraction]] | None:
    """``-inv(m)`` in exact arithmetic, by Gauss-Jordan elimination on the
    float entries read as fractions; None if ``m`` is singular."""
    n = len(m)
    rows = [[Fraction(float(v)) for v in row] + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(m)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [v / rows[col][col] for v in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                rows[r] = [v - rows[r][col] * w for v, w in zip(rows[r], rows[col])]
    return [[-v for v in row[n:]] for row in rows]


def hurwitz_exact(m) -> bool:
    """Whether the Metzler float matrix ``m`` is Hurwitz, in exact
    arithmetic: iff ``m v = -1`` has a solution ``v > 0`` (Berman and
    Plemmons, 1994, ch. 6), the row sums of ``-inv(m)``."""
    neg_inv = fraction_neg_inverse(m)
    return neg_inv is not None and all(sum(row) > 0 for row in neg_inv)


def envelope_factors_members_first(a: np.ndarray, alphas: np.ndarray,
                                   theta: np.ndarray) -> np.ndarray:
    """``envelope._envelope_factors`` with the stack ``a + alphas[g] I`` laid
    out members first, ``(G, n, n)``, inverted by one ``np.linalg.inv`` and
    tested for nothing: the members-last layout must give the same bits."""
    neg_inv = -np.linalg.inv(alphas[:, None, None] * np.eye(len(a)) + a)
    reach, unreached = envelope._index_sets(a, theta)
    a_vec = neg_inv @ theta                             # (G, n)
    a_vec[:, unreached] = 0.0
    mask = np.broadcast_to(reach[:, :, 0], neg_inv.shape)
    ratios = np.divide(a_vec[:, :, None], neg_inv, out=np.full_like(neg_inv, np.inf), where=mask)
    return ratios.min(axis=1)


# The members-last decay-rate sweep over the whole grid, a block of rates
# at a time, as it was before the sweep was pruned, copied verbatim but for
# the module prefixes: the pruned sweep must match it bit for bit.

def finite_time_blocked(A, theta_bar, delta, alpha_step: float) -> ConvergenceResult:
    """Certified time after which every solution sits inside the target box.

    Sweeps the decay-rate grid ``alpha_step, 2*alpha_step, ...`` up to the
    largest admissible rate, takes per component the best (smallest) entry
    time over the grid, and returns the maximum over components.  Every
    solution of x' = A x with 0 <= x(0) <= theta_bar satisfies
    x(t) <= delta for all t >= T.
    """
    M = as_matrix(A, "A")
    theta = as_vector(theta_bar, "theta_bar")
    dlt = as_vector(delta, "delta")
    if theta.shape[0] != M.shape[0] or dlt.shape[0] != M.shape[0]:
        raise ValueError("theta_bar and delta must match the dimension of A")
    if dlt.min() <= 0.0:
        raise NonpositiveThreshold(f"delta must be strictly positive, got {dlt}")
    if negative(theta).any():
        raise ValueError("theta_bar must be nonnegative")

    dim = M.shape[0]
    k_max = int(round(stability.alpha_max(M, alpha_step) / alpha_step))
    if k_max:
        per_block = max(1, BLOCK_BYTES // (8 * dim * dim))
        blocks = [np.arange(k0, min(k0 + per_block, k_max + 1)) * alpha_step
                  for k0 in range(1, k_max + 1, per_block)]
    else:
        # Hurwitz margin smaller than the grid step: halve until admissible.
        eye = np.eye(dim)
        halved = (alpha_step / 2.0 ** j for j in range(1, 61))
        rate = next((a for a in halved if stability.is_metzler_hurwitz(M + a * eye)), None)
        if rate is None:
            raise NotStable("no admissible decay rate found")
        blocks = [np.array([rate])]

    best_t = np.full(dim, np.inf)
    best_alpha = np.zeros(dim)
    for alphas in blocks:
        gamma = envelope._envelope_factors(M, alphas, theta)
        if gamma.min() < 0.0:
            raise ValueError(f"gamma must be nonnegative, got {gamma.min()}")
        # time_to_threshold over the block: np.log screens the grid, and
        # math.log, which rounds as it does there, decides near the minimum
        first, t_first = _block_entry_times(gamma, dlt, alphas)
        better = t_first < best_t
        best_t[better] = t_first[better]
        best_alpha[better] = alphas[first[better]]
    return ConvergenceResult(T=float(best_t.max()),
                             per_component_T=best_t,
                             per_component_alpha=best_alpha)


def block_entry_times_all_logs(gamma: np.ndarray, dlt: np.ndarray,
                               alphas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """finite_time's choice over a block of rates without the np.log screen:
    ``math.log`` at every ratio above 1, then per column the first row of
    least time (ties go to the smallest alpha) and that time."""
    ratio = gamma / dlt
    t = np.zeros_like(ratio)
    above = ratio > 1.0
    t[above] = np.fromiter(map(math.log, ratio[above]), float)
    t /= alphas[:, None]
    first = t.argmin(axis=0)
    return first, t[first, np.arange(t.shape[1])]


def signal_values(sig, times: np.ndarray) -> np.ndarray:
    """``sig`` on the float64 ``times``, shape (len(times), dim): amplitude
    times |sin| or |cos| of the outer product of times and frequencies, plus
    the offset, as ``SignalSpec`` evaluated one signal at a time."""
    if sig.kind == "zero":
        return np.zeros((len(times), sig.dim))
    amp = np.array(sig.amplitude)
    if sig.kind == "constant":
        return np.tile(amp, (len(times), 1))
    trig = np.sin if sig.kind.endswith("sin") else np.cos
    with np.errstate(over="ignore", invalid="ignore"):
        wave = amp * np.abs(trig(np.multiply.outer(times, np.array(sig.frequency))))
    return wave + sig.offset if sig.kind.startswith("const_plus") else wave


def scaled_members(scenario, scales) -> list:
    """The scenario once per scale ``(a, b)``, with omega and d scaled: the
    members of the package's scaled run as whole scenarios."""
    return [replace(scenario, omega=scenario.omega.scaled(a), d=scenario.d.scaled(b))
            for a, b in scales]


def simulate_stepwise(scenarios) -> list[Trajectory]:
    """The per-step integrator that the windowed simulator replaced: every
    grid step gathers its delayed outputs with scalar history lookups and
    tests both jump brackets on its own.  The members are whole scenarios
    on the first one's system, delays and grid, such as one scenario with
    its omega and d scaled per member; same union of jumps, checks and
    messages."""
    first = scenarios[0]
    spec = first.spec
    n, m = spec.n, spec.m
    h = first.step
    if spec.h_max > 0.0 and h > spec.h_max:
        raise InvalidScenario(f"step {h} exceeds the delay bound {spec.h_max}")
    K = int(round(first.t_end / h))
    if K < 1:
        raise InvalidScenario(f"t_end {first.t_end} shorter than one step {h}")
    ts = np.arange(K + 1) * h
    limit = DIVERGENCE_LIMIT * max(1.0, *spec.psi_bar, *spec.phi_bar, *spec.omega_bar,
                                   *spec.d_bar)

    AT, BT, CT, DT = spec.A.T.copy(), spec.B.T.copy(), spec.C.T.copy(), spec.D.T.copy()
    closure = inverse(np.eye(m) - spec.D).T

    def at(name: str, t: float) -> np.ndarray:              # (S, dim)
        return np.array([getattr(sc, name)(t) for sc in scenarios])

    def on(name: str, times: np.ndarray) -> np.ndarray:     # (len(times), S, dim)
        return np.stack([getattr(sc, name).sample(times) for sc in scenarios], axis=1)

    H10 = first.h1.sample(ts)[:, 0]
    H1h = first.h1.sample(ts[:-1] + 0.5 * h)[:, 0]
    H20 = first.h2.sample(ts)[:, 0]

    xs = np.empty((K + 1, len(scenarios), n))
    ys = np.empty((K + 1, len(scenarios), m))
    xs[0] = [sc.psi for sc in scenarios]

    # y jump bookkeeping: times plus one-sided values (left, right), (S, m) each
    bp_t: list[float] = []
    bp_lr: list[tuple[np.ndarray, np.ndarray]] = []

    def yhist(tq: float, kmax: int) -> np.ndarray:
        if tq < 0.0:
            return at("phi", tq)
        pos = tq / h
        i0 = int(pos)
        if i0 >= kmax:
            return ys[kmax]
        t_lo = i0 * h
        t_hi = (i0 + 1) * h
        j = bisect_right(bp_t, t_lo)
        if j < len(bp_t) and bp_t[j] <= t_hi:
            tstar = bp_t[j]
            left, right = bp_lr[j]
            if tq < tstar:
                w = (tq - t_lo) / (tstar - t_lo)
                return ys[i0] * (1.0 - w) + left * w
            denom = t_hi - tstar
            if denom <= 0.0:
                return ys[i0 + 1]
            w = (tq - tstar) / denom
            return right * (1.0 - w) + ys[i0 + 1] * w
        frac = pos - i0
        return ys[i0] * (1.0 - frac) + ys[i0 + 1] * frac

    def darg(t: float) -> float:
        return t - float(first.h1(t)[0])

    def g2(t: float) -> float:
        return t - float(first.h2(t)[0])

    def rk4(x, hh, z0, zh, z1, w0, wh, w1):
        c0 = z0 @ BT + w0
        ch = zh @ BT + wh
        c1 = z1 @ BT + w1
        k1 = x @ AT + c0
        k2 = (x + (0.5 * hh) * k1) @ AT + ch
        k3 = (x + (0.5 * hh) * k2) @ AT + ch
        k4 = (x + hh * k3) @ AT + c1
        return x + (hh / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    def crossings(f, t0: float, t1: float) -> list[tuple[float, int]]:
        """Times in (t0, t1] where f crosses a stored jump time (sign test
        at the endpoints, then bisection)."""
        out = []
        f0, f1 = f(t0), f(t1)
        for i in range(bisect_right(bp_t, min(f0, f1)), bisect_right(bp_t, max(f0, f1))):
            target = bp_t[i]
            ta, tb = t0, t1
            fa = f(ta) - target
            for _ in range(60):
                tm = 0.5 * (ta + tb)
                fm = f(tm) - target
                if (fa <= 0.0) == (fm <= 0.0):
                    ta, fa = tm, fm
                else:
                    tb = tm
            out.append((0.5 * (ta + tb), i))
        out.sort()
        return out

    def advance(x, t0: float, t1: float, kav: int) -> np.ndarray:
        """Split-aware advance over [t0, t1] (slow path, used near jumps): one
        step per piece, boundary stages on the matching side of the jump."""
        tk = kav * h
        pieces = [(t0, None)] + [(tau, i) for tau, i in crossings(darg, t0, t1)]
        pieces.append((t1, None))
        for (ta, start), (tb, end) in zip(pieces, pieces[1:]):
            if tb - ta <= PIECE_TOL and end is not None:
                continue
            th = ta + 0.5 * (tb - ta)
            z0 = bp_lr[start][1] if start is not None else yhist(min(darg(ta), tk), kav)
            zh = yhist(min(darg(th), tk), kav)
            z1 = bp_lr[end][0] if end is not None else yhist(min(darg(tb), tk), kav)
            x = rk4(x, tb - ta, z0, zh, z1, at("omega", ta), at("omega", th), at("omega", tb))
        return x

    def bracket_hits(lo: float, hi: float) -> bool:
        return bisect_right(bp_t, min(lo, hi)) < bisect_right(bp_t, max(lo, hi))

    # Away from jumps a step is linear in (x, z0, zh, z1, w0, wh, w1) with
    # fixed maps; rk4 applied to unit rows gives them once.  The w part of
    # a block of steps is then one product.
    parts = np.split(np.eye(4 * n + 3 * m), np.cumsum([n, m, m, m, n, n]), axis=1)
    step_map = rk4(parts[0], h, *parts[1:])
    xz_map, w_map = step_map[:n + 3 * m], step_map[n + 3 * m:]

    def output(x, tq: float, delay: float, dv, kmax: int) -> np.ndarray:
        # a delay below one step is closed algebraically (module docstring)
        if delay < h:
            return (x @ CT + dv) @ closure
        return x @ CT + yhist(tq, kmax) @ DT + dv

    # initial y from the difference relation (right-continuous at 0)
    ys[0] = output(xs[0], -H20[0], H20[0], on("d", ts[:1])[0], 0)
    left0 = at("phi", 0.0)
    if np.max(np.abs(ys[0] - left0)) > JUMP_TOL:
        bp_t.append(0.0)
        bp_lr.append((left0, ys[0].copy()))

    for k0 in range(0, K, BLOCK_STEPS):
        k1 = min(k0 + BLOCK_STEPS, K)
        block = ts[k0:k1 + 1]
        W0 = on("omega", block)
        Wh = on("omega", block[:-1] + 0.5 * h)
        D0 = on("d", block)
        forcing = np.concatenate((W0[:-1], Wh, W0[1:]), axis=2) @ w_map
        h1_0, h1_h, h2_0 = H10[k0:k1 + 1].tolist(), H1h[k0:k1].tolist(), H20[k0:k1 + 1].tolist()
        for j in range(k1 - k0):
            k = k0 + j
            t0 = k * h
            t1 = (k + 1) * h

            # --- advance x ---
            d_lo = t0 - h1_0[j]
            d_hi = t1 - h1_0[j + 1]
            if bp_t and bracket_hits(d_lo, d_hi):
                xn = advance(xs[k], t0, t1, k)
            else:
                z0 = yhist(min(d_lo, t0), k)
                zh = yhist(min(t0 + 0.5 * h - h1_h[j], t0), k)
                z1 = yhist(min(d_hi, t0), k)
                xn = np.concatenate((xs[k], z0, zh, z1), axis=1) @ xz_map + forcing[j]
            if not (np.abs(xn) < limit).all():
                raise UnstableStep(f"state magnitude exceeded {limit:g} at t={t1:g}")
            xs[k + 1] = xn

            # --- propagate y jumps crossed by t - h2(t) in (t0, t1] ---
            g_lo = t0 - h2_0[j]
            g_hi = t1 - h2_0[j + 1]
            if bp_t and bracket_hits(g_lo, g_hi):
                new_events = []
                for tstar, i in crossings(g2, t0, t1):
                    xstar = advance(xs[k], t0, tstar, k) if tstar - t0 > PIECE_TOL else xs[k]
                    cx = xstar @ CT
                    dv = at("d", tstar)
                    left, right = (cx + side @ DT + dv for side in bp_lr[i])
                    if np.max(np.abs(right - left)) > JUMP_TOL:
                        new_events.append((tstar, left, right))
                for tstar, left, right in new_events:
                    i = bisect_left(bp_t, tstar)
                    if all(abs(u - tstar) >= GRID_TOL for u in bp_t[max(i - 1, 0):i + 1]):
                        bp_t.insert(i, tstar)
                        bp_lr.insert(i, (left, right))

            # --- evaluate y at the new grid point ---
            yn = output(xn, g_hi, h2_0[j + 1], D0[j + 1], k)
            if not (np.abs(yn) < limit).all():
                raise UnstableStep(f"output magnitude exceeded {limit:g} at t={t1:g}")
            ys[k + 1] = yn

    ts.setflags(write=False)
    xs.setflags(write=False)
    ys.setflags(write=False)
    return [Trajectory(times=ts, x_samples=xs[:, i], y_samples=ys[:, i])
            for i in range(len(scenarios))]


class MismatchedScenarios(ValueError):
    """Scenario pair is not comparable."""


def comparison_check(scenario_lo, scenario_hi, slack: float = 1e-9) -> bool:
    """Ordered initial data with identical driving must stay ordered.

    Requires the same system object and identical disturbances, delays and
    grid, and ``psi_lo <= psi_hi``, ``phi_lo <= phi_hi``; simulates each
    with the package's ``simulate`` and checks the ordering at every grid
    time.
    """
    lo, hi = scenario_lo, scenario_hi
    for name in ("spec", "omega", "d", "h1", "h2", "t_end", "step"):
        if getattr(lo, name) != getattr(hi, name):
            raise MismatchedScenarios(f"scenarios use different {name}")
    if (lo.psi > hi.psi).any():
        raise MismatchedScenarios("psi_lo exceeds psi_hi")
    hist = np.arange(-lo.spec.h_max, 0.0, lo.step)
    if lo.phi != hi.phi and (lo.phi.sample(hist) > hi.phi.sample(hist)).any():
        raise MismatchedScenarios("phi_lo exceeds phi_hi on the history grid")
    tr_lo, tr_hi = simulator.simulate(lo), simulator.simulate(hi)
    return bool((tr_lo.x_samples <= tr_hi.x_samples + slack).all()
                and (tr_lo.y_samples <= tr_hi.y_samples + slack).all())


# ``raw_contraction_factor`` with all three ratio families, as it was before
# the ``m2`` family, which never sets the factor, was dropped; copied
# verbatim.  The package's must match it bit for bit.

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


def sample_staircase_dense(cert, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The staircase at every time, from ``k = floor(t / T_star)`` per row."""
    if cert.constant_bound:
        return np.tile(cert.eta, (times.shape[0], 1)), np.tile(cert.varsigma, (times.shape[0], 1))
    factor = (1.0 - cert.mu) ** np.floor(times / cert.T_star)
    xb = cert.eta[None, :] + factor[:, None] * cert.p[None, :]
    yb = cert.varsigma[None, :] + (factor * (1.0 - cert.mu))[:, None] * cert.q[None, :]
    return xb, yb


def verify_domination_dense(traj: Trajectory, cert, slack: float = 1e-6) -> DominationReport:
    """Trajectory minus the dense staircase at every time and component:
    each margin is a column's maximum, and the first violation is the
    first row with a difference not at most ``slack`` (NaN included)."""
    xb, yb = sample_staircase_dense(cert, traj.times)
    dx = traj.x_samples - xb
    dy = traj.y_samples - yb
    viol = ~(dx <= slack).all(axis=1) | ~(dy <= slack).all(axis=1)
    first = float(traj.times[int(np.argmax(viol))]) if viol.any() else None
    return DominationReport(x_margin=dx.max(axis=0), y_margin=dy.max(axis=0),
                            first_violation_time=first)


def csv_rows_fstring(rows) -> bytes:
    """Each row as its ``%.9g`` values joined by commas, LF-terminated."""
    return "".join(",".join(f"{v:.9g}" for v in row) + "\n" for row in rows).encode()
