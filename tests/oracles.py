"""Reference implementations the vectorized code is checked against: the
per-column inverse, the linear Hurwitz-margin scan and the per-rate sweep of
the decay-rate grid, one matrix at a time; the members-first decay-rate
sweep and the margin search with a full Hurwitz test per index, which the
members-last sweep must match bit for bit; the entry-time choice over a
block of rates with an exact log at every rate; the per-step simulator;
one signal's values on a grid, one signal at a time; and Python's own
"%.9g" for CSV rows."""

import math
from bisect import bisect_left, bisect_right

import numpy as np

from cdde_bound.envelope import (BLOCK_BYTES, ConvergenceResult, DecayRateTooLarge,
                                 EmptyIndexSet, NonpositiveThreshold, _block_entry_times,
                                 time_to_threshold)
from cdde_bound.linalg import (PIVOT_RTOL, SingularMatrix, _as_array, _square, as_matrix,
                               as_vector, lu_factor, lu_solve)
from cdde_bound.model import NONNEG_TOL, negative
from cdde_bound.simulator import (BLOCK_STEPS, DIVERGENCE_LIMIT, GRID_TOL, JUMP_TOL,
                                  InvalidScenario, Trajectory, UnstableStep,
                                  _check_envelope, _history_times)
from cdde_bound.stability import NotMetzler, NotStable, _require_metzler


def inverse_by_columns(m: np.ndarray) -> np.ndarray:
    """One factorization and n unit-vector solves."""
    lu, perm = lu_factor(m)
    n = lu.shape[0]
    out = np.empty((n, n))
    for i in range(n):
        out[:, i] = lu_solve(lu, perm, np.eye(n)[i])
    return out


def alpha_max_scan(a: np.ndarray, step: float) -> float:
    """Largest k * step with a + k * step I Hurwitz, by a linear scan."""
    eye = np.eye(a.shape[0])
    k = 1
    while is_metzler_hurwitz(a + (k * step) * eye):
        k += 1
    return (k - 1) * step


def finite_time_loop(a: np.ndarray, theta: np.ndarray, delta: np.ndarray,
                     step: float) -> ConvergenceResult:
    """finite_time with one inversion and one ratio minimum per rate and
    component; the grid must be nonempty."""
    n = a.shape[0]
    k_max = int(round(alpha_max_scan(a, step) / step))
    assert k_max >= 1
    best_t = np.full(n, np.inf)
    best_alpha = np.zeros(n)
    for alpha in [k * step for k in range(1, k_max + 1)]:
        try:
            minv = inverse_by_columns(a + alpha * np.eye(n))
        except SingularMatrix:
            raise AssertionError(f"grid rate {alpha} singular") from None
        assert (minv <= NONNEG_TOL).all()
        neg_inv = -minv
        a_vec = neg_inv @ theta
        for i in range(n):
            b = neg_inv[:, i]
            mask = b > NONNEG_TOL
            t_i = time_to_threshold(float((a_vec[mask] / b[mask]).min()),
                                    float(delta[i]), alpha)
            if t_i < best_t[i]:
                best_t[i] = t_i
                best_alpha[i] = alpha
    return ConvergenceResult(T=float(best_t.max()), per_component_T=best_t,
                             per_component_alpha=best_alpha)


# The members-first decay-rate sweep and the margin search with a full
# Hurwitz test per index: ``inverse``, ``_neg_inverse_if_hurwitz``,
# ``is_metzler_hurwitz``, ``alpha_max``, ``_envelope_factors`` and
# ``finite_time`` as they were before the sweep put the members on the last
# axis, copied verbatim.  They call one another, never the package's
# versions, so the members-last code is checked against them bit for bit.

def inverse(matrix) -> np.ndarray:
    """Inverse of a matrix or of each member of a stack ``(G, n, n)``, by
    one LAPACK call.  Raises :class:`SingularMatrix`, naming the stack
    member, when a member's reciprocal 1-norm condition is below
    ``PIVOT_RTOL``."""
    # validated in place: np.linalg.inv makes its own copy
    a = _as_array(matrix, "matrix", 3 if np.ndim(matrix) == 3 else 2, copy=False)
    _square(a)
    member = " in stack member {}" if a.ndim == 3 else ""
    try:
        inv = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        # LAPACK met an exact zero pivot; slogdet factors the same way
        j = int(np.argmin(np.abs(np.linalg.slogdet(a).sign)))
        raise SingularMatrix("exactly singular" + member.format(j)) from None
    with np.errstate(all="ignore"):         # an overflowing norm is singular too
        cond = np.abs(a).sum(axis=-2).max(axis=-1) * np.abs(inv).sum(axis=-2).max(axis=-1)
    bad = ~(cond * PIVOT_RTOL < 1.0)
    if bad.any():
        j = int(np.argmax(bad))
        raise SingularMatrix(f"reciprocal condition {1.0 / cond.flat[j]:.3e} below threshold "
                             f"{PIVOT_RTOL:.3e}" + member.format(j))
    return inv


def _neg_inverse_if_hurwitz(M: np.ndarray) -> np.ndarray | None:
    """``-inv(M)`` if the Metzler matrix, or every member of the stack, ``M``
    is Hurwitz (nonsingular with ``inv(M) <= 0``), else None; raises
    SingularMatrix for a singular member."""
    neg_inv = inverse(M)
    if not (neg_inv <= NONNEG_TOL).all():
        return None
    return np.negative(neg_inv, out=neg_inv)


def is_metzler_hurwitz(A) -> bool:
    """Hurwitz test for a Metzler matrix via the sign of its inverse."""
    M = as_matrix(A, "A")
    if M.shape[0] != M.shape[1]:
        raise NotMetzler(f"matrix must be square, got {M.shape}")
    _require_metzler(M)
    try:
        return _neg_inverse_if_hurwitz(M) is not None
    except SingularMatrix:
        return False


def alpha_max(A, step: float) -> float:
    """Largest grid multiple of ``step`` keeping ``A + alpha I`` Hurwitz.

    The spectral abscissa of ``A + alpha I`` is strictly increasing in
    ``alpha``, so the Hurwitz test is monotone in the grid index ``k``: a
    doubling search brackets the first failing ``k`` and a bisection finds
    it, about ``2 log2(alpha_max / step)`` tests.
    """
    if not (np.isfinite(step) and step > 0.0):
        raise ValueError(f"step must be positive and finite, got {step}")
    M = as_matrix(A, "A")
    if not is_metzler_hurwitz(M):
        raise NotStable("matrix is not Hurwitz, no positive decay rate exists")
    eye = np.eye(M.shape[0])

    def hurwitz(k: int) -> bool:
        return is_metzler_hurwitz(M + (k * step) * eye)

    good, bad = 0, 1                    # hurwitz(good) holds throughout
    while hurwitz(bad):
        good, bad = bad, 2 * bad
    while bad - good > 1:               # and from here on, not hurwitz(bad)
        mid = (good + bad) // 2
        good, bad = (mid, bad) if hurwitz(mid) else (good, mid)
    return good * step


def _envelope_factors(A: np.ndarray, alphas: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Optimal factors ``gamma[g, i]`` at each rate ``alphas[g]``, by one
    inversion of the stack ``A + alphas[g] I``, which must be Hurwitz."""
    span = f"alpha={alphas[0]}" if alphas.size == 1 else f"alpha in [{alphas[0]}, {alphas[-1]}]"
    shifted = alphas[:, None, None] * np.eye(A.shape[0])
    shifted += A
    try:
        neg_inv = _neg_inverse_if_hurwitz(shifted)
    except SingularMatrix as exc:
        raise DecayRateTooLarge(f"{span}: shifted matrix singular") from exc
    if neg_inv is None:
        raise DecayRateTooLarge(f"{span}: shifted matrix not Hurwitz")
    a = neg_inv @ theta                                 # (G, n)
    # b = neg_inv[g, :, i]; the ratio a_j / b_j is overwritten into neg_inv
    mask = neg_inv > NONNEG_TOL
    if not mask.any(axis=1).all():
        raise EmptyIndexSet("a column of the shifted inverse has no positive entry")
    np.divide(a[:, :, None], neg_inv, out=neg_inv, where=mask)
    np.copyto(neg_inv, np.inf, where=~mask)
    return neg_inv.min(axis=1)


def finite_time(A, theta_bar, delta, alpha_step: float) -> ConvergenceResult:
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
    k_max = int(round(alpha_max(M, alpha_step) / alpha_step))
    if k_max:
        per_block = max(1, BLOCK_BYTES // (8 * dim * dim))
        blocks = [np.arange(k0, min(k0 + per_block, k_max + 1)) * alpha_step
                  for k0 in range(1, k_max + 1, per_block)]
    else:
        # Hurwitz margin smaller than the grid step: halve until admissible.
        eye = np.eye(dim)
        halved = (alpha_step / 2.0 ** j for j in range(1, 61))
        rate = next((a for a in halved if is_metzler_hurwitz(M + a * eye)), None)
        if rate is None:
            raise NotStable("no admissible decay rate found")
        blocks = [np.array([rate])]

    best_t = np.full(dim, np.inf)
    best_alpha = np.zeros(dim)
    for alphas in blocks:
        gamma = _envelope_factors(M, alphas, theta)
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


def simulate_stepwise(scenarios) -> list[Trajectory]:
    """The per-step integrator that the windowed ``simulate_many`` replaced:
    every grid step gathers its delayed outputs with scalar history lookups
    and tests both jump brackets on its own.  Same batch semantics, checks
    and messages."""
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

    AT, BT, CT, DT = spec.A.T.copy(), spec.B.T.copy(), spec.C.T.copy(), spec.D.T.copy()
    closure = inverse(np.eye(m) - spec.D).T

    def at(name: str, t: float) -> np.ndarray:              # (S, dim)
        return np.array([getattr(sc, name)(t) for sc in scenarios])

    def on(name: str, times: np.ndarray) -> np.ndarray:     # (len(times), S, dim)
        return np.stack([getattr(sc, name).sample(times) for sc in scenarios], axis=1)

    # admissibility of the scenario data, checked at grid points; the
    # disturbances are sampled in blocks so memory does not grow with t_end
    hist_ts = _history_times(spec.h_max, h)
    for sc in scenarios:
        _check_envelope("psi", ts[:1], sc.psi, spec.psi_bar)
        _check_envelope("phi", hist_ts, sc.phi.sample(hist_ts), spec.phi_bar)
        for name, sig, upper in (("omega", sc.omega, spec.omega_bar), ("d", sc.d, spec.d_bar)):
            for k0 in range(0, K + 1, BLOCK_STEPS):
                block = ts[k0:k0 + BLOCK_STEPS]
                _check_envelope(name, block, sig.sample(block), upper)
    H10 = first.h1.sample(ts)[:, 0]
    H1h = first.h1.sample(ts[:-1] + 0.5 * h)[:, 0]
    H20 = first.h2.sample(ts)[:, 0]
    for name, vals in (("h1", H10), ("h2", H20)):
        _check_envelope(name, ts, vals[:, None], np.array([spec.h_max]))

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
            if tb - ta <= 1e-14 and end is not None:
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
            if not (np.abs(xn) < DIVERGENCE_LIMIT).all():
                raise UnstableStep(f"state magnitude exceeded {DIVERGENCE_LIMIT:g} at t={t1:g}")
            xs[k + 1] = xn

            # --- propagate y jumps crossed by t - h2(t) in (t0, t1] ---
            g_lo = t0 - h2_0[j]
            g_hi = t1 - h2_0[j + 1]
            if bp_t and bracket_hits(g_lo, g_hi):
                new_events = []
                for tstar, i in crossings(g2, t0, t1):
                    xstar = advance(xs[k], t0, tstar, k) if tstar - t0 > 1e-14 else xs[k]
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
            if not (np.abs(yn) < DIVERGENCE_LIMIT).all():
                raise UnstableStep(f"output magnitude exceeded {DIVERGENCE_LIMIT:g} at t={t1:g}")
            ys[k + 1] = yn

    ts.setflags(write=False)
    xs.setflags(write=False)
    ys.setflags(write=False)
    return [Trajectory(times=ts, x_samples=xs[:, i], y_samples=ys[:, i])
            for i in range(len(scenarios))]


def csv_rows_fstring(rows) -> bytes:
    """Each row as its ``%.9g`` values joined by commas, LF-terminated."""
    return "".join(",".join(f"{v:.9g}" for v in row) + "\n" for row in rows).encode()
