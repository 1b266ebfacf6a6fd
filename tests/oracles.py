"""Reference implementations the vectorized code is checked against: the
per-column inverse, the linear Hurwitz-margin scan and the per-rate sweep of
the decay-rate grid, one matrix at a time; the members-first decay-rate
sweep and the margin search with a full Hurwitz test per index, which the
members-last sweep must match bit for bit; the members-last sweep over the
whole grid, which the pruned sweep must match bit for bit; the entry-time
choice over a block of rates with an exact log at every rate; the per-step
simulator, and the windowed one as it was before it was split into stages,
which the package's must match bit for bit; the comparison check of ordered
initial data; one signal's values on a grid, one signal at a time; and
Python's own "%.9g" for CSV rows."""

import math
from bisect import bisect_left, bisect_right

import numpy as np

from cdde_bound import envelope, simulator, stability
from cdde_bound.envelope import (BLOCK_BYTES, ConvergenceResult, DecayRateTooLarge,
                                 EmptyIndexSet, NonpositiveThreshold, _block_entry_times,
                                 time_to_threshold)
from cdde_bound.linalg import (PIVOT_RTOL, SingularMatrix, _as_array, _square, as_matrix,
                               as_vector, lu_factor, lu_solve)
from cdde_bound.model import NONNEG_TOL, negative
from cdde_bound.signals import _SignalBatch
from cdde_bound.simulator import (BLOCK_STEPS, DIVERGENCE_LIMIT, GRID_TOL, JUMP_TOL,
                                  InvalidScenario, MismatchedScenarios, Trajectory, UnstableStep,
                                  _check_envelope, _first_violation_wins, _history_times,
                                  _same_system)
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


# ``simulate_many`` as it was before its stages became the methods of one
# run record, copied verbatim.  It calls ``inverse`` above; the package's
# ``simulate_many`` must match it bit for bit.

def simulate_many(scenarios) -> list[Trajectory]:
    """Integrate scenarios sharing system, delays and grid in one pass, with
    states ``(K+1, S, n)``; returns per-member views, in order.  ``omega``,
    ``d``, ``psi`` and ``phi`` may differ.  The jump list is shared: a jump
    is tracked when any member jumps there by more than ``JUMP_TOL`` (a
    member continuous there then moves by truncation error, not rounding)."""
    first = scenarios[0]
    spec = first.spec
    for sc in scenarios[1:]:
        if not _same_system(sc.spec, spec):
            raise MismatchedScenarios("scenarios use different systems")
        if sc.h1 != first.h1 or sc.h2 != first.h2:
            raise MismatchedScenarios("scenarios use different delay signals")
        if sc.t_end != first.t_end or sc.step != first.step:
            raise MismatchedScenarios("scenarios use different grids")
    n, m, S = spec.n, spec.m, len(scenarios)
    h = first.step
    if spec.h_max > 0.0 and h > spec.h_max:
        raise InvalidScenario(f"step {h} exceeds the delay bound {spec.h_max}")
    K = int(round(first.t_end / h))
    if K < 1:
        raise InvalidScenario(f"t_end {first.t_end} shorter than one step {h}")
    ts = np.arange(K + 1) * h

    AT, BT, CT, DT = spec.A.T.copy(), spec.B.T.copy(), spec.C.T.copy(), spec.D.T.copy()
    closure = inverse(np.eye(m) - spec.D).T

    # each distinct wave once per call for the whole batch (_SignalBatch)
    batch = {name: _SignalBatch([getattr(sc, name) for sc in scenarios])
             for name in ("omega", "d", "phi")}

    def at(name: str, t: float) -> np.ndarray:              # (S, dim)
        return batch[name](np.array([t]))[0]

    def on(name: str, times: np.ndarray) -> np.ndarray:     # (len(times), S, dim)
        return batch[name](times)

    hist_ts = _history_times(spec.h_max, h)
    H10 = first.h1.sample(ts)[:, 0]
    H1h = first.h1.sample(ts[:-1] + 0.5 * h)[:, 0]
    H20 = first.h2.sample(ts)[:, 0]

    xs = np.empty((K + 1, S, n))
    # zeros, not empty: a history weight of 0 still multiplies a stored row
    ys = np.zeros((K + 1, S, m))
    xs[0] = [sc.psi for sc in scenarios]

    # y jumps, sorted by time: times (J,), left and right values (J, S, m)
    jumps = [np.empty(0), np.empty((0, S, m)), np.empty((0, S, m))]

    def weights(tq: np.ndarray, kmax) -> tuple:
        """y at the times ``tq`` as ``wt[0] ys[idx[0]] + wt[1] ys[idx[1]] +
        extra``: phi before 0, ys[kmax] from the grid time kmax on (with
        weight 0 on the next row, not yet computed and still zero), else
        linear between grid values, with the matching one-sided value (in
        ``extra``) in place of the grid value across a jump.  ``kmax`` may
        differ per read; no jump is stored after t_kmax yet."""
        bp, lefts, rights = jumps
        pos = np.minimum(tq / h, kmax)
        i0 = pos.astype(np.intp)
        frac = pos - i0
        idx = i0 + np.array([[0], [1]])
        wt = np.array([1.0 - frac, frac])
        extra, with_extra = None, np.zeros(len(tq), dtype=bool)
        past = np.flatnonzero(tq < 0.0)
        if len(past):
            idx[:, past], wt[:, past] = 0, 0.0
            extra = np.zeros((len(tq), S, m))
            extra[past] = on("phi", tq[past])
            with_extra[past] = True
        t_lo, t_hi = i0 * h, (i0 + 1) * h
        j = np.searchsorted(bp, t_lo, side="right")
        cut = np.flatnonzero((j < np.searchsorted(bp, t_hi, side="right")) & (tq >= 0.0))
        if len(cut):
            j, q, t_lo, t_hi = j[cut], tq[cut], t_lo[cut], t_hi[cut]
            tstar = bp[j]
            before = q < tstar
            # after the jump, weight 1 on the upper grid value when the jump sits on it
            denom = t_hi - tstar
            w = np.where(before, (q - t_lo) / (tstar - t_lo),
                         np.divide(q - tstar, denom, out=np.ones_like(q), where=denom > 0.0))
            idx[:, cut] = idx[(~before).astype(np.intp), cut]
            wt[0, cut], wt[1, cut] = np.where(before, 1.0 - w, w), 0.0
            if extra is None:
                extra = np.zeros((len(tq), S, m))
            extra[cut] = (np.where(before[:, None, None], lefts[j], rights[j])
                          * np.where(before, w, 1.0 - w)[:, None, None])
            with_extra[cut] = True
        # reads with an extra term, counted up to each read
        if extra is not None:
            extra = (extra, np.concatenate(([0], np.cumsum(with_extra))))
        return idx, wt[:, :, None, None], extra

    def gather(plan, r0: int, r1: int) -> np.ndarray:
        """y at the planned reads r0..r1-1 (``weights``), shape (r1 - r0, S, m)."""
        idx, wt, extra = plan
        z = ys.take(idx[:, r0:r1], axis=0)
        z *= wt[:, r0:r1]
        z = z[0] + z[1]
        if extra is not None and extra[1][r1] > extra[1][r0]:
            z += extra[0][r0:r1]
        return z

    def yhist(tq: np.ndarray, kmax: int) -> np.ndarray:
        return gather(weights(tq, kmax), 0, len(tq))

    # the delays at one time, on np.float64 scalars (_SignalBatch.scalar)
    h1_at, h2_at = first.h1._batch.scalar, first.h2._batch.scalar

    def darg(t: float) -> float:
        return t - float(h1_at(t))

    def g2(t: float) -> float:
        return t - float(h2_at(t))

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
        at the endpoints, then bisection until the bracket stops moving)."""
        out = []
        f0, f1 = f(t0), f(t1)
        bp = jumps[0]
        for i in range(*np.searchsorted(bp, [min(f0, f1), max(f0, f1)], side="right")):
            target = float(bp[i])
            ta, tb = t0, t1
            fa = f(ta) - target
            for _ in range(60):
                tm = 0.5 * (ta + tb)
                if tm == ta or tm == tb:     # the bracket moves no more
                    break
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
        steps = [(ta, start, ta + 0.5 * (tb - ta), tb, end)
                 for (ta, start), (tb, end) in zip(pieces, pieces[1:])
                 if tb - ta > 1e-14 or end is None]
        z = iter(yhist(np.array([min(darg(t), tk) for ta, start, th, tb, end in steps
                                 for t, side in ((ta, start), (th, None), (tb, end))
                                 if side is None]), kav))
        w = on("omega", np.array([t for ta, start, th, tb, end in steps for t in (ta, th, tb)]))
        for i, (ta, start, th, tb, end) in enumerate(steps):
            z0 = next(z) if start is None else jumps[2][start]
            zh = next(z)
            z1 = next(z) if end is None else jumps[1][end]
            x = rk4(x, tb - ta, z0, zh, z1, *w[3 * i:3 * i + 3])
        return x

    def propagate(k: int) -> None:
        """Store the y jumps made where t - h2(t) crosses a stored jump in
        (t_k, t_{k+1}]."""
        t0, t1 = k * h, (k + 1) * h
        new_events = []
        for tstar, i in crossings(g2, t0, t1):
            xstar = advance(xs[k], t0, tstar, k) if tstar - t0 > 1e-14 else xs[k]
            cx = xstar @ CT
            dv = at("d", tstar)
            left, right = (cx + side[i] @ DT + dv for side in jumps[1:])
            if np.max(np.abs(right - left)) > JUMP_TOL:
                new_events.append((tstar, left, right))
        for tstar, left, right in new_events:
            bp = jumps[0]
            i = int(np.searchsorted(bp, tstar))
            if all(abs(u - tstar) >= GRID_TOL for u in bp[max(i - 1, 0):i + 1]):
                jumps[:] = (np.insert(bp, i, tstar), np.insert(jumps[1], i, left, axis=0),
                            np.insert(jumps[2], i, right, axis=0))

    def crosses(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Steps whose bracket of delayed arguments holds a stored jump time."""
        bp = jumps[0]
        return (np.searchsorted(bp, np.minimum(lo, hi), side="right")
                < np.searchsorted(bp, np.maximum(lo, hi), side="right"))

    # Away from jumps a step is linear in (x, z0, zh, z1, w0, wh, w1) with
    # fixed maps; rk4 applied to unit rows gives them once.  The w part of
    # a block of steps is then one product.
    parts = np.split(np.eye(4 * n + 3 * m), np.cumsum([n, m, m, m, n, n]), axis=1)
    step_map = rk4(parts[0], h, *parts[1:])
    xz_map, w_map = step_map[:n + 3 * m], step_map[n + 3 * m:]
    P, Mz = xz_map[:n], xz_map[n:]

    def recur(k: int, z: np.ndarray, f: np.ndarray) -> None:
        """x over the len(f) steps from t_k, given their delayed y as
        (steps, 3, S, m) in the order z0, zh, z1: x_{i+1} = x_i P + u_i, as
        a doubling scan over chunks of ``span`` steps.  A lone step is one
        product of (x, z0, zh, z1) with both maps."""
        L = len(f)
        if L == 1:
            z = z[0]
            xs[k + 1] = np.concatenate((xs[k], z[0], z[1], z[2]), axis=1) @ xz_map + f[0]
            return
        # one row per step and member, so each product is one 2-D matmul
        u = xs[k + 1:k + 1 + L].reshape(L * S, n)
        np.matmul(z.transpose(0, 2, 1, 3).reshape(L * S, 3 * m), Mz, out=u)
        u += f.reshape(L * S, n)
        x = xs[k]
        for c in range(0, L * S, span * S):
            v = u[c:c + span * S]
            v[:S] += x @ P
            # Hillis-Steele: after the round with a stride of 2^j steps
            # (d rows), each step holds the inputs of the 2^(j+1) steps up
            # to it, each carried there by a power of P
            for j, Pd in enumerate(powers):
                d = S << j
                if d >= len(v):
                    break
                v[d:] += v[:-d] @ Pd
            x = v[-S:]

    def output(x, z, dv, closed: bool):
        """y from x, d and the delayed y ``z``, as 2-D products over the rows
        (step, member); a delay below one step is closed algebraically
        (module docstring) and ignores z."""
        x, y = x.reshape(-1, n), dv.reshape(-1, m)
        if closed:
            y = (x @ CT + y) @ closure
        else:
            y = x @ CT + z.reshape(-1, m) @ DT + y
        return y.reshape(dv.shape)

    def check(k: int, L: int) -> None:
        """Raise at the first grid time in (t_k, t_{k+L}] with a state or an
        output beyond the divergence limit, the state first at equal times."""
        state, out = (~(np.abs(v[k + 1:k + 1 + L]) < DIVERGENCE_LIMIT).all(axis=(1, 2))
                      for v in (xs, ys))
        if (state | out).any():
            r = int((state | out).argmax())
            raise UnstableStep(f"{'state' if state[r] else 'output'} magnitude exceeded "
                               f"{DIVERGENCE_LIMIT:g} at t={ts[k + 1 + r]:g}")

    # A finite frequency can overflow a signal's phase, and rows after a
    # divergence may overflow until the block's check() names the first one.
    with np.errstate(over="ignore", invalid="ignore"), _first_violation_wins(scenarios, ts):
        # the scenario data, checked at grid points before the integrator
        # reads them: psi, phi, the delays and d at t = 0 here, omega and d
        # block by block
        _check_envelope("psi", ts[:1], xs[:1], spec.psi_bar)
        _check_envelope("phi", hist_ts, on("phi", hist_ts), spec.phi_bar)
        for name, vals in (("h1", H10), ("h2", H20)):
            _check_envelope(name, ts, vals[:, None], [spec.h_max])
        d0 = on("d", ts[:1])
        _check_envelope("d", ts[:1], d0, spec.d_bar)

        # initial y from the difference relation (right-continuous at 0)
        ys[0] = output(xs[0], yhist(-H20[:1], 0)[0], d0[0], H20[0] < h)
        left0 = at("phi", 0.0)
        if np.max(np.abs(ys[0] - left0)) > JUMP_TOL:
            jumps[:] = (np.zeros(1), left0[None], ys[0][None].copy())

        # P^(2^j) for recur's scan, 2^j < BLOCK_STEPS.  A power that
        # overflows ends the list (a never-excited mode of 0 * inf would
        # fake a divergence), and the scan then runs in shorter chunks.
        powers = [P]
        while 2 ** len(powers) < BLOCK_STEPS:
            square = powers[-1] @ powers[-1]
            if not np.isfinite(square).all():
                break
            powers.append(square)
        span = 2 ** len(powers)
        # Windows, split steps and plans as in the module docstring.  A step
        # k reads y at four times: t_k, t_k + h/2 and t_{k+1} less h1
        # (clamped to t_k) for x, and t_{k+1} less h2 for y.
        for k0 in range(0, K, BLOCK_STEPS):
            k1 = min(k0 + BLOCK_STEPS, K)
            nb = k1 - k0
            t0s, t1s = ts[k0:k1], ts[k0 + 1:k1 + 1]
            W0 = on("omega", ts[k0:k1 + 1])
            _check_envelope("omega", ts[k0:k1 + 1], W0, spec.omega_bar)
            D1 = on("d", t1s)
            _check_envelope("d", t1s, D1, spec.d_bar)
            Wh = on("omega", t0s + 0.5 * h)
            # products over 2-D rows (step, member): a stacked product runs one
            # small matmul per step
            forcing = (np.concatenate((W0[:-1], Wh, W0[1:]), axis=2).reshape(nb * S, 3 * n)
                       @ w_map).reshape(nb, S, n)
            lo1, hi1 = t0s - H10[k0:k1], t1s - H10[k0 + 1:k1 + 1]
            lo2, hi2 = t0s - H20[k0:k1], t1s - H20[k0 + 1:k1 + 1]
            reads = np.stack((np.minimum(lo1, t0s), np.minimum(t0s + 0.5 * h - H1h[k0:k1], t0s),
                              np.minimum(hi1, t0s), hi2), axis=1)
            closed = H20[k0 + 1:k1 + 1] < h
            latest = np.where(closed, reads[:, :3].max(axis=1), reads.max(axis=1))
            # a window from step r ends at the first later step that reads
            # past t_r or that closes y differently
            flips = np.append(np.flatnonzero(np.diff(closed)) + 1, nb)
            reach = np.minimum.reduce([
                np.maximum(np.searchsorted(np.maximum.accumulate(latest), t0s, side="right"),
                           np.arange(1, nb + 1)),
                flips[np.searchsorted(flips, np.arange(nb), side="right")]]).tolist()
            closed = closed.tolist()
            j = 0
            while j < nb:
                hit2 = crosses(lo2[j:], hi2[j:])
                stop = min(j + 1 + int(np.append(hit2, True).argmax()), nb)
                hit1 = crosses(lo1[j:stop], hi1[j:stop])
                split = hit1 | hit2[:stop - j]
                # the segment's windows; a split step is a window of its own
                starts, w = [], j
                for c in (np.flatnonzero(split) + j).tolist() + [stop]:
                    while w < c:
                        starts.append(w)
                        w = min(reach[w], c)
                    starts.append(c)
                    w = c + 1
                plan = weights(reads[j:stop].ravel(),
                               k0 + np.repeat(starts[:-1], np.diff(starts) * 4))
                for w, w1 in zip(starts, starts[1:]):
                    k, L = k0 + w, w1 - w
                    z = gather(plan, 4 * (w - j), 4 * (w1 - j)).reshape(L, 4, S, m)
                    if hit1[w - j]:
                        xs[k + 1] = advance(xs[k], k * h, (k + 1) * h, k)
                    else:
                        recur(k, z[:, :3], forcing[w:w1])
                    if hit2[w - j]:
                        propagate(k)
                    ys[k + 1:k + 1 + L] = output(xs[k + 1:k + 1 + L], z[:, 3], D1[w:w1],
                                                 closed[w])
                j = stop
            check(k0, nb)

    ts.setflags(write=False)
    xs.setflags(write=False)
    ys.setflags(write=False)
    return [Trajectory(times=ts, x_samples=xs[:, i], y_samples=ys[:, i])
            for i in range(len(scenarios))]


def comparison_check(scenario_lo, scenario_hi, slack: float = 1e-9) -> bool:
    """Ordered initial data with identical driving must stay ordered.

    Requires identical system, disturbances, delays and grid, and
    ``psi_lo <= psi_hi``, ``phi_lo <= phi_hi``; simulates both as one batch
    with the package's ``simulate_many`` and checks the ordering at every
    grid time.
    """
    lo, hi = scenario_lo, scenario_hi
    for name in ("omega", "d"):
        if getattr(lo, name) != getattr(hi, name):
            raise MismatchedScenarios(f"scenarios use different {name} signals")
    if (lo.psi > hi.psi).any():
        raise MismatchedScenarios("psi_lo exceeds psi_hi")
    hist = _history_times(lo.spec.h_max, lo.step)
    if lo.phi != hi.phi and (lo.phi.sample(hist) > hi.phi.sample(hist)).any():
        raise MismatchedScenarios("phi_lo exceeds phi_hi on the history grid")
    tr_lo, tr_hi = simulator.simulate_many([lo, hi])
    return bool((tr_lo.x_samples <= tr_hi.x_samples + slack).all()
                and (tr_lo.y_samples <= tr_hi.y_samples + slack).all())


def csv_rows_fstring(rows) -> bytes:
    """Each row as its ``%.9g`` values joined by commas, LF-terminated."""
    return "".join(",".join(f"{v:.9g}" for v in row) + "\n" for row in rows).encode()
