"""Fixed-step simulator for the coupled delay system.

The differential part is advanced with classical 4-stage Runge-Kutta; the
difference part ``y(t) = C x(t) + D y(t - h2(t)) + d(t)`` is evaluated on
the same grid with linearly interpolated history.  Two refinements keep the
integrator's error far below the certificate slack:

* The initial history generally does not match the difference relation at
  t = 0, so y starts with a jump which the relation then reproduces at
  every later time where ``t - h2(t)`` crosses an existing jump.  These
  jump times are located by bisection and stored with their one-sided
  values; history interpolation never averages across a stored jump.
* ``y(t - h1(t))`` drives dx/dt, so each Runge-Kutta step is split at the
  times where ``t - h1(t)`` crosses a stored jump, with the boundary stage
  evaluated on the matching side.

When ``h2(t)`` falls below the step size, the delayed argument can no
longer be resolved by the history grid; the relation is then closed
algebraically as ``(I - D) y = C x + d``, its vanishing-delay limit.
Scenario envelope checks run at grid points only; violations strictly
between grid points are not detectable at this resolution.  Scenarios that
share the system, the delays and the grid run as one batch.

Steps run in windows, by the method of steps (Bellman & Cooke, 1963): a
window from grid time t_w is the longest run of steps whose delayed
arguments all lie at or before t_w and whose delay brackets hold no stored
jump.  Every delayed input of a window is then known at t_w, so the
interpolation weights of all of them are planned at once, one gather reads
them, one product turns them into the inputs ``u_k`` of the Runge-Kutta map
``x_{k+1} = x_k P + u_k``, a tight loop runs that recurrence, and one
product gives the window's outputs.  A step whose bracket holds a jump
takes the split path above on its own; delays below two steps give windows
of one step, each advanced with a single product.  Only a step whose h2
bracket holds a jump adds jumps, so one plan serves every window up to and
including the next such step.  The divergence checks run once per block of
``BLOCK_STEPS`` steps and name the first failing grid time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .certificate import BoundCertificate, sample_staircase
from .linalg import DimensionMismatch, as_vector, inverse
from .model import SystemSpec, negative

DIVERGENCE_LIMIT = 1e12
GRID_TOL = 1e-12
# minimum jump magnitude worth tracking
JUMP_TOL = 1e-13
# grid steps per block of sampled disturbances, and rows per block of CSV
BLOCK_STEPS = 512

SIGNAL_KINDS = ("zero", "constant", "abs_sin", "abs_cos",
                "const_plus_abs_sin", "const_plus_abs_cos")


class InvalidScenario(ValueError):
    """Scenario data violates the declared envelopes at a grid point."""


class UnstableStep(RuntimeError):
    """A sample exceeded the divergence limit."""


class MismatchedScenarios(ValueError):
    """Scenario pair is not comparable."""


@dataclass(frozen=True)
class SignalSpec:
    """Nonnegative scalar- or vector-valued signal preset.

    ``amplitude`` fixes the output dimension.  ``frequency`` (rad per time
    unit) applies to the oscillating kinds and broadcasts from a single
    value; ``offset`` only applies to the ``const_plus_*`` kinds.
    """

    kind: str
    amplitude: tuple[float, ...]
    frequency: tuple[float, ...] = ()
    offset: float = 0.0

    def __post_init__(self):
        if self.kind not in SIGNAL_KINDS:
            raise ValueError(f"unknown signal kind {self.kind!r}; expected one of {SIGNAL_KINDS}")
        amp = tuple(float(a) for a in self.amplitude)
        if not amp:
            raise ValueError("amplitude must have at least one component")
        freq = tuple(float(f) for f in self.frequency) or (0.0,)
        if len(freq) == 1:
            freq = freq * len(amp)
        if len(freq) != len(amp):
            raise ValueError(f"frequency length {len(freq)} does not match amplitude length {len(amp)}")
        offset = float(self.offset)
        for label, values in (("amplitude", amp), ("frequency", freq), ("offset", (offset,))):
            if not np.isfinite(values).all():
                raise ValueError(f"{label} must be finite, got {values}")
        object.__setattr__(self, "amplitude", amp)
        object.__setattr__(self, "frequency", freq)
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "_amp", np.array(amp))
        object.__setattr__(self, "_freq", np.array(freq))

    @property
    def dim(self) -> int:
        return len(self.amplitude)

    def __call__(self, t: float) -> np.ndarray:
        return self._eval(t)

    def _eval(self, t) -> np.ndarray:
        kind = self.kind
        if kind == "zero":
            return np.zeros(self.dim) if np.isscalar(t) else np.zeros((len(t), self.dim))
        if kind == "constant":
            return self._amp.copy() if np.isscalar(t) else np.tile(self._amp, (len(t), 1))
        phase = np.multiply.outer(t, self._freq) if not np.isscalar(t) else self._freq * t
        if kind in ("abs_sin", "const_plus_abs_sin"):
            wave = self._amp * np.abs(np.sin(phase))
        else:
            wave = self._amp * np.abs(np.cos(phase))
        if kind.startswith("const_plus"):
            wave = wave + self.offset
        return wave

    # a finite frequency can still overflow the phase; the NaN that follows
    # is reported by the envelope check, not as a numpy warning.  Scalar
    # calls (the simulator's bisection) skip the errstate, which costs more
    # than the evaluation; they run inside the simulator's own errstate.
    @np.errstate(over="ignore", invalid="ignore")
    def sample(self, times: np.ndarray) -> np.ndarray:
        """Evaluate on a grid; shape (len(times), dim)."""
        return self._eval(np.asarray(times, dtype=float))

    def scaled(self, factor: float) -> "SignalSpec":
        """Scale the whole signal value (amplitude and offset) by ``factor``."""
        return replace(self, amplitude=tuple(factor * a for a in self.amplitude),
                       frequency=self.frequency, offset=factor * self.offset)

    @staticmethod
    def constant(values) -> "SignalSpec":
        return SignalSpec(kind="constant", amplitude=tuple(float(v) for v in np.atleast_1d(values)))

    @staticmethod
    def zero(dim: int) -> "SignalSpec":
        return SignalSpec(kind="zero", amplitude=(0.0,) * dim)


@dataclass(frozen=True, eq=False)
class SimulationScenario:
    """Concrete disturbances, delays and initial data for one run."""

    spec: SystemSpec
    omega: SignalSpec
    d: SignalSpec
    h1: SignalSpec
    h2: SignalSpec
    psi: np.ndarray
    phi: SignalSpec
    t_end: float
    step: float

    def __post_init__(self):
        psi = as_vector(self.psi, "psi")
        phi = self.phi
        if not isinstance(phi, SignalSpec):
            phi = SignalSpec.constant(phi)
        n, m = self.spec.n, self.spec.m
        if psi.shape[0] != n:
            raise DimensionMismatch(f"psi must have length {n}, got {psi.shape[0]}")
        for name, sig, dim in [("omega", self.omega, n), ("d", self.d, m),
                               ("phi", phi, m), ("h1", self.h1, 1), ("h2", self.h2, 1)]:
            if sig.dim != dim:
                raise DimensionMismatch(f"{name} signal must have dimension {dim}, got {sig.dim}")
        if not (self.t_end > 0.0 and self.step > 0.0):
            raise ValueError("t_end and step must be positive")
        psi.setflags(write=False)
        object.__setattr__(self, "psi", psi)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "t_end", float(self.t_end))
        object.__setattr__(self, "step", float(self.step))


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled solution on the uniform grid t_k = k * step."""

    times: np.ndarray
    x_samples: np.ndarray
    y_samples: np.ndarray


@dataclass(frozen=True, eq=False)
class DominationReport:
    """Per-component worst margins of trajectory minus bound."""

    x_margin: np.ndarray
    y_margin: np.ndarray
    slack: float
    first_violation_time: float | None

    @property
    def ok(self) -> bool:
        return self.first_violation_time is None


def _check_envelope(name: str, times, values, upper):
    v = np.atleast_2d(values)
    if not np.isfinite(v).all():
        i, j = np.argwhere(~np.isfinite(v))[0]
        raise InvalidScenario(f"{name} not finite at t={times[i]:g}: {v[i, j]}")
    if negative(v).any():
        i, j = np.argwhere(negative(v))[0]
        raise InvalidScenario(f"{name} negative at t={times[i]:g}: {v[i, j]}")
    if negative(upper - v).any():
        i, j = np.argwhere(negative(upper - v))[0]
        raise InvalidScenario(f"{name} exceeds its bound at t={times[i]:g}: "
                              f"{v[i, j]} > {upper[j]}")


def _history_times(h_max: float, step: float) -> np.ndarray:
    """Grid times in [-h_max, 0) at which the initial history is checked."""
    hist = -h_max + step * np.arange(int(math.floor(h_max / step - 1e-9)) + 1)
    return hist[hist < 0.0]


def simulate(scenario: SimulationScenario) -> Trajectory:
    """Integrate the scenario over [0, t_end] on the uniform grid."""
    return simulate_many([scenario])[0]


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
            extra = (extra, np.concatenate(([0], np.cumsum(with_extra))).tolist())
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
        for ta, start, th, tb, end in steps:
            z0 = next(z) if start is None else jumps[2][start]
            zh = next(z)
            z1 = next(z) if end is None else jumps[1][end]
            x = rk4(x, tb - ta, z0, zh, z1, at("omega", ta), at("omega", th), at("omega", tb))
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
        (steps, 3, S, m) in the order z0, zh, z1: x_{i+1} = x_i P + u_i.  A
        lone step is one product of (x, z0, zh, z1) with both maps."""
        L = len(f)
        if L == 1:
            z = z[0]
            xs[k + 1] = np.concatenate((xs[k], z[0], z[1], z[2]), axis=1) @ xz_map + f[0]
            return
        u = z.transpose(0, 2, 1, 3).reshape(L, S, 3 * m) @ Mz + f
        x = xs[k]
        for row, ui in zip(xs[k + 1:k + 1 + L], u):
            np.matmul(x, P, out=row)
            row += ui
            x = row

    def output(x, z, dv, closed: bool):
        """y from x, d and the delayed y ``z``; a delay below one step is
        closed algebraically (module docstring) and ignores z."""
        if closed:
            return (x @ CT + dv) @ closure
        return x @ CT + z @ DT + dv

    def check(k: int, L: int) -> None:
        """Raise at the first grid time in (t_k, t_{k+L}] with a state or an
        output beyond the divergence limit, the state first at equal times."""
        state, out = (~(np.abs(v[k + 1:k + 1 + L]) < DIVERGENCE_LIMIT).all(axis=(1, 2))
                      for v in (xs, ys))
        if (state | out).any():
            r = int((state | out).argmax())
            raise UnstableStep(f"{'state' if state[r] else 'output'} magnitude exceeded "
                               f"{DIVERGENCE_LIMIT:g} at t={ts[k + 1 + r]:g}")

    # initial y from the difference relation (right-continuous at 0)
    ys[0] = output(xs[0], yhist(-H20[:1], 0)[0], on("d", ts[:1])[0], H20[0] < h)
    left0 = at("phi", 0.0)
    if np.max(np.abs(ys[0] - left0)) > JUMP_TOL:
        jumps[:] = (np.zeros(1), left0[None], ys[0][None].copy())

    # Windows, split steps and plans as in the module docstring.  A step k
    # reads y at four times: t_k, t_k + h/2 and t_{k+1} less h1 (clamped to
    # t_k) for x, and t_{k+1} less h2 for y.  Rows after a divergence may
    # overflow until the block's check() names the first one.
    with np.errstate(over="ignore", invalid="ignore"):
        for k0 in range(0, K, BLOCK_STEPS):
            k1 = min(k0 + BLOCK_STEPS, K)
            nb = k1 - k0
            t0s, t1s = ts[k0:k1], ts[k0 + 1:k1 + 1]
            W0 = on("omega", ts[k0:k1 + 1])
            Wh = on("omega", t0s + 0.5 * h)
            D1 = on("d", t1s)
            forcing = np.concatenate((W0[:-1], Wh, W0[1:]), axis=2) @ w_map
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


def verify_domination(traj: Trajectory, cert: BoundCertificate,
                      slack: float = 1e-6) -> DominationReport:
    """Compare a trajectory against the staircase bound at every grid time."""
    n = traj.x_samples.shape[1]
    m = traj.y_samples.shape[1]
    if cert.eta.shape[0] != n or cert.varsigma.shape[0] != m:
        raise DimensionMismatch("certificate and trajectory dimensions differ")
    xb, yb = sample_staircase(cert, traj.times)
    dx = traj.x_samples - xb
    dy = traj.y_samples - yb
    viol = (dx > slack).any(axis=1) | (dy > slack).any(axis=1)
    first = float(traj.times[int(np.argmax(viol))]) if viol.any() else None
    return DominationReport(x_margin=dx.max(axis=0), y_margin=dy.max(axis=0),
                            slack=slack, first_violation_time=first)


def _same_system(a: SystemSpec, b: SystemSpec) -> bool:
    return (a is b) or all(
        np.array_equal(getattr(a, f), getattr(b, f))
        for f in ("A", "B", "C", "D", "omega_bar", "d_bar", "psi_bar", "phi_bar")
    ) and a.h_max == b.h_max


def comparison_check(scenario_lo: SimulationScenario,
                     scenario_hi: SimulationScenario,
                     slack: float = 1e-9) -> bool:
    """Ordered initial data with identical driving must stay ordered.

    Requires identical system, disturbances, delays and grid, and
    ``psi_lo <= psi_hi``, ``phi_lo <= phi_hi``; simulates both as one batch
    and checks the ordering at every grid time.
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
    tr_lo, tr_hi = simulate_many([lo, hi])
    return bool((tr_lo.x_samples <= tr_hi.x_samples + slack).all()
                and (tr_lo.y_samples <= tr_hi.y_samples + slack).all())


def write_trajectory_csv(traj: Trajectory, path,
                         cert: BoundCertificate | None = None) -> None:
    """Write the trajectory as CSV: columns ``t,x_1..x_n,y_1..y_m``, plus
    ``xb_*,yb_*`` when a certificate is supplied."""
    columns = {"x": traj.x_samples, "y": traj.y_samples}
    if cert is not None:
        columns["xb"], columns["yb"] = sample_staircase(cert, traj.times)
    write_csv(path, traj.times, columns)


def write_csv(path, times: np.ndarray, columns: dict[str, np.ndarray]) -> None:
    """The one CSV writer: column ``t``, then ``prefix_1..prefix_k`` for each
    ``prefix -> (rows, k)`` array; 9 significant digits, LF endings.  Rows
    are formatted a block at a time, so memory does not grow with the rows."""
    header = ["t"] + [f"{prefix}_{i + 1}" for prefix, block in columns.items()
                      for i in range(block.shape[1])]
    fmt = ",".join(["%.9g"] * len(header)) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for r0 in range(0, times.shape[0], BLOCK_STEPS):
            rows = slice(r0, r0 + BLOCK_STEPS)
            data = np.hstack([times[rows, None], *(c[rows] for c in columns.values())])
            fh.writelines(fmt % tuple(row) for row in data.tolist())
