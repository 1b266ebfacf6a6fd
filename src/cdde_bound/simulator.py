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
algebraically as ``(I - D) y = C x + d``, its vanishing-delay limit.  The
inverse of ``I - D`` is formed by the first step that closes, so a run that
closes none accepts a singular ``I - D``, and one that does fails there as
an invalid scenario.

A scenario is checked once, when it is built, by ``signals.validate_scenario``
alone: field by field, its phase, its dimension, then each component's sign
and bar, naming the field of the first fault.  Each signal is a preset whose
range is closed form, so the check covers every time, not only the grid
points, and a run reads only admissible data.

A run integrates one scenario for S members, which scale its omega and d
by their own ``(a, b)`` and share the rest; a sample times 0 or 1 is exact.
A jump is tracked when any member jumps there by more than ``JUMP_TOL`` (a
member continuous there then moves by truncation error, not rounding).  One
run record (``_Run``) holds the constant maps, the signals, the scales and
the delays, and the state it fills in, x, y and the stored jumps.  Its
stages run in this order:

1. start: set y at 0 from the difference relation and store its jump
   from phi;
2. then, block by block of ``max(BLOCK_STEPS, BLOCK_VALUES // (S *
   max(n, m)))`` steps, so a block holds at most ``BLOCK_VALUES`` states
   of the batch, or ``BLOCK_STEPS`` steps of a wider one:
   - signal sampling: omega and d once for the grid times and omega once
     for the half-step times, each member's values as its scale times the
     sample;
   - the segment and window walk below, which per window runs read
     planning (``weights``, ``gather``), then the windowed scan
     (``recur``) or the split step (``advance``, with the crossing search),
     then jump propagation (``propagate``) and the output;
   - the divergence check, one test of the whole block, which scans it
     row by row only when that test fails, to name the first failing
     grid time.

A run raises only for its grid, before the first step, and for a closure
of a singular ``I - D`` or a divergence, at the first step that meets
either; scenario data that leave their envelopes never reach it.

Steps run in windows, by the method of steps (Bellman & Cooke, 1963): a
window from grid time t_w is the longest run of steps whose delayed
arguments all lie at or before t_w and whose delay brackets hold no stored
jump.  Every delayed input of a window is then known at t_w, so the
interpolation weights of all of them are planned at once, one gather reads
them, one product turns them into the inputs ``u_k`` of the Runge-Kutta map
``x_{k+1} = x_k P + u_k``, a doubling prefix scan (Hillis & Steele, 1986;
Blelloch, 1990) runs that recurrence in about log2 of the window's length
products with the powers ``P^(2^j)``, and one product gives the window's
outputs.  A step whose bracket holds a jump takes the split path above on
its own; delays below two steps give windows of one step, each advanced
with a single product.  Only a step whose h2 bracket holds a jump adds
jumps, so one plan serves every window up to and including the next such
step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .certificate import BoundCertificate, staircase_runs
from .csvio import write_csv
from .linalg import DimensionMismatch, SingularMatrix, as_vector, inverse
from .model import SystemSpec
from .signals import InvalidScenario, SignalSpec, validate_scenario

# a run diverges once a state or output reaches DIVERGENCE_LIMIT times
# max(1, largest entry of psi_bar, phi_bar, omega_bar, d_bar), so the limit
# follows the units of the data
DIVERGENCE_LIMIT = 1e12
# minimum jump magnitude worth tracking
JUMP_TOL = 1e-13
# grid steps per block of sampled disturbances: at least BLOCK_STEPS, and as
# many as hold BLOCK_VALUES states of the batch (S members of max(n, m))
BLOCK_STEPS = 512
BLOCK_VALUES = 512 * 30


class UnstableStep(RuntimeError):
    """A sample exceeded the divergence limit."""


@dataclass(frozen=True, eq=False)
class SimulationScenario:
    """Concrete disturbances, delays and initial data for one run, checked
    against the system's dimensions and envelopes when built
    (``validate_scenario``, which raises ``InvalidScenario``)."""

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
        if not (0.0 < self.t_end < math.inf and 0.0 < self.step < math.inf):
            raise ValueError("t_end and step must be finite and positive")
        validate_scenario(self.spec, psi=psi, phi=phi, omega=self.omega, d=self.d,
                          h1=self.h1, h2=self.h2, t_end=self.t_end, step=self.step)
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
    first_violation_time: float | None

    @property
    def ok(self) -> bool:
        return self.first_violation_time is None


def simulate(scenario: SimulationScenario) -> Trajectory:
    """Integrate the scenario over [0, t_end] on the uniform grid."""
    return _simulate(scenario, [(1.0, 1.0)])[0]


def simulate_corners(scenario: SimulationScenario) -> list[Trajectory]:
    """The scenario's runs with omega and d scaled by (0, 0), (1, 0) and
    (0, 1), verify's corners F, W and Delta, in one pass."""
    return _simulate(scenario, [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])


def _simulate(scenario: SimulationScenario, scales) -> list[Trajectory]:
    """The scenario with omega and d scaled by each ``(a, b)`` of ``scales``,
    in one pass (module docstring): views of states ``(K+1, S, n)``."""
    run = _Run(scenario, scales)
    # rows after a divergence may overflow until the block's check names
    # the first one
    with np.errstate(over="ignore", invalid="ignore"):
        run.start()
        for k0 in range(0, run.K, run.block_steps):
            run.block(k0, min(k0 + run.block_steps, run.K))
    for v in (run.ts, run.xs, run.ys):
        v.setflags(write=False)
    return [Trajectory(times=run.ts, x_samples=run.xs[:, i], y_samples=run.ys[:, i])
            for i in range(run.S)]


class _Run:
    """One scenario for S members on its grid (module docstring).  The
    constants are the maps of a step away from jumps, the transposed system
    matrices, the signals, the scales and the delays; the state is x and y
    on the grid, ``xs`` (K+1, S, n) and ``ys`` (K+1, S, m), and the stored y jumps,
    sorted by time: ``jump_times`` (J,) with the values on either side,
    ``jump_left`` and ``jump_right`` (J, S, m)."""

    def __init__(self, scenario: SimulationScenario, scales):
        self.spec = spec = scenario.spec
        n, m, S = self.n, self.m, self.S = spec.n, spec.m, len(scales)
        self.h = h = scenario.step
        if spec.h_max > 0.0 and h > spec.h_max:
            raise InvalidScenario(f"step {h} exceeds the delay bound {spec.h_max}")
        self.K = K = int(round(scenario.t_end / h))
        if K < 1:
            raise InvalidScenario(f"t_end {scenario.t_end} shorter than one step {h}")
        self.ts = ts = np.arange(K + 1) * h
        self.limit = DIVERGENCE_LIMIT * float(np.concatenate(
            (spec.psi_bar, spec.phi_bar, spec.omega_bar, spec.d_bar)).max(initial=1.0))
        self.block_steps = max(BLOCK_STEPS, BLOCK_VALUES // (S * max(n, m)))
        self.AT, self.BT, self.CT, self.DT = (M.T.copy() for M in (spec.A, spec.B, spec.C, spec.D))
        self.scenario = scenario
        # each member's scales of omega and d, (S, 1, 1)
        self.a, self.b = np.array(scales, dtype=float).T[:, :, None, None]
        self.H10 = scenario.h1.sample(ts)[:, 0]
        self.H1h = scenario.h1.sample(ts[:-1] + 0.5 * h)[:, 0]
        self.H20 = scenario.h2.sample(ts)[:, 0]
        # the delays at one time, on np.float64 scalars
        self.h1_at, self.h2_at = scenario.h1.scalar, scenario.h2.scalar
        # Away from jumps a step is linear in (x, z0, zh, z1, w0, wh, w1) with
        # fixed maps; rk4 applied to unit rows gives them once.  The w part of
        # a block of steps is then one product.
        parts = np.split(np.eye(4 * n + 3 * m), np.cumsum([n, m, m, m, n, n]), axis=1)
        step_map = self.rk4(parts[0], h, *parts[1:])
        self.xz_map, self.w_map = step_map[:n + 3 * m], step_map[n + 3 * m:]
        self.P, self.Mz = self.xz_map[:n], self.xz_map[n:]
        self.xs = np.empty((K + 1, S, n))
        self.xs[0] = scenario.psi
        # zeros, not empty: a history weight of 0 still multiplies a stored row
        self.ys = np.zeros((K + 1, S, m))
        self.jump_times = np.empty(0)
        self.jump_left, self.jump_right = np.empty((0, S, m)), np.empty((0, S, m))

    def start(self) -> None:
        """Set y at t = 0 and store its jump from phi."""
        # initial y from the difference relation (right-continuous at 0)
        z0 = self.gather(self.weights(-self.H20[:1], 0), 0, 1)[0]
        self.ys[0] = self.output(self.xs[0], z0, self.d(self.ts[:1])[0], self.H20[0] < self.h)
        left0 = np.broadcast_to(self.scenario.phi.sample(np.zeros(1))[0], self.ys[0].shape)
        if np.max(np.abs(self.ys[0] - left0)) > JUMP_TOL:
            self.jump_times, self.jump_left = np.zeros(1), left0[None].copy()
            self.jump_right = self.ys[0][None].copy()

        # P^(2^j) for recur's scan, 2^j < BLOCK_STEPS.  A power that
        # overflows ends the list (a never-excited mode of 0 * inf would
        # fake a divergence), and the scan then runs in shorter chunks.
        self.powers = [self.P]
        while 2 ** len(self.powers) < BLOCK_STEPS:
            square = self.powers[-1] @ self.powers[-1]
            if not np.isfinite(square).all():
                break
            self.powers.append(square)
        self.span = 2 ** len(self.powers)

    def omega(self, times: np.ndarray) -> np.ndarray:
        """omega at the times, (len(times), S, n), scaled on the sample's rows."""
        return (self.scenario.omega.sample(times).T * self.a).transpose(2, 0, 1)

    def d(self, times: np.ndarray) -> np.ndarray:
        """d at the times, scaled per member, (len(times), S, m)."""
        return (self.scenario.d.sample(times).T * self.b).transpose(2, 0, 1)

    def sample(self, k0: int, k1: int) -> tuple[np.ndarray, np.ndarray]:
        """The disturbances of steps k0..k1-1: each step's forcing, omega
        through the w part of the step map, (steps, S, n), and d at the step
        ends, (steps, S, m)."""
        ts, h = self.ts, self.h
        nb = k1 - k0
        W0 = self.omega(ts[k0:k1 + 1])
        D1 = self.d(ts[k0 + 1:k1 + 1])
        Wh = self.omega(ts[k0:k1] + 0.5 * h)
        # products over 2-D rows (step, member): a stacked product runs one
        # small matmul per step
        forcing = (np.concatenate((W0[:-1], Wh, W0[1:]), axis=2).reshape(nb * self.S, 3 * self.n)
                   @ self.w_map).reshape(nb, self.S, self.n)
        return forcing, D1

    def block(self, k0: int, k1: int) -> None:
        """Steps k0..k1-1: sample the disturbances, walk the segments up to
        each step whose h2 bracket holds a jump, window by window, and check
        for divergence."""
        ts, h, S, m, xs = self.ts, self.h, self.S, self.m, self.xs
        nb = k1 - k0
        forcing, D1 = self.sample(k0, k1)
        # Windows, split steps and plans as in the module docstring.  A step
        # k reads y at four times: t_k, t_k + h/2 and t_{k+1} less h1
        # (clamped to t_k) for x, and t_{k+1} less h2 for y.
        t0s, t1s = ts[k0:k1], ts[k0 + 1:k1 + 1]
        lo1, hi1 = t0s - self.H10[k0:k1], t1s - self.H10[k0 + 1:k1 + 1]
        lo2, hi2 = t0s - self.H20[k0:k1], t1s - self.H20[k0 + 1:k1 + 1]
        reads = (np.minimum(lo1, t0s), np.minimum(t0s + 0.5 * h - self.H1h[k0:k1], t0s),
                 np.minimum(hi1, t0s), hi2)
        closed = self.H20[k0 + 1:k1 + 1] < h
        # pairwise, not a reduction over the axis of four reads, which costs
        # about 15 times more
        latest = np.maximum(np.maximum(reads[0], reads[1]), reads[2])
        latest = np.where(closed, latest, np.maximum(latest, hi2))
        reads = np.stack(reads, axis=1)
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
            hit2 = self.crosses(lo2[j:], hi2[j:])
            stop = min(j + 1 + int(np.append(hit2, True).argmax()), nb)
            hit1 = self.crosses(lo1[j:stop], hi1[j:stop])
            split = hit1 | hit2[:stop - j]
            # the segment's windows; a split step is a window of its own
            starts, w = [], j
            for c in (np.flatnonzero(split) + j).tolist() + [stop]:
                while w < c:
                    starts.append(w)
                    w = min(reach[w], c)
                starts.append(c)
                w = c + 1
            plan = self.weights(reads[j:stop].ravel(),
                                k0 + np.repeat(starts[:-1], np.diff(starts) * 4))
            for w, w1 in zip(starts, starts[1:]):
                k, L = k0 + w, w1 - w
                z = self.gather(plan, 4 * (w - j), 4 * (w1 - j)).reshape(L, 4, S, m)
                if hit1[w - j]:
                    xs[k + 1] = self.advance(xs[k], k * h, (k + 1) * h, k)
                else:
                    self.recur(k, z[:, :3], forcing[w:w1])
                if hit2[w - j]:
                    self.propagate(k)
                self.ys[k + 1:k + 1 + L] = self.output(xs[k + 1:k + 1 + L], z[:, 3], D1[w:w1],
                                                       closed[w])
            j = stop
        self.check(k0, nb)

    def weights(self, tq: np.ndarray, kmax) -> tuple:
        """y at the times ``tq`` as ``wt[0] ys[idx[0]] + wt[1] ys[idx[1]] +
        extra``: phi before 0, ys[kmax] from the grid time kmax on (with
        weight 0 on the next row, not yet computed and still zero), else
        linear between grid values, with the matching one-sided value (in
        ``extra``) in place of the grid value across a jump.  ``kmax`` may
        differ per read; no jump is stored after t_kmax yet."""
        h, S, m, bp = self.h, self.S, self.m, self.jump_times
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
            extra[past] = self.scenario.phi.sample(tq[past])[:, None]
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
            extra[cut] = (np.where(before[:, None, None], self.jump_left[j], self.jump_right[j])
                          * np.where(before, w, 1.0 - w)[:, None, None])
            with_extra[cut] = True
        # reads with an extra term, counted up to each read
        if extra is not None:
            extra = (extra, np.concatenate(([0], np.cumsum(with_extra))))
        return idx, wt[:, :, None, None], extra

    def gather(self, plan, r0: int, r1: int) -> np.ndarray:
        """y at the planned reads r0..r1-1 (``weights``), shape (r1 - r0, S, m)."""
        idx, wt, extra = plan
        z = self.ys.take(idx[:, r0:r1], axis=0)
        z *= wt[:, r0:r1]
        z = z[0] + z[1]
        if extra is not None and extra[1][r1] > extra[1][r0]:
            z += extra[0][r0:r1]
        return z

    def rk4(self, x, hh, z0, zh, z1, w0, wh, w1):
        AT, BT = self.AT, self.BT
        c0 = z0 @ BT + w0
        ch = zh @ BT + wh
        c1 = z1 @ BT + w1
        k1 = x @ AT + c0
        k2 = (x + (0.5 * hh) * k1) @ AT + ch
        k3 = (x + (0.5 * hh) * k2) @ AT + ch
        k4 = (x + hh * k3) @ AT + c1
        return x + (hh / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    def crossings(self, delay, t0: float, t1: float) -> list[tuple[float, int]]:
        """Times in (t0, t1] where ``t - delay(t)`` crosses a stored jump
        time, with the jump's index (sign test at the endpoints, then
        bisection until the bracket stops moving)."""
        out = []
        f0, f1 = t0 - float(delay(t0)), t1 - float(delay(t1))
        bp = self.jump_times
        for i in range(*np.searchsorted(bp, [min(f0, f1), max(f0, f1)], side="right")):
            target = float(bp[i])
            ta, tb = t0, t1
            fa = f0 - target
            for _ in range(60):
                tm = 0.5 * (ta + tb)
                if tm == ta or tm == tb:     # the bracket moves no more
                    break
                fm = tm - float(delay(tm)) - target
                if (fa <= 0.0) == (fm <= 0.0):
                    ta, fa = tm, fm
                else:
                    tb = tm
            out.append((0.5 * (ta + tb), i))
        out.sort()
        return out

    def advance(self, x, t0: float, t1: float, kav: int) -> np.ndarray:
        """Split-aware advance over [t0, t1] (slow path, used near jumps): one
        step per piece, boundary stages on the matching side of the jump."""
        h1_at, tk = self.h1_at, kav * self.h
        pieces = [(t0, None)] + self.crossings(h1_at, t0, t1) + [(t1, None)]
        steps = [(ta, start, ta + 0.5 * (tb - ta), tb, end)
                 for (ta, start), (tb, end) in zip(pieces, pieces[1:]) if tb > ta]
        tq = np.array([min(t - float(h1_at(t)), tk) for ta, start, th, tb, end in steps
                       for t, side in ((ta, start), (th, None), (tb, end)) if side is None])
        z = iter(self.gather(self.weights(tq, kav), 0, len(tq)))
        w = self.omega(np.array([t for ta, start, th, tb, end in steps for t in (ta, th, tb)]))
        for i, (ta, start, th, tb, end) in enumerate(steps):
            z0 = next(z) if start is None else self.jump_right[start]
            zh = next(z)
            z1 = next(z) if end is None else self.jump_left[end]
            x = self.rk4(x, tb - ta, z0, zh, z1, *w[3 * i:3 * i + 3])
        return x

    def propagate(self, k: int) -> None:
        """Store the y jumps made where t - h2(t) crosses a stored jump in
        (t_k, t_{k+1}]."""
        t0, t1 = k * self.h, (k + 1) * self.h
        x0 = self.xs[k]
        new_events = []
        for tstar, i in self.crossings(self.h2_at, t0, t1):
            xstar = self.advance(x0, t0, tstar, k) if tstar > t0 else x0
            dv = self.d(np.array([tstar]))[0]
            left, right = (self.output(xstar, z[i], dv, False)
                           for z in (self.jump_left, self.jump_right))
            if np.max(np.abs(right - left)) > JUMP_TOL:
                new_events.append((tstar, left, right))
        for tstar, left, right in new_events:
            bp = self.jump_times
            i = int(np.searchsorted(bp, tstar))
            if i == len(bp) or bp[i] != tstar:      # none stored at tstar yet
                self.jump_times = np.insert(bp, i, tstar)
                self.jump_left = np.insert(self.jump_left, i, left, axis=0)
                self.jump_right = np.insert(self.jump_right, i, right, axis=0)

    def crosses(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Steps whose bracket of delayed arguments holds a stored jump time."""
        bp = self.jump_times
        return (np.searchsorted(bp, np.minimum(lo, hi), side="right")
                < np.searchsorted(bp, np.maximum(lo, hi), side="right"))

    def recur(self, k: int, z: np.ndarray, f: np.ndarray) -> None:
        """x over the len(f) steps from t_k, given their delayed y as
        (steps, 3, S, m) in the order z0, zh, z1: x_{i+1} = x_i P + u_i, as
        a doubling scan over chunks of ``span`` steps.  A lone step is one
        product of (x, z0, zh, z1) with both maps."""
        xs, S, n = self.xs, self.S, self.n
        L = len(f)
        if L == 1:
            z = z[0]
            xs[k + 1] = np.concatenate((xs[k], z[0], z[1], z[2]), axis=1) @ self.xz_map + f[0]
            return
        # one row per step and member, so each product is one 2-D matmul
        u = xs[k + 1:k + 1 + L].reshape(L * S, n)
        np.matmul(z.transpose(0, 2, 1, 3).reshape(L * S, 3 * self.m), self.Mz, out=u)
        u += f.reshape(L * S, n)
        x = xs[k]
        for c in range(0, L * S, self.span * S):
            v = u[c:c + self.span * S]
            v[:S] += x @ self.P
            # Hillis-Steele: after the round with a stride of 2^j steps
            # (d rows), each step holds the inputs of the 2^(j+1) steps up
            # to it, each carried there by a power of P
            for j, Pd in enumerate(self.powers):
                d = S << j
                if d >= len(v):
                    break
                v[d:] += v[:-d] @ Pd
            x = v[-S:]

    @cached_property
    def closure(self) -> np.ndarray:
        """``inv(I - D)`` transposed, formed by the first closed step."""
        try:
            return inverse(np.eye(self.m) - self.spec.D).T
        except SingularMatrix as exc:
            raise InvalidScenario(f"h2 falls below the step {self.h}, "
                                  f"where I - D must be invertible: {exc}") from None

    def output(self, x, z, dv, closed: bool):
        """y from x, d and the delayed y ``z``, as 2-D products over the rows
        (step, member); a delay below one step is closed algebraically
        (module docstring) and ignores z."""
        n, m = self.n, self.m
        x, y = x.reshape(-1, n), dv.reshape(-1, m)
        if closed:
            y = (x @ self.CT + y) @ self.closure
        else:
            y = x @ self.CT + z.reshape(-1, m) @ self.DT + y
        return y.reshape(dv.shape)

    def check(self, k: int, L: int) -> None:
        """Raise at the first grid time in (t_k, t_{k+L}] with a state or an
        output beyond the divergence limit, the state first at equal times.
        One test of the whole block; the scan row by row runs only when it
        fails."""
        xs, ys = self.xs[k + 1:k + 1 + L], self.ys[k + 1:k + 1 + L]
        if (np.abs(xs) < self.limit).all() and (np.abs(ys) < self.limit).all():
            return
        state, out = (~(np.abs(v) < self.limit).all(axis=(1, 2)) for v in (xs, ys))
        r = int((state | out).argmax())
        raise UnstableStep(f"{'state' if state[r] else 'output'} magnitude exceeded "
                           f"{self.limit:g} at t={self.ts[k + 1 + r]:g}")


def verify_domination(traj: Trajectory, cert: BoundCertificate,
                      slack: float = 1e-6, runs=None) -> DominationReport:
    """Compare a trajectory against the staircase bound at every grid time,
    run by run (``staircase_runs(cert, traj.times)`` unless given): ``fl(a - c)``
    is monotone in ``a``, so run maxima give exact margins.  NaN violates."""
    if (cert.eta.size, cert.varsigma.size) != (traj.x_samples.shape[1], traj.y_samples.shape[1]):
        raise DimensionMismatch("certificate and trajectory dimensions differ")
    starts, xb, yb = staircase_runs(cert, traj.times) if runs is None else runs
    dx = np.maximum.reduceat(traj.x_samples, starts, axis=0) - xb
    dy = np.maximum.reduceat(traj.y_samples, starts, axis=0) - yb
    bad = ~(np.hstack([dx, dy]) <= slack).all(axis=1)
    first = None
    if bad.any():
        i = int(bad.argmax())
        rows = slice(starts[i], np.append(starts, traj.times.size)[i + 1])
        d = np.hstack([traj.x_samples[rows] - xb[i], traj.y_samples[rows] - yb[i]])
        first = float(traj.times[rows][(d <= slack).all(axis=1).argmin()])
    return DominationReport(x_margin=dx.max(axis=0), y_margin=dy.max(axis=0),
                            first_violation_time=first)


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Write the trajectory as CSV: columns ``t,x_1..x_n,y_1..y_m``."""
    write_csv(path, traj.times, {"x": traj.x_samples, "y": traj.y_samples})
