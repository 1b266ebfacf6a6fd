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
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
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


def default_scenario(spec: SystemSpec, a: float = 1.0, b: float = 1.0,
                     t_end: float = 40.0, step: float = 1e-3) -> SimulationScenario:
    """Worst-case-flavoured scenario built from the declared envelopes:
    constant disturbances at ``a * omega_bar`` / ``b * d_bar``, delays held
    at the bound, initial data at the envelopes."""
    h_sig = SignalSpec.constant([spec.h_max])
    return SimulationScenario(
        spec=spec,
        omega=SignalSpec.constant(a * spec.omega_bar),
        d=SignalSpec.constant(b * spec.d_bar),
        h1=h_sig, h2=h_sig,
        psi=spec.psi_bar.copy(),
        phi=SignalSpec.constant(spec.phi_bar),
        t_end=t_end, step=step,
    )


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
