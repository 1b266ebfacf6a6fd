"""Signal presets for simulator scenarios: ``SignalSpec``, with its range
in closed form; ``validate_scenario``, which checks a scenario against its
envelopes once, on its parameters; and ``_SignalBatch``, which evaluates
signals of one dimension together and shares each distinct wave between
them."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .model import negative

SIGNAL_KINDS = ("zero", "constant", "abs_sin", "abs_cos",
                "const_plus_abs_sin", "const_plus_abs_cos")


class InvalidScenario(ValueError):
    """Scenario data outside its envelopes, or a grid or a closure the run
    cannot take."""


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
        amp = tuple(map(float, self.amplitude))
        if not amp:
            raise ValueError("amplitude must have at least one component")
        freq = tuple(map(float, self.frequency)) or (0.0,)
        if len(freq) == 1:
            freq = freq * len(amp)
        if len(freq) != len(amp):
            raise ValueError(f"frequency length {len(freq)} does not match amplitude length {len(amp)}")
        offset = float(self.offset)
        for label, values in (("amplitude", amp), ("frequency", freq), ("offset", (offset,))):
            if not all(map(math.isfinite, values)):
                raise ValueError(f"{label} must be finite, got {values}")
        object.__setattr__(self, "amplitude", amp)
        object.__setattr__(self, "frequency", freq)
        object.__setattr__(self, "offset", offset)

    @property
    def dim(self) -> int:
        return len(self.amplitude)

    @cached_property
    def _batch(self) -> "_SignalBatch":
        return _SignalBatch([self])

    def __call__(self, t: float) -> np.ndarray:
        return self.sample(np.array([t]))[0]

    # a finite frequency can still overflow the phase past the horizon that
    # validate_scenario checks; the NaN that follows raises no numpy warning
    @np.errstate(over="ignore", invalid="ignore")
    def sample(self, times: np.ndarray) -> np.ndarray:
        """Evaluate on a grid; shape (len(times), dim)."""
        return self._batch(np.asarray(times, dtype=float))[:, 0]

    def bounds(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """The lowest and the highest value of each component over t >= 0,
        in closed form.  The wave, |sin(f t)| or |cos(f t)|, takes every
        value in [0, 1], or at f = 0 only 0 (sin) or 1 (cos); ``constant``
        is a wave of 1 and ``zero`` an amplitude of 0.  The extremes are the
        preset at the extreme waves, ``wave * amplitude (+ offset)``, and
        they bound the float values too: numpy's |sin| and |cos| stay in
        [0, 1], and the rounded ``wave * amplitude + offset`` is monotone in
        the wave.  Python floats: on a few components they cost less than
        arrays."""
        trig = _TRIG.get(self.kind)
        # the wave where it does not move: kinds without one, or f = 0
        still = 0.0 if trig is np.sin or self.kind == "zero" else 1.0
        offset = self.offset if self.kind.startswith("const_plus") else 0.0
        if trig is None:
            values = tuple(still * a + offset for a in self.amplitude)
            return values, values
        ends = [(min(0.0, a), max(0.0, a)) if f != 0.0 else (still * a,) * 2
                for a, f in zip(self.amplitude, self.frequency)]
        return tuple(lo + offset for lo, _ in ends), tuple(hi + offset for _, hi in ends)

    def scaled(self, factor: float) -> "SignalSpec":
        """Scale the whole signal value (amplitude and offset) by ``factor``."""
        return replace(self, amplitude=tuple(factor * a for a in self.amplitude),
                       frequency=self.frequency, offset=factor * self.offset)

    @staticmethod
    def constant(values) -> "SignalSpec":
        return SignalSpec(kind="constant", amplitude=tuple(float(v) for v in np.atleast_1d(values)))


_TRIG = {"abs_sin": np.sin, "const_plus_abs_sin": np.sin,
         "abs_cos": np.cos, "const_plus_abs_cos": np.cos}


def validate_scenario(spec, *, psi, phi: SignalSpec, omega: SignalSpec, d: SignalSpec,
                      h1: SignalSpec, h2: SignalSpec, t_end: float, step: float) -> None:
    """Raise :class:`InvalidScenario`, naming the field and the component,
    unless the scenario stays in its envelopes at every time: psi and each
    signal's range (``SignalSpec.bounds``) nonnegative (``negative``) and at
    most its bar, exactly, where the bar of h1 and h2 is h_max.  The check
    is on the parameters, so it covers every time, on or between grid
    points and whatever the horizon.  An oscillating signal's phase f t
    must also stay finite over the times a run reads: [-h_max, 0] for phi,
    [0, t_end + step] for the others (the grid ends within step / 2 of
    t_end).  The phases are checked first; then the first component, in
    the order of the signature, that is negative or above its bar is
    named, its sign before its bar."""
    end = t_end + step
    fields = (("psi", None, "psi_bar[{}]", 0.0), ("phi", phi, "phi_bar[{}]", -spec.h_max),
              ("omega", omega, "omega_bar[{}]", end), ("d", d, "d_bar[{}]", end),
              ("h1", h1, "h_max", end), ("h2", h2, "h_max", end))
    for name, sig, _, horizon in fields[1:]:
        if sig.kind in _TRIG:
            for i, f in enumerate(sig.frequency):
                if not math.isfinite(f * horizon):
                    raise InvalidScenario(f"scenario.{name}.frequency[{i}] = {f} "
                                          f"overflows the phase by t = {horizon}")
    # every component at once, in field order
    psi = np.asarray(psi, dtype=float).tolist()
    lo, hi, sizes = psi[:], psi[:], [len(psi)]
    for _, sig, _, _ in fields[1:]:
        ends = sig.bounds()
        lo += ends[0]
        hi += ends[1]
        sizes.append(sig.dim)
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    bar = np.concatenate((spec.psi_bar, spec.phi_bar, spec.omega_bar, spec.d_bar,
                          [spec.h_max, spec.h_max]))
    bad = negative(lo) | ~(hi <= bar)
    if bad.any():
        k = i = int(bad.argmax())
        for (name, _, label, _), size in zip(fields, sizes):
            if i < size:
                break
            i -= size
        if negative(lo[k]):
            raise InvalidScenario(f"scenario.{name}[{i}] reaches {lo[k]} < 0")
        raise InvalidScenario(f"scenario.{name}[{i}] reaches {hi[k]} > "
                              f"{label.format(i)} = {bar[k]}")


class _SignalBatch:
    """Signals of one dimension, evaluated together: each value is ``wave *
    amplitude``, plus the offset for the ``const_plus_*`` kinds, where the
    wave is |sin(f t)| or |cos(f t)| for the oscillating kinds and 1 for
    ``constant`` (``zero`` counts with amplitude 0).  Each distinct wave, one
    (sin or cos, f), is evaluated once per call and shared by the members;
    ``SignalSpec.sample`` is the batch of one."""

    def __init__(self, signals):
        self.shape = (len(signals), signals[0].dim)
        # a column per member and component: (np.sin, np.cos or None; f;
        # amplitude; offset or None)
        cols = [(_TRIG.get(s.kind), np.float64(f), np.float64(0.0 if s.kind == "zero" else a),
                 np.float64(s.offset) if s.kind.startswith("const_plus") else None)
                for s in signals for a, f in zip(s.amplitude, s.frequency)]
        # the rows of the table of waves: the distinct sines, the distinct
        # cosines, then a row of ones
        sines = [*dict.fromkeys(c[:2] for c in cols if c[0] is np.sin)]
        waves = sines + [*dict.fromkeys(c[:2] for c in cols if c[0] is np.cos)]
        self._trigs = ((np.sin, slice(0, len(sines))), (np.cos, slice(len(sines), len(waves))))
        self._freqs = np.array([f for trig, f in waves]).reshape(-1, 1)
        self._take = np.array([waves.index(c[:2]) if c[0] else len(waves) for c in cols])
        self._amp = np.array([[c[2]] for c in cols])
        self._offset = np.array([[0.0 if c[3] is None else c[3]] for c in cols])
        plus = np.array([[c[3] is not None] for c in cols])
        self._plus = plus if plus.any() else None
        self._first = cols[0]

    def __call__(self, times: np.ndarray) -> np.ndarray:
        """Values at the float64 ``times``, shape (len(times), members, dim)."""
        table = np.empty((len(self._freqs) + 1, len(times)))
        waves = np.multiply(self._freqs, times, out=table[:-1])
        for trig, rows in self._trigs:
            trig(waves[rows], out=waves[rows])
        np.abs(waves, out=waves)
        table[-1] = 1.0
        out = table[self._take]
        out *= self._amp
        if self._plus is not None:
            np.add(out, self._offset, out=out, where=self._plus)
        return out.T.reshape(len(times), *self.shape)

    def scalar(self, t: float) -> np.float64:
        """The first member's first value at ``t``: the formula of
        ``__call__`` on np.float64 scalars, for the delays in the jump
        bisection, where a call on a one-element array costs several times
        more.  numpy's sin and cos, not the math module's, keep it equal to
        ``__call__`` bit for bit."""
        trig, f, amp, offset = self._first
        value = (np.abs(trig(t * f)) if trig else 1.0) * amp
        return value if offset is None else value + offset
