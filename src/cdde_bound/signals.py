"""Signal presets for simulator scenarios: ``SignalSpec``, with its values
and its range in closed form, and ``validate_scenario``, which checks a
scenario against its envelopes once, on its parameters."""

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
    def _terms(self) -> tuple:
        """The preset as numpy constants, formed once per signal: the wave's
        function, the frequencies and the amplitudes as columns (dim, 1),
        the offset (None unless ``const_plus_*``), and the first frequency
        and amplitude as np.float64 scalars.  The wave of 1 of ``constant``
        and ``zero`` is |cos(0 t)|, and ``zero`` has the amplitude 0."""
        freq = np.array(self.frequency) if self.kind in _TRIG else np.zeros(self.dim)
        amp = np.zeros(self.dim) if self.kind == "zero" else np.array(self.amplitude)
        offset = np.float64(self.offset) if self.kind.startswith("const_plus") else None
        return (_TRIG.get(self.kind, np.cos), freq[:, None], amp[:, None], offset,
                freq[0], amp[0])

    def __call__(self, t: float) -> np.ndarray:
        return self.sample(np.array([t]))[0]

    # a finite frequency can still overflow the phase past the horizon that
    # validate_scenario checks; the NaN that follows raises no numpy warning
    @np.errstate(over="ignore", invalid="ignore")
    def sample(self, times: np.ndarray) -> np.ndarray:
        """Evaluate on a grid, shape (len(times), dim): ``wave * amplitude``,
        plus the offset for the ``const_plus_*`` kinds, where the wave is
        |sin(f t)| or |cos(f t)|.  The values are formed as rows (dim,
        len(times)), where numpy's loops run over the times, several times
        faster than over a few components, and returned transposed."""
        trig, freq, amp, offset, _, _ = self._terms
        rows = np.abs(trig(freq * np.asarray(times, dtype=float)))
        rows *= amp
        if offset is not None:
            rows += offset
        return rows.T

    def scalar(self, t: float) -> np.float64:
        """The first component at ``t``: the formula of ``sample`` on
        np.float64 scalars, for the delays in the jump bisection, where a
        call on a one-element array costs several times more.  numpy's sin
        and cos, not the math module's, keep it equal to ``sample`` bit for
        bit."""
        trig, _, _, offset, f, amp = self._terms
        value = np.abs(trig(t * f)) * amp
        return value if offset is None else value + offset

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
