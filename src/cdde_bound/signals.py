"""Signal presets for simulator scenarios: ``SignalSpec``, with its values
and its range in closed form, and ``validate_scenario``, the one check of a
scenario's fields, once, on its parameters: field by field, each field's
phase, then its dimension, then each component's sign, then its bar."""

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
        # the kind, resolved once into the form that sample, scalar, bounds
        # and validate_scenario read: the wave, |sin(f t)| or |cos(f t)|; the
        # frequencies, 0 unless the kind oscillates, so that ``constant`` and
        # ``zero`` are the wave |cos 0| = 1; the amplitudes, 0 for ``zero``;
        # the offset, None unless ``const_plus_*``
        trig = _TRIG.get(self.kind)
        object.__setattr__(self, "_form", (
            trig or np.cos, freq if trig else (0.0,) * len(amp),
            (0.0,) * len(amp) if self.kind == "zero" else amp,
            offset if self.kind.startswith("const_plus") else None))

    @property
    def dim(self) -> int:
        return len(self.amplitude)

    @cached_property
    def _terms(self) -> tuple:
        """The form as numpy constants, formed once per signal: the wave's
        function, the frequencies and the amplitudes as columns (dim, 1),
        the offset or None, and the first frequency and amplitude as
        np.float64 scalars."""
        wave, freq, amp, offset = self._form
        freq, amp = np.array(freq), np.array(amp)
        return (wave, freq[:, None], amp[:, None],
                None if offset is None else np.float64(offset), freq[0], amp[0])

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
        value in [0, 1], or at f = 0 only 0 (sin) or 1 (cos).  The extremes
        are the form at the extreme waves, ``wave * amplitude (+ offset)``,
        and they bound the float values too: numpy's |sin| and |cos| stay in
        [0, 1], and the rounded ``wave * amplitude + offset`` is monotone in
        the wave.  Python floats: on a few components they cost less than
        arrays."""
        wave, freq, amp, offset = self._form
        still = 0.0 if wave is np.sin else 1.0     # the wave at f = 0
        offset = offset or 0.0
        ends = [(min(0.0, a), max(0.0, a)) if f != 0.0 else (still * a,) * 2
                for a, f in zip(amp, freq)]
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
    """Raise :class:`InvalidScenario`, naming the field of the first fault,
    unless the scenario fits the system.  One pass over the fields, in the
    order of the signature, checks per field: that an oscillating signal's
    phase f t stays finite over the times a run reads, [-h_max, 0] for phi
    and [0, t_end + step] for the others (the grid ends within step / 2 of
    t_end); its dimension, n for psi and omega, m for phi and d, 1 for h1
    and h2; then, component by component, that psi or the signal's range
    (``SignalSpec.bounds``) is nonnegative (``negative``) and at most its
    bar, exactly, where the bar of h1 and h2 is h_max.  The check is on the
    parameters, so it covers every time, on or between grid points and
    whatever the horizon."""
    end = t_end + step
    for name, sig, bar, label, horizon in (
            ("psi", psi, spec.psi_bar, "psi_bar[{}]", None),
            ("phi", phi, spec.phi_bar, "phi_bar[{}]", -spec.h_max),
            ("omega", omega, spec.omega_bar, "omega_bar[{}]", end),
            ("d", d, spec.d_bar, "d_bar[{}]", end),
            ("h1", h1, (spec.h_max,), "h_max", end), ("h2", h2, (spec.h_max,), "h_max", end)):
        if horizon is None:
            lo = hi = np.asarray(sig, dtype=float)
        else:
            # a frequency of 0, as every kind that does not oscillate has,
            # keeps the phase at 0
            for i, f in enumerate(sig._form[1]):
                if f != 0.0 and not math.isfinite(f * horizon):
                    raise InvalidScenario(f"scenario.{name}.frequency[{i}] = {f} "
                                          f"overflows the phase by t = {horizon}")
            lo, hi = np.array(sig.bounds())
        if len(lo) != len(bar):
            raise InvalidScenario(f"scenario.{name} must have dimension {len(bar)}, got {len(lo)}")
        bad = negative(lo) | ~(hi <= bar)
        if bad.any():
            i = int(bad.argmax())
            if negative(lo[i]):
                raise InvalidScenario(f"scenario.{name}[{i}] reaches {lo[i]} < 0")
            raise InvalidScenario(f"scenario.{name}[{i}] reaches {hi[i]} > "
                                  f"{label.format(i)} = {bar[i]}")
