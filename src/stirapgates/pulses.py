"""Pulse envelopes, phase ramps, and the counterintuitive two-sequence schedule.

A transfer sequence consists of two identical smooth pulses applied to the
stokes (storage) and pump (qubit) transitions, with the stokes pulse leading
in the first sequence and trailing in the second. Four pulses total, all
translates of one envelope shape. Between the sequences the population rests
in the storage level; afterwards it has returned to the pump level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

RAMP_KINDS = ("constant", "linear")


def _require_finite(obj, *names: str) -> None:
    """Raise ValueError naming the first of the number fields ``names`` of ``obj``
    (all of its fields when none are named) that is set and not finite."""
    for name in names or [f.name for f in fields(obj)]:
        value = getattr(obj, name)
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


def _require_positive(**values: float) -> None:
    """Raise ValueError naming the first of ``values`` that is not a positive finite number."""
    for name, value in values.items():
        if not (value > 0.0 and math.isfinite(value)):
            raise ValueError(f"{name} must be positive and finite, got {value!r}")


@dataclass(frozen=True)
class PulseEnvelope:
    """Single smooth pulse: omega_max * sin^2(pi (t - t_on) / (2 tau)).

    ``tau`` is the full width at half maximum; the support is
    [t_on, t_on + 2 tau), open at the turn-off, and the peak sits at
    t_on + tau.
    """

    omega_max: float
    tau: float
    t_on: float = 0.0

    def __post_init__(self) -> None:
        if not self.tau > 0.0:
            raise ValueError("tau must be positive")
        if not self.omega_max >= 0.0:
            raise ValueError("omega_max must be non-negative; put sign flips in the phase ramp")
        _require_finite(self)

    @property
    def t_off(self) -> float:
        return self.t_on + 2.0 * self.tau

    def value(self, t):
        """Envelope amplitude at time(s) t; exactly zero outside the support.

        The turn-off counts as outside, so it reads 0 as the onset does, not
        the roundoff of sin(pi)^2.
        """
        local = np.asarray(t, dtype=float) - self.t_on
        inside = (local >= 0.0) & (local < 2.0 * self.tau)
        out = np.zeros(local.shape)
        if inside.any():
            out[inside] = self.omega_max * np.sin(np.pi * local[inside] / (2.0 * self.tau)) ** 2
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class PhaseRamp:
    """Drive phase phi(t) = offset + slope * t (slope fixed to 0 when constant)."""

    kind: str = "constant"
    offset: float = 0.0
    slope: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in RAMP_KINDS:
            raise ValueError(f"unknown ramp kind {self.kind!r}")
        _require_finite(self, "offset", "slope")
        if self.kind == "constant" and self.slope != 0.0:
            raise ValueError("constant ramps must have zero slope")

    def value(self, t):
        t = np.asarray(t, dtype=float)
        out = self.offset + self.slope * t
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class DriveField:
    """One laser field coupling a lower level to the excited level.

    ``envelopes`` may hold one pulse or the pair belonging to the two
    transfer sequences (supports must not overlap). The complex Rabi
    frequency is amplitude(t) * exp(i phase(t)).
    """

    level: str
    envelopes: tuple[PulseEnvelope, ...]
    phase: PhaseRamp = field(default_factory=PhaseRamp)

    def __post_init__(self) -> None:
        object.__setattr__(self, "envelopes", tuple(self.envelopes))
        if not self.envelopes:
            raise ValueError("a drive field needs at least one envelope")
        spans = sorted((e.t_on, e.t_off) for e in self.envelopes)
        for (_, left_end), (right_start, _) in zip(spans, spans[1:]):
            if right_start < left_end:
                raise ValueError("envelope supports within one field must not overlap")

    def amplitude(self, t):
        t = np.asarray(t, dtype=float)
        total = np.zeros_like(t)
        for env in self.envelopes:
            total = total + env.value(t)
        return total if total.ndim else float(total)

    def weights(self, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Weights of the in-phase and quadrature terms: amplitude * (cos, sin) of the phase."""
        amp = np.asarray(self.amplitude(times), dtype=float)
        phase = np.asarray(self.phase.value(times), dtype=float)
        return amp * np.cos(phase), amp * np.sin(phase)

    def complex_value(self, t):
        t = np.asarray(t, dtype=float)
        out = self.amplitude(t) * np.exp(1j * self.phase.value(t))
        return out if np.ndim(out) else complex(out)


@dataclass(frozen=True)
class StirapSchedule:
    """Timing of the four-pulse, two-sequence transfer protocol.

    With t_start the onset of the first stokes pulse:

    * stokes onsets: t_start and t_start + pulse_delay + sequence_delay
    * pump onsets:   t_start + pulse_delay and t_start + sequence_delay

    ``t_a`` marks where the mixing angle departs 0 (first pump onset) and
    ``t_b`` where it reaches 1 (first stokes turn-off); the mixing angle
    stays at 1 until t_a + sequence_delay.
    """

    tau: float
    pulse_delay: float
    sequence_delay: float
    t_start: float = 0.0

    def __post_init__(self) -> None:
        _require_finite(self)
        if not self.tau > 0.0:
            raise ValueError("tau must be positive")
        if not self.pulse_delay > 0.0:
            raise ValueError("pulse_delay must be positive")
        if not self.pulse_delay < 2.0 * self.tau:
            raise ValueError("pulse_delay must be smaller than the pulse support 2 tau")
        if not self.sequence_delay > 2.0 * self.tau + self.pulse_delay:
            raise ValueError(
                "sequence_delay must exceed 2 tau + pulse_delay so the sequences do not overlap"
            )
        if not self.support_end > self.t_start:
            raise ValueError(f"t_start {self.t_start!r} is so large that the pulse support "
                             "rounds away in floating point")

    @property
    def stokes_onsets(self) -> tuple[float, float]:
        return (self.t_start, self.t_start + self.pulse_delay + self.sequence_delay)

    @property
    def pump_onsets(self) -> tuple[float, float]:
        return (self.t_start + self.pulse_delay, self.t_start + self.sequence_delay)

    @property
    def t_a(self) -> float:
        return self.t_start + self.pulse_delay

    @property
    def t_b(self) -> float:
        return self.t_start + 2.0 * self.tau

    @property
    def support_end(self) -> float:
        return self.stokes_onsets[1] + 2.0 * self.tau

    @property
    def hold_interval(self) -> tuple[float, float]:
        """Stretch with every field off and the population parked in storage."""
        return (self.pump_onsets[0] + 2.0 * self.tau, self.pump_onsets[1])

    def pump_envelopes(self, omega_max: float) -> tuple[PulseEnvelope, PulseEnvelope]:
        return tuple(
            PulseEnvelope(omega_max, self.tau, t_on) for t_on in self.pump_onsets
        )

    def stokes_envelopes(self, omega_max: float) -> tuple[PulseEnvelope, PulseEnvelope]:
        return tuple(
            PulseEnvelope(omega_max, self.tau, t_on) for t_on in self.stokes_onsets
        )

    def drive(self, level: str, role: str, peak: float, phase: PhaseRamp | None = None
              ) -> DriveField:
        """Field on ``level`` carrying the pump or the stokes pulse pair at ``peak``,
        with a constant zero phase unless ``phase`` is given."""
        if role == "pump":
            envelopes = self.pump_envelopes(peak)
        elif role == "stokes":
            envelopes = self.stokes_envelopes(peak)
        else:
            raise ValueError(f"unknown drive role {role!r}; expected 'pump' or 'stokes'")
        return DriveField(level, envelopes, phase or PhaseRamp())


def build_schedule(
    tau: float,
    pulse_delay: float,
    sequence_delay: float,
    t_start: float = 0.0,
) -> StirapSchedule:
    """Validated four-pulse schedule; see StirapSchedule for the onset layout."""
    return StirapSchedule(
        tau=tau,
        pulse_delay=pulse_delay,
        sequence_delay=sequence_delay,
        t_start=t_start,
    )


class MixingProfile:
    """Mixing angle of a schedule as a function of time, idle gaps filled.

    Where both fields vanish the ratio is continued by its limit from the
    active segments: 0 before the first sequence and after the second, 1
    during the hold between them. ``values`` also returns the idle mask.
    """

    def __init__(
        self,
        schedule: StirapSchedule,
        peak_pump: float = 1.0,
        peak_stokes: float = 1.0,
    ) -> None:
        _require_positive(peak_pump=peak_pump, peak_stokes=peak_stokes)
        self.schedule = schedule
        self._pump = schedule.drive("pump", "pump", peak_pump)
        self._stokes = schedule.drive("stokes", "stokes", peak_stokes)

    def values(self, t) -> tuple[np.ndarray, np.ndarray]:
        """(sin^2 theta, idle mask) at the requested times."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        p2 = np.asarray(self._pump.amplitude(t)) ** 2
        s2 = np.asarray(self._stokes.amplitude(t)) ** 2
        total = p2 + s2
        idle = total == 0.0
        sin2 = np.zeros_like(total)
        active = ~idle
        sin2[active] = p2[active] / total[active]
        hold_start, hold_end = self.schedule.hold_interval
        sin2[idle & (t >= hold_start) & (t <= hold_end)] = 1.0
        return sin2, idle
