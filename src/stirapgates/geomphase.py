"""Geometric-phase integrals for dark-state transport.

Single-atom transport picks up a phase equal to minus the integral of the
pumped-level weight against the drive-phase winding. For two interacting
atoms the doubly-excited dark state acquires the analogous phase from the
interaction shift, and its coupling to a second degenerate dark state is
integrated as a small dedicated Schrodinger problem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .propagator import ConvergenceReport, TimeGrid, Trajectory, converge_many
from .pulses import MixingProfile, PhaseRamp, StirapSchedule, _require_positive
from .qcore import StateVector
from .systems import HamiltonianModel

_WZ_LABELS = ("D5", "D6")
# Simpson panels per kink-free segment of every mixing-weight integral
_WEIGHT_INTERVALS = 96


@dataclass(frozen=True)
class PhaseEstimate:
    """Quadrature result with a Richardson error estimate."""

    value: float
    error_estimate: float


def _simpson(values: np.ndarray, h: float) -> float:
    acc = values[0] + values[-1] + 4.0 * np.sum(values[1:-1:2]) + 2.0 * np.sum(values[2:-2:2])
    return float(acc * h / 3.0)


def integrate_piecewise(
    func,
    t_start: float,
    t_end: float,
    breakpoints: tuple[float, ...] = (),
    intervals: int = 64,
) -> PhaseEstimate:
    """Composite Simpson rule split at integrand kinks.

    ``func`` must accept an array of times. Each segment between adjacent
    breakpoints is integrated with ``intervals`` panels and again with
    twice as many, from one call of ``func`` on the fine grid, every other
    point of which is the coarse grid; the halving difference over fifteen
    is the standard error estimate for a fourth-order rule.
    """
    if intervals < 2 or intervals % 2:
        raise ValueError("intervals must be a positive even number")
    cuts = [t_start]
    for b in sorted(set(breakpoints)):
        if t_start < b < t_end:
            cuts.append(float(b))
    cuts.append(t_end)

    total = 0.0
    error = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        values = np.asarray(func(np.linspace(a, b, 2 * intervals + 1)), dtype=float)
        coarse = _simpson(values[::2], (b - a) / intervals)
        fine = _simpson(values, (b - a) / (2 * intervals))
        total += fine
        error += abs(fine - coarse) / 15.0
    return PhaseEstimate(value=total, error_estimate=error)


def schedule_breakpoints(schedule: StirapSchedule) -> tuple[float, ...]:
    """Envelope onsets and offsets, where the mixing angle has kinks."""
    tau = schedule.tau
    points = set()
    for onset in schedule.stokes_onsets + schedule.pump_onsets:
        points.add(onset)
        points.add(onset + 2.0 * tau)
    return tuple(sorted(points))


def mixing_integral(
    schedule: StirapSchedule,
    power: int = 1,
    peak_pump: float = 1.0,
    peak_stokes: float = 1.0,
) -> PhaseEstimate:
    """Integral of the pumped-level weight (to a power) over the sequence.

    With power 1 this equals the sequence delay exactly: the two ramp
    regions are mirror images and their deviations from the hold cancel.
    """
    return _weight_integral(schedule, lambda vals: vals**power,
                            peak_pump=peak_pump, peak_stokes=peak_stokes)


def berry_phase_numeric(
    schedule: StirapSchedule,
    stokes_phase: PhaseRamp,
    peak_pump: float = 1.0,
    peak_stokes: float = 1.0,
) -> PhaseEstimate:
    """Transport phase as minus the mixing weight against the phase winding.

    Only the relative phase between the two drives matters, so the pump
    phase is taken constant and the winding rate is the stokes ramp slope.
    """
    rate = stokes_phase.slope
    return _weight_integral(schedule, lambda vals: -rate * vals,
                            peak_pump=peak_pump, peak_stokes=peak_stokes)


def berry_phase_closed_form(schedule: StirapSchedule, stokes_phase: PhaseRamp) -> float:
    """Exact transport phase for a linear stokes-phase ramp.

    The weight integrates to the sequence delay, so the phase is the ramp
    value at the pump onset minus its value one sequence delay later.
    """
    t_a = schedule.t_a
    return stokes_phase.value(t_a) - stokes_phase.value(t_a + schedule.sequence_delay)


def _mixing_weight(schedule: StirapSchedule, **peaks: float):
    """R(times), the transferred-level weight sin^2(theta) of the schedule, as a
    vectorized function of time; ``peaks`` are the pump and then the stokes
    peak under the caller's parameter names, so a bad one is refused by name."""
    if not isinstance(schedule, StirapSchedule):
        raise TypeError(f"expected a StirapSchedule, got {type(schedule)!r}")
    _require_positive(**peaks)
    profile = MixingProfile(schedule, *peaks.values())
    return lambda times: profile.values(times)[0]


def _weight_integral(schedule: StirapSchedule, f, **peaks: float) -> PhaseEstimate:
    """Quadrature of f(R) over the sequence, R the transferred-level weight."""
    weight = _mixing_weight(schedule, **peaks)
    return integrate_piecewise(lambda times: f(weight(times)), schedule.t_start,
                               schedule.support_end, breakpoints=schedule_breakpoints(schedule),
                               intervals=_WEIGHT_INTERVALS)


def _require_finite_shift(shift: float) -> None:
    if not math.isfinite(shift):
        raise ValueError(f"interaction_shift must be finite, got {shift!r}")


def two_qubit_phase(
    schedule: StirapSchedule,
    interaction_shift: float,
    peak_1: float = 1.0,
    peak_2: float = 1.0,
) -> PhaseEstimate:
    """Phase collected by the doubly-transferred dark state.

    The doubly-excited component carries weight equal to the square of the
    single-atom mixing weight, and the interaction shift turns that weight
    into a phase rate.
    """
    _require_finite_shift(interaction_shift)
    est = _weight_integral(schedule, lambda r: r * r, peak_1=peak_1, peak_2=peak_2)
    return PhaseEstimate(
        value=-interaction_shift * est.value,
        error_estimate=abs(interaction_shift) * est.error_estimate,
    )


def ramp_weight_deficit(
    schedule: StirapSchedule,
    peak_1: float = 1.0,
    peak_2: float = 1.0,
) -> float:
    """Integral of R(1 - R) over the ramps, with R the mixing weight.

    The quantity is independent of the sequence delay (the ramps keep
    their shape as the second pulse pair slides), which makes it the
    natural correction when solving for a delay that hits a phase target.
    """
    return _weight_integral(schedule, lambda vals: vals * (1.0 - vals),
                            peak_1=peak_1, peak_2=peak_2).value


def _pair_law(shift: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(static, M1, M2) of the (D5, D6) generator static + r M1 + r^2 M2, with
    r = sin^2 of the pair mixing angle: shift * [[r^2, r q / sqrt 2],
    [r q / sqrt 2, q^2 / 2]] with q = 1 - r."""
    root = shift / np.sqrt(2.0)
    return (np.diag([0.0, 0.5 * shift]),
            np.array([[0.0, root], [root, -shift]]),
            np.array([[shift, -root], [-root, 0.5 * shift]]))


class _MixingWeights:
    """Source of the transport law's couplings: the weights r and r^2."""

    def __init__(self, weight):
        self._weight = weight

    def weights(self, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        r = self._weight(times)
        return r, r * r


def wz_connection(theta_2: float, interaction_shift: float) -> np.ndarray:
    """Connection matrix over the six two-atom dark states.

    Only the doubly-transferred pair mixes; the populated single-transfer
    states are flat. Entries are anti-Hermitian as required for a
    norm-preserving transport law.
    """
    a = np.zeros((6, 6), dtype=complex)
    a[4:6, 4:6] = 1j * wz_hamiltonian(theta_2, interaction_shift)
    return a


def wz_hamiltonian(theta_2: float, interaction_shift: float) -> np.ndarray:
    """Effective 2x2 generator for the mixing dark-state pair."""
    static, m1, m2 = _pair_law(interaction_shift)
    r = np.sin(theta_2) ** 2
    return (static + r * m1 + r * r * m2).astype(complex)


@dataclass(frozen=True)
class WzResult:
    """Outcome of transporting the doubly-excited dark-state pair."""

    trajectory: Trajectory
    final_amplitudes: np.ndarray
    geometric_phase: float
    max_mixing: float
    terminal_mixing: float
    report: ConvergenceReport


def wz_propagate(
    schedule: StirapSchedule,
    interaction_shift: float,
    peak_1: float = 1.0,
    peak_2: float = 1.0,
    base_step: float = 0.01,
    tolerance: float = 1e-10,
) -> WzResult:
    """Integrate the dark-pair transport law across one pulse sequence.

    Starts entirely in the doubly-transferred state. The returned phase is
    that state's unwrapped terminal phase; the mixing numbers quantify how
    much amplitude ever reaches (and finally remains in) its partner.
    """
    _require_finite_shift(interaction_shift)
    weight = _mixing_weight(schedule, peak_1=peak_1, peak_2=peak_2)
    grid = TimeGrid(t_start=schedule.t_start, t_end=schedule.support_end, base_step=base_step,
                    sample_stride=8)
    start = StateVector(np.array([1.0, 0.0], dtype=complex), _WZ_LABELS)
    static, m1, m2 = _pair_law(interaction_shift)
    model = HamiltonianModel(_WZ_LABELS, static, [(_MixingWeights(weight), m1, m2)])
    (traj,), report = converge_many(model, [start], grid, tolerance=tolerance)

    mixing = traj.populations[:, 1]
    return WzResult(
        trajectory=traj,
        final_amplitudes=traj.states[-1].copy(),
        geometric_phase=traj.terminal_phase("D5"),
        max_mixing=float(np.max(mixing)),
        terminal_mixing=float(mixing[-1]),
        report=report,
    )


def calibrate_interaction_shift(
    tau: float,
    target_mixing: float = 0.005,
    pulse_delay_ratio: float = 0.4,
    sequence_delay_ratio: float = 4.0,
    bracket: tuple[float, float] = (1e-4, 4.0),
    rel_tol: float = 1e-3,
    base_step: float | None = None,
) -> float:
    """Interaction shift whose worst dark-pair mixing hits a target.

    The schedule is scaled off the pulse width, so halving ``tau`` shrinks
    every timing proportionally. Peak mixing grows monotonically with the
    shift in the perturbative regime, so a bisection on the shift finds
    the calibration point.
    """
    schedule = StirapSchedule(
        tau=tau,
        pulse_delay=pulse_delay_ratio * tau,
        sequence_delay=sequence_delay_ratio * tau,
    )
    if base_step is None:
        base_step = tau / 100.0

    def mixing(shift: float) -> float:
        return wz_propagate(
            schedule, shift, base_step=base_step, tolerance=1e-9
        ).max_mixing

    # Walk up to the first crossing so the bisection stays on the rising
    # flank; far beyond it the mixing saturates and turns over.
    lo, cap = bracket
    if mixing(lo) > target_mixing:
        raise ValueError(
            f"mixing at the lower bracket {lo} already exceeds the target "
            f"{target_mixing}; lower the bracket"
        )
    hi = lo
    while True:
        hi = 2.0 * hi
        if hi > cap:
            raise ValueError(
                f"no crossing of target mixing {target_mixing} found below "
                f"shift {cap}"
            )
        if mixing(hi) >= target_mixing:
            break
        lo = hi
    while hi - lo > rel_tol * hi:
        mid = 0.5 * (lo + hi)
        if mixing(mid) < target_mixing:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def transform_interaction(
    state: StateVector, interaction_shift: float, t: float
) -> StateVector:
    """Remove the interaction-shift rotation from a two-atom state.

    The doubly-excited basis amplitude picks up a bare phase at the shift
    rate; dividing it out makes the instantaneous dark states stationary
    targets at any time, not just at zero.
    """
    labels = tuple(state.basis_labels)
    if "22" not in labels:
        raise ValueError("state has no doubly-transferred component to rotate")
    amps = state.amplitudes.copy()
    amps[labels.index("22")] *= np.exp(-1j * interaction_shift * t)
    return StateVector(amps, labels)
