"""Gate construction on top of dark-state transport.

Each gate runs the full time-dependent problem from every qubit basis
state, reconstructs the achieved operator from the terminal amplitudes,
and reports fidelity against the ideal target together with leakage and
convergence diagnostics. Targets are hit by choosing drive-phase ramps
(single qubit) or the sequence delay (two qubits); nothing is fitted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geomphase import berry_phase_closed_form, ramp_weight_deficit
from .propagator import ConvergenceReport, TimeGrid, converge_many
from .pulses import DriveField, PhaseRamp, StirapSchedule, build_schedule
from .qcore import StateVector, basis_state, principal_angle, unitary_fidelity
from .systems import LambdaSystem, TripodSystem, TwoAtomSystem, sequence_fields

LEAKAGE_CAP = 0.05

_HADAMARD_TARGET = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)


class LeakageError(RuntimeError):
    """Raised when too much population escapes the qubit subspace."""


@dataclass(frozen=True)
class GateSpec:
    """Numeric parameters shared by the gate runners.

    ``peak_rabi`` is the reference drive amplitude in angular-frequency
    units; individual gates derive their per-drive peaks from it. The
    integration starts from ``base_step`` and is refined until terminal
    states agree to ``tolerance``.
    """

    tau: float
    pulse_delay: float
    sequence_delay: float
    peak_rabi: float
    detuning: float = 0.0
    interaction_shift: float = 0.0
    t_start: float = 0.0
    base_step: float | None = None
    tolerance: float = 1e-8
    sample_stride: int = 16

    def schedule(self) -> StirapSchedule:
        return build_schedule(
            self.tau, self.pulse_delay, self.sequence_delay, self.t_start
        )

    def grid(self, schedule: StirapSchedule) -> TimeGrid:
        return schedule_grid(schedule, self.base_step, self.sample_stride)


def schedule_grid(
    schedule: StirapSchedule,
    base_step: float | None,
    sample_stride: int,
    t_end: float | None = None,
) -> TimeGrid:
    """Starting grid over the schedule, by default its whole pulse support.

    The default step, tau/200, resolves the pulse shape; the convergence
    ladder owns accuracy, this is only its starting rung.
    """
    return TimeGrid(
        t_start=schedule.t_start,
        t_end=schedule.support_end if t_end is None else t_end,
        base_step=schedule.tau / 200.0 if base_step is None else base_step,
        sample_stride=sample_stride,
    )


@dataclass(frozen=True)
class GateReport:
    """Reconstructed gate with its quality numbers."""

    kind: str
    qubit_labels: tuple[str, ...]
    unitary: np.ndarray
    target: np.ndarray
    fidelity: float
    leakage: float
    phase: float | None
    predicted_phase: float | None
    schedule: StirapSchedule
    convergence: ConvergenceReport
    max_excited_population: float
    note: str = ""


def _finalize_matrix(matrix: np.ndarray, leakage_cap: float) -> tuple[np.ndarray, float]:
    u = np.array(matrix, dtype=complex)
    deficits = 1.0 - np.sum(np.abs(u) ** 2, axis=0)
    leakage = max(float(np.max(deficits)), 0.0)
    if leakage > leakage_cap:
        raise LeakageError(
            f"column leakage {leakage:.4f} exceeds the cap {leakage_cap}; "
            "the run is too far from unitary to report as a gate"
        )
    for k in range(u.shape[0]):
        if abs(u[k, k]) > 1e-12:
            u = u * np.exp(-1j * np.angle(u[k, k]))
            break
    return u, leakage


def reconstruct_unitary(
    final_states: list[StateVector],
    qubit_levels: tuple[str, ...],
    leakage_cap: float = LEAKAGE_CAP,
) -> tuple[np.ndarray, float]:
    """Gate matrix from the terminal states of qubit basis-state runs.

    Column k holds the qubit-subspace amplitudes of the run that started
    in ``qubit_levels[k]``. Leakage is the worst column-norm deficit, and
    the whole matrix is refused beyond ``leakage_cap``. The global phase
    is fixed by making the first populated diagonal entry real positive.
    """
    if len(final_states) != len(qubit_levels):
        raise ValueError("need one final state per qubit basis level")
    dim = len(qubit_levels)
    u = np.zeros((dim, dim), dtype=complex)
    for k, state in enumerate(final_states):
        for j, level in enumerate(qubit_levels):
            u[j, k] = state.amplitude(level)
    return _finalize_matrix(u, leakage_cap)


def _fidelity(u: np.ndarray, target: np.ndarray, leakage: float) -> float:
    tol = max(1e-8, 5.0 * leakage + 1e-12)
    return unitary_fidelity(u, target, unitarity_tol=tol)


def run_phase_gate(spec: GateSpec, target_phase: float) -> GateReport:
    """Single-qubit phase gate diag(1, e^(i phase)) by drive-phase winding.

    The idle qubit level is not part of the driven three-level chain, so
    its column is the exact identity; the driven level goes out to the
    shelf and back while the stokes phase ramps at minus the target phase
    over one sequence delay.
    """
    schedule = spec.schedule()
    slope = -target_phase / schedule.sequence_delay
    stokes_ramp = PhaseRamp(kind="linear", offset=0.0, slope=slope)
    pump, stokes = sequence_fields(
        schedule,
        peak_pump=spec.peak_rabi,
        peak_stokes=spec.peak_rabi,
        pump_level="q",
        stokes_level="s",
        stokes_phase=stokes_ramp,
    )
    system = LambdaSystem(pump=pump, stokes=stokes, detuning=spec.detuning)
    start = basis_state(("q", "e", "s"), "q")
    trajs, report = converge_many(
        system.model(), [start], spec.grid(schedule), tolerance=spec.tolerance
    )
    amp = trajs[0].final_state.amplitude("q")
    matrix = np.array([[1.0, 0.0], [0.0, amp]], dtype=complex)
    u, leakage = _finalize_matrix(matrix, LEAKAGE_CAP)
    target = np.diag([1.0, np.exp(1j * target_phase)])
    return GateReport(
        kind="phase",
        qubit_labels=("idle", "q"),
        unitary=u,
        target=target,
        fidelity=_fidelity(u, target, leakage),
        leakage=leakage,
        phase=principal_angle(float(np.angle(u[1, 1]))),
        predicted_phase=berry_phase_closed_form(schedule, stokes_ramp),
        schedule=schedule,
        convergence=report,
        max_excited_population=max(t.max_e_population for t in trajs),
    )


def run_hadamard(spec: GateSpec) -> GateReport:
    """Hadamard on the two ground levels of the four-level chain.

    Two pump-role drives address the qubit levels with amplitude ratio
    tan(pi/8) and a sign flip on level 0, so one fixed combination of the
    qubit levels rides along untouched while the orthogonal one makes the
    round trip to the shelf and collects a phase of minus pi from the
    stokes ramp. That reflection is the Hadamard.
    """
    schedule = spec.schedule()
    ratio = math.sqrt(2.0) - 1.0
    peak_0 = ratio * spec.peak_rabi
    peak_1 = spec.peak_rabi
    peak_stokes = math.hypot(peak_0, peak_1)
    slope = math.pi / schedule.sequence_delay
    drives = {
        "0": DriveField(
            level="0",
            envelopes=schedule.pump_envelopes(peak_0),
            phase=PhaseRamp(kind="constant", offset=math.pi),
        ),
        "1": DriveField(
            level="1",
            envelopes=schedule.pump_envelopes(peak_1),
            phase=PhaseRamp(),
        ),
        "2": DriveField(
            level="2",
            envelopes=schedule.stokes_envelopes(peak_stokes),
            phase=PhaseRamp(kind="linear", offset=0.0, slope=slope),
        ),
    }
    system = TripodSystem(drives=drives, detuning=spec.detuning)
    labels = ("0", "1", "2", "e")
    starts = [basis_state(labels, "0"), basis_state(labels, "1")]
    trajs, report = converge_many(
        system.model(), starts, spec.grid(schedule), tolerance=spec.tolerance
    )
    u, leakage = reconstruct_unitary(
        [t.final_state for t in trajs], ("0", "1")
    )
    stokes_ramp = drives["2"].phase
    return GateReport(
        kind="hadamard",
        qubit_labels=("0", "1"),
        unitary=u,
        target=_HADAMARD_TARGET.astype(complex),
        fidelity=_fidelity(u, _HADAMARD_TARGET, leakage),
        leakage=leakage,
        phase=None,
        predicted_phase=berry_phase_closed_form(schedule, stokes_ramp),
        schedule=schedule,
        convergence=report,
        max_excited_population=max(t.max_e_population for t in trajs),
    )


def solve_sequence_delay(
    tau: float,
    pulse_delay: float,
    target_phase: float,
    interaction_shift: float,
    margin: float | None = None,
    t_start: float = 0.0,
) -> tuple[float, float]:
    """Sequence delay that makes the two-atom phase hit the target.

    The collected phase is minus the shift times (delay minus the ramp
    correction), so the delay follows directly once the correction is
    known; a whole number of turns is added to keep the delay above the
    schedule's validity floor plus ``margin``. Returns (delay, correction).
    """
    if interaction_shift <= 0.0:
        raise ValueError("interaction_shift must be positive to solve for a delay")
    if margin is None:
        margin = 0.5 * tau
    trial = build_schedule(tau, pulse_delay, 2.0 * (2.0 * tau + pulse_delay), t_start)
    correction = ramp_weight_deficit(trial)
    floor = 2.0 * tau + pulse_delay + margin
    turns = math.ceil(
        (interaction_shift * (floor - correction) + target_phase) / (2.0 * math.pi)
    )
    delay = correction + (2.0 * math.pi * turns - target_phase) / interaction_shift
    return delay, correction


def run_controlled_phase(
    spec: GateSpec,
    target_phase: float,
    margin: float | None = None,
) -> GateReport:
    """Two-qubit controlled phase diag(1, 1, 1, e^(i phase)).

    Both atoms see the same pump/stokes pair. Only the run where both
    atoms make the shelf round trip feels the interaction shift, and its
    accumulated phase is set by the solved sequence delay. The
    ``sequence_delay`` on the input ``GateSpec`` is ignored in favor of
    the solution, except with the shift off, where there is nothing to
    solve and the gate must be the identity.
    """
    if spec.interaction_shift == 0.0:
        if abs(principal_angle(target_phase)) > 1e-12:
            raise ValueError(
                "a nonzero target phase needs a nonzero interaction shift"
            )
        delay, correction = spec.sequence_delay, 0.0
    else:
        delay, correction = solve_sequence_delay(
            spec.tau,
            spec.pulse_delay,
            target_phase,
            spec.interaction_shift,
            margin=margin,
            t_start=spec.t_start,
        )
    schedule = build_schedule(spec.tau, spec.pulse_delay, delay, spec.t_start)
    drives = {
        "1": DriveField(
            level="1",
            envelopes=schedule.pump_envelopes(spec.peak_rabi),
            phase=PhaseRamp(),
        ),
        "2": DriveField(
            level="2",
            envelopes=schedule.stokes_envelopes(spec.peak_rabi),
            phase=PhaseRamp(),
        ),
    }
    system = TwoAtomSystem(
        drives=drives,
        detuning=spec.detuning,
        interaction_shift=spec.interaction_shift,
    )
    model = system.model()
    labels = tuple(model.basis_labels)
    qubit_levels = ("00", "01", "10", "11")
    starts = [basis_state(labels, lv) for lv in qubit_levels]
    trajs, report = converge_many(
        model, starts, spec.grid(schedule), tolerance=spec.tolerance
    )
    u, leakage = reconstruct_unitary([t.final_state for t in trajs], qubit_levels)
    target = np.diag([1.0, 1.0, 1.0, np.exp(1j * target_phase)])
    achieved = principal_angle(float(np.angle(u[3, 3]) - np.angle(u[0, 0])))
    predicted = -spec.interaction_shift * (delay - correction)
    return GateReport(
        kind="controlled_phase",
        qubit_labels=qubit_levels,
        unitary=u,
        target=target,
        fidelity=_fidelity(u, target, leakage),
        leakage=leakage,
        phase=achieved,
        predicted_phase=predicted,
        schedule=schedule,
        convergence=report,
        max_excited_population=max(t.max_e_population for t in trajs),
        note=(
            f"sequence delay solved to {delay:.6f} "
            f"(ramp correction {correction:.6f})"
        ),
    )
