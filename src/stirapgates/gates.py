"""Gate construction on top of dark-state transport.

Each gate runs the full time-dependent problem from every qubit basis
state, reconstructs the achieved operator from the terminal amplitudes,
and reports fidelity against the ideal target together with leakage and
convergence diagnostics. Targets are hit by choosing drive-phase ramps
(single qubit) or the sequence delay (two qubits); nothing is fitted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .geomphase import berry_phase_closed_form, ramp_weight_deficit
from .propagator import ConvergenceReport, TimeGrid, converge_many
from .pulses import PhaseRamp, StirapSchedule, _require_finite
from .qcore import StateVector, basis_state, principal_angle, unitary_fidelity
from .systems import HamiltonianModel, LambdaSystem, TripodSystem, TwoAtomSystem, sequence_fields

LEAKAGE_CAP = 0.05

_HADAMARD_TARGET = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)


class LeakageError(RuntimeError):
    """Raised when too much population escapes the qubit subspace."""


@dataclass(frozen=True)
class GateSpec:
    """The schedule a gate runs, and the numbers shared by the gate runners.

    ``peak_rabi`` is the reference drive amplitude in angular-frequency
    units; individual gates derive their per-drive peaks from it. The
    integration starts from ``base_step`` and is refined until terminal
    states agree to ``tolerance``.
    """

    schedule: StirapSchedule
    peak_rabi: float
    detuning: float = 0.0
    interaction_shift: float = 0.0
    base_step: float | None = None
    tolerance: float = 1e-8

    def __post_init__(self) -> None:
        _require_finite(self, "peak_rabi", "detuning", "interaction_shift", "base_step",
                        "tolerance")

    def grid(self) -> TimeGrid:
        """Starting grid with only its end samples; the maxima still see every step."""
        start = schedule_grid(self.schedule, self.base_step, 1)
        return replace(start, sample_stride=start.n_steps)


def schedule_grid(
    schedule: StirapSchedule,
    base_step: float | None,
    sample_stride: int,
    t_end: float | None = None,
) -> TimeGrid:
    """Starting grid over the schedule, by default its whole pulse support at
    the schedule's default step."""
    return TimeGrid(
        t_start=schedule.t_start,
        t_end=schedule.support_end if t_end is None else t_end,
        base_step=schedule.default_step if base_step is None else base_step,
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


def _columns(final_states: list[StateVector], levels: tuple[str, ...]) -> np.ndarray:
    """Column k: the amplitudes on ``levels`` of the run that started in ``levels[k]``."""
    return np.array([[state.amplitude(level) for state in final_states] for level in levels],
                    dtype=complex)


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
    return _finalize_matrix(_columns(final_states, qubit_levels), leakage_cap)


def _run(kind: str, spec: GateSpec, model: HamiltonianModel, starts: tuple[str, ...],
         target: np.ndarray, predicted: float, note: str = "") -> GateReport:
    """The gate that one ladder over a run from each level of ``starts`` makes.

    A target larger than ``starts`` leads with an idle level that no drive
    reaches, whose column is the exact identity. For a diagonal target the
    achieved phase is that of the last diagonal entry relative to the first.
    """
    runs = [basis_state(model.basis_labels, level) for level in starts]
    trajs, report = converge_many(model, runs, spec.grid(), tolerance=spec.tolerance)
    idle = len(target) - len(starts)
    matrix = np.eye(len(target), dtype=complex)
    matrix[idle:, idle:] = _columns([t.final_state for t in trajs], starts)
    u, leakage = _finalize_matrix(matrix, LEAKAGE_CAP)
    diagonal = not np.any(target - np.diag(np.diag(target)))
    return GateReport(
        kind=kind,
        qubit_labels=("idle",) * idle + starts,
        unitary=u,
        target=target,
        fidelity=unitary_fidelity(u, target, unitarity_tol=max(1e-8, 5.0 * leakage + 1e-12)),
        leakage=leakage,
        phase=(principal_angle(float(np.angle(u[-1, -1]) - np.angle(u[0, 0])))
               if diagonal else None),
        predicted_phase=predicted,
        schedule=spec.schedule,
        convergence=report,
        max_excited_population=float(np.max([t.max_e_population for t in trajs])),
        note=note,
    )


def run_phase_gate(spec: GateSpec, target_phase: float) -> GateReport:
    """Single-qubit phase gate diag(1, e^(i phase)) by drive-phase winding.

    The idle qubit level is not part of the driven three-level chain, so
    its column is the exact identity; the driven level goes out to the
    shelf and back while the stokes phase ramps at minus the target phase
    over one sequence delay.
    """
    schedule = spec.schedule
    slope = -target_phase / schedule.sequence_delay
    stokes_ramp = PhaseRamp(kind="linear", offset=0.0, slope=slope)
    pump, stokes = sequence_fields(schedule, spec.peak_rabi, spec.peak_rabi, "q", "s", stokes_ramp)
    system = LambdaSystem(pump=pump, stokes=stokes, detuning=spec.detuning)
    return _run("phase", spec, system.model(), ("q",),
                np.diag([1.0, np.exp(1j * target_phase)]),
                berry_phase_closed_form(schedule, stokes_ramp))


def run_hadamard(spec: GateSpec) -> GateReport:
    """Hadamard on the two ground levels of the four-level chain.

    Two pump-role drives address the qubit levels with amplitude ratio
    tan(pi/8) and a sign flip on level 0, so one fixed combination of the
    qubit levels rides along untouched while the orthogonal one makes the
    round trip to the shelf and collects a phase of minus pi from the
    stokes ramp. That reflection is the Hadamard.
    """
    schedule = spec.schedule
    ratio = math.sqrt(2.0) - 1.0
    peak_0 = ratio * spec.peak_rabi
    peak_1 = spec.peak_rabi
    peak_stokes = math.hypot(peak_0, peak_1)
    slope = math.pi / schedule.sequence_delay
    stokes_ramp = PhaseRamp(kind="linear", offset=0.0, slope=slope)
    drives = {
        "0": schedule.drive("0", "pump", peak_0, PhaseRamp(kind="constant", offset=math.pi)),
        "1": schedule.drive("1", "pump", peak_1),
        "2": schedule.drive("2", "stokes", peak_stokes, stokes_ramp),
    }
    system = TripodSystem(drives=drives, detuning=spec.detuning)
    return _run("hadamard", spec, system.model(), ("0", "1"), _HADAMARD_TARGET.astype(complex),
                berry_phase_closed_form(schedule, stokes_ramp))


def solve_sequence_delay(
    schedule: StirapSchedule,
    target_phase: float,
    interaction_shift: float,
    margin: float | None = None,
) -> tuple[float, float]:
    """Sequence delay that makes the two-atom phase hit the target.

    The collected phase is minus the shift times (delay minus the ramp
    correction), so the delay follows directly once the correction is
    known; a whole number of turns is added to keep the delay above the
    schedule's validity floor plus ``margin``. The ``sequence_delay`` of
    ``schedule`` is not read. Returns (delay, correction).
    """
    if interaction_shift <= 0.0:
        raise ValueError("interaction_shift must be positive to solve for a delay")
    if margin is None:
        margin = 0.5 * schedule.tau
    floor = 2.0 * schedule.tau + schedule.pulse_delay
    correction = ramp_weight_deficit(replace(schedule, sequence_delay=2.0 * floor))
    turns = math.ceil(
        (interaction_shift * (floor + margin - correction) + target_phase) / (2.0 * math.pi)
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
    ``sequence_delay`` of the input schedule is ignored in favor of
    the solution, except with the shift off, where there is nothing to
    solve and the gate must be the identity.
    """
    if spec.interaction_shift == 0.0:
        if abs(principal_angle(target_phase)) > 1e-12:
            raise ValueError(
                "a nonzero target phase needs a nonzero interaction shift"
            )
        delay, correction = spec.schedule.sequence_delay, 0.0
    else:
        delay, correction = solve_sequence_delay(
            spec.schedule, target_phase, spec.interaction_shift, margin=margin
        )
    solved = replace(spec, schedule=replace(spec.schedule, sequence_delay=delay))
    pump, stokes = sequence_fields(solved.schedule, spec.peak_rabi, spec.peak_rabi, "1", "2")
    system = TwoAtomSystem({"1": pump, "2": stokes}, spec.detuning, spec.interaction_shift)
    return _run("controlled_phase", solved, system.model(), ("00", "01", "10", "11"),
                np.diag([1.0, 1.0, 1.0, np.exp(1j * target_phase)]),
                -spec.interaction_shift * (delay - correction),
                note=f"sequence delay solved to {delay:.6f} (ramp correction {correction:.6f})")
