"""Gate runners: reconstruction, targeting, and quality gates."""

import math

import numpy as np
import pytest

from stirapgates import (
    GateSpec,
    LeakageError,
    PhaseRamp,
    PulseEnvelope,
    StateVector,
    StirapSchedule,
    basis_state,
    principal_angle,
    reconstruct_unitary,
    run_controlled_phase,
    run_hadamard,
    run_phase_gate,
    solve_sequence_delay,
    unitary_fidelity,
)

QUBIT = ("0", "1")

CHEAP = dict(tau=1.0, pulse_delay=0.8, sequence_delay=4.0)


def spec_with(peak_rabi=100.0 * math.pi, base_step=None, **timing):
    schedule = StirapSchedule(**dict(CHEAP, **timing))
    return GateSpec(schedule, peak_rabi, base_step=base_step, tolerance=1e-6)


# ---------------------------------------------------------------------------
# GateSpec


def test_spec_schedule_inherits_validation():
    with pytest.raises(ValueError):
        spec_with(tau=-1.0)
    with pytest.raises(ValueError):
        spec_with(sequence_delay=1.0)  # shorter than the floor


@pytest.mark.parametrize("build, message", [
    (lambda: StirapSchedule(2.0, 0.8, 8.0, t_start=math.inf), "t_start must be finite"),
    (lambda: StirapSchedule(2.0, 0.8, 8.0, t_start=1e300), "t_start .* rounds away"),
    (lambda: PhaseRamp(kind="linear", slope=math.nan), "slope must be finite"),
    (lambda: PulseEnvelope(1.0, 1.0, t_on=math.nan), "t_on must be finite"),
    (lambda: GateSpec(StirapSchedule(**CHEAP), 40.0, tolerance=math.nan),
     "tolerance must be finite"),
    (lambda: GateSpec(StirapSchedule(**CHEAP), math.nan), "peak_rabi must be finite"),
], ids=["schedule-t_start", "schedule-span", "ramp-slope", "envelope-t_on", "spec-tolerance",
        "spec-peak_rabi"])
def test_constructors_name_a_non_finite_field(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_spec_grid_defaults_resolve_the_pulse():
    spec = spec_with()
    sched = spec.schedule
    grid = spec.grid()
    assert grid.step <= spec.schedule.tau / 200.0 + 1e-15
    assert grid.t_start == sched.t_start
    assert grid.t_end == sched.support_end
    custom = spec_with(base_step=0.01).grid()
    assert custom.step == pytest.approx(0.01, rel=0.2)


def test_spec_grid_keeps_only_the_end_samples():
    """A gate reads the terminal states; the maxima see every step, sampled or not."""
    for base_step in (None, 0.01, 0.3):
        grid = spec_with(base_step=base_step).grid()
        for rung in (grid, grid.refined(), grid.refined().refined()):
            assert rung.sample_indices().tolist() == [0, rung.n_steps]


# ---------------------------------------------------------------------------
# reconstruction


def test_reconstruct_identity_runs():
    finals = [basis_state(("0", "1", "x"), "0"), basis_state(("0", "1", "x"), "1")]
    u, leakage = reconstruct_unitary(finals, QUBIT)
    assert np.allclose(u, np.eye(2), atol=1e-15)
    assert leakage == 0.0


def test_reconstruct_fixes_the_global_phase():
    raw = np.exp(1j * 1.234) * np.eye(2)
    finals = [
        StateVector(np.array([raw[0, 0], 0.0], dtype=complex), QUBIT),
        StateVector(np.array([0.0, raw[1, 1]], dtype=complex), QUBIT),
    ]
    u, _ = reconstruct_unitary(finals, QUBIT)
    assert np.allclose(u, np.eye(2), atol=1e-12)


def test_reconstruct_refuses_leaky_runs():
    lost = StateVector(
        np.array([math.sqrt(0.5), 0.0, math.sqrt(0.5)], dtype=complex),
        ("0", "1", "x"),
    )
    finals = [lost, basis_state(("0", "1", "x"), "1")]
    with pytest.raises(LeakageError, match="leakage"):
        reconstruct_unitary(finals, QUBIT)
    # a generous cap admits the same matrix and reports the deficit
    u, leakage = reconstruct_unitary(finals, QUBIT, leakage_cap=0.9)
    assert leakage == pytest.approx(0.5, abs=1e-12)
    assert abs(u[0, 0]) == pytest.approx(math.sqrt(0.5), abs=1e-12)


def test_reconstruct_needs_one_state_per_level():
    with pytest.raises(ValueError):
        reconstruct_unitary([basis_state(QUBIT, "0")], QUBIT)


# ---------------------------------------------------------------------------
# single-qubit phase gate


def test_phase_gate_hits_a_quarter_turn():
    report = run_phase_gate(spec_with(), -math.pi / 2.0)
    assert report.fidelity >= 0.9999
    assert report.unitary[0, 0] == 1.0 + 0.0j
    assert abs(principal_angle(report.phase - (-math.pi / 2.0))) < 2e-3
    assert report.predicted_phase == pytest.approx(-math.pi / 2.0)
    assert report.leakage < 1e-4
    assert report.max_excited_population < 1e-3


def test_phase_gate_zero_target_is_the_identity():
    report = run_phase_gate(spec_with(), 0.0)
    assert report.fidelity >= 0.9999
    assert abs(report.phase) < 2e-3
    assert report.predicted_phase == 0.0


def test_phase_gate_half_turn_wraps_cleanly():
    report = run_phase_gate(spec_with(), math.pi)
    assert report.fidelity >= 0.9999
    assert abs(principal_angle(report.phase - math.pi)) < 2e-3


def test_two_quarter_turns_make_a_half_turn():
    quarter = run_phase_gate(spec_with(), math.pi / 2.0).unitary
    half = run_phase_gate(spec_with(), math.pi).unitary
    assert np.max(np.abs(quarter @ quarter - half)) < 2e-3


def test_phase_gate_refuses_weak_drives():
    with pytest.raises(LeakageError):
        run_phase_gate(spec_with(peak_rabi=3.0), -math.pi / 2.0)


# ---------------------------------------------------------------------------
# Hadamard


def test_hadamard_reflection():
    report = run_hadamard(spec_with())
    assert report.fidelity >= 0.999
    assert report.predicted_phase == pytest.approx(-math.pi)
    assert report.leakage < 1e-4
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    assert unitary_fidelity(report.unitary, h, unitarity_tol=1e-6) >= 0.999


def test_hadamard_squares_to_identity():
    u = run_hadamard(spec_with()).unitary
    assert np.max(np.abs(u @ u - np.eye(2))) < 2e-3


def test_hadamard_sends_basis_to_balanced_superpositions():
    u = run_hadamard(spec_with()).unitary
    for col in range(2):
        probs = np.abs(u[:, col]) ** 2
        assert probs == pytest.approx([0.5, 0.5], abs=2e-3)


# ---------------------------------------------------------------------------
# sequence-delay solver


@pytest.mark.parametrize("target", [-math.pi / 2.0, 1.0, 3.0, -3.0])
def test_solved_delay_lands_on_the_target_phase(target):
    shift = 0.11
    delay, correction = solve_sequence_delay(StirapSchedule(1.5, 0.6, 4.0), target, shift)
    floor = 2.0 * 1.5 + 0.6
    assert delay > floor
    collected = -shift * (delay - correction)
    assert abs(principal_angle(collected - target)) < 1e-9


def test_solver_needs_a_positive_shift():
    with pytest.raises(ValueError, match="positive"):
        solve_sequence_delay(StirapSchedule(1.5, 0.6, 4.0), 1.0, 0.0)
    with pytest.raises(ValueError, match="positive"):
        solve_sequence_delay(StirapSchedule(1.5, 0.6, 4.0), 1.0, -0.2)


def test_solver_margin_pushes_the_floor():
    # one full turn of delay is 2 pi / shift, so a margin beyond that
    # forces extra turns while a small one does not
    shift = 0.5
    schedule = StirapSchedule(1.0, 0.5, 3.0)
    tight, _ = solve_sequence_delay(schedule, 0.0, shift, margin=0.1)
    roomy, _ = solve_sequence_delay(schedule, 0.0, shift, margin=30.0)
    assert roomy > tight
    assert roomy > 2.0 + 0.5 + 30.0
    assert (roomy - tight) == pytest.approx(
        round((roomy - tight) / (2.0 * math.pi / shift)) * 2.0 * math.pi / shift
    )


# ---------------------------------------------------------------------------
# controlled phase gate


def test_controlled_phase_quarter_turn():
    spec = GateSpec(
        StirapSchedule(tau=1.5, pulse_delay=0.6, sequence_delay=10.0),
        peak_rabi=120.0,
        interaction_shift=0.1,
        tolerance=1e-6,
    )
    report = run_controlled_phase(spec, -math.pi / 2.0)
    assert report.fidelity >= 0.999
    assert abs(principal_angle(report.phase - (-math.pi / 2.0))) < 5e-3
    assert report.predicted_phase == pytest.approx(-math.pi / 2.0, abs=1e-9)
    assert "sequence delay solved" in report.note
    # the requested delay is replaced by the solved one
    assert report.schedule.sequence_delay != spec.schedule.sequence_delay
    assert report.schedule.sequence_delay > 2.0 * spec.schedule.tau + spec.schedule.pulse_delay
    # single-transfer columns stay phase-free
    assert abs(np.angle(report.unitary[1, 1])) < 5e-3
    assert abs(np.angle(report.unitary[2, 2])) < 5e-3


def test_controlled_phase_without_interaction_is_the_identity():
    spec = GateSpec(
        StirapSchedule(tau=1.0, pulse_delay=0.5, sequence_delay=4.0),
        peak_rabi=100.0 * math.pi,
        interaction_shift=0.0,
        tolerance=1e-6,
    )
    report = run_controlled_phase(spec, 0.0)
    assert report.fidelity >= 0.999
    assert np.allclose(report.target, np.eye(4), atol=1e-15)
    assert abs(report.phase) < 5e-3
    with pytest.raises(ValueError, match="shift"):
        run_controlled_phase(spec, -math.pi / 2.0)
