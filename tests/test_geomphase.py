"""Quadrature identities, transport phases, and the dark-pair transport law."""

import dataclasses
import math

import numpy as np
import pytest

from stirapgates import (
    LAMBDA_LABELS,
    DriveField,
    HamiltonianModel,
    LambdaSystem,
    MixingProfile,
    PhaseRamp,
    StirapSchedule,
    TimeGrid,
    basis_state,
    berry_phase_closed_form,
    berry_phase_numeric,
    build_schedule,
    calibrate_interaction_shift,
    converge_many,
    integrate_piecewise,
    mixing_integral,
    principal_angle,
    ramp_weight_deficit,
    schedule_breakpoints,
    two_atom_dark_states,
    two_qubit_phase,
    wz_connection,
    wz_hamiltonian,
    wz_propagate,
)


# ---------------------------------------------------------------------------
# quadrature


def test_simpson_is_exact_on_cubics():
    def cubic(t):
        return t**3 - 2.0 * t**2 + t

    est = integrate_piecewise(cubic, 0.0, 2.0, breakpoints=(0.7,), intervals=4)
    assert est.value == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert est.error_estimate < 1e-12


def test_breakpoints_outside_the_range_are_ignored():
    est = integrate_piecewise(np.cos, 0.0, 1.0, breakpoints=(-5.0, 0.5, 7.0))
    assert est.value == pytest.approx(math.sin(1.0), abs=1e-10)


def test_quadrature_rejects_odd_panel_counts():
    with pytest.raises(ValueError, match="even"):
        integrate_piecewise(np.cos, 0.0, 1.0, intervals=3)
    with pytest.raises(ValueError, match="even"):
        integrate_piecewise(np.cos, 0.0, 1.0, intervals=0)


def test_error_estimate_tracks_the_true_error():
    def wiggle(t):
        return np.sin(7.0 * t)

    est = integrate_piecewise(wiggle, 0.0, 2.0, intervals=8)
    true = (1.0 - math.cos(14.0)) / 7.0
    assert abs(est.value - true) < 10.0 * max(est.error_estimate, 1e-15)


def test_schedule_breakpoints_are_the_envelope_edges():
    sched = build_schedule(2.0, 0.8, 8.0)
    points = schedule_breakpoints(sched)
    expected = sorted(
        {
            sched.stokes_onsets[0],
            sched.stokes_onsets[0] + 4.0,
            sched.pump_onsets[0],
            sched.pump_onsets[0] + 4.0,
            sched.pump_onsets[1],
            sched.pump_onsets[1] + 4.0,
            sched.stokes_onsets[1],
            sched.stokes_onsets[1] + 4.0,
        }
    )
    assert list(points) == expected


# ---------------------------------------------------------------------------
# mixing-weight integrals


@pytest.mark.parametrize(
    "tau,delay,seq",
    [(1.0, 0.5, 4.0), (2.0, 0.8, 8.0), (3.0, 2.0, 11.0), (0.7, 0.9, 3.0)],
)
def test_weight_integral_equals_the_sequence_delay(tau, delay, seq):
    """The ramp-up and ramp-down deviations cancel exactly by symmetry."""
    sched = build_schedule(tau, delay, seq)
    est = mixing_integral(sched, power=1)
    assert est.value == pytest.approx(seq, abs=1e-10)


def test_weight_integral_respects_unequal_peaks():
    sched = build_schedule(1.5, 0.9, 7.0)
    balanced = mixing_integral(sched, power=1).value
    skewed = mixing_integral(sched, power=1, peak_pump=2.0, peak_stokes=1.0).value
    assert balanced == pytest.approx(sched.sequence_delay, abs=1e-10)
    # a stronger pump weights the ramps toward the transferred level
    assert skewed > balanced


def test_ramp_deficit_ignores_the_sequence_delay():
    base = ramp_weight_deficit(build_schedule(2.0, 0.8, 8.0))
    longer = ramp_weight_deficit(build_schedule(2.0, 0.8, 14.0))
    assert base == pytest.approx(longer, abs=1e-9)
    assert base > 0.0


def test_deficit_links_the_two_weight_integrals():
    sched = build_schedule(2.0, 0.8, 8.0)
    squared = mixing_integral(sched, power=2).value
    deficit = ramp_weight_deficit(sched)
    assert squared + deficit == pytest.approx(sched.sequence_delay, abs=1e-9)


# ---------------------------------------------------------------------------
# single-atom transport phase


def test_transport_phase_closed_form_matches_quadrature():
    sched = build_schedule(1.0, 1.0, 5.0)
    ramp = PhaseRamp(kind="linear", offset=0.3, slope=0.8)
    numeric = berry_phase_numeric(sched, ramp)
    closed = berry_phase_closed_form(sched, ramp)
    assert closed == pytest.approx(-0.8 * 5.0)
    assert numeric.value == pytest.approx(closed, abs=max(1e-9, numeric.error_estimate))


def test_constant_drive_phase_collects_nothing():
    sched = build_schedule(1.0, 1.0, 5.0)
    ramp = PhaseRamp(kind="constant", offset=1.1)
    assert berry_phase_closed_form(sched, ramp) == 0.0
    assert abs(berry_phase_numeric(sched, ramp).value) < 1e-12


def test_transport_phase_is_translation_invariant():
    ramp = PhaseRamp(kind="linear", slope=-0.4)
    early = build_schedule(1.0, 0.7, 6.0)
    late = dataclasses.replace(early, t_start=early.t_start + 13.0)
    assert berry_phase_closed_form(early, ramp) == pytest.approx(
        berry_phase_closed_form(late, ramp)
    )


def test_transport_phases_add_over_consecutive_sequences():
    """Two back-to-back transfers under one continuous ramp add their phases."""
    slope = 0.3
    peak = 120.0
    first = build_schedule(1.0, 1.0, 5.0)
    second = dataclasses.replace(first, t_start=first.support_end + 1.0)
    ramp = PhaseRamp(kind="linear", slope=slope)
    pump = DriveField(
        "q", first.pump_envelopes(peak) + second.pump_envelopes(peak)
    )
    stokes = DriveField(
        "s", first.stokes_envelopes(peak) + second.stokes_envelopes(peak), ramp
    )
    system = LambdaSystem(pump=pump, stokes=stokes)
    grid = TimeGrid(first.t_start, second.support_end, 0.005, sample_stride=64)
    (traj,), _ = converge_many(
        system.model(), [basis_state(LAMBDA_LABELS, "q")], grid, tolerance=1e-5
    )
    expected = berry_phase_closed_form(first, ramp) + berry_phase_closed_form(
        second, ramp
    )
    actual = traj.terminal_phase("q")
    assert traj.populations[-1, 0] > 0.99
    assert abs(principal_angle(actual - expected)) < 0.02


# ---------------------------------------------------------------------------
# dark-pair transport law


def test_pair_connection_is_anti_hermitian():
    for theta in (0.0, 0.4, 1.0, math.pi / 2.0):
        a = wz_connection(theta, 0.7)
        assert np.allclose(a.conj().T, -a, atol=1e-14)


def test_pair_connection_limits():
    shift = 0.9
    at_zero = wz_connection(0.0, shift)
    assert at_zero[5, 5] == pytest.approx(0.5j * shift)
    assert abs(at_zero[4, 4]) == 0.0
    assert abs(at_zero[4, 5]) == 0.0
    at_full = wz_connection(math.pi / 2.0, shift)
    assert at_full[4, 4] == pytest.approx(1j * shift)
    assert abs(at_full[5, 5]) < 1e-30
    # the four populated single-transfer states never mix
    assert np.count_nonzero(wz_connection(0.7, shift)[:4, :]) == 0
    assert np.count_nonzero(wz_connection(0.7, shift)[:, :4]) == 0


def test_pair_generator_matches_the_connection():
    h = wz_hamiltonian(0.6, 1.3)
    a = wz_connection(0.6, 1.3)
    assert np.allclose(h, -1j * a[4:6, 4:6], atol=1e-15)
    assert np.allclose(h.conj().T, h, atol=1e-15)


@pytest.mark.parametrize("shift", [0.01, 0.9, -0.05, 37.0])
def test_pair_generator_matches_its_closed_form(shift):
    """shift * [[r^2, r q / sqrt 2], [r q / sqrt 2, q^2 / 2]] with r = sin^2, q = 1 - r."""
    for target in (0.0, 1e-3, 0.3, 0.5, 1.0 - 1e-9, 1.0):
        theta = math.asin(math.sqrt(target))
        r = math.sin(theta) ** 2
        q = 1.0 - r
        off = shift * r * q / math.sqrt(2.0)
        closed = np.array([[shift * r * r, off], [off, 0.5 * shift * q * q]])
        assert np.max(np.abs(wz_hamiltonian(theta, shift) - closed)) <= 1e-15 * abs(shift)


def test_transport_law_takes_idle_steps_before_the_pump(monkeypatch):
    """The law's weights are exactly zero until the first pump onset, so the
    propagator samples no node there; it samples the driven steps after it."""
    schedule = build_schedule(4.0, 1.6, 16.0)
    nodes = []
    sample = HamiltonianModel.sample

    def recording(self, times, coeffs=None):
        # the propagator's node samples come with its coefficients; the
        # stability scan's probes do not
        if coeffs is not None:
            nodes.append(np.array(times, dtype=float))
        return sample(self, times, coeffs)

    monkeypatch.setattr(HamiltonianModel, "sample", recording)
    wz_propagate(schedule, 0.01, peak_1=120.0, peak_2=120.0)
    sampled = np.concatenate(nodes)
    assert sampled.size
    assert np.min(sampled) >= schedule.t_a


def test_decoupled_states_have_no_angular_connection():
    """Finite differences show <D_a | d/dtheta D_b> vanishes identically.

    The one-sided difference quotient shrinks linearly with the step, which
    is the signature of a zero derivative with finite curvature. This is
    the fact that lets the pair transport law drop all angular terms.
    """

    def stack(theta):
        states = two_atom_dark_states(theta, 0.0, 0.0)
        return np.stack([st.amplitudes for st in states], axis=1)

    for theta in (0.25, 0.7, 1.3):
        base = stack(theta)
        quotients = []
        for h in (2e-2, 1e-2, 5e-3):
            overlap = base.conj().T @ stack(theta + h)
            quotients.append(np.max(np.abs(overlap - np.eye(6))) / h)
        assert quotients[0] < 3e-2
        for wide, narrow in zip(quotients, quotients[1:]):
            assert narrow < 0.6 * wide
        # centered differences cancel the curvature and sit at rounding noise
        centered = base.conj().T @ (stack(theta + 1e-2) - stack(theta - 1e-2))
        assert np.max(np.abs(centered)) / 2e-2 < 1e-12


def test_schedule_transport_matches_the_weight_quadrature():
    """In the perturbative regime the pair phase is the squared-weight integral."""
    shift = 0.02
    sched = StirapSchedule(tau=2.0, pulse_delay=0.8, sequence_delay=8.0)
    res = wz_propagate(sched, shift, base_step=0.02, tolerance=1e-10)
    predicted = two_qubit_phase(sched, shift)
    assert predicted.value == pytest.approx(
        -shift * (sched.sequence_delay - ramp_weight_deficit(sched)), abs=1e-9
    )
    assert res.geometric_phase == pytest.approx(predicted.value, abs=5e-5)
    assert res.max_mixing < 1e-3
    assert res.terminal_mixing <= res.max_mixing


def test_pair_norm_is_preserved_by_the_transport_law():
    sched = StirapSchedule(tau=2.0, pulse_delay=0.8, sequence_delay=8.0)
    res = wz_propagate(sched, 0.15, base_step=0.02, tolerance=1e-10)
    assert abs(np.linalg.norm(res.final_amplitudes) - 1.0) < 1e-10


_SCHEDULE = StirapSchedule(2.0, 0.8, 8.0)
_RAMP = PhaseRamp(kind="linear", slope=0.3)


@pytest.mark.parametrize("call, name", [
    pytest.param(lambda bad: two_qubit_phase(_SCHEDULE, bad, peak_1=120.0, peak_2=120.0),
                 "interaction_shift", id="two_qubit_phase-interaction_shift"),
    pytest.param(lambda bad: two_qubit_phase(_SCHEDULE, 0.1, peak_1=bad), "peak_1",
                 id="two_qubit_phase-peak_1"),
    pytest.param(lambda bad: two_qubit_phase(_SCHEDULE, 0.1, peak_2=bad), "peak_2",
                 id="two_qubit_phase-peak_2"),
    pytest.param(lambda bad: wz_propagate(_SCHEDULE, bad), "interaction_shift",
                 id="wz_propagate-interaction_shift"),
    pytest.param(lambda bad: wz_propagate(_SCHEDULE, 0.1, peak_1=bad), "peak_1",
                 id="wz_propagate-peak_1"),
    pytest.param(lambda bad: wz_propagate(_SCHEDULE, 0.1, peak_2=bad), "peak_2",
                 id="wz_propagate-peak_2"),
    pytest.param(lambda bad: mixing_integral(_SCHEDULE, peak_pump=bad), "peak_pump",
                 id="mixing_integral-peak_pump"),
    pytest.param(lambda bad: mixing_integral(_SCHEDULE, peak_stokes=bad), "peak_stokes",
                 id="mixing_integral-peak_stokes"),
    pytest.param(lambda bad: berry_phase_numeric(_SCHEDULE, _RAMP, peak_pump=bad), "peak_pump",
                 id="berry_phase_numeric-peak_pump"),
    pytest.param(lambda bad: berry_phase_numeric(_SCHEDULE, _RAMP, peak_stokes=bad),
                 "peak_stokes", id="berry_phase_numeric-peak_stokes"),
    pytest.param(lambda bad: ramp_weight_deficit(_SCHEDULE, peak_1=bad), "peak_1",
                 id="ramp_weight_deficit-peak_1"),
    pytest.param(lambda bad: ramp_weight_deficit(_SCHEDULE, peak_2=bad), "peak_2",
                 id="ramp_weight_deficit-peak_2"),
    pytest.param(lambda bad: MixingProfile(_SCHEDULE, peak_pump=bad), "peak_pump",
                 id="MixingProfile-peak_pump"),
    pytest.param(lambda bad: MixingProfile(_SCHEDULE, peak_stokes=bad), "peak_stokes",
                 id="MixingProfile-peak_stokes"),
])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_entry_points_refuse_non_finite_input_by_name(call, name, bad):
    with pytest.raises(ValueError, match=f"^{name} must be"):
        call(bad)


def test_calibration_hits_the_mixing_target():
    target = 0.005
    shift = calibrate_interaction_shift(2.0, target_mixing=target, rel_tol=5e-3)
    sched = StirapSchedule(tau=2.0, pulse_delay=0.8, sequence_delay=8.0)
    achieved = wz_propagate(sched, shift, base_step=0.02, tolerance=1e-9).max_mixing
    assert achieved == pytest.approx(target, rel=0.02)
    assert shift > 0.0
