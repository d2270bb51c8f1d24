"""Envelopes, phase ramps, drive fields, and the four-pulse schedule."""

import math

import numpy as np
import pytest

from stirapgates import (
    DriveField,
    MixingProfile,
    PhaseRamp,
    PulseEnvelope,
    StirapSchedule,
    build_schedule,
)


# ---------------------------------------------------------------------------
# PulseEnvelope


def test_envelope_peak_and_width():
    env = PulseEnvelope(omega_max=3.0, tau=2.0, t_on=1.0)
    assert env.value(1.0 + 2.0) == pytest.approx(3.0)
    # tau is the FWHM: half maximum at one half-width from either edge
    assert env.value(1.0 + 1.0) == pytest.approx(1.5)
    assert env.value(1.0 + 3.0) == pytest.approx(1.5)
    assert env.t_off == 5.0


def test_envelope_exactly_zero_outside_support():
    env = PulseEnvelope(omega_max=2.0, tau=1.0, t_on=0.0)
    assert env.value(-1e-9) == 0.0
    assert env.value(2.0 + 1e-9) == 0.0
    assert env.value(-50.0) == 0.0


def test_envelope_turn_off_is_exactly_zero():
    # the support is open at the turn-off: sin(pi)^2 would leave 1.5e-32 * peak there
    env = PulseEnvelope(omega_max=1e3, tau=0.7, t_on=0.3)
    assert env.value(env.t_off) == 0.0
    assert env.value(env.t_on) == 0.0
    assert np.all(env.value(np.array([env.t_on, env.t_off])) == 0.0)
    assert env.value(np.nextafter(env.t_off, 0.0)) > 0.0


def test_envelope_vectorized_matches_scalar():
    env = PulseEnvelope(omega_max=1.7, tau=0.8, t_on=-0.3)
    times = np.linspace(-1.0, 2.0, 77)
    vec = env.value(times)
    assert vec.shape == times.shape
    for t, v in zip(times, vec):
        assert v == pytest.approx(env.value(float(t)), abs=1e-15)


def test_envelope_off_shape_is_silent():
    # a switched-off pulse is a zero peak: silent everywhere, inside the support too
    env = PulseEnvelope(omega_max=0.0, tau=1.0, t_on=0.0)
    assert np.all(env.value(np.linspace(-1, 3, 11)) == 0.0)


def test_envelope_validation():
    with pytest.raises(ValueError, match="tau"):
        PulseEnvelope(omega_max=1.0, tau=0.0)
    with pytest.raises(ValueError, match="non-negative"):
        PulseEnvelope(omega_max=-1.0, tau=1.0)
    with pytest.raises(ValueError, match="tau"):
        PulseEnvelope(omega_max=1.0, tau=math.nan)
    with pytest.raises(ValueError, match="non-negative"):
        PulseEnvelope(omega_max=math.nan, tau=1.0)


# ---------------------------------------------------------------------------
# PhaseRamp


def test_constant_ramp_must_have_zero_slope():
    with pytest.raises(ValueError, match="slope"):
        PhaseRamp(kind="constant", offset=0.0, slope=1.0)


def test_linear_ramp_values():
    ramp = PhaseRamp(kind="linear", offset=0.5, slope=-2.0)
    assert ramp.value(0.0) == 0.5
    assert ramp.value(1.5) == pytest.approx(0.5 - 3.0)
    assert np.allclose(ramp.value(np.array([0.0, 1.0])), [0.5, -1.5])


def test_ramp_kind_validation():
    with pytest.raises(ValueError, match="kind"):
        PhaseRamp(kind="quadratic")


# ---------------------------------------------------------------------------
# DriveField


def test_field_sums_disjoint_envelopes():
    a = PulseEnvelope(1.0, 1.0, 0.0)
    b = PulseEnvelope(2.0, 1.0, 5.0)
    field = DriveField(level="q", envelopes=(a, b))
    assert field.amplitude(1.0) == pytest.approx(1.0)
    assert field.amplitude(6.0) == pytest.approx(2.0)
    assert field.amplitude(3.5) == 0.0


def test_field_rejects_overlapping_envelopes():
    a = PulseEnvelope(1.0, 1.0, 0.0)
    b = PulseEnvelope(1.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="overlap"):
        DriveField(level="q", envelopes=(a, b))


def test_field_complex_value_carries_the_ramp():
    env = PulseEnvelope(2.0, 1.0, 0.0)
    field = DriveField(
        level="s", envelopes=(env,), phase=PhaseRamp(kind="linear", offset=0.0, slope=3.0)
    )
    t = 0.7
    expected = env.value(t) * np.exp(1j * 3.0 * t)
    assert field.complex_value(t) == pytest.approx(expected)


def test_field_needs_an_envelope():
    with pytest.raises(ValueError, match="envelope"):
        DriveField(level="q", envelopes=())


# ---------------------------------------------------------------------------
# StirapSchedule


def test_schedule_onset_layout():
    sched = build_schedule(tau=1.0, pulse_delay=1.0, sequence_delay=5.0, t_start=0.0)
    assert sched.stokes_onsets == (0.0, 6.0)
    assert sched.pump_onsets == (1.0, 5.0)
    assert sched.t_a == 1.0
    assert sched.t_b == 2.0
    assert sched.hold_interval == (3.0, 5.0)
    assert sched.support_end == 8.0


def test_schedule_validation():
    with pytest.raises(ValueError, match="tau"):
        build_schedule(0.0, 1.0, 5.0)
    with pytest.raises(ValueError, match="pulse_delay"):
        build_schedule(1.0, 0.0, 5.0)
    with pytest.raises(ValueError, match="pulse_delay"):
        build_schedule(1.0, 2.0, 9.0)
    with pytest.raises(ValueError, match="sequence_delay"):
        build_schedule(1.0, 1.0, 3.0)
    with pytest.raises(ValueError, match="tau"):
        StirapSchedule(tau=math.nan, pulse_delay=0.5, sequence_delay=4.0)
    with pytest.raises(ValueError, match="pulse_delay"):
        StirapSchedule(tau=1.0, pulse_delay=math.nan, sequence_delay=4.0)
    with pytest.raises(ValueError, match="sequence_delay"):
        StirapSchedule(tau=1.0, pulse_delay=0.5, sequence_delay=math.nan)


def test_schedule_translation_moves_everything():
    base = build_schedule(1.5, 0.7, 6.0, t_start=0.0)
    moved = build_schedule(1.5, 0.7, 6.0, t_start=-2.5)
    shift = -2.5
    assert moved.stokes_onsets == pytest.approx(
        tuple(t + shift for t in base.stokes_onsets), abs=1e-12
    )
    assert moved.pump_onsets == pytest.approx(
        tuple(t + shift for t in base.pump_onsets), abs=1e-12
    )
    assert moved.t_a == pytest.approx(base.t_a + shift, abs=1e-12)
    assert moved.support_end == pytest.approx(base.support_end + shift, abs=1e-12)


def test_schedule_envelopes_sit_on_the_onsets():
    sched = build_schedule(2.0, 0.8, 9.0)
    pumps = sched.pump_envelopes(4.0)
    stokes = sched.stokes_envelopes(3.0)
    assert [e.t_on for e in pumps] == list(sched.pump_onsets)
    assert [e.t_on for e in stokes] == list(sched.stokes_onsets)
    assert all(e.omega_max == 4.0 and e.tau == 2.0 for e in pumps)
    assert all(e.omega_max == 3.0 for e in stokes)
    # drive() is the one place a role picks its pulse pair
    pump_field = sched.drive("1", "pump", 4.0)
    assert pump_field.level == "1" and pump_field.envelopes == pumps
    assert pump_field.phase == PhaseRamp()
    ramp = PhaseRamp(kind="linear", slope=0.5)
    stokes_field = sched.drive("2", "stokes", 3.0, ramp)
    assert stokes_field.envelopes == stokes and stokes_field.phase is ramp
    with pytest.raises(ValueError, match="role 'probe'"):
        sched.drive("1", "probe", 4.0)


def test_schedule_profile_reflection_symmetry():
    """The four pulses are mirror images about the sequence midpoint."""
    sched = build_schedule(1.0, 0.9, 4.0, t_start=0.3)
    pump = DriveField("p", sched.pump_envelopes(2.0))
    stokes = DriveField("s", sched.stokes_envelopes(2.0))
    pivot = 2.0 * sched.t_start + sched.pulse_delay + sched.sequence_delay + 2.0 * sched.tau
    times = np.linspace(sched.t_start, sched.support_end, 301)
    assert np.allclose(pump.amplitude(times), pump.amplitude(pivot - times), atol=1e-12)
    assert np.allclose(stokes.amplitude(times), stokes.amplitude(pivot - times), atol=1e-12)


# ---------------------------------------------------------------------------
# MixingProfile


def test_mixing_profile_ramp_endpoints():
    sched = build_schedule(1.0, 1.0, 5.0)
    profile = MixingProfile(sched)
    # just before the first pump turns on: still fully in the source
    assert profile.values(sched.t_a - 0.1 * sched.tau)[0][0] <= 0.01
    # just after the first stokes turns off: fully transferred
    assert profile.values(sched.t_b + 0.1 * sched.tau)[0][0] >= 0.99


def test_mixing_profile_fills_idle_gaps():
    sched = build_schedule(1.0, 1.0, 5.0)
    profile = MixingProfile(sched)
    hold_lo, hold_hi = sched.hold_interval
    values, idle = profile.values([sched.t_start - 0.5, 0.5 * (hold_lo + hold_hi), sched.support_end + 1.0])
    assert idle[0] and values[0] == 0.0
    assert idle[1] and values[1] == 1.0
    assert idle[2] and values[2] == 0.0


def test_mixing_profile_is_monotone_on_the_first_ramp():
    sched = build_schedule(1.0, 0.5, 5.0)
    profile = MixingProfile(sched)
    times = np.linspace(sched.t_a, sched.t_b, 200)
    vals, _ = profile.values(times)
    assert np.all(np.diff(vals) >= -1e-12)
    assert vals[0] == pytest.approx(0.0, abs=1e-12)
    assert vals[-1] == pytest.approx(1.0, abs=1e-12)


def test_mixing_profile_scale_invariance():
    sched = build_schedule(1.0, 1.0, 5.0)
    times = np.linspace(0.0, sched.support_end, 257)
    small, _ = MixingProfile(sched, peak_pump=1.0, peak_stokes=1.0).values(times)
    large, _ = MixingProfile(sched, peak_pump=70.0, peak_stokes=70.0).values(times)
    assert np.allclose(small, large, atol=1e-12)


def test_mixing_profile_rejects_zero_peaks():
    sched = build_schedule(1.0, 1.0, 5.0)
    for peaks in ({"peak_pump": 0.0}, {"peak_pump": math.nan}, {"peak_stokes": math.nan}):
        with pytest.raises(ValueError, match="positive"):
            MixingProfile(sched, **peaks)
