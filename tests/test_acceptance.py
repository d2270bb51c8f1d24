"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single PASS/FAIL line with its key numbers so a bare
``pytest tests/test_acceptance.py -q`` run reads as a checklist. The
assertions repeat the printed verdict, so a FAIL line always comes with a
failing test.
"""

import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from stirapgates import (
    DriveField,
    GateSpec,
    LambdaSystem,
    MixingProfile,
    PhaseRamp,
    StirapSchedule,
    TimeGrid,
    TwoAtomSystem,
    basis_state,
    berry_phase_closed_form,
    berry_phase_numeric,
    build_schedule,
    calibrate_interaction_shift,
    converge_many,
    principal_angle,
    propagate_many,
    run_controlled_phase,
    run_hadamard,
    run_phase_gate,
    sequence_fields,
    two_qubit_phase,
    wz_propagate,
)

REPO_ROOT = Path(__file__).resolve().parent.parent

UNIT_FILES = [
    "tests/test_qcore.py",
    "tests/test_pulses.py",
    "tests/test_systems.py",
    "tests/test_propagator.py",
    "tests/test_geomphase.py",
    "tests/test_gates.py",
    "tests/test_cli.py",
]


def report(capsys, name: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")


# ---------------------------------------------------------------------------
# 1. reference transport run


def test_criterion_1_reference_transport(transport_run, capsys):
    """Strong-drive round trip collects -5 rad with clean populations."""
    sched = transport_run["schedule"]
    report_conv = transport_run["report"]
    system_model = transport_run["model"]

    grid = TimeGrid(
        sched.t_start, sched.support_end, report_conv.accepted_step, sample_stride=4
    )
    t0 = time.monotonic()
    traj = propagate_many(system_model, [basis_state(("q", "e", "s"), "q")], grid)[0]
    seconds = time.monotonic() - t0

    phase_err = abs(principal_angle(traj.terminal_phase("q") + 5.0))
    pop = float(traj.populations[-1, traj.level_index("q")])
    max_e = traj.max_e_population
    ok = phase_err <= 0.01 and pop >= 0.999 and max_e <= 1e-3 and seconds < 5.0
    report(
        capsys,
        "1 reference transport",
        ok,
        f"phase err {phase_err:.2e} rad, population {pop:.6f}, "
        f"excited max {max_e:.2e}, {seconds:.2f} s at step "
        f"{report_conv.accepted_step:.2e}",
    )
    assert ok


# ---------------------------------------------------------------------------
# 2. one-qubit phase oracle triangle


def test_criterion_2_transport_phase_triangle(capsys):
    """Quadrature, closed form, and propagation agree over random schedules."""
    rng = np.random.default_rng(20260819)
    tol = 2e-4
    budget = max(1e-6, tol)
    worst_pc = worst_nc = worst_pn = 0.0
    t0 = time.monotonic()
    for _ in range(50):
        tau = rng.uniform(3.0, 6.0)
        pulse_delay = rng.uniform(0.3, 1.2) * tau
        sequence_delay = 2.0 * tau + pulse_delay + rng.uniform(0.5, 12.0)
        # keep the collected phase inside one branch so the comparison is
        # a plain subtraction after principal reduction
        cap = 0.9 * math.pi / (sequence_delay + 4.0 * tau)
        slope = cap * rng.uniform(0.15, 0.95) * rng.choice([-1.0, 1.0])
        peak = rng.uniform(1200.0, 1600.0) / tau

        sched = build_schedule(tau, pulse_delay, sequence_delay)
        ramp = PhaseRamp(kind="linear", slope=slope)
        pump, stokes = sequence_fields(sched, peak, peak, "q", "s", stokes_phase=ramp)
        grid = TimeGrid(sched.t_start, sched.support_end, tau / 200.0, sample_stride=256)
        (traj,), _ = converge_many(
            LambdaSystem(pump=pump, stokes=stokes).model(),
            [basis_state(("q", "e", "s"), "q")],
            grid,
            tolerance=tol,
        )
        closed = berry_phase_closed_form(sched, ramp)
        numeric = berry_phase_numeric(sched, ramp).value
        propagated = traj.terminal_phase("q")
        worst_pc = max(worst_pc, abs(principal_angle(propagated - closed)))
        worst_pn = max(worst_pn, abs(principal_angle(propagated - numeric)))
        worst_nc = max(worst_nc, abs(numeric - closed))
    seconds = time.monotonic() - t0
    ok = max(worst_pc, worst_pn, worst_nc) <= budget and seconds < 180.0
    report(
        capsys,
        "2 phase oracle triangle",
        ok,
        f"50 points, worst prop-closed {worst_pc:.2e}, prop-quad {worst_pn:.2e}, "
        f"quad-closed {worst_nc:.2e} vs budget {budget:.1e}, {seconds:.0f} s",
    )
    assert ok


# ---------------------------------------------------------------------------
# 3. Hadamard certification


def test_criterion_3_hadamard_certification(capsys):
    spec = GateSpec(
        tau=1.0,
        pulse_delay=0.8,
        sequence_delay=4.0,
        peak_rabi=100.0 * math.pi,
        tolerance=1e-6,
    )
    rep = run_hadamard(spec)
    root_half = 1.0 / math.sqrt(2.0)
    targets = np.array([[root_half, root_half], [root_half, -root_half]])
    amp_err = float(np.max(np.abs(rep.unitary - targets)))
    ok = rep.fidelity >= 0.999 and amp_err <= 1e-3
    report(
        capsys,
        "3 reflection gate",
        ok,
        f"fidelity {rep.fidelity:.6f}, worst amplitude error {amp_err:.2e}, "
        f"drive phase total {rep.predicted_phase:+.4f} rad",
    )
    assert ok


# ---------------------------------------------------------------------------
# 4. phase structure of the transferred level


def test_criterion_4_shelf_phase_structure(transport_run, capsys):
    """The shelf phase tracks collected-phase + drive-phase - pi, flat in the hold."""
    sched = transport_run["schedule"]
    ramp = transport_run["ramp"]
    traj = transport_run["trajectory"]
    profile = MixingProfile(sched)

    times = traj.times
    weights, _ = profile.values(times)
    # cumulative collected phase, minus slope times the running weight integral
    increments = np.diff(times) * 0.5 * (weights[1:] + weights[:-1])
    collected = -ramp.slope * np.concatenate([[0.0], np.cumsum(increments)])
    predicted = collected + ramp.value(times) - math.pi

    s_idx = traj.level_index("s")
    populated = traj.populations[:, s_idx] >= 1e-3
    deviations = np.array(
        [
            abs(principal_angle(traj.phases[k, s_idx] - predicted[k]))
            for k in np.nonzero(populated)[0]
        ]
    )
    worst = float(np.max(deviations))

    hold_start, hold_end = sched.hold_interval
    pad = 0.05 * (hold_end - hold_start)
    in_hold = (times > hold_start + pad) & (times < hold_end - pad)
    hold_phases = traj.phases[in_hold, s_idx]
    flatness = float(np.max(hold_phases) - np.min(hold_phases))

    ok = worst <= 0.02 and flatness <= 0.02
    report(
        capsys,
        "4 shelf phase structure",
        ok,
        f"worst deviation {worst:.2e} rad over {int(np.sum(populated))} populated "
        f"samples, hold flatness {flatness:.2e} rad",
    )
    assert ok


# ---------------------------------------------------------------------------
# 5. two-qubit oracle triangle


def test_criterion_5_pair_phase_triangle(capsys):
    tau, pulse_delay, sequence_delay = 4.0, 1.6, 16.0
    shift, peak = 0.005, 40.0 * math.pi
    sched = build_schedule(tau, pulse_delay, sequence_delay)
    drives = {
        "1": DriveField("1", sched.pump_envelopes(peak)),
        "2": DriveField("2", sched.stokes_envelopes(peak)),
    }
    model = TwoAtomSystem(drives=drives, interaction_shift=shift).model()
    labels = tuple(model.basis_labels)
    grid = TimeGrid(sched.t_start, sched.support_end, tau / 200.0, sample_stride=64)
    starts = [basis_state(labels, lv) for lv in ("01", "10", "11")]
    t0 = time.monotonic()
    trajs, _ = converge_many(model, starts, grid, tolerance=1e-6)
    seconds = time.monotonic() - t0

    single_phases = [
        abs(principal_angle(traj.terminal_phase(lv)))
        for traj, lv in zip(trajs, ("01", "10"))
    ]
    propagated = trajs[2].terminal_phase("11")
    transported = wz_propagate(sched, shift, base_step=tau / 100.0, tolerance=1e-9)
    quadrature = two_qubit_phase(sched, shift).value
    diffs = [
        abs(principal_angle(propagated - transported.geometric_phase)),
        abs(principal_angle(propagated - quadrature)),
        abs(transported.geometric_phase - quadrature),
    ]
    ok = max(diffs) <= 5e-3 and max(single_phases) <= 5e-3 and seconds < 60.0
    report(
        capsys,
        "5 pair phase triangle",
        ok,
        f"pair phase {principal_angle(propagated):+.5f} rad, worst pairwise "
        f"{max(diffs):.2e}, single-transfer phases {max(single_phases):.2e}, "
        f"{seconds:.1f} s",
    )
    assert ok


# ---------------------------------------------------------------------------
# 6. leakage scaling with pulse width


def test_criterion_6_mixing_scale_with_pulse_width(capsys):
    """Calibrate the shift for 0.5% pair mixing, then halve the pulse width."""
    tau_ref = 4.0
    shift = calibrate_interaction_shift(
        tau_ref,
        target_mixing=0.005,
        pulse_delay_ratio=0.4,
        sequence_delay_ratio=4.0,
        rel_tol=1e-3,
    )
    reference = wz_propagate(
        StirapSchedule(tau=tau_ref, pulse_delay=0.4 * tau_ref, sequence_delay=4.0 * tau_ref),
        shift,
        base_step=tau_ref / 100.0,
        tolerance=1e-9,
    ).max_mixing
    halved = wz_propagate(
        StirapSchedule(
            tau=tau_ref / 2.0,
            pulse_delay=0.4 * tau_ref / 2.0,
            sequence_delay=4.0 * tau_ref / 2.0,
        ),
        shift,
        base_step=tau_ref / 200.0,
        tolerance=1e-9,
    ).max_mixing
    ok = abs(reference - 0.005) <= 2e-4 and 0.0005 <= halved <= 0.002
    report(
        capsys,
        "6 mixing scale",
        ok,
        f"shift {shift:.5f}, mixing {reference:.5f} at reference width, "
        f"{halved:.5f} at half width (band [0.0005, 0.002])",
    )
    assert ok


# ---------------------------------------------------------------------------
# 7. property suite as the default gate


def test_criterion_7_property_suite_wall_clock(capsys):
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *UNIT_FILES],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    seconds = time.monotonic() - t0
    tail = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "(no output)"
    ok = proc.returncode == 0 and seconds < 120.0
    report(
        capsys,
        "7 property suite",
        ok,
        f"exit {proc.returncode}, {seconds:.0f} s, {tail}",
    )
    assert ok, proc.stdout + proc.stderr


# ---------------------------------------------------------------------------
# 8. robustness plateau


def _fidelity_ranges(base_spec, runner):
    factors = np.linspace(0.9, 1.1, 21)
    ranges = {}
    for axis in ("peak_rabi", "pulse_delay"):
        fids = []
        for f in factors:
            params = {
                "tau": base_spec.tau,
                "pulse_delay": base_spec.pulse_delay,
                "sequence_delay": base_spec.sequence_delay,
                "peak_rabi": base_spec.peak_rabi,
                "interaction_shift": base_spec.interaction_shift,
                "tolerance": base_spec.tolerance,
            }
            params[axis] = params[axis] * f
            fids.append(runner(GateSpec(**params)).fidelity)
        ranges[axis] = (max(fids) - min(fids), min(fids))
    return ranges


def test_criterion_8_fidelity_plateau(capsys):
    single = GateSpec(
        tau=1.0,
        pulse_delay=0.8,
        sequence_delay=4.0,
        peak_rabi=100.0 * math.pi,
        tolerance=1e-6,
    )
    pair = GateSpec(
        tau=1.5,
        pulse_delay=0.6,
        sequence_delay=10.0,
        peak_rabi=120.0,
        interaction_shift=0.1,
        tolerance=1e-6,
    )
    gates = {
        "phase": (single, lambda s: run_phase_gate(s, -math.pi / 2.0)),
        "hadamard": (single, run_hadamard),
        "controlled": (pair, lambda s: run_controlled_phase(s, -math.pi / 2.0)),
    }
    details = []
    ok = True
    for name, (spec, runner) in gates.items():
        for axis, (spread, low) in _fidelity_ranges(spec, runner).items():
            ok = ok and spread < 1e-3
            details.append(f"{name}/{axis} spread {spread:.1e} (min {low:.5f})")
    report(capsys, "8 fidelity plateau", ok, "; ".join(details))
    assert ok
