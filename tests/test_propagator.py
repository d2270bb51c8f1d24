"""Fixed-step integration, step-halving convergence, and phase tracking."""

import math

import numpy as np
import pytest

from stirapgates import (
    LAMBDA_LABELS,
    TWO_ATOM_LABELS,
    ConvergenceError,
    DriveField,
    MixingProfile,
    IntegrationQualityError,
    LambdaSystem,
    NORM_DRIFT_LIMIT,
    PhaseRamp,
    StateVector,
    TimeGrid,
    TripodSystem,
    TwoAtomSystem,
    adiabaticity_report,
    basis_state,
    build_schedule,
    converge_many,
    dark_state,
    extract_observables,
    principal_angle,
    propagate_many,
    sequence_fields,
    time_reversed,
)

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
LABELS2 = ("0", "1")


# ---------------------------------------------------------------------------
# TimeGrid


def test_grid_step_divides_the_span_evenly():
    grid = TimeGrid(t_start=0.0, t_end=1.0, base_step=0.3, sample_stride=1)
    assert grid.n_steps == 4
    assert grid.step == pytest.approx(0.25)
    assert grid.span == 1.0


def test_grid_refinement_halves_step_and_doubles_stride():
    grid = TimeGrid(t_start=0.0, t_end=2.0, base_step=0.1, sample_stride=3)
    fine = grid.refined()
    assert fine.n_steps == 2 * grid.n_steps
    assert fine.step == pytest.approx(grid.step / 2.0)
    assert fine.sample_stride == 6
    assert len(fine.sample_times()) == len(grid.sample_times())


def test_grid_sample_indices_always_include_the_end():
    grid = TimeGrid(t_start=0.0, t_end=1.0, base_step=0.1, sample_stride=4)
    idx = grid.sample_indices()
    assert idx[0] == 0
    assert idx[-1] == grid.n_steps
    assert np.all(np.diff(idx) > 0)


def test_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(t_start=1.0, t_end=0.0, base_step=0.1, sample_stride=1)
    with pytest.raises(ValueError):
        TimeGrid(t_start=0.0, t_end=1.0, base_step=0.0, sample_stride=1)
    with pytest.raises(ValueError):
        TimeGrid(t_start=0.0, t_end=1.0, base_step=0.1, sample_stride=0)
    for stride in (True, 2.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="sample_stride"):
            TimeGrid(t_start=0.0, t_end=1.0, base_step=0.1, sample_stride=stride)
    # an integral float is stored as an int, so the sample indices stay integers
    grid = TimeGrid(t_start=0.0, t_end=1.0, base_step=0.1, sample_stride=2.0)
    assert type(grid.sample_stride) is int
    assert grid.sample_indices().dtype.kind == "i"


# ---------------------------------------------------------------------------
# propagate_many basics


def test_zero_hamiltonian_leaves_the_state_alone():
    grid = TimeGrid(0.0, 5.0, 0.05, sample_stride=10)
    start = basis_state(LABELS2, "0")
    traj = propagate_many(np.zeros((2, 2), dtype=complex), [start], grid)[0]
    assert traj.norm_drift == 0.0
    assert np.allclose(traj.populations[:, 0], 1.0)
    assert np.allclose(traj.phases[:, 0], 0.0)
    assert np.isnan(traj.phases[:, 1]).all()
    assert np.allclose(traj.final_state.amplitudes, start.amplitudes)


def test_constant_diagonal_phase_is_a_straight_line():
    """A level at energy w winds its phase down as -w t, unwrapped."""
    omega = 3.7
    ham = np.diag([omega, 0.0]).astype(complex)
    amps = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
    from stirapgates import StateVector

    grid = TimeGrid(0.0, 4.0, 0.002, sample_stride=50)
    traj = propagate_many(ham, [StateVector(amps, LABELS2)], grid)[0]
    expected = -omega * traj.times
    assert np.max(np.abs(traj.phases[:, 0] - expected)) < 1e-7
    assert np.max(np.abs(traj.phases[:, 1])) < 1e-9
    # several full turns happened, so the straight line proves the unwrap
    assert expected[-1] < -2.0 * math.pi


def test_rabi_oscillation_matches_the_closed_form():
    omega = 2.0
    grid = TimeGrid(0.0, 3.0, 0.01, sample_stride=5)
    traj = propagate_many((omega / 2.0) * SIGMA_X, [basis_state(LABELS2, "0")], grid)[0]
    expected = np.cos(omega * traj.times / 2.0) ** 2
    assert np.max(np.abs(traj.populations[:, 0] - expected)) < 1e-8


def test_fourth_order_step_convergence():
    """Terminal error falls by about 2^4 when the step is halved."""
    omega = 2.0
    ham = (omega / 2.0) * SIGMA_X
    start = basis_state(LABELS2, "0")
    t_end = 2.0
    exact = np.array(
        [math.cos(omega * t_end / 2.0), -1j * math.sin(omega * t_end / 2.0)],
        dtype=complex,
    )
    errors = []
    for step in (0.1, 0.05, 0.025):
        traj = propagate_many(ham, [start], TimeGrid(0.0, t_end, step, sample_stride=1000))[0]
        errors.append(np.linalg.norm(traj.final_state.amplitudes - exact))
    assert 10.0 < errors[0] / errors[1] < 25.0
    assert 10.0 < errors[1] / errors[2] < 25.0


def test_propagate_rejects_mismatched_basis():
    sched = build_schedule(1.0, 0.8, 4.0)
    pump, stokes = sequence_fields(sched, 10.0, 10.0, "q", "s")
    model = LambdaSystem(pump=pump, stokes=stokes).model()
    grid = TimeGrid(0.0, 1.0, 0.1, sample_stride=1)
    state = basis_state(("a", "b", "c"), "a")
    for entry in (propagate_many, converge_many):
        # the error names both bases
        with pytest.raises(ValueError, match=r"basis \('a', 'b', 'c'\).*basis \('q', 'e', 's'\)"):
            entry(model, [state], grid)


@pytest.mark.parametrize("entry", [propagate_many, converge_many])
def test_entry_points_reject_an_empty_batch(entry):
    with pytest.raises(ValueError, match="at least one"):
        entry(SIGMA_X, [], TimeGrid(0.0, 1.0, 0.1, sample_stride=1))


@pytest.mark.parametrize("entry", [propagate_many, converge_many])
def test_entry_points_reject_mixed_bases(entry):
    starts = [basis_state(LABELS2, "0"), basis_state(("a", "b"), "a")]
    with pytest.raises(ValueError, match="share one basis"):
        entry(SIGMA_X, starts, TimeGrid(0.0, 1.0, 0.1, sample_stride=1))


def test_propagate_flags_excessive_norm_drift():
    # a coarse step under a strong drive loses norm visibly
    ham = 40.0 * SIGMA_X
    grid = TimeGrid(0.0, 10.0, 0.05, sample_stride=1)
    with pytest.raises(IntegrationQualityError, match="drift"):
        propagate_many(ham, [basis_state(LABELS2, "0")], grid)
    # the same run is inspectable with the quality gate off
    traj = propagate_many(ham, [basis_state(LABELS2, "0")], grid, check_quality=False)[0]
    assert traj.norm_drift > NORM_DRIFT_LIMIT


def test_final_state_is_normalized_despite_drift():
    ham = 40.0 * SIGMA_X
    grid = TimeGrid(0.0, 10.0, 0.05, sample_stride=1)
    traj = propagate_many(ham, [basis_state(LABELS2, "0")], grid, check_quality=False)[0]
    assert abs(np.linalg.norm(traj.final_state.amplitudes) - 1.0) < 1e-14


def test_propagate_many_matches_individual_runs():
    ham = 1.3 * SIGMA_X + np.diag([0.2, -0.1]).astype(complex)
    grid = TimeGrid(0.0, 2.0, 0.01, sample_stride=10)
    starts = [basis_state(LABELS2, "0"), basis_state(LABELS2, "1")]
    batched = propagate_many(ham, starts, grid)
    for start, planned in zip(starts, batched):
        solo = propagate_many(ham, [start], grid)[0]
        assert np.allclose(planned.states, solo.states, atol=1e-14)
        # batched matmuls round differently at the last few bits
        assert abs(planned.norm_drift - solo.norm_drift) < 1e-12


def test_sampling_stride_does_not_change_the_physics():
    ham = 0.9 * SIGMA_X
    coarse = propagate_many(
        ham, [basis_state(LABELS2, "0")], TimeGrid(0.0, 2.0, 0.01, sample_stride=10)
    )[0]
    dense = propagate_many(
        ham, [basis_state(LABELS2, "0")], TimeGrid(0.0, 2.0, 0.01, sample_stride=1)
    )[0]
    assert coarse.step == dense.step
    # every coarse sample time appears in the dense run with the same state
    lookup = {round(t, 12): k for k, t in enumerate(dense.times)}
    for k, t in enumerate(coarse.times):
        j = lookup[round(t, 12)]
        assert np.allclose(coarse.states[k], dense.states[j], atol=1e-14)


def test_extract_observables_mirrors_the_trajectory():
    ham = 0.7 * SIGMA_X
    traj = propagate_many(
        ham, [basis_state(LABELS2, "0")], TimeGrid(0.0, 1.0, 0.01, sample_stride=5)
    )[0]
    pops, phases = extract_observables(traj)
    assert np.allclose(pops, traj.populations, equal_nan=True)
    assert np.allclose(phases, traj.phases, equal_nan=True)


def _staged_rk4(sample, block: np.ndarray, grid: TimeGrid):
    """Reference RK4 with four stages per step, for checking the transfer matrices.

    Returns the sampled (n_samples, dim, width) states, the per-step
    maximum populations and the largest norm drift over every step.
    """
    h = grid.step
    stack = -1j * h * sample(grid.t_start + 0.5 * h * np.arange(2 * grid.n_steps + 1))
    psi = block.astype(complex)
    states = [psi]
    for i in range(grid.n_steps):
        b0, b1, b2 = stack[2 * i], stack[2 * i + 1], stack[2 * i + 2]
        k1 = b0 @ psi
        k2 = b1 @ (psi + 0.5 * k1)
        k3 = b1 @ (psi + 0.5 * k2)
        k4 = b2 @ (psi + k3)
        psi = psi + (k1 + 2.0 * (k2 + k3) + k4) / 6.0
        states.append(psi)
    states = np.array(states)
    pops = np.abs(states) ** 2
    drift = float(np.max(np.abs(pops.sum(axis=1) - 1.0)))
    return states[grid.sample_indices()], pops.max(axis=0), drift


def _cross_check_cases():
    sched = build_schedule(2.0, 0.8, 8.0)
    pump, stokes = sequence_fields(
        sched, 300.0, 300.0, "q", "s", stokes_phase=PhaseRamp(kind="linear", slope=0.2)
    )
    lam = LambdaSystem(pump=pump, stokes=stokes).model()
    tripod = TripodSystem(drives={
        "0": DriveField("0", sched.pump_envelopes(120.0), PhaseRamp(kind="constant", offset=1.0)),
        "1": DriveField("1", sched.pump_envelopes(300.0)),
        "2": DriveField("2", sched.stokes_envelopes(320.0), PhaseRamp(kind="linear", slope=0.4)),
    }).model()
    pair = TwoAtomSystem(drives={
        "1": DriveField("1", sched.pump_envelopes(160.0)),
        "2": DriveField("2", sched.stokes_envelopes(160.0)),
    }, interaction_shift=0.05).model()
    ham = 40.0 * SIGMA_X + np.diag([0.0, 3.0]).astype(complex)

    def chirped(t):
        return math.cos(2.0 * t) * ham

    half = np.array([1.0, 1.0j]) / math.sqrt(2.0)
    return sched.t_a, {
        "lambda d3 w1": (lam, lam.sample, [basis_state(LAMBDA_LABELS, "q")]),
        "tripod d4 w2": (tripod, tripod.sample,
                         [basis_state(tripod.basis_labels, lv) for lv in ("0", "1")]),
        "pair d16 w4": (pair, pair.sample,
                        [basis_state(TWO_ATOM_LABELS, lv) for lv in ("00", "01", "10", "11")]),
        "callable d2 w2": (chirped, lambda times: np.stack([chirped(t) for t in times]),
                           [basis_state(LABELS2, "0"), StateVector(half, LABELS2)]),
    }


def test_transfer_matrices_match_a_staged_rk4():
    """Across chunk boundaries, with a stride that does not divide the chunk."""
    t_on, cases = _cross_check_cases()
    # 2500 steps: more than two 1024-step chunks and not a multiple of one
    grid = TimeGrid(t_on, t_on + 0.5, 2e-4, sample_stride=7)
    assert grid.n_steps == 2500
    for name, (model, sample, starts) in cases.items():
        trajs = propagate_many(model, starts, grid, check_quality=False)
        block = np.stack([st.amplitudes for st in starts], axis=1)
        states, max_pops, drift = _staged_rk4(sample, block, grid)
        for j, traj in enumerate(trajs):
            assert np.max(np.abs(traj.states - states[:, :, j])) < 1e-12, name
            assert np.max(np.abs(traj.max_populations - max_pops[:, j])) < 1e-12, name
            assert abs(traj.norm_drift - drift) < 1e-12, name
        # the drive does something on this stretch, so the check has teeth
        assert np.max(np.abs(states[-1] - block)) > 0.1, name


# ---------------------------------------------------------------------------
# converge_many


def test_converge_trivial_problem_accepts_immediately():
    grid = TimeGrid(0.0, 1.0, 0.1, sample_stride=1)
    (traj,), report = converge_many(
        np.zeros((2, 2), dtype=complex), [basis_state(LABELS2, "0")], grid
    )
    # acceptance always needs one comparison pair, so one halving minimum
    assert report.halvings == 1
    assert report.distances[-1] == 0.0
    assert report.accepted_step == pytest.approx(traj.step)
    assert not report.clamped


def test_converge_distances_shrink_monotonically():
    ham = 2.0 * SIGMA_X + np.diag([0.0, 0.5]).astype(complex)
    grid = TimeGrid(0.0, 3.0, 0.2, sample_stride=10)
    (traj,), report = converge_many(ham, [basis_state(LABELS2, "0")], grid, tolerance=1e-10)
    assert len(report.distances) >= 2
    assert all(b < a for a, b in zip(report.distances, report.distances[1:]))
    assert report.distances[-1] <= 1e-10
    assert traj.norm_drift <= NORM_DRIFT_LIMIT


def test_converge_handles_a_jump_discontinuity():
    """A Hamiltonian that switches abruptly converges slowly but surely.

    The jump caps the local order at one, so the halving ladder shrinks the
    distance by about 2x per rung instead of 16x. A modest tolerance is the
    honest target here.
    """
    a = 1.0 * SIGMA_X
    b = np.diag([1.5, -0.5]).astype(complex)

    def model(t):
        return a if t < 1.0 else b

    grid = TimeGrid(0.0, 2.0, 0.11, sample_stride=10)
    (traj,), report = converge_many(model, [basis_state(LABELS2, "0")], grid, tolerance=1e-4)
    assert report.distances[-1] <= 1e-4
    assert report.halvings > 3
    # cross-check against the exact exponentials of the two constant pieces
    u_a = math.cos(1.0) * np.eye(2) - 1j * math.sin(1.0) * SIGMA_X
    u_b = np.diag([np.exp(-1.5j), np.exp(0.5j)])
    exact = u_b @ u_a @ np.array([1.0, 0.0])
    assert np.linalg.norm(traj.final_state.amplitudes - exact) < 1e-3


def test_converge_raises_when_the_cap_is_exhausted():
    ham = 5.0 * SIGMA_X
    grid = TimeGrid(0.0, 2.0, 0.5, sample_stride=1)
    with pytest.raises(ConvergenceError):
        converge_many(ham, [basis_state(LABELS2, "0")], grid, tolerance=1e-15, max_halvings=2)
    assert issubclass(ConvergenceError, IntegrationQualityError)


def test_converge_many_shares_one_ladder():
    ham = 1.1 * SIGMA_X
    grid = TimeGrid(0.0, 2.0, 0.05, sample_stride=10)
    starts = [basis_state(LABELS2, "0"), basis_state(LABELS2, "1")]
    trajs, report = converge_many(ham, starts, grid, tolerance=1e-9)
    assert len(trajs) == 2
    assert all(t.step == trajs[0].step for t in trajs)
    (solo,), solo_report = converge_many(ham, starts[:1], grid, tolerance=1e-9)
    assert np.allclose(trajs[0].states, solo.states, atol=1e-12)
    assert solo_report.accepted_step == report.accepted_step


def test_converge_clamps_unstable_initial_steps():
    # base step far above the stability limit for this drive strength
    ham = 100.0 * SIGMA_X
    grid = TimeGrid(0.0, 1.0, 0.2, sample_stride=1)
    (traj,), report = converge_many(ham, [basis_state(LABELS2, "0")], grid, tolerance=1e-8)
    assert report.clamped
    assert report.initial_step < 0.2
    assert traj.norm_drift <= NORM_DRIFT_LIMIT


# ---------------------------------------------------------------------------
# time reversal


def test_time_reversal_round_trip():
    sched = build_schedule(1.0, 0.8, 4.0)
    pump, stokes = sequence_fields(sched, 60.0, 60.0, "q", "s")
    system = LambdaSystem(pump=pump, stokes=stokes)
    grid = TimeGrid(sched.t_start, sched.support_end, 0.002, sample_stride=100)
    start = basis_state(LAMBDA_LABELS, "q")
    tol = 1e-9
    (forward,), _ = converge_many(system.model(), [start], grid, tolerance=tol)

    reversed_model = time_reversed(system.model(), sched.t_start, sched.support_end)
    (back,), _ = converge_many(reversed_model, [forward.final_state], grid, tolerance=tol)
    assert np.linalg.norm(back.final_state.amplitudes - start.amplitudes) <= 10.0 * tol


# ---------------------------------------------------------------------------
# diagnostics


def test_adiabaticity_improves_with_drive_strength():
    """Outside-the-dark-state population falls as the drives scale up.

    The instantaneous dark direction comes from the schedule's mixing
    profile so the idle hold (both drives off, population parked in the
    transfer target) is attributed correctly.
    """
    sched = build_schedule(1.0, 0.8, 4.0)
    profile = MixingProfile(sched)

    def dark_column(t):
        ratio, _ = profile.values(np.array([t]))
        theta = math.asin(math.sqrt(float(ratio[0])))
        return dark_state(theta, 0.0).amplitudes[:, None]

    leaks = []
    for peak in (30.0, 60.0, 120.0, 240.0):
        pump, stokes = sequence_fields(sched, peak, peak, "q", "s")
        system = LambdaSystem(pump=pump, stokes=stokes)
        grid = TimeGrid(sched.t_start, sched.support_end, 0.001, sample_stride=20)
        traj = propagate_many(system.model(), [basis_state(LAMBDA_LABELS, "q")], grid)[0]
        leaks.append(adiabaticity_report(traj, dark_column))
    assert all(b < a for a, b in zip(leaks, leaks[1:]))
    assert leaks[-1] < 1e-3


def test_norm_drift_rate_is_tiny_at_the_accepted_step(transport_run):
    traj = transport_run["trajectory"]
    span = traj.times[-1] - traj.times[0]
    assert traj.norm_drift / span <= 1e-8


def test_transport_reference_run_basics(transport_run):
    """The shared strong-drive run transfers out and back cleanly."""
    traj = transport_run["trajectory"]
    assert traj.populations[-1, traj.level_index("q")] >= 0.999
    assert traj.max_e_population <= 1e-3
    # the stored per-level peak populations bound the sampled ones
    assert traj.max_population("s") >= np.max(traj.populations[:, traj.level_index("s")]) - 1e-12
    assert traj.max_population("s") >= 0.999


def test_terminal_phase_matches_ramp_decrement_mod_2pi(transport_run):
    sched = transport_run["schedule"]
    ramp = transport_run["ramp"]
    traj = transport_run["trajectory"]
    expected = ramp.value(sched.t_a) - ramp.value(sched.t_a + sched.sequence_delay)
    actual = traj.terminal_phase("q")
    assert abs(principal_angle(actual - expected)) < 2e-3
