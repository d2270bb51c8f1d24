"""Fixed-step integration, step-halving convergence, and phase tracking."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stirapgates import (
    LAMBDA_LABELS,
    TRIPOD_LABELS,
    TWO_ATOM_LABELS,
    ConvergenceError,
    DriveField,
    GridTooFineError,
    HamiltonianModel,
    MixingProfile,
    IntegrationQualityError,
    LambdaSystem,
    NORM_DRIFT_LIMIT,
    PhaseRamp,
    PulseEnvelope,
    StateVector,
    TimeGrid,
    TripodSystem,
    TwoAtomSystem,
    basis_state,
    build_schedule,
    converge_many,
    dark_state,
    extract_observables,
    lambda_hamiltonian,
    principal_angle,
    propagate_many,
    sequence_fields,
    time_reversed,
)
from stirapgates import propagator
from stirapgates.propagator import (
    _MAX_START_STEPS,
    _SCAN_STEPS,
    _SMALL_DIM,
    _components,
    _lumped,
    _Plan,
    _chunk_rows,
    _rk4_idle_powers,
    _rk4_transfer,
    _rk4_whole_steps,
    _run_fixed_step,
    _unwrap_column,
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
    for name in ("t_start", "t_end", "base_step"):
        for bad in (math.inf, -math.inf):
            values = {"t_start": 0.0, "t_end": 1.0, "base_step": 0.1, name: bad}
            with pytest.raises(ValueError, match=name):
                TimeGrid(**values)
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
    traj = propagate_many(HamiltonianModel(LABELS2, np.zeros((2, 2), dtype=complex), []), [start],
                          grid)[0]
    assert traj.norm_drift == 0.0
    assert np.allclose(traj.populations[:, 0], 1.0)
    assert np.allclose(traj.phases[:, 0], 0.0)
    assert np.isnan(traj.phases[:, 1]).all()
    assert np.allclose(traj.final_state.amplitudes, start.amplitudes)


def test_constant_diagonal_phase_is_a_straight_line():
    """A level at energy w winds its phase down as -w t, unwrapped."""
    omega = 3.7
    ham = HamiltonianModel(LABELS2, np.diag([omega, 0.0]).astype(complex), [])
    amps = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
    from stirapgates import StateVector

    grid = TimeGrid(0.0, 4.0, 0.002, sample_stride=50)
    traj = propagate_many(ham, [StateVector(amps, LABELS2)], grid)[0]
    expected = -omega * traj.times
    assert np.max(np.abs(traj.phases[:, 0] - expected)) < 1e-7
    assert np.max(np.abs(traj.phases[:, 1])) < 1e-9
    # several full turns happened, so the straight line proves the unwrap
    assert expected[-1] < -2.0 * math.pi


def test_a_phase_is_its_raw_angle_less_the_whole_turns_counted_so_far():
    """A step from the previous defined sample (from 0 before the first) counts
    ceil((step - pi) / 2 pi) turns; undefined rows are NaN and skipped."""
    eps = 1e-9
    pi = math.pi
    # (raw angle, defined, whole turns counted up to the row)
    rows = [
        (2.0, False, None),
        (-pi, True, -1),        # the first value: -pi maps to pi
        (-eps, True, -1),       # step pi - eps, just inside
        (3.0, False, None),     # a depopulated gap
        (-0.5, False, None),
        (pi, True, 0),          # step pi + eps across the gap, just outside
        (eps, True, 0),         # step -(pi - eps), just inside
        (-pi, True, -1),        # step -(pi + eps), just outside
        (-pi / 2, True, -1),
        (pi / 2, True, -1),     # step exactly pi stays
        (-pi / 2, True, -2),    # step exactly -pi turns
    ]
    raw = np.array([r for r, _, _ in rows])
    defined = np.array([d for _, d, _ in rows])
    phases = _unwrap_column(raw, defined)
    for (r, d, k), phase in zip(rows, phases):
        if d:
            assert phase == r - 2 * math.pi * k
        else:
            assert math.isnan(phase)
    assert phases[1] == pi
    steps = np.diff(phases[defined])
    assert np.all((steps > -pi) & (steps <= pi))


def test_rabi_oscillation_matches_the_closed_form():
    omega = 2.0
    grid = TimeGrid(0.0, 3.0, 0.01, sample_stride=5)
    traj = propagate_many(HamiltonianModel(LABELS2, (omega / 2.0) * SIGMA_X, []),
                          [basis_state(LABELS2, "0")], grid)[0]
    expected = np.cos(omega * traj.times / 2.0) ** 2
    assert np.max(np.abs(traj.populations[:, 0] - expected)) < 1e-8


def test_fourth_order_step_convergence():
    """Terminal error falls by about 2^4 when the step is halved."""
    omega = 2.0
    ham = HamiltonianModel(LABELS2, (omega / 2.0) * SIGMA_X, [])
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


@pytest.mark.parametrize("tolerance", [0.0, -1.0, math.nan, math.inf])
def test_converge_many_refuses_a_tolerance_it_cannot_reach(tolerance):
    with pytest.raises(ValueError, match="tolerance must be a positive finite number"):
        converge_many(HamiltonianModel(LABELS2, SIGMA_X, []), [basis_state(LABELS2, "0")],
                      TimeGrid(0.0, 1.0, 0.1), tolerance=tolerance)


@pytest.mark.parametrize("entry", [propagate_many, converge_many])
def test_entry_points_reject_an_empty_batch(entry):
    with pytest.raises(ValueError, match="at least one"):
        entry(HamiltonianModel(LABELS2, SIGMA_X, []), [], TimeGrid(0.0, 1.0, 0.1, sample_stride=1))


@pytest.mark.parametrize("entry", [propagate_many, converge_many])
def test_entry_points_reject_mixed_bases(entry):
    starts = [basis_state(LABELS2, "0"), basis_state(("a", "b"), "a")]
    with pytest.raises(ValueError, match="share one basis"):
        entry(HamiltonianModel(LABELS2, SIGMA_X, []), starts,
              TimeGrid(0.0, 1.0, 0.1, sample_stride=1))


def test_propagate_flags_excessive_norm_drift():
    # a coarse step under a strong drive loses norm visibly
    ham = HamiltonianModel(LABELS2, 40.0 * SIGMA_X, [])
    grid = TimeGrid(0.0, 10.0, 0.05, sample_stride=1)
    with pytest.raises(IntegrationQualityError, match="drift"):
        propagate_many(ham, [basis_state(LABELS2, "0")], grid)
    # the same run is inspectable with the quality gate off
    traj = propagate_many(ham, [basis_state(LABELS2, "0")], grid, check_quality=False)[0]
    assert traj.norm_drift > NORM_DRIFT_LIMIT


def test_propagate_flags_an_overflowed_run():
    """A drive so strong that the RK4 products overflow leaves a NaN drift,
    which the quality gate refuses and the diagnostics keep."""
    labels = ("g", "e")
    grid = TimeGrid(0.0, 1.0, 0.01, sample_stride=1)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(IntegrationQualityError, match="nan"):
            propagate_many(HamiltonianModel(labels, 1e200 * SIGMA_X, []),
                           [basis_state(labels, "g")], grid)
        traj = propagate_many(HamiltonianModel(labels, 1e200 * SIGMA_X, []),
                              [basis_state(labels, "g")], grid, check_quality=False)[0]
    assert math.isnan(traj.norm_drift)
    assert math.isnan(traj.max_e_population)


def test_final_state_is_normalized_despite_drift():
    ham = HamiltonianModel(LABELS2, 40.0 * SIGMA_X, [])
    grid = TimeGrid(0.0, 10.0, 0.05, sample_stride=1)
    traj = propagate_many(ham, [basis_state(LABELS2, "0")], grid, check_quality=False)[0]
    assert abs(np.linalg.norm(traj.final_state.amplitudes) - 1.0) < 1e-14


def test_propagate_many_matches_individual_runs():
    ham = HamiltonianModel(LABELS2, 1.3 * SIGMA_X + np.diag([0.2, -0.1]).astype(complex), [])
    grid = TimeGrid(0.0, 2.0, 0.01, sample_stride=10)
    starts = [basis_state(LABELS2, "0"), basis_state(LABELS2, "1")]
    batched = propagate_many(ham, starts, grid)
    for start, planned in zip(starts, batched):
        solo = propagate_many(ham, [start], grid)[0]
        assert np.allclose(planned.states, solo.states, atol=1e-14)
        # batched matmuls round differently at the last few bits
        assert abs(planned.norm_drift - solo.norm_drift) < 1e-12


def test_sampling_stride_does_not_change_the_physics():
    ham = HamiltonianModel(LABELS2, 0.9 * SIGMA_X, [])
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
    ham = HamiltonianModel(LABELS2, 0.7 * SIGMA_X, [])
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


def _pulsed(model: HamiltonianModel, runs: list[tuple[int, int]], grid: TimeGrid):
    """The model's couplings and ramps, with each field driven only on the given runs.

    A run (first step, length) gets one pulse per field, at the field's peak
    Rabi frequency, whose support lies strictly between the run's outer
    nodes. Distinct level energies make the idle steps between runs wind.
    """
    h = grid.step
    couplings = []
    for fld, m_cos, m_sin in model.couplings:
        pulses = tuple(PulseEnvelope(fld.envelopes[0].omega_max, (length - 0.2) * h / 2.0,
                                     t_on=grid.t_start + (first + 0.1) * h)
                       for first, length in runs)
        couplings.append((DriveField(fld.level, pulses, fld.phase), m_cos, m_sin))
    static = model.static + np.diag(np.linspace(0.0, 3.0, model.dim))
    return HamiltonianModel(model.basis_labels, static, couplings)


def _driven_runs(idle: np.ndarray) -> list[tuple[int, int]]:
    edges = np.flatnonzero(np.diff(np.concatenate(([0], (~idle).astype(int), [0]))))
    return [(int(a), int(b - a)) for a, b in zip(edges[0::2], edges[1::2])]


def test_a_callable_is_sampled_as_a_hamiltonian_model(monkeypatch):
    """The callable's matrices reach the propagator through HamiltonianModel.sample."""
    t_on, cases = _cross_check_cases()
    chirped, _, starts = cases["callable d2 w2"]
    calls = _record_samples(monkeypatch)
    propagate_many(chirped, starts, TimeGrid(t_on, t_on + 0.01, 2e-4), check_quality=False)
    assert {labels for labels, _ in calls} == {LABELS2}


def test_driven_run_scan_matches_a_staged_rk4():
    """Driven runs of every length against the scan's block, cut by idle runs.

    Runs of 1, B - 1, B, B + 1 and 3B + 5 steps start at the grid start and
    after 7 idle steps each, inside one chunk. A 40-step run crosses step
    808, an edge of the pair's 404-step chunks (its largest block has 9
    levels, which the distinct level energies of ``_pulsed`` keep from
    lumping), and a 61-step run crosses step 1024, the chunk edge of the
    3- and 4-level models.
    """
    t_on, cases = _cross_check_cases()
    for name, (model, _, starts) in cases.items():
        if not isinstance(model, HamiltonianModel):
            continue
        block = _SCAN_STEPS
        runs, first = [], 0
        for length in (1, block - 1, block, block + 1, 3 * block + 5):
            runs.append((first, length))
            first += length + 7
        runs += [(790, 40), (1000, 61)]
        grid = TimeGrid(t_on, t_on + 2.2, 2e-3, sample_stride=3)
        assert grid.n_steps == 1100
        pulsed = _pulsed(model, runs, grid)
        assert _driven_runs(_idle_mask(pulsed, grid)) == runs, name

        trajs = propagate_many(pulsed, starts, grid, check_quality=False)
        block_states = np.stack([st.amplitudes for st in starts], axis=1)
        states, max_pops, drift = _staged_rk4(pulsed.sample, block_states, grid)
        for j, traj in enumerate(trajs):
            assert np.max(np.abs(traj.states - states[:, :, j])) < 1e-12, name
            assert np.max(np.abs(traj.max_populations - max_pops[:, j])) < 1e-12, name
            assert abs(traj.norm_drift - drift) < 1e-12, name
        assert np.max(np.abs(states[-1] - block_states)) > 0.1, name


def _hold_cases():
    """Drives on either side of a hold, with detuning and pair shift so the held levels wind.

    The tripod also gets a pulse inside the hold that is narrower than the
    test grids' step: on them only the middle node of one step sees it.
    """
    sched = build_schedule(2.0, 0.8, 8.0)
    tripod = TripodSystem(drives={
        "0": DriveField("0", (PulseEnvelope(2000.0, 5e-4, t_on=7.6004),)),
        "1": DriveField("1", sched.pump_envelopes(300.0)),
        "2": DriveField("2", sched.stokes_envelopes(320.0), PhaseRamp(kind="linear", slope=0.4)),
    }, detuning=2.0).model()
    pair = TwoAtomSystem(drives={
        "1": DriveField("1", sched.pump_envelopes(160.0)),
        "2": DriveField("2", sched.stokes_envelopes(160.0)),
    }, detuning=2.0, interaction_shift=0.5).model()
    half = np.zeros(4, dtype=complex)
    half[[0, 1]] = 1.0 / math.sqrt(2.0)
    return sched, {
        "tripod d4 w2": (tripod, [basis_state(TRIPOD_LABELS, "1"),
                                  StateVector(half, TRIPOD_LABELS)]),
        "pair d16 w4": (pair, [basis_state(TWO_ATOM_LABELS, lv)
                               for lv in ("00", "01", "11", "22")]),
    }


def _idle_steps(coeffs: np.ndarray, columns) -> np.ndarray:
    """Steps whose every node has every coefficient in ``columns`` exactly zero."""
    return _rk4_whole_steps(~np.any(coeffs[:, columns] != 0.0, axis=1))


def test_idle_steps_mark_the_hold_and_blocks_read_the_static_diagonal():
    sched = build_schedule(1.0, 0.5, 4.0)
    pump, stokes = sequence_fields(sched, 2.0, 5.0, "q", "s")
    model = LambdaSystem(pump=pump, stokes=stokes, detuning=-0.3).model()
    nodes = np.linspace(-1.0, 8.0, 181)
    idle = _idle_steps(model.coefficients(nodes), (1, 2, 3, 4))
    free = (pump.amplitude(nodes) == 0.0) & (stokes.amplitude(nodes) == 0.0)
    assert np.array_equal(idle, free[0:-1:2] & free[1::2] & free[2::2])
    # drive-free before, between and after the sequences, driven during them
    assert idle.any() and not idle.all()
    # the lambda block's idle powers come from the static diagonal
    h, steps = 0.05, 4
    start = np.eye(3, dtype=complex)[:, :1]
    (shared,) = _Plan(model, start).runs
    assert np.array_equal(np.diag(shared.model.static), [0.0, -0.3, 0.0])
    assert np.array_equal(shared.diagonal, [0.0, -0.3, 0.0])
    z = -1j * h * np.array([0.0, -0.3, 0.0])
    factor = sum(z**k / math.factorial(k) for k in range(5))
    expected = factor ** np.arange(1, steps + 1)[:, None]
    powers = _rk4_idle_powers(shared.diagonal, h, steps)
    assert np.allclose(powers[:, :, 0], expected, rtol=0.0, atol=1e-15)
    # an off-diagonal static part has no diagonal, so its block has no idle steps
    constant = HamiltonianModel(LAMBDA_LABELS, lambda_hamiltonian(1.0, 1.0).matrix, [])
    assert _idle_steps(constant.coefficients(nodes), ()).all()
    (shared,) = _Plan(constant, start).runs
    assert shared.diagonal is None


def _idle_mask(model, grid: TimeGrid) -> np.ndarray:
    """Steps whose three RK4 nodes are all drive-free."""
    nodes = grid.t_start + 0.5 * grid.step * np.arange(2 * grid.n_steps + 1)
    diagonal = np.diag(model.static)
    assert np.array_equal(model.static, np.diag(diagonal)) and np.any(diagonal != 0.0)
    columns = 1 + np.flatnonzero(model.terms[1:].any(axis=1))
    return _idle_steps(model.coefficients(nodes), columns)


def test_a_step_starting_at_a_turn_off_is_idle(monkeypatch):
    model = TripodSystem(drives={"0": DriveField("0", (PulseEnvelope(5.0, 0.5, t_on=0.0),))},
                         detuning=1.0).model()
    grid = TimeGrid(0.0, 2.0, 0.125)
    idle = _idle_mask(model, grid)
    # the pulse turns off at t = 1, the start of step 8
    assert not idle[:8].any() and idle[8:].all()
    calls = _record_samples(monkeypatch)
    propagate_many(model, [basis_state(TRIPOD_LABELS, "0")], grid, check_quality=False)
    assert np.max(np.concatenate([times for _, times in calls])) == 1.0


def _longest_run(mask: np.ndarray) -> int:
    edges = np.flatnonzero(np.diff(np.concatenate(([0], mask.astype(int), [0]))))
    return int(np.max(edges[1::2] - edges[0::2]))


@pytest.mark.parametrize("span, idle_end", [
    ((4.0, 8.6), None),      # drive -> hold -> drive
    ((5.0, 8.6), "first"),   # the grid starts inside the hold
    ((4.0, 7.0), "last"),    # the grid ends inside the hold
])
def test_idle_runs_match_a_staged_rk4(span, idle_end):
    """Drive-free steps (diagonal factor powers) agree with stepping them one by one."""
    sched, cases = _hold_cases()
    assert sched.hold_interval == (4.8, 8.0)
    grid = TimeGrid(span[0], span[1], 2e-3, sample_stride=7)
    for name, (model, starts) in cases.items():
        idle = _idle_mask(model, grid)
        # one idle run is longer than any chunk, so it crosses a chunk boundary
        assert _longest_run(idle) > 1024, name
        assert not idle.all(), name
        if idle_end == "first":
            assert idle[0], name
        if idle_end == "last":
            assert idle[-1], name
        trajs = propagate_many(model, starts, grid, check_quality=False)
        block = np.stack([st.amplitudes for st in starts], axis=1)
        states, max_pops, drift = _staged_rk4(model.sample, block, grid)
        for j, traj in enumerate(trajs):
            assert np.max(np.abs(traj.states - states[:, :, j])) < 1e-12, name
            assert np.max(np.abs(traj.max_populations - max_pops[:, j])) < 1e-12, name
            assert abs(traj.norm_drift - drift) < 1e-12, name


# Drawn block-wise runs. One short schedule (pulses on [0, 0.5] and [0.8, 1.3],
# hold between) at step 1e-3: grids of up to 1500 steps cross the 128-, 404-,
# 910- and 1024-step chunks of every lumped size and start or end in any stretch.
PROPERTIES = settings(derandomize=True, database=None, max_examples=60, deadline=None)
_FAST = build_schedule(0.2, 0.1, 0.8)
_COMPLEX = st.builds(complex, st.floats(-1.0, 1.0, allow_subnormal=False),
                     st.floats(-1.0, 1.0, allow_subnormal=False))
_LEGS = st.dictionaries(
    st.sampled_from(("0", "1", "2")),
    st.tuples(st.sampled_from(("pump", "stokes")), st.floats(0.0, 200.0),
              st.builds(PhaseRamp, st.just("linear"), st.floats(-4.0, 4.0),
                        st.floats(-20.0, 20.0))),
    max_size=3,
).map(lambda legs: {level: _FAST.drive(level, *leg) for level, leg in legs.items()})


@st.composite
def _starts(draw, dim: int) -> list[np.ndarray]:
    """Basis states and superpositions, which may span blocks or leave some empty."""
    level = st.integers(0, dim - 1).map(lambda k: np.eye(dim, dtype=complex)[k])
    spread = st.lists(st.one_of(st.just(0j), _COMPLEX), min_size=dim, max_size=dim).map(
        lambda amps: np.array(amps)).filter(lambda amps: np.linalg.norm(amps) > 0.1)
    columns = draw(st.lists(st.one_of(level, spread), min_size=1, max_size=3))
    return [amps / np.linalg.norm(amps) for amps in columns]


@st.composite
def _block_cases(draw):
    legs, detuning = draw(_LEGS), draw(st.floats(-20.0, 20.0))
    if draw(st.booleans()):
        system = TwoAtomSystem(legs, detuning, draw(st.floats(-20.0, 20.0)))
    else:
        system = TripodSystem(legs, detuning)
    model = system.model()
    starts = [StateVector(amps, model.basis_labels) for amps in draw(_starts(model.dim))]
    t_start = draw(st.floats(-0.1, 1.3))
    grid = TimeGrid(t_start, t_start + 1e-3 * draw(st.integers(1, 1500)), 1e-3,
                    sample_stride=draw(st.integers(1, 40)))
    return model, starts, grid


def _paper_pair_case():
    """The gate's pair (legs 1 and 2: blocks of 1, 3, 3 and 9 levels) across the hold,
    from 11, from an equal superposition of the four qubit starts, and from 01."""
    model = TwoAtomSystem({"1": _FAST.drive("1", "pump", 150.0),
                           "2": _FAST.drive("2", "stokes", 150.0)}, 3.0, 0.5).model()
    spread = np.zeros(16, dtype=complex)
    spread[[TWO_ATOM_LABELS.index(lv) for lv in ("00", "01", "10", "11")]] = 0.5
    starts = [basis_state(TWO_ATOM_LABELS, "11"), StateVector(spread, TWO_ATOM_LABELS),
              basis_state(TWO_ATOM_LABELS, "01")]
    return model, starts, TimeGrid(0.3, 1.3, 1e-3, sample_stride=7)


def _split_tripod_case():
    """A tripod with leg 2 undriven, so level 2 is a block of its own."""
    model = TripodSystem({"0": _FAST.drive("0", "pump", 80.0),
                          "1": _FAST.drive("1", "stokes", 120.0)}, -2.0).model()
    spread = np.array([0.6, 0.0, 0.8j, 0.0])
    starts = [basis_state(TRIPOD_LABELS, "2"), StateVector(spread, TRIPOD_LABELS)]
    return model, starts, TimeGrid(-0.05, 1.25, 1e-3, sample_stride=5)


def _pair_at_rest_case():
    """The gate's pair started in 00 alone: its block has no drive term, so no step is driven."""
    model, _, grid = _paper_pair_case()
    return model, [basis_state(TWO_ATOM_LABELS, "00")], grid


def _two_field_blocks():
    """Two 2-level blocks, a and b, each driven by a field of its own: a's pulse
    on [0, 0.5], b's on [1, 1.5], over a grid that crosses two 1024-step chunk edges."""
    labels = ("a0", "a1", "b0", "b1")
    couplings = []
    for k, pulse in enumerate((PulseEnvelope(30.0, 0.25), PulseEnvelope(40.0, 0.25, t_on=1.0))):
        m_cos, m_sin = np.zeros((2, 4, 4), dtype=complex)
        m_cos[2 * k, 2 * k + 1] = m_cos[2 * k + 1, 2 * k] = 0.5
        m_sin[2 * k, 2 * k + 1], m_sin[2 * k + 1, 2 * k] = 0.5j, -0.5j
        fld = DriveField(labels[2 * k], (pulse,), PhaseRamp(kind="linear", slope=0.9))
        couplings.append((fld, m_cos, m_sin))
    model = HamiltonianModel(labels, np.diag([0.0, 1.5, -0.7, 2.2]), couplings)
    starts = [basis_state(labels, "a0"), StateVector(np.array([0.6, 0.0, 0.0, 0.8j]), labels)]
    return model, starts, TimeGrid(-0.1, 2.0, 1e-3, sample_stride=5)


def _one_field_on_two_kinds_of_block():
    """One field drives two 2-level blocks: a, whose static part is diagonal, and b,
    whose static part couples b0 and b1. a idles where the pulse is off; b is
    driven throughout although it reads the same drive columns."""
    labels = ("a0", "a1", "b0", "b1")
    m_cos, m_sin = np.zeros((2, 4, 4), dtype=complex)
    for lower in (0, 2):
        m_cos[lower, lower + 1] = m_cos[lower + 1, lower] = 0.5
        m_sin[lower, lower + 1], m_sin[lower + 1, lower] = 0.5j, -0.5j
    static = np.diag([0.0, 1.5, -0.7, 2.2]).astype(complex)
    static[2, 3] = static[3, 2] = 6.0
    fld = DriveField("a0", (PulseEnvelope(30.0, 0.25),), PhaseRamp(kind="linear", slope=0.9))
    model = HamiltonianModel(labels, static, [(fld, m_cos, m_sin)])
    starts = [basis_state(labels, "a0"), StateVector(np.array([0.6, 0.0, 0.8j, 0.0]), labels)]
    return model, starts, TimeGrid(-0.1, 1.2, 1e-3, sample_stride=5)


@PROPERTIES
@given(case=_block_cases())
@example(case=_paper_pair_case())
@example(case=_split_tripod_case())
@example(case=_pair_at_rest_case())
@example(case=_two_field_blocks())
@example(case=_one_field_on_two_kinds_of_block())
def test_blockwise_runs_match_the_whole_matrix_staged_rk4(case):
    """Each block at its own size equals RK4 on the full matrix; a batch equals its columns."""
    model, starts, grid = case
    levels = np.concatenate(_components(model))
    assert sorted(levels.tolist()) == list(range(model.dim))
    stack = model.sample(grid.t_start + 0.5 * grid.step * np.arange(2 * grid.n_steps + 1))
    for rows in _components(model):
        others = np.setdiff1d(np.arange(model.dim), rows)
        assert not stack[:, rows[:, None], others].any()

    trajs = propagate_many(model, starts, grid, check_quality=False)
    block = np.stack([st.amplitudes for st in starts], axis=1)
    states, max_pops, drift = _staged_rk4(model.sample, block, grid)
    for j, traj in enumerate(trajs):
        assert np.max(np.abs(traj.states - states[:, :, j])) < 1e-12
        assert np.max(np.abs(traj.max_populations - max_pops[:, j])) < 1e-12
        assert abs(traj.norm_drift - drift) < 1e-12
        (alone,) = propagate_many(model, [starts[j]], grid, check_quality=False)
        assert np.max(np.abs(alone.states - traj.states)) < 1e-14
        assert np.array_equal(alone.max_populations == 0.0, traj.max_populations == 0.0)


def _block_model(model: HamiltonianModel, rows: np.ndarray) -> HamiltonianModel:
    """The model of the levels ``rows`` alone, from ``_lumped`` on a distinct
    start column per level: no two levels share a cell, so its matrices are
    the model's ``rows`` rows and columns."""
    sub, cells = _lumped(model, rows, np.eye(rows.size))
    assert np.array_equal(cells, np.arange(rows.size))
    pick = np.ix_(rows, rows)
    assert np.array_equal(sub.static, model.static[pick])
    for (src, *mats), (own, *whole) in zip(sub.couplings, model.couplings, strict=True):
        assert src is own
        assert all(np.array_equal(m, w[pick]) for m, w in zip(mats, whole, strict=True))
    return sub


@PROPERTIES
@given(case=_block_cases())
@example(case=_paper_pair_case())
@example(case=_split_tripod_case())
@example(case=_one_field_on_two_kinds_of_block())
def test_lumped_cells_are_equitable(case):
    """Start columns are constant on the cells, and every matrix term G of the block
    satisfies G @ indicator == indicator @ B for its lumped matrix B."""
    model, starts, _ = case
    block = np.stack([st.amplitudes for st in starts], axis=1)
    for rows in _components(model):
        sub, columns = _block_model(model, rows), block[rows]
        lumped, cells = _lumped(sub, np.arange(sub.dim), columns)
        # one call on the whole model gives the same cells and the same matrices
        direct, direct_cells = _lumped(model, rows, columns)
        assert np.array_equal(direct_cells, cells)
        assert direct.basis_labels == lumped.basis_labels
        assert np.array_equal(direct.static, lumped.static)
        for (_, *mats), (_, *expected) in zip(direct.couplings, lumped.couplings, strict=True):
            assert all(np.array_equal(m, e) for m, e in zip(mats, expected, strict=True))
        count = cells.max() + 1
        firsts = np.unique(cells, return_index=True)[1]
        # cells are numbered by their first level
        assert np.array_equal(cells[np.sort(firsts)], np.arange(count))
        assert np.array_equal(columns, columns[firsts][cells])
        indicator = np.eye(count)[cells]
        assert lumped.dim == count
        assert all(a is b for a, b in zip(lumped.fields, sub.fields, strict=True))
        terms = [(sub.static, lumped.static)] + [
            (g, b) for (_, *gs), (_, *bs) in zip(sub.couplings, lumped.couplings)
            for g, b in zip(gs, bs)]
        for g, b in terms:
            assert np.array_equal(g @ indicator, indicator @ b)
        if count == sub.dim:
            assert lumped is sub


def test_the_pair_from_11_lumps_its_9_levels_to_6_cells():
    """Equal drives on both atoms and the shift on 22 keep exchange partners equal."""
    model, _, _ = _paper_pair_case()
    rows = _components(model)[-1]
    sub = _block_model(model, rows)
    start = (np.asarray(sub.basis_labels) == "11").astype(complex)[:, None]
    lumped, cells = _lumped(model, rows, start)
    labels = np.asarray(sub.basis_labels)
    assert [labels[cells == c].tolist() for c in range(cells.max() + 1)] == [
        ["11"], ["12", "21"], ["1e", "e1"], ["22"], ["2e", "e2"], ["ee"]]
    # the pump (leg 1) couples 11 to both levels of {1e, e1}, and each of them back to 11 alone
    pump = lumped.couplings[0][1]
    assert pump[0, 2] == 1.0 and pump[2, 0] == 0.5
    assert np.array_equal(lumped.static, np.diag(np.diag(lumped.static)))
    # a start on 12 alone breaks the exchange symmetry and keeps every level apart
    lopsided = (np.asarray(sub.basis_labels) == "12").astype(complex)[:, None]
    assert _lumped(sub, np.arange(sub.dim), lopsided)[0] is sub


def test_exchange_partners_of_the_pair_hold_bitwise_equal_amplitudes():
    model, starts, grid = _paper_pair_case()
    trajs = propagate_many(model, starts[:2], grid, check_quality=False)
    for traj in trajs:
        for a, b in (("12", "21"), ("1e", "e1"), ("2e", "e2")):
            col_a, col_b = traj.states[:, traj.level_index(a)], traj.states[:, traj.level_index(b)]
            assert np.array_equal(col_a, col_b)
            assert np.max(np.abs(col_a)) > 0.01


def test_the_gate_starts_01_and_10_share_one_run(monkeypatch):
    """The 01 and 10 blocks lump to equal models, so only the 01 block is ever sampled."""
    model, _, grid = _paper_pair_case()
    starts = [basis_state(TWO_ATOM_LABELS, lv) for lv in ("00", "01", "10", "11")]
    calls = _record_samples(monkeypatch)
    propagate_many(model, starts, grid, check_quality=False)
    sampled = {labels for labels, _ in calls}
    assert ("10", "20", "e0") not in sampled
    assert sampled == {("01", "02", "0e"), ("11", "12", "1e", "22", "2e", "ee")}


# The pair from 11 lumps to 6 cells and chunks of 910 steps; the split tripod's
# largest block has 3 levels and chunks of 1024. Grids of up to 2100 steps of
# 1e-3 cross those edges and start or end before, inside or after the hold.
_STRIDE_CASES = {"pair": _paper_pair_case()[:2], "tripod": _split_tripod_case()[:2]}


@PROPERTIES
@given(case=st.sampled_from(sorted(_STRIDE_CASES)), t_start=st.floats(-0.1, 1.3),
       steps=st.integers(1, 2100), stride=st.integers(1, 13))
@example(case="pair", t_start=-0.1, steps=1821, stride=7)
@example(case="tripod", t_start=0.3, steps=2049, stride=13)
def test_the_stride_only_picks_which_samples_are_kept(case, t_start, steps, stride):
    """A stride-s run is the stride-1 run at its sample indices, bit for bit, with
    the same maximum populations and norm drift over every step."""
    model, starts = _STRIDE_CASES[case]
    grid = TimeGrid(t_start, t_start + 1e-3 * steps, 1e-3, sample_stride=stride)
    every = TimeGrid(grid.t_start, grid.t_end, grid.base_step)
    idx = grid.sample_indices()
    strided = propagate_many(model, starts, grid, check_quality=False)
    dense = propagate_many(model, starts, every, check_quality=False)
    for kept, full in zip(strided, dense, strict=True):
        assert np.array_equal(kept.times, full.times[idx])
        assert np.array_equal(kept.states, full.states[idx])
        assert np.array_equal(kept.populations, full.populations[idx])
        assert np.array_equal(np.isnan(kept.phases), np.isnan(full.phases[idx]))
        # bit for bit, unless a level turned by more than pi between kept samples
        gap = (kept.phases - full.phases[idx])[~np.isnan(kept.phases)]
        turns = np.round(gap / (2.0 * math.pi))
        assert np.all((gap == 0.0)
                      | ((turns != 0.0) & (np.abs(gap - 2.0 * math.pi * turns) <= 1e-12)))
        assert np.array_equal(kept.max_populations, full.max_populations)
        assert kept.norm_drift == full.norm_drift


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(dim=st.integers(1, _SMALL_DIM), steps=st.integers(1, 700),
       seed=st.integers(0, 2**32 - 1), scale=st.floats(1e-3, 1.0))
def test_elementwise_transfer_matches_the_matmul_form(dim, steps, seed, scale):
    """Up to the small-dim threshold the products are elementwise; the matmul RK4 agrees.

    Each A = -i h H is drawn within the ladder's stability clamp, infinity
    norm at most 0.8, so M stays of order one.
    """
    rng = np.random.default_rng(seed)
    shape = (2 * steps + 1, dim, dim)
    stack = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    # _rk4_transfer scales its stack of H by -i h in place
    h = 0.25
    stack *= 0.8 * scale / (h * np.max(np.sum(np.abs(stack), axis=2)))
    a0, a1, a2 = (a * (-1j * h) for a in (stack[0:-1:2], stack[1::2], stack[2::2]))
    k2 = a1 + 0.5 * (a1 @ a0)
    k3 = a1 + 0.5 * (a1 @ k2)
    expected = np.eye(dim) + (a0 + 2.0 * (k2 + k3) + a2 + a2 @ k3) / 6.0
    assert np.max(np.abs(_rk4_transfer(stack.copy(), h) - expected)) <= 1e-15


def _record_samples(monkeypatch) -> list[tuple[tuple[str, ...], np.ndarray]]:
    """Make HamiltonianModel.sample record the basis labels and times of every call."""
    calls = []
    sample = HamiltonianModel.sample

    def recording(self, times, coeffs=None):
        calls.append((self.basis_labels, np.array(times, dtype=float)))
        return sample(self, times, coeffs)

    monkeypatch.setattr(HamiltonianModel, "sample", recording)
    return calls


class _CoefficientCountingModel(HamiltonianModel):
    """The same Hamiltonian, recording every batch of times its drives are evaluated at.

    The propagator samples each block through its own block model, so the
    drive coefficients, which it evaluates once on this model and shares
    with every block, are where its work on each node shows.
    """

    def __init__(self, model: HamiltonianModel):
        vars(self).update(vars(model))
        self.evaluated: list[np.ndarray] = []

    def coefficients(self, times):
        self.evaluated.append(np.array(times, dtype=float))
        return super().coefficients(times)


def _half_steps(times: list[np.ndarray], grid: TimeGrid) -> np.ndarray:
    return np.rint((np.concatenate(times) - grid.t_start) / (0.5 * grid.step)).astype(int)


def _driven_nodes(idle: np.ndarray) -> np.ndarray:
    """Node counts (half steps) over the grid: 1 on a node of a driven step, else 0."""
    touched = np.zeros(2 * idle.size + 1, dtype=int)
    driven = np.flatnonzero(~idle)
    touched[(2 * driven[:, None] + np.arange(3)).ravel()] = 1
    return touched


def _gapped_pair():
    sched = build_schedule(1.0, 0.8, 20.0)
    model = TwoAtomSystem(drives={
        "1": DriveField("1", sched.pump_envelopes(60.0)),
        "2": DriveField("2", sched.stokes_envelopes(60.0), PhaseRamp(kind="linear", slope=0.7)),
    }, detuning=0.3, interaction_shift=0.5).model()
    grid = TimeGrid(sched.t_start, sched.support_end, 2e-3, sample_stride=9)
    return model, grid


def test_idle_steps_are_not_sampled(monkeypatch):
    """No block samples an idle node; the drive coefficients are evaluated at every node."""
    model, grid = _gapped_pair()
    idle = _idle_mask(model, grid)
    assert idle.mean() > 0.7
    starts = [basis_state(TWO_ATOM_LABELS, lv) for lv in ("01", "11")]
    plain = propagate_many(model, starts, grid, check_quality=False)

    calls = _record_samples(monkeypatch)
    masks = []

    def counting_idle(at_nodes):
        masks.append(len(at_nodes))
        return _rk4_whole_steps(at_nodes)

    monkeypatch.setattr("stirapgates.propagator._rk4_whole_steps", counting_idle)
    counting = _CoefficientCountingModel(model)
    counted = propagate_many(counting, starts, grid, check_quality=False)
    for a, b in zip(counted, plain):
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.max_populations, b.max_populations)
        assert a.norm_drift == b.norm_drift

    # the sampled nodes are exactly the nodes of the driven steps
    driven = set(np.flatnonzero(_driven_nodes(idle)).tolist())
    assert set(_half_steps([times for _, times in calls], grid).tolist()) == driven
    assert set(_half_steps(counting.evaluated, grid).tolist()) == set(range(2 * grid.n_steps + 1))
    # 01 and 11 start a 3-level block and a 9-level block lumped to 6 cells;
    # each 910-step chunk computes one idle mask, which serves both
    chunk = _Plan(model, np.stack([st.amplitudes for st in starts], axis=1)).chunk_steps
    assert len(masks) == -(-grid.n_steps // chunk)
    assert sum((nodes - 1) // 2 for nodes in masks) == grid.n_steps


def test_every_diagonal_block_samples_where_any_field_is_on(monkeypatch):
    """One idle mask serves every block: a block is driven wherever some field is
    on, also where only the other block's field is."""
    model, starts, grid = _two_field_blocks()
    plain = propagate_many(model, starts, grid, check_quality=False)
    calls = _record_samples(monkeypatch)
    counted = propagate_many(model, starts, grid, check_quality=False)
    for a, b in zip(counted, plain):
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.max_populations, b.max_populations)
        assert a.norm_drift == b.norm_drift
    nodes = grid.t_start + 0.5 * grid.step * np.arange(2 * grid.n_steps + 1)
    free = np.all([fld.amplitude(nodes) == 0.0 for fld in model.fields], axis=0)
    driven = set(np.flatnonzero(_driven_nodes(free[0:-1:2] & free[1::2] & free[2::2])).tolist())
    assert len(_components(model)) == 2
    for rows in _components(model):
        labels = tuple(model.basis_labels[k] for k in rows)
        sampled = [times for block, times in calls if block == labels]
        assert set(_half_steps(sampled, grid).tolist()) == driven


def test_a_level_that_no_term_touches_is_never_stepped(monkeypatch):
    """The gate's pair from its four qubit starts: 00 has zero energy and no
    coupling, so a ladder leaves it out, and its column holds its start."""
    model, _, grid = _paper_pair_case()
    starts = [basis_state(TWO_ATOM_LABELS, lv) for lv in ("00", "01", "10", "11")]
    block = np.stack([st.amplitudes for st in starts], axis=1)
    plan = _Plan(model, block)
    assert [shared.model.dim for shared in plan.runs] == [3, 6]
    assert plan.held.tolist() == [lv == "00" for lv in TWO_ATOM_LABELS]

    sizes = []

    def recording(name, size):
        original = getattr(propagator, name)

        def wrapped(*args, **kwargs):
            sizes.append((name, size(*args)))
            return original(*args, **kwargs)

        monkeypatch.setattr(propagator, name, wrapped)

    recording("_rk4_transfer", lambda stack, h: stack.shape[1])
    recording("_scan", lambda mats, out: mats.shape[1])
    recording("_rk4_idle_powers", lambda diagonal, h, steps: diagonal.size)
    calls = _record_samples(monkeypatch)
    trajs, report = converge_many(model, starts, grid, tolerance=1e-6)
    assert len(report.steps) > 1
    sizes += [("sample", len(labels)) for labels, _ in calls]
    assert {name for name, _ in sizes} == {"_rk4_transfer", "_scan", "_rk4_idle_powers", "sample"}
    assert all(size > 1 for _, size in sizes)

    rest = trajs[0]
    assert np.array_equal(rest.states, np.broadcast_to(block[:, 0], rest.states.shape))
    assert np.array_equal(rest.max_populations, np.abs(block[:, 0]) ** 2)
    assert np.max(rest.max_populations) == rest.max_population("00") == 1.0


def test_drive_coefficients_are_evaluated_once_per_node(monkeypatch):
    """One coefficients pass per chunk, at every node, serves every block.

    A chunk evaluates all of its nodes, so each interior chunk edge is
    evaluated once by each of the two chunks it bounds.
    """
    model, grid = _gapped_pair()
    idle = _idle_mask(model, grid)
    assert idle.any() and not idle.all()
    # the largest block of the driven starts has 9 levels in 6 cells, so
    # chunks hold 910 steps and the grid crosses many chunk edges
    starts = [basis_state(TWO_ATOM_LABELS, lv) for lv in ("01", "11", "22")]
    chunk = _Plan(model, np.stack([st.amplitudes for st in starts], axis=1)).chunk_steps
    assert chunk == 910 and grid.n_steps > 10 * chunk

    counting = _CoefficientCountingModel(model)
    counted = propagate_many(counting, starts, grid, check_quality=False)
    expected = np.ones(2 * grid.n_steps + 1, dtype=int)
    expected[2 * np.arange(chunk, grid.n_steps, chunk)] += 1
    counts = np.bincount(_half_steps(counting.evaluated, grid), minlength=expected.size)
    assert np.array_equal(counts, expected)

    # the shared coefficients give the same bits as every block evaluating its own
    sample = HamiltonianModel.sample
    monkeypatch.setattr(HamiltonianModel, "sample",
                        lambda self, times, coeffs=None: sample(self, times))
    reevaluated = propagate_many(model, starts, grid, check_quality=False)
    for a, b in zip(counted, reevaluated):
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.max_populations, b.max_populations)
        assert a.norm_drift == b.norm_drift


def _record_chunk_rows(monkeypatch) -> list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Make the chunk loop record, per chunk, its quiet steps, sampled rows, and
    the rows it reads and computes."""
    chunks = []

    def recording(quiet, kept):
        read, computed = _chunk_rows(quiet, kept)
        chunks.append((quiet.copy(), np.array(kept), read, computed))
        return read, computed

    monkeypatch.setattr("stirapgates.propagator._chunk_rows", recording)
    return chunks


def test_a_hold_computes_only_stretch_ends_chunk_ends_and_samples(monkeypatch):
    """Quiet steps are the steps idle for every run. Each chunk reads every row
    but the inside of a quiet stretch, and computes the rows it reads and the
    sampled ones; a chunk inside the hold reads only its end. No phase ramp is
    evaluated where its field is off, and the states, maxima and drift are
    those of RK4 stepped one step at a time."""
    model, grid = _gapped_pair()
    idle = _idle_mask(model, grid)
    starts = [basis_state(TWO_ATOM_LABELS, lv) for lv in ("01", "11")]
    chunks = _record_chunk_rows(monkeypatch)
    evaluated = []
    value = PhaseRamp.value

    def recording_value(self, t):
        evaluated.append((id(self), np.array(t, dtype=float)))
        return value(self, t)

    monkeypatch.setattr(PhaseRamp, "value", recording_value)
    trajs = propagate_many(model, starts, grid, check_quality=False)

    # both runs read the same two fields, and at this step every idle factor is calm
    assert np.array_equal(np.concatenate([quiet for quiet, *_ in chunks]), idle)
    samples = set(grid.sample_indices().tolist())
    done = 0
    for quiet, kept, read, computed in chunks:
        steps = quiet.size
        ends = [r for r in range(1, steps + 1)
                if not quiet[r - 1] or r == steps or not quiet[r]]
        assert read.tolist() == ends
        rows = set(ends) | {r for r in range(1, steps + 1) if done + r in samples}
        assert np.flatnonzero(computed).tolist() == sorted(rows)
        assert set(kept.tolist()) <= rows
        done += steps
    assert done == grid.n_steps
    inside = [(read, computed) for quiet, _, read, computed in chunks if quiet.all()]
    assert len(inside) >= 5
    for read, computed in inside:
        end = computed.size - 1
        assert read.tolist() == [end]
        assert computed.sum() <= 1 + -(-end // grid.sample_stride)
    assert sum(int(computed.sum()) for *_, computed in chunks) < 0.4 * grid.n_steps

    for fld in model.fields:
        times = [t for key, t in evaluated if key == id(fld.phase)]
        assert times, fld.level
        assert np.all(fld.amplitude(np.concatenate(times)) != 0.0), fld.level
    assert sum(t.size for _, t in evaluated) < 2 * grid.n_steps

    block = np.stack([st.amplitudes for st in starts], axis=1)
    states, max_pops, drift = _staged_rk4(model.sample, block, grid)
    for j, traj in enumerate(trajs):
        assert np.max(np.abs(traj.states - states[:, :, j])) < 1e-12
        assert np.max(np.abs(traj.max_populations - max_pops[:, j])) < 1e-12
        assert abs(traj.norm_drift - drift) < 1e-12


def test_a_growing_idle_factor_reads_every_row(monkeypatch):
    """At h |lambda| > 2 sqrt 2 the idle factor of a level grows, so no step is
    quiet and every row is read. Here a drive-free run holds a decaying and a
    growing level, and the norm dips inside the run further from one than at
    either end."""
    h = 0.1
    # h lambda = 2, 0 and 3: |f|^2 = 0.56, 1 and 2.27
    model = HamiltonianModel(LAMBDA_LABELS, np.diag([20.0, 0.0, 30.0]).astype(complex), [])
    start = StateVector(np.sqrt([0.99, 0.0, 0.01]).astype(complex), LAMBDA_LABELS)
    grid = TimeGrid(0.0, 4 * h, h)
    chunks = _record_chunk_rows(monkeypatch)
    (traj,) = propagate_many(model, [start], grid, check_quality=False)
    for quiet, _, read, computed in chunks:
        assert not quiet.any()
        assert read.tolist() == list(range(1, quiet.size + 1))
        assert computed[1:].all()

    states, max_pops, drift = _staged_rk4(model.sample, start.amplitudes[:, None], grid)
    norms = np.sum(np.abs(states[:, :, 0]) ** 2, axis=1)
    assert max(abs(norms[0] - 1.0), abs(norms[-1] - 1.0)) < drift - 0.05
    assert abs(traj.norm_drift - drift) <= 1e-12 * drift
    assert np.allclose(traj.max_populations, max_pops[:, 0], rtol=1e-12, atol=0.0)


def test_stability_clamp_sees_a_narrow_pulse_on_a_long_grid():
    """A pulse far narrower than the uniform probe spacing still clamps the first rung.

    The pulse sits between two of the 257 uniform probes, and no node of the
    unclamped first rung falls inside it.
    """
    model, pulse, area = _narrow_pulse()
    _assert_narrow_pulse_clamped(model, pulse, area)


def _narrow_pulse():
    """A tripod with one resonant pulse of area 20 and width 0.01 at t = 30.1."""
    area = 20.0
    pulse = PulseEnvelope(area / 0.01, 0.01, t_on=30.1)
    return TripodSystem(drives={"0": DriveField("0", (pulse,))}).model(), pulse, area


def _assert_narrow_pulse_clamped(model, pulse: PulseEnvelope, area: float) -> None:
    grid = TimeGrid(0.0, 60.0, 0.05, sample_stride=1000)
    (traj,), report = converge_many(model, [basis_state(TRIPOD_LABELS, "0")], grid, tolerance=1e-5)
    assert report.clamped
    assert report.initial_step <= 0.8 / (pulse.omega_max / 2.0)
    # resonant pulse of area A: population cos^2(A/2) stays behind
    assert traj.populations[-1, 0] == pytest.approx(math.cos(area / 2.0) ** 2, abs=1e-5)


# ---------------------------------------------------------------------------
# converge_many


def test_converge_trivial_problem_accepts_immediately():
    grid = TimeGrid(0.0, 1.0, 0.1, sample_stride=1)
    (traj,), report = converge_many(
        HamiltonianModel(LABELS2, np.zeros((2, 2), dtype=complex), []), [basis_state(LABELS2, "0")],
        grid
    )
    # acceptance always needs one comparison pair, so one halving minimum
    assert report.halvings == 1
    assert report.distances[-1] == 0.0
    assert report.accepted_step == pytest.approx(traj.step)
    assert not report.clamped


def test_converge_distances_shrink_monotonically():
    ham = HamiltonianModel(LABELS2, 2.0 * SIGMA_X + np.diag([0.0, 0.5]).astype(complex), [])
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


def test_converge_raises_when_the_cap_is_exhausted(monkeypatch):
    monkeypatch.setattr("stirapgates.propagator._MAX_HALVINGS", 2)
    ham = HamiltonianModel(LABELS2, 5.0 * SIGMA_X, [])
    grid = TimeGrid(0.0, 2.0, 0.5, sample_stride=1)
    with pytest.raises(ConvergenceError):
        converge_many(ham, [basis_state(LABELS2, "0")], grid, tolerance=1e-15)
    assert issubclass(ConvergenceError, IntegrationQualityError)


def test_converge_stops_at_the_first_non_finite_distance(monkeypatch):
    """A NaN never converges, so the ladder stops after its first two rungs."""
    runs = []

    def counting(plan, grid):
        runs.append(grid.step)
        return _run_fixed_step(plan, grid)

    monkeypatch.setattr("stirapgates.propagator._run_fixed_step", counting)
    model = HamiltonianModel(LABELS2, SIGMA_X + np.diag([0.0, math.nan]), [])
    grid = TimeGrid(0.0, 1.0, 0.1, sample_stride=1)
    with np.errstate(invalid="ignore"), pytest.raises(IntegrationQualityError) as exc:
        converge_many(model, [basis_state(LABELS2, "0")], grid)
    assert exc.type is IntegrationQualityError
    assert str(exc.value) == f"terminal distance nan at step {runs[-1]:.3e} is not finite"
    assert len(runs) == 2


@pytest.mark.parametrize("steps", [_MAX_START_STEPS, _MAX_START_STEPS + 1])
def test_a_requested_grid_over_the_start_cap_is_refused_before_any_step(monkeypatch, steps):
    """A ladder starts at most 2^20 steps whatever set the step: one more is
    refused by name before a fixed-step run begins, and the cap itself runs."""
    def no_run(plan, grid):
        raise AssertionError("a fixed-step run started")

    monkeypatch.setattr("stirapgates.propagator._run_fixed_step", no_run)
    grid = TimeGrid(0.0, 1.0, 1.0 / steps)
    assert grid.n_steps == steps
    model = HamiltonianModel(LABELS2, SIGMA_X, [])
    if steps > _MAX_START_STEPS:
        with pytest.raises(GridTooFineError,
                           match=r"base_step 9\.537e-07 asks for 1\.049e\+06 steps"):
            converge_many(model, [basis_state(LABELS2, "0")], grid)
        assert issubclass(GridTooFineError, ValueError)
    else:
        with pytest.raises(AssertionError, match="fixed-step run started"):
            converge_many(model, [basis_state(LABELS2, "0")], grid)


def test_the_plan_is_built_once_per_call_and_per_ladder(monkeypatch):
    """Every rung of a ladder runs on one plan, however many rungs it takes."""
    built = []

    class CountingPlan(_Plan):
        def __init__(self, model, psi0):
            built.append(model)
            super().__init__(model, psi0)

    monkeypatch.setattr("stirapgates.propagator._Plan", CountingPlan)
    ham = HamiltonianModel(LABELS2, 2.0 * SIGMA_X + np.diag([0.0, 0.5]).astype(complex), [])
    grid = TimeGrid(0.0, 3.0, 0.2, sample_stride=10)
    starts = [basis_state(LABELS2, "0"), basis_state(LABELS2, "1")]
    rungs = set()
    for tolerance in (1e-3, 1e-7, 1e-11):
        built.clear()
        _, report = converge_many(ham, starts, grid, tolerance=tolerance)
        rungs.add(len(report.steps))
        assert len(built) == 1
    assert len(rungs) == 3
    built.clear()
    propagate_many(ham, starts, grid, check_quality=False)
    assert len(built) == 1


def test_converge_many_shares_one_ladder():
    ham = HamiltonianModel(LABELS2, 1.1 * SIGMA_X, [])
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
    ham = HamiltonianModel(LABELS2, 100.0 * SIGMA_X, [])
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


_REVERSAL_TOLERANCE = 1e-7


@st.composite
def _reversible_runs(draw):
    """A lambda or tripod system on a drawn schedule and time origin, and a start state."""
    tau = draw(st.floats(0.5, 1.5))
    pulse_delay = 2.0 * tau * draw(st.floats(0.2, 0.8))
    sched = build_schedule(tau, pulse_delay, 2.0 * tau + pulse_delay + draw(st.floats(0.1, 2.0)),
                           t_start=draw(st.floats(-100.0, 100.0)))
    peak = st.floats(10.0, 60.0)
    ramp = st.builds(PhaseRamp, st.just("linear"), st.floats(-3.0, 3.0), st.floats(-2.0, 2.0))
    detuning = draw(st.floats(-5.0, 5.0))
    if draw(st.booleans()):
        pump, stokes = sequence_fields(sched, draw(peak), draw(peak), "q", "s",
                                       stokes_phase=draw(ramp))
        model = LambdaSystem(pump=pump, stokes=stokes, detuning=detuning).model()
        return sched, model, basis_state(LAMBDA_LABELS, "q")
    model = TripodSystem(drives={
        "0": sched.drive("0", "pump", draw(peak), draw(ramp)),
        "1": sched.drive("1", "pump", draw(peak)),
        "2": sched.drive("2", "stokes", draw(peak), draw(ramp)),
    }, detuning=detuning).model()
    amps = np.array([draw(_COMPLEX), draw(_COMPLEX), 0.0, 0.0]) + np.array([1.0, 0.0, 0.0, 0.0])
    return sched, model, StateVector(amps / np.linalg.norm(amps), TRIPOD_LABELS)


@settings(derandomize=True, database=None, max_examples=20, deadline=None)
@given(case=_reversible_runs())
def test_a_time_reversed_run_returns_the_start_state(case):
    """The reversed model run from the forward run's end state comes back to the
    start state, phase included, within the ladder tolerance."""
    sched, model, start = case
    grid = TimeGrid(sched.t_start, sched.support_end, sched.default_step, sample_stride=10**6)
    (forward,), _ = converge_many(model, [start], grid, tolerance=_REVERSAL_TOLERANCE)
    backward = time_reversed(model, sched.t_start, sched.support_end)
    (back,), _ = converge_many(backward, [forward.final_state], grid,
                               tolerance=_REVERSAL_TOLERANCE)
    error = np.linalg.norm(back.final_state.amplitudes - start.amplitudes)
    assert error <= _REVERSAL_TOLERANCE


def test_time_reversed_narrow_pulse_keeps_the_clamp():
    """A reversed model is a model like any other: the ladder sees its mirrored pulse peak."""
    model, pulse, area = _narrow_pulse()
    _assert_narrow_pulse_clamped(time_reversed(model, 0.0, 60.0), pulse, area)


# ---------------------------------------------------------------------------
# diagnostics


def adiabaticity_report(trajectory, subspace) -> float:
    """Largest sampled population outside a designated adiabatic subspace.

    ``subspace`` maps a time to a (dim, k) matrix with orthonormal columns
    spanning the subspace the evolution is meant to stay inside.
    """
    worst = 0.0
    for t, amps in zip(trajectory.times, trajectory.states):
        basis = np.asarray(subspace(float(t)), dtype=complex)
        inside = float(np.sum(np.abs(basis.conj().T @ amps) ** 2))
        total = float(np.sum(np.abs(amps) ** 2))
        worst = max(worst, total - inside)
    return worst


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
