"""Level structures: three-level chain, four-level chain, and the atom pair."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stirapgates import (
    LAMBDA_LABELS,
    TRIPOD_LABELS,
    TWO_ATOM_LABELS,
    DriveField,
    HamiltonianModel,
    LambdaSystem,
    PhaseRamp,
    PulseEnvelope,
    TripodSystem,
    TwoAtomSystem,
    build_schedule,
    dark_state,
    eig_hermitian,
    lambda_hamiltonian,
    lambda_spectrum,
    sequence_fields,
    time_reversed,
    transform_interaction,
    tripod_dressed_states,
    tripod_hamiltonian,
    two_atom_dark_projector,
    two_atom_dark_states,
    two_atom_hamiltonian,
)

ROOT2 = math.sqrt(2.0)

# Drawn system inputs, checked against the hand-built matrices. All draws
# use one schedule (pulses on [0, 2.5] and [4, 6.5], hold between) and take
# one time from each stretch: before, first sequence, hold, second, after.
SCHED = build_schedule(1.0, 0.5, 4.0)
PROPERTIES = settings(derandomize=True, database=None, max_examples=60, deadline=None)
TIMES = st.tuples(*(st.floats(lo, hi) for lo, hi in
                    ((-1.0, 0.0), (0.0, 2.5), (2.5, 4.0), (4.0, 6.5), (6.5, 8.0))))
PEAKS = st.floats(0.0, 10.0)
ENERGIES = st.floats(-5.0, 5.0)
RAMPS = st.one_of(
    st.builds(PhaseRamp, st.just("constant"), st.floats(-4.0, 4.0)),
    st.builds(PhaseRamp, st.just("linear"), st.floats(-4.0, 4.0), st.floats(-2.0, 2.0)),
)
# any subset of the tripod legs, each carrying a pump or stokes pair
LEGS = st.dictionaries(
    st.sampled_from(("0", "1", "2")),
    st.tuples(st.sampled_from(("pump", "stokes")), PEAKS, RAMPS),
    max_size=3,
).map(lambda legs: {level: SCHED.drive(level, *leg) for level, leg in legs.items()})


def _omegas(drives: dict[str, DriveField], t: float) -> list[complex]:
    return [drives[lv].complex_value(t) if lv in drives else 0.0 for lv in ("0", "1", "2")]


# ---------------------------------------------------------------------------
# Three-level chain


def test_lambda_matrix_entries():
    op = lambda_hamiltonian(2.0 + 0.0j, 1.0j, detuning=0.7)
    mat = op.matrix
    assert mat[0, 1] == pytest.approx(1.0)          # pump coupling, halved
    assert mat[1, 0] == pytest.approx(1.0)
    assert mat[2, 1] == pytest.approx(0.5j)         # stokes coupling, halved
    assert mat[1, 2] == pytest.approx(-0.5j)
    assert mat[1, 1] == pytest.approx(0.7)
    assert mat[0, 0] == mat[2, 2] == 0.0
    assert op.basis_labels == LAMBDA_LABELS


def test_lambda_spectrum_matches_eigensolver(rng):
    for _ in range(10):
        op_p = complex(*rng.normal(size=2))
        op_s = complex(*rng.normal(size=2))
        delta = rng.normal()
        closed = lambda_spectrum(op_p, op_s, delta)
        numeric = eig_hermitian(lambda_hamiltonian(op_p, op_s, delta)).eigenvalues
        assert np.allclose(closed, numeric, atol=1e-12)


def test_lambda_equal_drives_split_symmetrically():
    omega = 1.0
    lo, zero, hi = lambda_spectrum(omega, omega, 0.0)
    assert zero == 0.0
    assert hi == pytest.approx(ROOT2 * omega / 2.0)
    assert lo == pytest.approx(-ROOT2 * omega / 2.0)
    # doubling the stored values recovers the splitting of the matrix
    # written without its one-half prefactor
    assert 2.0 * hi == pytest.approx(math.sqrt(omega**2 + omega**2))


def test_lambda_pump_only_dark_state_is_the_stokes_level():
    dec = eig_hermitian(lambda_hamiltonian(1.0, 0.0, 0.0))
    zero_index = int(np.argmin(np.abs(dec.eigenvalues)))
    vec = dec.eigenvectors[:, zero_index]
    assert abs(dec.eigenvalues[zero_index]) < 1e-14
    assert abs(vec[LAMBDA_LABELS.index("s")]) == pytest.approx(1.0, abs=1e-12)


def test_dark_state_quarter_angle_example():
    state = dark_state(math.pi / 4.0, math.pi / 2.0)
    expected = np.array([1.0, 0.0, -1.0j], dtype=complex) / ROOT2
    assert np.allclose(state.amplitudes, expected, atol=1e-15)
    assert np.allclose(dark_state(0.0, 0.3).amplitudes, [1.0, 0.0, 0.0], atol=1e-15)


def test_dark_state_annihilated_on_a_dense_grid():
    """H(t) applied to the instantaneous transfer state stays at zero."""
    sched = build_schedule(1.0, 0.8, 4.0)
    ramp = PhaseRamp(kind="linear", offset=0.4, slope=-0.6)
    pump, stokes = sequence_fields(sched, 2.0, 3.0, "q", "s", stokes_phase=ramp)
    system = LambdaSystem(pump=pump, stokes=stokes, detuning=0.5)
    model = system.model()
    for t in np.linspace(sched.t_start, sched.support_end, 400):
        mat = model.matrix(float(t))
        scale = np.linalg.norm(mat, 2)
        if scale == 0.0:
            continue
        omega_p = pump.complex_value(float(t))
        omega_s = stokes.complex_value(float(t))
        theta = math.atan2(abs(omega_p), abs(omega_s))
        phi = np.angle(omega_s) - np.angle(omega_p)
        residual = mat @ dark_state(theta, phi).amplitudes
        assert np.linalg.norm(residual) <= 1e-10 * scale


@PROPERTIES
@given(peaks=st.tuples(PEAKS, PEAKS), ramps=st.tuples(RAMPS, RAMPS), detuning=ENERGIES,
       times=TIMES)
@example(peaks=(2.0, 5.0), ramps=(PhaseRamp(), PhaseRamp()), detuning=-0.3,
         times=(0.4, 1.2, 3.3, 6.1))
def test_lambda_system_model_matches_hand_built_matrix(peaks, ramps, detuning, times):
    pump = SCHED.drive("q", "pump", peaks[0], ramps[0])
    stokes = SCHED.drive("s", "stokes", peaks[1], ramps[1])
    system = LambdaSystem(pump=pump, stokes=stokes, detuning=detuning)
    model = system.model()
    for t in times:
        expected = lambda_hamiltonian(
            pump.complex_value(t), stokes.complex_value(t), detuning
        ).matrix
        assert np.allclose(model.matrix(t), expected, atol=1e-14)
        assert np.allclose(system.model().matrix(t), expected, atol=1e-14)


def test_model_sample_stacks_pointwise_matrices():
    sched = build_schedule(1.0, 0.5, 4.0)
    pump, stokes = sequence_fields(sched, 1.0, 1.0, "q", "s")
    model = LambdaSystem(pump=pump, stokes=stokes).model()
    times = np.linspace(0.0, 6.0, 13)
    block = model.sample(times)
    assert block.shape == (13, 3, 3)
    for k, t in enumerate(times):
        assert np.allclose(block[k], model.matrix(float(t)), atol=1e-14)


def _reversal_example():
    sched = build_schedule(1.0, 0.5, 4.0, t_start=0.3)
    ramp = PhaseRamp(kind="linear", offset=0.4, slope=1.3)
    pump, stokes = sequence_fields(sched, 2.0, 5.0, "q", "s", stokes_phase=ramp)
    return LambdaSystem(pump=pump, stokes=stokes, detuning=-0.3)


@PROPERTIES
@given(system=st.builds(TripodSystem, LEGS, ENERGIES), span=st.tuples(
    st.floats(-1.0, 2.0), st.floats(1.0, 10.0)).map(lambda s: (s[0], s[0] + s[1])))
@example(system=_reversal_example(), span=(-0.5, 9.0))
def test_time_reversed_model_is_minus_the_mirrored_hamiltonian(system, span):
    model = system.model()
    t_start, t_end = span
    mirrored = t_start + t_end - np.linspace(t_start, t_end, 301)
    times = t_start + t_end - mirrored
    reversed_model = time_reversed(model, t_start, t_end)
    assert isinstance(reversed_model, HamiltonianModel)
    assert np.allclose(reversed_model.sample(times), -model.sample(mirrored), rtol=0.0, atol=1e-12)
    kinds = [fld.phase.kind for fld in reversed_model.fields]
    assert kinds == [fld.phase.kind for fld in model.fields]
    if isinstance(system, LambdaSystem):
        assert kinds == ["constant", "linear"]
    # the hold and the stretches outside the sequences stay drive-free. Both
    # support edges read exactly 0, but the mirrored node and the mirrored
    # edge are each rounded, so a node within roundoff of an edge may land a
    # last bit inside on one side; such nodes are left out
    edges = [t for fld in model.fields for env in fld.envelopes for t in (env.t_on, env.t_off)]
    off_edge = np.min(np.abs(mirrored[:, None] - np.array([np.inf, *edges])), axis=1) > 1e-12
    reversed_off = ~np.any(reversed_model.coefficients(times)[:, 1:] != 0.0, axis=1)
    off = ~np.any(model.coefficients(mirrored)[:, 1:] != 0.0, axis=1)
    assert np.array_equal(reversed_off[off_edge], off[off_edge])
    assert np.array_equal(reversed_model.static, -model.static)
    with pytest.raises(TypeError):
        time_reversed(lambda t: np.eye(3), t_start, t_end)


class _Ramp:
    """A source that is not a drive field: one weight, t itself."""

    def weights(self, times):
        return (times,)


def test_time_reversal_refuses_a_source_that_is_not_a_drive_field():
    sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]])
    model = HamiltonianModel(("a", "b"), np.zeros((2, 2)), [(_Ramp(), sigma_x)])
    assert model.fields == ()
    assert np.array_equal(model.sample(np.array([2.0]))[0], 2.0 * sigma_x)
    with pytest.raises(TypeError, match="_Ramp"):
        time_reversed(model, 0.0, 1.0)


# ---------------------------------------------------------------------------
# Four-level chain


def test_tripod_matrix_entries():
    op = tripod_hamiltonian(1.0, 2.0j, -3.0, detuning=1.1)
    mat = op.matrix
    assert mat[0, 3] == pytest.approx(0.5)
    assert mat[1, 3] == pytest.approx(1.0j)
    assert mat[3, 1] == pytest.approx(-1.0j)
    assert mat[2, 3] == pytest.approx(-1.5)
    assert mat[3, 3] == pytest.approx(1.1)
    assert op.basis_labels == TRIPOD_LABELS


def test_tripod_gains_a_second_zero_mode():
    # with the third drive off, both the dark combination and the bare
    # third level sit at zero energy
    dec = eig_hermitian(tripod_hamiltonian(1.0, 1.0, 0.0, 0.0))
    zeros = np.sum(np.abs(dec.eigenvalues) < 1e-12)
    assert zeros == 2


def test_tripod_dressed_states_at_the_gate_operating_point():
    theta = math.pi / 8.0
    phi = math.pi
    omega_1 = 2.0
    omega_0 = math.tan(theta) * np.exp(-1j * phi) * omega_1
    basis = tripod_dressed_states(theta, phi, 0.0, omega_0, omega_1)

    # the dark state keeps the drives' amplitude ratio with the sign flip
    c, s = math.cos(theta), math.sin(theta)
    assert np.allclose(basis.dark.amplitudes, [c, s, 0.0, 0.0], atol=1e-12)
    assert np.allclose(basis.bright.amplitudes, [s, -c, 0.0, 0.0], atol=1e-12)

    # split pair: symmetric about zero when undetuned, doubling to the
    # unhalved quoted splitting
    w = math.hypot(abs(omega_0), abs(omega_1))
    assert basis.eigenvalue_plus == pytest.approx(w / 2.0, abs=1e-12)
    assert basis.eigenvalue_minus == pytest.approx(-w / 2.0, abs=1e-12)
    assert 2.0 * basis.eigenvalue_plus == pytest.approx(w)
    assert basis.delta_angle == pytest.approx(math.pi / 4.0, abs=1e-12)


def test_tripod_dressed_states_detuned_mixing_angle():
    theta, phi = 0.42, 0.0
    omega_1 = 1.0
    omega_0 = math.tan(theta) * omega_1
    basis = tripod_dressed_states(theta, phi, 1.5, omega_0, omega_1)
    assert basis.eigenvalue_minus < 0.0 < basis.eigenvalue_plus
    expected = math.atan(math.sqrt(-basis.eigenvalue_minus / basis.eigenvalue_plus))
    assert basis.delta_angle == pytest.approx(expected, abs=1e-12)
    # the split pair straddles zero and its sum carries the full detuning
    assert basis.eigenvalue_plus + basis.eigenvalue_minus == pytest.approx(
        1.5, abs=1e-12
    )


def test_tripod_dressed_quadruple_is_orthonormal():
    theta, phi = 0.3, 1.2
    omega_1 = 1.4
    omega_0 = math.tan(theta) * np.exp(-1j * phi) * omega_1
    basis = tripod_dressed_states(theta, phi, 0.8, omega_0, omega_1)
    for state in basis.states():
        assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-10)
    # the dark state is orthogonal to everything; the split pair to each other
    for other in (basis.bright, basis.minus_state, basis.plus_state):
        assert abs(np.vdot(basis.dark.amplitudes, other.amplitudes)) <= 1e-10
    assert abs(np.vdot(basis.minus_state.amplitudes, basis.plus_state.amplitudes)) <= 1e-10


def test_tripod_dressed_states_reject_inconsistent_angles():
    with pytest.raises(ValueError, match="inconsistent"):
        tripod_dressed_states(0.3, 0.0, 0.0, 5.0, 1.0)


@PROPERTIES
@given(drives=LEGS, detuning=ENERGIES, times=TIMES)
@example(
    drives={
        "0": DriveField("0", SCHED.pump_envelopes(1.0)),
        "1": DriveField("1", SCHED.pump_envelopes(2.0), PhaseRamp(kind="constant", offset=math.pi)),
        "2": DriveField("2", SCHED.stokes_envelopes(3.0)),
    },
    detuning=0.2,
    times=(0.3, 1.1, 2.0),
)
def test_tripod_system_model_matches_hand_built_matrix(drives, detuning, times):
    system = TripodSystem(drives=drives, detuning=detuning)
    model = system.model()
    for t in times:
        expected = tripod_hamiltonian(*_omegas(drives, t), detuning).matrix
        assert np.allclose(model.matrix(t), expected, atol=1e-14)


def test_tripod_system_rejects_unknown_drive_level():
    sched = build_schedule(1.0, 0.5, 4.0)
    drives = {"e": DriveField("e", sched.pump_envelopes(1.0))}
    with pytest.raises(ValueError):
        TripodSystem(drives=drives)


# ---------------------------------------------------------------------------
# Atom pair


def test_two_atom_matrix_is_the_kron_sum_plus_shift():
    omega_1, omega_2, delta, shift = 1.3, 0.7, 0.4, 2.2
    single = tripod_hamiltonian(0.0, omega_1, omega_2, delta).matrix
    eye = np.eye(4)
    expected = np.kron(single, eye) + np.kron(eye, single)
    idx = TWO_ATOM_LABELS.index("22")
    expected[idx, idx] += shift
    pair = two_atom_hamiltonian(0.0, omega_1, omega_2, delta, shift)
    assert np.allclose(pair.matrix, expected, atol=1e-12)
    assert pair.basis_labels == TWO_ATOM_LABELS


def test_two_atom_interaction_acts_only_on_the_doubly_shelved_state():
    with_shift = two_atom_hamiltonian(0.0, 0.9, 1.1, 0.0, 3.0).matrix
    without = two_atom_hamiltonian(0.0, 0.9, 1.1, 0.0, 0.0).matrix
    diff = with_shift - without
    idx = TWO_ATOM_LABELS.index("22")
    assert diff[idx, idx] == pytest.approx(3.0)
    diff[idx, idx] = 0.0
    assert np.max(np.abs(diff)) == 0.0


def test_decoupled_states_are_orthonormal():
    states = two_atom_dark_states(0.77, 1.5, t=0.9)
    mat = np.stack([s.amplitudes for s in states], axis=1)
    gram = mat.conj().T @ mat
    assert np.max(np.abs(gram - np.eye(6))) <= 1e-10


def test_decoupled_states_start_in_the_qubit_levels():
    d1, d2, d3, d4, d5, d6 = two_atom_dark_states(0.0, 2.0, t=0.0)
    assert abs(d1.amplitude("00")) == pytest.approx(1.0)
    assert abs(d5.amplitude("11")) == pytest.approx(1.0)
    # at theta = pi/2 the doubly-transferred state has moved entirely to
    # the shelf pair, carrying the interaction phase factor
    d5_top = two_atom_dark_states(math.pi / 2.0, 2.0, t=0.9)[4]
    assert d5_top.amplitude("22") == pytest.approx(np.exp(1j * 2.0 * 0.9))


def test_decoupled_states_annihilated_after_frame_change(rng):
    """(H - shift |22><22|) kills every decoupled state in the lab frame."""
    shift = 1.7
    for theta in rng.uniform(0.0, math.pi / 2.0, size=4):
        for t in (0.0, 0.62):
            w = 2.0
            omega_1 = w * math.sin(theta)
            omega_2 = w * math.cos(theta)
            drive_only = two_atom_hamiltonian(0.0, omega_1, omega_2, 0.0, 0.0).matrix
            for state in two_atom_dark_states(float(theta), shift, t):
                lab = transform_interaction(state, shift, t)
                residual = drive_only @ lab.amplitudes
                assert np.linalg.norm(residual) <= 1e-10 * max(np.linalg.norm(drive_only, 2), 1.0)


def test_drive_hamiltonian_kernel_has_dimension_six():
    sched = build_schedule(1.0, 0.5, 4.0)
    drives = {
        "1": DriveField("1", sched.pump_envelopes(1.0)),
        "2": DriveField("2", sched.stokes_envelopes(1.4)),
    }
    system = TwoAtomSystem(drives=drives, detuning=0.0, interaction_shift=0.9)
    model = system.drive_model()
    for t in (0.6, 0.9, 1.4):
        mat = model.matrix(t)
        rank = np.linalg.matrix_rank(mat, tol=1e-10)
        assert mat.shape == (16, 16)
        assert 16 - rank == 6


def test_dark_projector_fixes_the_decoupled_states():
    theta = 0.51
    basis = two_atom_dark_projector(theta)
    assert basis.shape == (16, 6)
    gram = basis.conj().T @ basis
    assert np.allclose(gram, np.eye(6), atol=1e-12)
    proj = basis @ basis.conj().T
    assert np.allclose(proj @ proj, proj, atol=1e-12)
    assert np.trace(proj).real == pytest.approx(6.0, abs=1e-10)
    for state in two_atom_dark_states(theta, 1.3, t=0.0):
        assert np.allclose(proj @ state.amplitudes, state.amplitudes, atol=1e-10)


@PROPERTIES
@given(drives=LEGS, detuning=ENERGIES, shift=ENERGIES, times=TIMES)
@example(
    drives={
        "0": DriveField("0", SCHED.pump_envelopes(0.7), PhaseRamp(kind="constant", offset=math.pi)),
        "1": DriveField("1", SCHED.pump_envelopes(2.0)),
        "2": DriveField("2", SCHED.stokes_envelopes(3.0), PhaseRamp(kind="linear", offset=0.2, slope=-0.9)),
    },
    detuning=0.1,
    shift=0.8,
    times=(0.3, 1.3, 0.5 * sum(SCHED.hold_interval), 4.9),
)
def test_two_atom_system_model_adds_the_shift(drives, detuning, shift, times):
    system = TwoAtomSystem(drives=drives, detuning=detuning, interaction_shift=shift)
    model, drive_model = system.model(), system.drive_model()
    idx = TWO_ATOM_LABELS.index("22")
    for t in times:
        omegas = _omegas(drives, t)
        expected = two_atom_hamiltonian(*omegas, detuning, shift).matrix
        assert np.allclose(model.matrix(t), expected, atol=1e-12)
        drive_only = drive_model.matrix(t)
        assert np.allclose(drive_only, two_atom_hamiltonian(*omegas).matrix, atol=1e-12)
        assert expected[idx, idx] - drive_only[idx, idx] == pytest.approx(shift)


def test_transform_interaction_round_trip():
    state = two_atom_dark_states(0.6, 1.1, t=0.5)[4]
    moved = transform_interaction(state, 1.1, 0.5)
    back = transform_interaction(moved, -1.1, 0.5)
    assert np.allclose(back.amplitudes, state.amplitudes, atol=1e-14)


def test_transform_interaction_needs_the_shelf_pair_label():
    from stirapgates import basis_state

    with pytest.raises(ValueError, match="doubly-transferred"):
        transform_interaction(basis_state(LAMBDA_LABELS, "q"), 1.0, 0.1)


def test_sequence_fields_layout():
    sched = build_schedule(1.0, 1.0, 5.0)
    ramp = PhaseRamp(kind="linear", offset=0.0, slope=2.0)
    pump, stokes = sequence_fields(sched, 3.0, 4.0, "q", "s", stokes_phase=ramp)
    assert pump.level == "q" and stokes.level == "s"
    assert [e.t_on for e in pump.envelopes] == list(sched.pump_onsets)
    assert [e.t_on for e in stokes.envelopes] == list(sched.stokes_onsets)
    assert stokes.phase is ramp
    assert pump.phase.kind == "constant"
