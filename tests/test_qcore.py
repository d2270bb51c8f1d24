"""State, operator, and eigensolver basics."""

import math

import numpy as np
import pytest

from stirapgates import (
    HamiltonianModel,
    HermiticityError,
    HermitianOperator,
    StateVector,
    TimeGrid,
    UnitarityError,
    basis_state,
    calibrate_interaction_shift,
    eig_hermitian,
    overlap_phase,
    principal_angle,
    propagate_many,
    tripod_dressed_states,
    two_qubit_phase,
    unitary_fidelity,
)

LABELS3 = ("q", "e", "s")


def random_hermitian(rng, dim):
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (raw + raw.conj().T) / 2.0


# ---------------------------------------------------------------------------
# StateVector


def test_basis_state_is_one_hot():
    state = basis_state(LABELS3, "s")
    assert state.population("s") == 1.0
    assert state.population("q") == 0.0
    assert state.amplitude("s") == 1.0 + 0.0j


def test_state_rejects_unnormalized_amplitudes():
    with pytest.raises(ValueError, match="norm"):
        StateVector(np.array([1.0, 1.0, 0.0], dtype=complex), LABELS3)
    with pytest.raises(ValueError, match="norm"):
        StateVector(np.array([math.nan, 0.0, 0.0], dtype=complex), LABELS3)


def test_state_rejects_unsupported_dimension():
    amps = np.zeros(5, dtype=complex)
    amps[0] = 1.0
    with pytest.raises(ValueError, match="dimension"):
        StateVector(amps, ("a", "b", "c", "d", "f"))


def test_state_rejects_label_length_mismatch():
    with pytest.raises(ValueError):
        StateVector(np.array([1.0, 0.0], dtype=complex), LABELS3)


def test_state_population_and_index_lookup():
    amps = np.array([1.0, 1.0j, -1.0], dtype=complex) / math.sqrt(3.0)
    state = StateVector(amps, LABELS3)
    assert state.index("e") == 1
    assert state.population("e") == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert np.allclose(state.populations(), np.full(3, 1.0 / 3.0))
    with pytest.raises(ValueError, match="unknown level"):
        state.index("nope")


# ---------------------------------------------------------------------------
# principal_angle and overlap_phase


def test_principal_angle_range_and_branch():
    assert principal_angle(0.0) == 0.0
    assert principal_angle(math.pi) == pytest.approx(math.pi)
    # the branch cut belongs to +pi, not -pi
    assert principal_angle(-math.pi) == pytest.approx(math.pi)
    assert principal_angle(3.0 * math.pi) == pytest.approx(math.pi)
    assert principal_angle(-5.0) == pytest.approx(-5.0 + 2.0 * math.pi)


def test_principal_angle_is_2pi_periodic(rng):
    for angle in rng.uniform(-30.0, 30.0, size=50):
        a = principal_angle(angle)
        b = principal_angle(angle + 6.0 * math.pi)
        assert a == pytest.approx(b, abs=1e-12)
        assert -math.pi < a <= math.pi + 1e-15


def test_overlap_phase_of_basis_state_is_zero():
    assert overlap_phase(basis_state(LABELS3, "q"), "q") == 0.0


def test_overlap_phase_undefined_below_floor():
    amps = np.array([math.sqrt(1.0 - 1e-8), 0.0, 1e-4], dtype=complex)
    state = StateVector(amps, LABELS3)
    # population 1e-8 sits below the 1e-6 floor
    assert overlap_phase(state, "s") is None
    assert overlap_phase(state, "q") == pytest.approx(0.0)


def test_overlap_phase_unknown_level():
    with pytest.raises(ValueError, match="unknown level"):
        overlap_phase(basis_state(LABELS3, "q"), "x")


def test_overlap_phase_rotates_with_global_phase(rng):
    """Multiplying the state by e^{i a} shifts every defined phase by a."""
    amps = rng.normal(size=3) + 1j * rng.normal(size=3)
    amps /= np.linalg.norm(amps)
    state = StateVector(amps, LABELS3)
    alpha = 1.234
    rotated = StateVector(amps * np.exp(1j * alpha), LABELS3)
    for level in LABELS3:
        base = overlap_phase(state, level)
        moved = overlap_phase(rotated, level)
        assert moved == pytest.approx(principal_angle(base + alpha), abs=1e-12)


# ---------------------------------------------------------------------------
# HermitianOperator and eig_hermitian


def test_hermitian_operator_rejects_asymmetry():
    mat = np.array([[0.0, 1.0], [0.5, 0.0]], dtype=complex)
    with pytest.raises(HermiticityError, match="not Hermitian"):
        HermitianOperator(mat, ("a", "b"))
    # NaN compares false with every tolerance; both entry points still refuse it
    nan = np.array([[0.0, math.nan], [math.nan, 0.0]], dtype=complex)
    with pytest.raises(HermiticityError, match="not Hermitian"):
        HermitianOperator(nan, ("a", "b"))
    with pytest.raises(HermiticityError, match="not Hermitian"):
        eig_hermitian(nan)


def test_eig_zero_operator_is_all_zero():
    dec = eig_hermitian(HermitianOperator(np.zeros((3, 3), dtype=complex), LABELS3))
    assert np.allclose(dec.eigenvalues, 0.0)


@pytest.mark.parametrize("dim", [3, 4, 16])
def test_eig_reconstruction_property(rng, dim):
    """H v_k = lambda_k v_k within 1e-10 * ||H||, orthonormal, ascending."""
    for _ in range(5):
        mat = random_hermitian(rng, dim)
        dec = eig_hermitian(mat)
        scale = np.linalg.norm(mat, 2)
        for k in range(dim):
            residual = mat @ dec.eigenvectors[:, k] - dec.eigenvalues[k] * dec.eigenvectors[:, k]
            assert np.linalg.norm(residual) <= 1e-10 * scale
        gram = dec.eigenvectors.conj().T @ dec.eigenvectors
        assert np.max(np.abs(gram - np.eye(dim))) <= 1e-10
        assert np.all(np.diff(dec.eigenvalues) >= -1e-12)


def test_eig_reports_asymmetry_magnitude():
    mat = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(HermiticityError, match="1"):
        eig_hermitian(HermitianOperator(mat, ("a", "b")))


def test_eig_degenerate_subspace_still_orthonormal():
    mat = np.diag([2.0, 2.0, 5.0]).astype(complex)
    dec = eig_hermitian(mat)
    gram = dec.eigenvectors.conj().T @ dec.eigenvectors
    assert np.max(np.abs(gram - np.eye(3))) <= 1e-12
    assert np.allclose(sorted(dec.eigenvalues), [2.0, 2.0, 5.0])


# ---------------------------------------------------------------------------
# unitary_fidelity


def test_fidelity_of_identity_is_one():
    eye = np.eye(2, dtype=complex)
    assert unitary_fidelity(eye, eye) == pytest.approx(1.0, abs=1e-15)


def test_fidelity_ignores_global_phase(rng):
    h = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)
    for alpha in rng.uniform(-math.pi, math.pi, size=8):
        assert unitary_fidelity(np.exp(1j * alpha) * h, h) == pytest.approx(1.0, abs=1e-12)


def test_fidelity_of_distinct_gates():
    h = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)
    x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    assert unitary_fidelity(h, x) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)


def test_fidelity_rejects_non_unitary():
    bad = np.array([[1.0, 0.0], [0.0, 0.5]], dtype=complex)
    with pytest.raises(UnitarityError):
        unitary_fidelity(bad, np.eye(2, dtype=complex))
    # a looser explicit tolerance admits the same matrix
    value = unitary_fidelity(bad, np.eye(2, dtype=complex), unitarity_tol=1.0)
    assert 0.0 < value <= 1.0
    nan = np.array([[1.0, 0.0], [0.0, math.nan]], dtype=complex)
    with pytest.raises(UnitarityError):
        unitary_fidelity(nan, np.eye(2, dtype=complex), unitarity_tol=1.0)


def test_fidelity_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        unitary_fidelity(np.eye(2, dtype=complex), np.eye(3, dtype=complex))


# ---------------------------------------------------------------------------
# refusals across the library


@pytest.mark.parametrize("call, error, match", [
    (lambda: StateVector(np.eye(2), ("0", "1")), ValueError, "one-dimensional"),
    (lambda: HermitianOperator(np.zeros((2, 3)), ("0", "1")), ValueError, "square"),
    (lambda: HermitianOperator(np.eye(2), ("0", "1", "2")), ValueError, "basis_labels length"),
    (lambda: unitary_fidelity(np.zeros((2, 3)), np.eye(2)), ValueError, "square"),
    (lambda: HamiltonianModel(("0", "1"), np.eye(3), []), ValueError, "wrong shape"),
    (lambda: tripod_dressed_states(0.3, 0.0, 0.0, 0.0, 0.0), ValueError, "nonzero"),
    (lambda: propagate_many("H", [basis_state(("0", "1"), "0")], TimeGrid(0.0, 1.0, 0.1)),
     TypeError, "unsupported Hamiltonian"),
    (lambda: propagate_many(np.eye(2), [basis_state(("0", "1"), "0")], TimeGrid(0.0, 1.0, 0.1)),
     TypeError, "unsupported Hamiltonian"),
    (lambda: two_qubit_phase(object(), 0.1), TypeError, "StirapSchedule"),
    (lambda: calibrate_interaction_shift(2.0, target_mixing=1e-12),
     ValueError, "lower bracket .* already exceeds"),
    (lambda: calibrate_interaction_shift(2.0, target_mixing=0.9, bracket=(1e-4, 1e-3)),
     ValueError, "no crossing"),
], ids=["state-2d", "operator-not-square", "operator-labels", "fidelity-not-square",
        "model-static-shape", "dressed-no-drive", "propagate-str", "propagate-matrix",
        "phase-schedule-type", "calibrate-lower-bracket", "calibrate-no-crossing"])
def test_each_refusal_raises_its_own_error(call, error, match):
    with pytest.raises(error, match=match):
        call()
