"""Shared quantum numerics: states, Hermitian operators, spectra, fidelities.

Conventions used throughout the package:

* Hamiltonians are stored as H/hbar, so matrix entries and eigenvalues are
  angular frequencies (rad per T0, the dimensionless time unit).
* Complex amplitudes carry their phase in the principal branch (-pi, pi].
* A level's phase is reported only while its population exceeds
  ``POPULATION_FLOOR``; below that the phase is undefined, never zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

POPULATION_FLOOR = 1e-6

_ALLOWED_DIMS = (2, 3, 4, 16)

_NORM_TOL = 1e-12
_HERM_TOL = 1e-12


class HermiticityError(ValueError):
    """Raised when a matrix expected to be Hermitian is not."""


class UnitarityError(ValueError):
    """Raised when a matrix expected to be unitary is not."""


def principal_angle(angle: float) -> float:
    """Map an angle to the principal branch (-pi, pi]."""
    wrapped = float(np.mod(angle + np.pi, 2.0 * np.pi) - np.pi)
    if wrapped == -np.pi:
        wrapped = np.pi
    return wrapped


@dataclass(frozen=True)
class StateVector:
    """Normalized pure state over an explicitly labelled basis."""

    amplitudes: np.ndarray
    basis_labels: tuple[str, ...]

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=complex)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "basis_labels", tuple(self.basis_labels))
        if amps.ndim != 1:
            raise ValueError("amplitudes must be a one-dimensional vector")
        if amps.size not in _ALLOWED_DIMS:
            raise ValueError(
                f"unsupported dimension {amps.size}; expected one of {_ALLOWED_DIMS}"
            )
        if len(self.basis_labels) != amps.size:
            raise ValueError("basis_labels length must match the amplitude vector")
        norm = float(np.linalg.norm(amps))
        if not abs(norm - 1.0) <= _NORM_TOL:
            raise ValueError(f"state norm {norm!r} deviates from 1 by more than {_NORM_TOL}")

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def index(self, level: str) -> int:
        try:
            return self.basis_labels.index(level)
        except ValueError:
            raise ValueError(
                f"unknown level {level!r}; basis is {list(self.basis_labels)}"
            ) from None

    def amplitude(self, level: str) -> complex:
        return complex(self.amplitudes[self.index(level)])

    def population(self, level: str) -> float:
        return float(abs(self.amplitudes[self.index(level)]) ** 2)

    def populations(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


def basis_state(labels: tuple[str, ...] | list[str], level: str) -> StateVector:
    """Unit vector along one basis direction."""
    labels = tuple(labels)
    amps = np.zeros(len(labels), dtype=complex)
    amps[labels.index(level)] = 1.0
    return StateVector(amps, labels)


def _check_hermitian(matrix: np.ndarray) -> None:
    asym = float(np.max(np.abs(matrix - matrix.conj().T)))
    if not asym <= _HERM_TOL:
        raise HermiticityError(f"matrix is not Hermitian: max |H - H^dagger| = {asym:.3e}")


@dataclass(frozen=True)
class HermitianOperator:
    """Hermitian matrix over a labelled basis, stored as H/hbar."""

    matrix: np.ndarray
    basis_labels: tuple[str, ...]

    def __post_init__(self) -> None:
        mat = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "basis_labels", tuple(self.basis_labels))
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("matrix must be square")
        if len(self.basis_labels) != mat.shape[0]:
            raise ValueError("basis_labels length must match the matrix dimension")
        _check_hermitian(mat)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigensystem of a Hermitian operator.

    ``eigenvalues`` ascend; ``eigenvectors`` holds the matching orthonormal
    eigenvectors as columns. No canonicalization is applied inside degenerate
    subspaces; any orthonormal basis of such a subspace is acceptable.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    basis_labels: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        object.__setattr__(self, "eigenvalues", np.asarray(self.eigenvalues, dtype=float))
        object.__setattr__(self, "eigenvectors", np.asarray(self.eigenvectors, dtype=complex))
        object.__setattr__(self, "basis_labels", tuple(self.basis_labels))


def eig_hermitian(operator: HermitianOperator | np.ndarray) -> SpectralDecomposition:
    """Eigendecomposition of a Hermitian matrix.

    Eigenvalues come back sorted ascending with orthonormal column
    eigenvectors. Non-Hermitian input is rejected with the largest
    asymmetry reported.
    """
    if isinstance(operator, HermitianOperator):
        matrix = operator.matrix
        labels = operator.basis_labels
    else:
        matrix = np.asarray(operator, dtype=complex)
        labels = ()
        _check_hermitian(matrix)
    values, vectors = np.linalg.eigh(matrix)
    return SpectralDecomposition(values, vectors, labels)


def overlap_phase(state: StateVector, level: str) -> float | None:
    """Phase of one level's amplitude, or None while the level is empty.

    The phase is the principal-branch argument in (-pi, pi] and is defined
    only when the level population exceeds ``POPULATION_FLOOR``.
    """
    amp = state.amplitude(level)
    if abs(amp) ** 2 <= POPULATION_FLOOR:
        return None
    return principal_angle(float(np.angle(amp)))


def _check_unitary(matrix: np.ndarray, tol: float, name: str) -> None:
    gram = matrix.conj().T @ matrix
    defect = float(np.max(np.abs(gram - np.eye(matrix.shape[0]))))
    if not defect <= tol:
        raise UnitarityError(
            f"{name} is not unitary within {tol}: max |U^dagger U - 1| = {defect:.3e}"
        )


def unitary_fidelity(
    achieved: np.ndarray,
    target: np.ndarray,
    unitarity_tol: float = 1e-8,
) -> float:
    """Global-phase-invariant gate fidelity |Tr(U^dagger V)| / d.

    Both matrices must be unitary within ``unitarity_tol`` (callers holding a
    reconstructed, slightly leaky matrix may pass a looser tolerance; the
    leakage is their separate figure of merit) and of matching dimension.
    """
    u = np.asarray(achieved, dtype=complex)
    v = np.asarray(target, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError("achieved matrix must be square")
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    _check_unitary(u, unitarity_tol, "achieved matrix")
    _check_unitary(v, unitarity_tol, "target matrix")
    d = u.shape[0]
    return float(abs(np.trace(u.conj().T @ v)) / d)
