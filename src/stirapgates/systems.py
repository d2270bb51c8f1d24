"""Level structures: driven lambda and tripod atoms, and an interacting pair.

Couplings follow one convention everywhere: a field with complex Rabi
frequency Omega(t) attached to lower level |k> contributes
(Omega/2)|k><e| + h.c. to H/hbar, and the one-photon detuning sits on
|e><e|. With that convention the analytic dark states below are exact
kernel members of the corresponding Hamiltonians.

Basis orderings are fixed: lambda (q, e, s) with q the driven qubit level
and s the storage level; tripod (0, 1, 2, e); two-atom product states in
row-major pair order 00, 01, 02, 0e, 10, ..., ee. The pair Hamiltonian is
H_a x 1 + 1 x H_b plus an interaction shift on |22><22|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .pulses import DriveField, PhaseRamp
from .qcore import HermitianOperator, StateVector, eig_hermitian

LAMBDA_LABELS = ("q", "e", "s")
TRIPOD_LABELS = ("0", "1", "2", "e")
TWO_ATOM_LABELS = tuple(a + b for a in TRIPOD_LABELS for b in TRIPOD_LABELS)

_TWO_ATOM_SHIFT_INDEX = TWO_ATOM_LABELS.index("22")


def _first_seen(keys: list) -> np.ndarray:
    """Index of each key among the distinct keys, numbered by first appearance."""
    ids: dict = {}
    return np.array([ids.setdefault(key, len(ids)) for key in keys])


class HamiltonianModel:
    """H(t)/hbar = static + sum over couplings of weight(t) * matrix.

    ``couplings`` holds one (source, *matrices) entry per source, whose
    ``weights(times)`` returns one real column per matrix, so a whole block
    of time samples is assembled with one matrix product. A DriveField
    weights its (m_cos, m_sin) pair by amplitude * cos(phase) and amplitude
    * sin(phase); ``fields`` holds the DriveField sources. With no couplings
    the model is the constant matrix ``static``. ``static_diagonal`` is the
    diagonal of ``static``, or None when ``static`` has off-diagonal entries.
    ``drive_columns`` holds the columns of ``coefficients`` whose matrix is
    nonzero; ``drive_free`` reads only those. ``blocks`` holds the connected
    components of the levels that ``static`` or any coupling links, as
    sorted index arrays ordered by their first level; H(t) never couples two
    blocks. ``lumped`` gives the model of a block on the cells of its levels
    whose amplitudes stay equal, with the same coefficient columns.
    """

    def __init__(
        self,
        basis_labels: tuple[str, ...],
        static: np.ndarray,
        couplings: list[tuple],
    ) -> None:
        self.basis_labels = tuple(basis_labels)
        dim = len(self.basis_labels)
        self.dim = dim
        self.static = np.asarray(static, dtype=complex)
        if self.static.shape != (dim, dim):
            raise ValueError("static part has the wrong shape")
        self.couplings = tuple(
            (source, *(np.asarray(m, dtype=complex) for m in mats)) for source, *mats in couplings
        )
        self.fields = tuple(src for src, *_ in self.couplings if isinstance(src, DriveField))
        off_diagonal = self.static - np.diag(np.diag(self.static))
        self.static_diagonal = None if off_diagonal.any() else np.diag(self.static).copy()
        mats = [self.static, *(m for _, *own in self.couplings for m in own)]
        self._stack = np.stack(mats).reshape(len(mats), dim * dim)
        self.drive_columns = 1 + np.flatnonzero(self._stack[1:].any(axis=1))
        # reachability by repeated squaring: 2^k >= dim - 1 after dim.bit_length() rounds
        reach = np.any(np.stack(mats) != 0.0, axis=0)
        reach = (reach | reach.T | np.eye(dim, dtype=bool)).astype(int)
        for _ in range(dim.bit_length()):
            reach = np.minimum(reach @ reach, 1)
        self.blocks = tuple(np.flatnonzero(row) for k, row in enumerate(reach) if row.argmax() == k)

    def lumped(self, levels: np.ndarray,
               columns: np.ndarray) -> tuple["HamiltonianModel", np.ndarray]:
        """The model of ``levels`` (sorted, a union of ``blocks``) on the
        coarsest equitable partition of them, and the cell of each level.

        In an equitable partition every column of ``columns`` (len(levels),
        n) is constant on each cell, and every matrix term gives each level
        of a cell the same row sum into each cell. Amplitudes then stay equal
        within a cell, so the lumped model carries the common amplitude of
        each cell: its matrices are ``(G @ indicator)[reps]``, with ``reps``
        the first level of each cell, and are not Hermitian when cell sizes
        differ. The partition is found by colour refinement from the
        distinct rows of ``columns``; cells are numbered by their first
        level. When every cell is one level the matrices are the model's
        ``levels`` rows and columns, and the model itself when ``levels``
        are all of its levels.
        """
        size = len(levels)
        # every matrix term on the levels, stacked row-wise: one product gives all row sums
        mats = self._stack.reshape(-1, self.dim, self.dim)[
            np.ix_(np.arange(len(self._stack)), levels, levels)]
        terms = mats.reshape(-1, size)
        cells = _first_seen([row.tobytes() for row in np.asarray(columns, dtype=complex) + 0.0])
        while True:
            indicator = np.eye(cells.max() + 1)[cells]
            # + 0.0 turns -0.0 into 0.0, so equal sums have equal bytes
            sums = (terms @ indicator).reshape(-1, size, indicator.shape[1]) + 0.0
            refined = _first_seen([(c, sums[:, k].tobytes()) for k, c in enumerate(cells.tolist())])
            if refined.max() == cells.max():
                break
            cells = refined
        count = cells.max() + 1
        if count == self.dim:
            return self, cells
        reps = np.unique(cells, return_index=True)[1]
        if count < size:
            mats = sums[:, reps]
        rest = iter(mats[1:])
        couplings = [(source, *(next(rest) for _ in own)) for source, *own in self.couplings]
        model = HamiltonianModel(tuple(self.basis_labels[levels[r]] for r in reps),
                                 mats[0], couplings)
        return model, cells

    def coefficients(self, times: np.ndarray) -> np.ndarray:
        """A column of ones for ``static``, then every source's weights."""
        times = np.atleast_1d(np.asarray(times, dtype=float))
        coeffs = np.empty((times.size, len(self._stack)), dtype=float)
        coeffs[:, 0] = 1.0
        weights = (column for source, *_ in self.couplings for column in source.weights(times))
        for k, column in enumerate(weights, start=1):
            coeffs[:, k] = column
        return coeffs

    def drive_free(self, coeffs: np.ndarray) -> np.ndarray:
        """Boolean mask over the rows of ``coefficients(times)``: where every
        coefficient whose matrix acts on this model's levels is exactly zero.

        Where it holds, H(t) is ``static``.
        """
        return ~np.any(coeffs[:, self.drive_columns] != 0.0, axis=1)

    def sample(self, times: np.ndarray, coeffs: np.ndarray | None = None) -> np.ndarray:
        """Hamiltonian stack of shape (len(times), dim, dim).

        ``coeffs``, when given, is ``coefficients(times)`` already evaluated,
        so the drives are not evaluated again.
        """
        if coeffs is None:
            coeffs = self.coefficients(times)
        flat = coeffs @ self._stack
        return flat.reshape(coeffs.shape[0], self.dim, self.dim)

    def matrix(self, t: float) -> np.ndarray:
        return self.sample(np.asarray([t]))[0]


def time_reversed(model: HamiltonianModel, t_start: float, t_end: float) -> HamiltonianModel:
    """Model whose propagation over [t_start, t_end] undoes the original's.

    H_rev(t) = -H(t_start + t_end - t). The static part is negated and every
    envelope is mirrored about the midpoint of the span (the sin^2 shape is
    symmetric). A ramp phi(t) becomes phi(t_start + t_end - t) + pi: the pi
    carries the sign of the drive terms, since amplitudes stay non-negative.
    A coupling whose source is not a DriveField raises TypeError.
    """
    if not isinstance(model, HamiltonianModel):
        raise TypeError(f"time reversal needs a HamiltonianModel, not {type(model).__name__}")
    pivot = t_start + t_end
    couplings = []
    for fld, *mats in model.couplings:
        if not isinstance(fld, DriveField):
            raise TypeError(f"time reversal mirrors drive fields, not {type(fld).__name__}")
        ramp = fld.phase
        mirrored = DriveField(
            fld.level,
            tuple(replace(env, t_on=pivot - env.t_off) for env in fld.envelopes),
            PhaseRamp(ramp.kind, ramp.offset + ramp.slope * pivot + math.pi, -ramp.slope),
        )
        couplings.append((mirrored, *mats))
    return HamiltonianModel(model.basis_labels, -model.static, couplings)


def lambda_hamiltonian(
    omega_pump: complex,
    omega_stokes: complex,
    detuning: float = 0.0,
) -> HermitianOperator:
    """Three-level Hamiltonian in the (q, e, s) basis.

    omega_pump drives q <-> e, omega_stokes drives s <-> e, both may be
    complex; the one-photon detuning multiplies |e><e|. Entries are H/hbar.
    """
    op = complex(omega_pump)
    os_ = complex(omega_stokes)
    mat = np.array(
        [
            [0.0, op / 2.0, 0.0],
            [np.conj(op) / 2.0, float(detuning), np.conj(os_) / 2.0],
            [0.0, os_ / 2.0, 0.0],
        ],
        dtype=complex,
    )
    return HermitianOperator(mat, LAMBDA_LABELS)


def lambda_spectrum(
    omega_pump: complex,
    omega_stokes: complex,
    detuning: float = 0.0,
) -> tuple[float, float, float]:
    """Closed-form eigenvalues of lambda_hamiltonian, ascending.

    In the stored H/hbar units these are ((Delta - r)/2, 0, (Delta + r)/2)
    with r = sqrt(Delta^2 + |pump|^2 + |stokes|^2). Doubling them recovers
    the conventional bright-state splittings Delta +- r quoted for the
    matrix without its 1/2 prefactor.
    """
    delta = float(detuning)
    r = math.sqrt(delta**2 + abs(omega_pump) ** 2 + abs(omega_stokes) ** 2)
    return ((delta - r) / 2.0, 0.0, (delta + r) / 2.0)


def dark_state(theta: float, phi: float) -> StateVector:
    """Adiabatic transfer state cos(theta)|q> - sin(theta) e^{i phi}|s>.

    theta is the mixing angle (tan theta = pump/stokes) and phi the stokes
    drive phase. Annihilated by lambda_hamiltonian for every detuning.
    """
    amps = np.array(
        [math.cos(theta), 0.0, -math.sin(theta) * np.exp(1j * phi)],
        dtype=complex,
    )
    return StateVector(amps, LAMBDA_LABELS)


def tripod_hamiltonian(
    omega_0: complex,
    omega_1: complex,
    omega_2: complex,
    detuning: float = 0.0,
) -> HermitianOperator:
    """Four-level Hamiltonian in the (0, 1, 2, e) basis; entries are H/hbar."""
    dim = 4
    mat = np.zeros((dim, dim), dtype=complex)
    for k, omega in enumerate((omega_0, omega_1, omega_2)):
        mat[k, 3] = complex(omega) / 2.0
        mat[3, k] = np.conj(complex(omega)) / 2.0
    mat[3, 3] = float(detuning)
    return HermitianOperator(mat, TRIPOD_LABELS)


@dataclass(frozen=True)
class DressedBasis:
    """Instantaneous eigenstructure of the driven 0/1/e manifold.

    ``dark`` and ``bright`` are the analytic superpositions of the qubit
    levels; ``plus_state`` and ``minus_state`` are numeric eigenvectors of
    the driven block (their printed closed forms are unnormalized, so the
    numeric route is authoritative). Eigenvalues are H/hbar values.
    """

    dark: StateVector
    bright: StateVector
    minus_state: StateVector
    plus_state: StateVector
    eigenvalue_minus: float
    eigenvalue_plus: float
    theta_01: float
    phi_01: float
    delta_angle: float

    def states(self) -> tuple[StateVector, ...]:
        return (self.dark, self.bright, self.minus_state, self.plus_state)


def tripod_dressed_states(
    theta_01: float,
    phi_01: float,
    detuning: float,
    omega_0: complex,
    omega_1: complex,
) -> DressedBasis:
    """Dressed basis of the tripod with only the two qubit drives on.

    The angles must be consistent with the drive amplitudes:
    tan(theta_01) = |omega_0| / |omega_1| and phi_01 the relative drive
    phase via Omega_0 = tan(theta_01) e^{-i phi_01} Omega_1.
    """
    w = math.sqrt(abs(omega_0) ** 2 + abs(omega_1) ** 2)
    if w == 0.0:
        raise ValueError("at least one qubit drive must be nonzero")
    residual = abs(
        complex(omega_0) * math.cos(theta_01)
        - math.sin(theta_01) * np.exp(-1j * phi_01) * complex(omega_1)
    )
    if residual > 1e-9 * w:
        raise ValueError(
            "angles are inconsistent with the drive amplitudes: "
            f"|Omega_0 cos(theta) - e^{{-i phi}} Omega_1 sin(theta)| = {residual:.3e}"
        )
    c, s = math.cos(theta_01), math.sin(theta_01)
    phase = np.exp(1j * phi_01)
    dark = StateVector(np.array([c, -s * phase, 0.0, 0.0], dtype=complex), TRIPOD_LABELS)
    bright = StateVector(np.array([s, c * phase, 0.0, 0.0], dtype=complex), TRIPOD_LABELS)

    ham = tripod_hamiltonian(omega_0, omega_1, 0.0, detuning)
    spectrum = eig_hermitian(ham)
    minus_vec = spectrum.eigenvectors[:, 0]
    plus_vec = spectrum.eigenvectors[:, -1]
    w_minus = float(spectrum.eigenvalues[0])
    w_plus = float(spectrum.eigenvalues[-1])
    delta_angle = math.atan(math.sqrt(-w_minus / w_plus))
    return DressedBasis(
        dark=dark,
        bright=bright,
        minus_state=StateVector(minus_vec, TRIPOD_LABELS),
        plus_state=StateVector(plus_vec, TRIPOD_LABELS),
        eigenvalue_minus=w_minus,
        eigenvalue_plus=w_plus,
        theta_01=float(theta_01),
        phi_01=float(phi_01),
        delta_angle=delta_angle,
    )


def two_atom_hamiltonian(
    omega_0: complex,
    omega_1: complex,
    omega_2: complex,
    detuning: float = 0.0,
    interaction_shift: float = 0.0,
) -> HermitianOperator:
    """Pair Hamiltonian with identical drives on both atoms.

    H = h x 1 + 1 x h + shift |22><22| where h is the single-atom tripod
    Hamiltonian. The shift models the interaction energy of both atoms
    occupying the storage level.
    """
    single = tripod_hamiltonian(omega_0, omega_1, omega_2, detuning).matrix
    eye = np.eye(4, dtype=complex)
    mat = np.kron(single, eye) + np.kron(eye, single)
    mat[_TWO_ATOM_SHIFT_INDEX, _TWO_ATOM_SHIFT_INDEX] += float(interaction_shift)
    return HermitianOperator(mat, TWO_ATOM_LABELS)


def two_atom_dark_states(
    theta_2: float,
    interaction_shift: float,
    t: float,
) -> tuple[StateVector, ...]:
    """The six decoupled states of the driven pair, interaction picture.

    theta_2 is the pair mixing angle, tan(theta_2) = Omega_1/Omega_2. The
    phase factor e^{i shift t} rides on the doubly-occupied storage state
    |22>; undo it with transform_interaction to recover the lab frame,
    where these states span the kernel of the drive Hamiltonian.
    """
    c, s = math.cos(theta_2), math.sin(theta_2)
    zt = np.exp(1j * float(interaction_shift) * float(t))
    dim = 16

    def vec(entries: dict[str, complex]) -> StateVector:
        amps = np.zeros(dim, dtype=complex)
        for label, value in entries.items():
            amps[TWO_ATOM_LABELS.index(label)] = value
        return StateVector(amps, TWO_ATOM_LABELS)

    root2 = math.sqrt(2.0)
    d1 = vec({"00": 1.0})
    d2 = vec({"10": -c, "20": s})
    d3 = vec({"01": -c, "02": s})
    d4 = vec({"1e": s / root2, "e1": -s / root2, "2e": c / root2, "e2": -c / root2})
    d5 = vec({"11": c * c, "12": -s * c, "21": -s * c, "22": s * s * zt})
    d6 = vec(
        {
            "11": s * s / root2,
            "12": s * c / root2,
            "21": s * c / root2,
            "ee": -1.0 / root2,
            "22": c * c * zt / root2,
        }
    )
    return (d1, d2, d3, d4, d5, d6)


def two_atom_dark_projector(theta_2: float) -> np.ndarray:
    """Orthonormal (16, 6) basis of the lab-frame decoupled subspace."""
    states = two_atom_dark_states(theta_2, 0.0, 0.0)
    return np.stack([st.amplitudes for st in states], axis=1)


def _check_legs(drives: dict[str, DriveField]) -> None:
    for level in drives:
        if level not in ("0", "1", "2"):
            raise ValueError(f"no drive may attach to level {level!r}")


def _chain_model(labels: tuple[str, ...], detuning: float,
                 legs: list[tuple[str, DriveField]]) -> HamiltonianModel:
    """Detuning on |e><e| and, per (level k, field) leg, (Omega/2)|k><e| + h.c.

    Each field enters through its in-phase generator (|k><e| + |e><k|)/2 and
    its quadrature generator i(|k><e| - |e><k|)/2.
    """
    dim = len(labels)
    excited = labels.index("e")
    static = np.zeros((dim, dim), dtype=complex)
    static[excited, excited] = detuning
    couplings = []
    for level, fld in legs:
        lower = labels.index(level)
        m_cos, m_sin = np.zeros((2, dim, dim), dtype=complex)
        m_cos[lower, excited] = m_cos[excited, lower] = 0.5
        m_sin[lower, excited], m_sin[excited, lower] = 0.5j, -0.5j
        couplings.append((fld, m_cos, m_sin))
    return HamiltonianModel(labels, static, couplings)


@dataclass(frozen=True)
class LambdaSystem:
    """Driven three-level atom; pump couples q <-> e, stokes couples s <-> e."""

    pump: DriveField
    stokes: DriveField
    detuning: float = 0.0

    labels = LAMBDA_LABELS

    def model(self) -> HamiltonianModel:
        return _chain_model(self.labels, self.detuning, [("q", self.pump), ("s", self.stokes)])


@dataclass(frozen=True)
class TripodSystem:
    """Driven four-level atom with up to three fields on the 0/1/2 legs."""

    drives: dict[str, DriveField] = field(default_factory=dict)
    detuning: float = 0.0

    labels = TRIPOD_LABELS

    def __post_init__(self) -> None:
        _check_legs(self.drives)

    def model(self) -> HamiltonianModel:
        legs = [(level, self.drives[level]) for level in ("0", "1", "2") if level in self.drives]
        return _chain_model(self.labels, self.detuning, legs)


@dataclass(frozen=True)
class TwoAtomSystem:
    """Pair of identical tripod atoms sharing the drive fields.

    ``interaction_shift`` is the static energy shift of |22>. Drives act on
    both atoms symmetrically.
    """

    drives: dict[str, DriveField] = field(default_factory=dict)
    detuning: float = 0.0
    interaction_shift: float = 0.0

    labels = TWO_ATOM_LABELS

    def __post_init__(self) -> None:
        _check_legs(self.drives)

    def model(self) -> HamiltonianModel:
        """Kronecker sum of the single-atom tripod model, plus the |22> shift."""
        single = TripodSystem(self.drives, self.detuning).model()
        eye = np.eye(4, dtype=complex)

        def kron_sum(m: np.ndarray) -> np.ndarray:
            return np.kron(m, eye) + np.kron(eye, m)

        static = kron_sum(single.static)
        static[_TWO_ATOM_SHIFT_INDEX, _TWO_ATOM_SHIFT_INDEX] += self.interaction_shift
        couplings = [(fld, kron_sum(c), kron_sum(s)) for fld, c, s in single.couplings]
        return HamiltonianModel(self.labels, static, couplings)

    def drive_model(self) -> HamiltonianModel:
        """Drive part only (interaction shift and detuning removed)."""
        return replace(self, detuning=0.0, interaction_shift=0.0).model()


def sequence_fields(
    schedule,
    peak_pump: float,
    peak_stokes: float,
    pump_level: str,
    stokes_level: str,
    stokes_phase: PhaseRamp | None = None,
) -> tuple[DriveField, DriveField]:
    """Pump and stokes DriveFields carrying the four-pulse schedule; the pump
    phase is constant zero, since only the relative drive phase matters."""
    return (schedule.drive(pump_level, "pump", peak_pump),
            schedule.drive(stokes_level, "stokes", peak_stokes, stokes_phase))
