"""Adiabatic dark-state simulation and geometric-phase gate toolkit.

The package models laser-driven three- and four-level atoms (and a pair of
interacting four-level atoms) in the rotating-wave approximation, propagates
them through counterintuitive pulse sequences, and extracts the geometric
phases that implement a universal gate set on the qubit levels.

All Hamiltonians are stored as H/hbar in angular-frequency units; time is
dimensionless (units of the reference interval T0).
"""

from .qcore import (
    POPULATION_FLOOR,
    HermiticityError,
    HermitianOperator,
    SpectralDecomposition,
    StateVector,
    UnitarityError,
    basis_state,
    eig_hermitian,
    overlap_phase,
    principal_angle,
    unitary_fidelity,
)
from .pulses import (
    DriveField,
    MixingProfile,
    PhaseRamp,
    PulseEnvelope,
    StirapSchedule,
    build_schedule,
)
from .systems import (
    LAMBDA_LABELS,
    TRIPOD_LABELS,
    TWO_ATOM_LABELS,
    DressedBasis,
    HamiltonianModel,
    LambdaSystem,
    TripodSystem,
    TwoAtomSystem,
    dark_state,
    lambda_hamiltonian,
    lambda_spectrum,
    sequence_fields,
    time_reversed,
    tripod_dressed_states,
    tripod_hamiltonian,
    two_atom_dark_projector,
    two_atom_dark_states,
    two_atom_hamiltonian,
)
from .propagator import (
    NORM_DRIFT_LIMIT,
    ConvergenceError,
    ConvergenceReport,
    GridTooFineError,
    IntegrationQualityError,
    TimeGrid,
    Trajectory,
    converge_many,
    extract_observables,
    propagate_many,
)
from .geomphase import (
    PhaseEstimate,
    WzResult,
    berry_phase_closed_form,
    berry_phase_numeric,
    calibrate_interaction_shift,
    integrate_piecewise,
    mixing_integral,
    ramp_weight_deficit,
    schedule_breakpoints,
    transform_interaction,
    two_qubit_phase,
    wz_connection,
    wz_hamiltonian,
    wz_propagate,
)
from .gates import (
    GateReport,
    GateSpec,
    LeakageError,
    reconstruct_unitary,
    run_controlled_phase,
    run_hadamard,
    run_phase_gate,
    solve_sequence_delay,
)

__version__ = "0.1.0"
