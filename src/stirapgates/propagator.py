"""Fixed-step Schrodinger propagation with an explicit convergence ladder.

The integrator is the classical fourth-order Runge-Kutta scheme on a
uniform grid. The scheme is linear in the state, so each step is one
transfer matrix, built for a whole chunk of steps at once from the sampled
Hamiltonians; a run of such steps is applied as a blocked prefix scan. Where
every drive is off and the static part is diagonal, the transfer matrix is
a fixed per-level factor, so such runs of steps are filled with its powers
without sampling. Norm drift and maximum populations still cover every
step, not just the sampled ones. The state is never renormalized; the norm
defect is a diagnostic that reports integration quality, and
``converge_many`` halves the step until successive terminal states agree. Phases are unwrapped along
the time axis only while a level is populated; across depopulated gaps the
last defined value is frozen and unwrapping resumes relative to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qcore import POPULATION_FLOOR, StateVector, principal_angle
from .systems import HamiltonianModel

NORM_DRIFT_LIMIT = 1e-6

_MAX_HALVINGS = 10
_STABILITY_FACTOR = 0.8
# A chunk holds at most _CHUNK_STEPS steps and _CHUNK_ENTRIES transfer-matrix
# entries: 128 steps at dim 16. Small dim-16 buffers keep the heap from
# fragmenting when idle runs cut the driven runs to varying lengths.
_CHUNK_STEPS = 1024
_CHUNK_ENTRIES = 2**15


def _scan_block(dim: int) -> int:
    """Steps per block of the driven-run scan: 16 up to dim 4, where a batched
    d x d product costs less than one Python-level matmul call; else 1."""
    return 16 if dim <= 4 else 1


class IntegrationQualityError(RuntimeError):
    """Raised when a propagation run is numerically untrustworthy."""


class ConvergenceError(IntegrationQualityError):
    """Raised when the step-halving ladder hits its cap without converging."""


@dataclass(frozen=True)
class TimeGrid:
    """Uniform integration grid with a sampling stride.

    The actual step divides the span exactly: it is the largest value not
    above ``base_step`` for which an integer number of steps lands on
    ``t_end``. Samples are taken every ``sample_stride`` steps, with the
    final point always included.
    """

    t_start: float
    t_end: float
    base_step: float
    sample_stride: int = 1

    def __post_init__(self) -> None:
        if not self.t_end > self.t_start:
            raise ValueError("t_end must exceed t_start")
        if not self.base_step > 0.0:
            raise ValueError("base_step must be positive")
        stride = self.sample_stride
        if isinstance(stride, bool) or not (stride >= 1 and float(stride).is_integer()):
            raise ValueError("sample_stride must be a positive integer")
        object.__setattr__(self, "sample_stride", int(stride))

    @property
    def span(self) -> float:
        return self.t_end - self.t_start

    @property
    def n_steps(self) -> int:
        return max(1, math.ceil(self.span / self.base_step - 1e-9))

    @property
    def step(self) -> float:
        return self.span / self.n_steps

    def sample_indices(self) -> np.ndarray:
        idx = np.arange(0, self.n_steps + 1, self.sample_stride)
        if idx[-1] != self.n_steps:
            idx = np.append(idx, self.n_steps)
        return idx

    def sample_times(self) -> np.ndarray:
        return self.t_start + self.sample_indices() * self.step

    def refined(self) -> "TimeGrid":
        """Grid with half the step; shared sample times stay on the grid."""
        return TimeGrid(
            t_start=self.t_start,
            t_end=self.t_end,
            base_step=self.span / (2 * self.n_steps),
            sample_stride=2 * self.sample_stride,
        )

    def with_step(self, base_step: float) -> "TimeGrid":
        return TimeGrid(self.t_start, self.t_end, base_step, self.sample_stride)


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution of one propagation run.

    ``states`` has shape (n_samples, dim). ``phases`` holds unwrapped
    per-level phases with NaN wherever the level population is at or below
    the reporting floor. ``max_populations`` tracks every integrator step,
    not just the sampled ones, and ``norm_drift`` is the largest observed
    deviation of the squared norm from one.
    """

    times: np.ndarray
    states: np.ndarray
    basis_labels: tuple[str, ...]
    populations: np.ndarray
    phases: np.ndarray
    norm_drift: float
    max_populations: np.ndarray
    step: float
    n_steps: int

    @property
    def final_state(self) -> StateVector:
        """Terminal state as a strictly normalized state vector.

        Raw trajectory samples keep whatever norm the integrator produced
        (the deviation is recorded in norm_drift and gated elsewhere), but
        the state type demands exact normalization, so the division happens
        here at the boundary.
        """
        amps = self.states[-1]
        return StateVector(amps / np.linalg.norm(amps), self.basis_labels)

    @property
    def max_e_population(self) -> float:
        """Largest population ever seen in any level whose label contains 'e'."""
        excited = ["e" in label for label in self.basis_labels]
        return float(np.max(self.max_populations[excited], initial=0.0))

    def level_index(self, level: str) -> int:
        return self.basis_labels.index(level)

    def max_population(self, level: str) -> float:
        return float(self.max_populations[self.level_index(level)])

    def terminal_phase(self, level: str) -> float:
        """Last unwrapped phase of the level; NaN if undefined there."""
        return float(self.phases[-1, self.level_index(level)])


class _CallableModel:
    def __init__(self, func, labels: tuple[str, ...]):
        self.basis_labels = labels
        self._func = func

    def sample(self, times: np.ndarray) -> np.ndarray:
        times = np.atleast_1d(times)
        return np.stack([np.asarray(self._func(float(t)), dtype=complex) for t in times])


def _as_model(hamiltonian, labels):
    if hasattr(hamiltonian, "sample") and hasattr(hamiltonian, "basis_labels"):
        return hamiltonian
    if isinstance(hamiltonian, np.ndarray):
        if labels is None:
            labels = tuple(str(i) for i in range(hamiltonian.shape[0]))
        return HamiltonianModel(labels, hamiltonian, [])
    if callable(hamiltonian):
        if labels is None:
            raise ValueError("a bare callable Hamiltonian needs the state to supply labels")
        return _CallableModel(hamiltonian, labels)
    raise TypeError(f"unsupported Hamiltonian input: {type(hamiltonian)!r}")


def _rk4_transfer(stack: np.ndarray) -> np.ndarray:
    """RK4 step matrices from a stack of A = -i h H at t, t+h/2, t+h, t+3h/2, ...

    RK4 is linear in the state, so one step is psi -> M psi, with M the
    scheme applied to the identity: K1 = A0, K2 = A1 (I + K1/2),
    K3 = A1 (I + K2/2), K4 = A2 (I + K3), M = I + (K1 + 2 K2 + 2 K3 + K4)/6.
    """
    a0, a1, a2 = stack[0:-1:2], stack[1::2], stack[2::2]
    k2 = a1 + 0.5 * (a1 @ a0)
    k3 = a1 + 0.5 * (a1 @ k2)
    # M - I accumulates in place, in the formula's order: a fresh temporary per
    # term would let the allocator return pages that the next chunk faults in
    m = k2
    m += k3
    m *= 2.0
    m += a0
    m += a2
    m += a2 @ k3
    m /= 6.0
    diag = np.arange(stack.shape[1])
    m[:, diag, diag] += 1.0
    return m


def _scan(mats: np.ndarray, out: np.ndarray, block: int) -> None:
    """States out[k] = M_k ... M_1 out[0], k = 1..L, for a run of transfer matrices.

    ``mats`` (L, dim, dim) is overwritten with the in-block products
    P_i = M_i ... M_1, each block of ``block`` steps starting afresh, built
    for all blocks at once. One matrix-vector product per block carries the
    state to the next block start; one batched product then fills every
    state inside the blocks. With ``block`` 1 this is one product per step.
    """
    for i in range(1, min(block, len(mats))):
        ith = mats[i::block]
        np.matmul(ith, mats[i - 1::block][:len(ith)], out=ith)
    full = len(mats) // block * block
    for p, psi, nxt in zip(mats[block - 1:full:block], out[:full:block], out[block:full + 1:block]):
        np.matmul(p, psi, out=nxt)
    if block > 1 and full:
        inner = out[1:full + 1].reshape(full // block, block, *out.shape[1:])[:, :-1]
        prods = mats[:full].reshape(full // block, block, *mats.shape[1:])[:, :-1]
        np.matmul(prods, out[:full:block, None], out=inner)
    if full < len(mats):
        np.matmul(mats[full:], out[full], out=out[full + 1:])


def _run_fixed_step(model, psi0: np.ndarray, grid: TimeGrid):
    """RK4 over a (dim, n_states) amplitude block.

    A run of driven steps applies its transfer matrices by a blocked prefix
    scan (``_scan``), ``_scan_block(dim)`` steps per block. A step is idle
    when the model reports every drive off at t, t+h/2 and t+h and its
    static part is diagonal; its transfer matrix is then the factor
    1 + z + z^2/2 + z^3/6 + z^4/24, z = -i h H[k, k], so a run of idle steps
    is its first state times the factor's powers, built once per run, and
    the Hamiltonian is not sampled there. A ``HamiltonianModel``'s drive
    coefficients are evaluated once per node: they decide idleness and
    build the driven steps' Hamiltonians, and a chunk takes the row of its
    first node from the chunk before. Other models are never idle.
    """
    h = grid.step
    n = grid.n_steps
    t0 = grid.t_start
    sample_idx = grid.sample_indices()
    dim, width = psi0.shape
    chunk_steps = min(_CHUNK_STEPS, _CHUNK_ENTRIES // dim**2)
    block = _scan_block(dim)

    samples = np.empty((sample_idx.size, dim, width), dtype=complex)
    out = np.empty((min(chunk_steps, n) + 1, dim, width), dtype=complex)
    out[0] = psi0
    samples[0] = psi0
    max_pops = np.abs(out[0]) ** 2
    drift = float(np.max(np.abs(max_pops.sum(axis=0) - 1.0)))

    coeffs = powers = None
    if isinstance(model, HamiltonianModel):
        coeffs = model.coefficients(np.array([t0]))
        diagonal = model.static_diagonal
        if diagonal is not None:
            z = -1j * h * diagonal
            factor = 1.0 + z + z**2 / 2.0 + z**3 / 6.0 + z**4 / 24.0
            powers = np.cumprod(np.broadcast_to(factor, (chunk_steps, dim)), axis=0)[:, :, None]
    done = 0
    while done < n:
        chunk = min(chunk_steps, n - done)
        nodes = t0 + h * (done + 0.5 * np.arange(2 * chunk + 1))
        if coeffs is not None:
            coeffs = np.concatenate((coeffs[-1:], model.coefficients(nodes[1:])))
        if powers is None:
            idle = np.zeros(chunk, dtype=bool)
        else:
            free = model.drive_free(nodes, coeffs)
            idle = free[0:-1:2] & free[1::2] & free[2::2]
        edges = [0, *(np.flatnonzero(np.diff(idle)) + 1).tolist(), chunk]
        for a, b in zip(edges, edges[1:]):
            if idle[a]:
                np.multiply(powers[:b - a], out[a], out=out[a + 1:b + 1])
                continue
            span = slice(2 * a, 2 * b + 1)
            if coeffs is None:
                stack = model.sample(nodes[span])
            else:
                stack = model.sample(nodes[span], coeffs[span])
            stack *= -1j * h
            _scan(_rk4_transfer(stack), out[a:b + 1], block)

        pops = np.abs(out[1:chunk + 1]) ** 2
        np.maximum(max_pops, pops.max(axis=0), out=max_pops)
        # np.maximum, unlike max(), keeps a NaN drift from an overflowed step
        drift = float(np.maximum(drift, np.max(np.abs(pops.sum(axis=1) - 1.0))))
        lo, hi = np.searchsorted(sample_idx, (done, done + chunk), side="right")
        samples[lo:hi] = out[sample_idx[lo:hi] - done]
        out[0] = out[chunk]
        done += chunk

    times = t0 + sample_idx * h
    return times, samples, drift, max_pops


def _unwrap_column(raw: np.ndarray, defined: np.ndarray) -> np.ndarray:
    out = np.full(raw.shape, np.nan)
    idx = np.nonzero(defined)[0]
    if idx.size == 0:
        return out
    vals = raw[idx]
    deltas = np.diff(vals)
    wrapped = np.mod(deltas + np.pi, 2.0 * np.pi) - np.pi
    wrapped[wrapped == -np.pi] = np.pi
    start = principal_angle(float(vals[0]))
    out[idx] = start + np.concatenate(([0.0], np.cumsum(wrapped)))
    return out


def _observables(states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    pops = np.abs(states) ** 2
    raw = np.angle(states)
    phases = np.empty_like(pops)
    defined = pops > POPULATION_FLOOR
    for k in range(states.shape[1]):
        phases[:, k] = _unwrap_column(raw[:, k], defined[:, k])
    return pops, phases


def extract_observables(trajectory: Trajectory) -> tuple[np.ndarray, np.ndarray]:
    """Populations and unwrapped phases recomputed from the stored states.

    A level's phase is defined only where its population exceeds the
    reporting floor. Within a defined stretch consecutive values differ by
    less than pi; across an undefined gap the phase resumes from the last
    defined value plus the principal-branch increment.
    """
    return _observables(trajectory.states)


def _preflight(hamiltonian, states: list[StateVector]):
    """Model, shared basis labels and (dim, n_states) amplitude block."""
    if not states:
        raise ValueError("need at least one initial state")
    labels = tuple(states[0].basis_labels)
    for st in states:
        if tuple(st.basis_labels) != labels:
            raise ValueError("all initial states must share one basis")
    model = _as_model(hamiltonian, labels)
    if tuple(model.basis_labels) != labels:
        raise ValueError(
            f"state basis {labels} does not match the model "
            f"basis {tuple(model.basis_labels)}"
        )
    return model, labels, np.stack([st.amplitudes for st in states], axis=1)


def _trajectories(run, labels: tuple[str, ...], grid: TimeGrid) -> list[Trajectory]:
    """One Trajectory per column of a fixed-step run's amplitude block."""
    times, samples, drift, max_pops = run
    trajs = []
    for j in range(samples.shape[2]):
        states = samples[:, :, j]
        pops, phases = _observables(states)
        trajs.append(Trajectory(
            times=times,
            states=states,
            basis_labels=labels,
            populations=pops,
            phases=phases,
            norm_drift=drift,
            max_populations=max_pops[:, j],
            step=grid.step,
            n_steps=grid.n_steps,
        ))
    return trajs


def propagate_many(
    hamiltonian,
    states: list[StateVector],
    grid: TimeGrid,
    check_quality: bool = True,
) -> list[Trajectory]:
    """Integrate i d(psi)/dt = H(t) psi with classical RK4 on the grid.

    ``hamiltonian`` may be a HamiltonianModel, a constant matrix, or a
    callable t -> matrix. All initial states share one grid pass and one
    basis, which must match the model's. The run is deterministic for a
    given grid. When the norm drifts by more than ``NORM_DRIFT_LIMIT``, or
    the drift is NaN, the result is rejected with an error asking for step
    refinement (use ``converge_many``).
    """
    model, labels, block = _preflight(hamiltonian, states)
    run = _run_fixed_step(model, block, grid)
    drift = run[2]
    if check_quality and not drift <= NORM_DRIFT_LIMIT:
        raise IntegrationQualityError(
            f"norm drift {drift:.3e} exceeds {NORM_DRIFT_LIMIT}; "
            f"refine the step (current {grid.step:.3e}) or use converge_many()"
        )
    return _trajectories(run, labels, grid)


@dataclass(frozen=True)
class ConvergenceReport:
    """Step-halving history of a converged run."""

    requested_step: float
    initial_step: float
    steps: tuple[float, ...]
    distances: tuple[float, ...]
    accepted_step: float
    tolerance: float
    halvings: int
    norm_drift: float
    clamped: bool


def _stability_step(model, grid: TimeGrid) -> float:
    """Largest step the ladder may start from, by an infinity-norm scan.

    The scan probes 257 uniform times plus the peak of every drive envelope
    the model carries, so a pulse narrower than the probe spacing still
    counts.
    """
    peaks = [env.t_on + env.tau for fld in getattr(model, "fields", ()) for env in fld.envelopes]
    probes = np.concatenate((
        np.linspace(grid.t_start, grid.t_end, 257),
        [t for t in peaks if grid.t_start <= t <= grid.t_end],
    ))
    stack = model.sample(probes)
    norm = float(np.max(np.sum(np.abs(stack), axis=2)))
    if norm == 0.0:
        return grid.step
    return min(grid.step, _STABILITY_FACTOR / norm)


def _converge_block(model, block: np.ndarray, grid: TimeGrid, tolerance: float,
                    max_halvings: int):
    h0 = _stability_step(model, grid)
    clamped = h0 < grid.step
    current = grid.with_step(h0) if clamped else grid
    run = _run_fixed_step(model, block, current)
    steps = [current.step]
    distances: list[float] = []
    for _ in range(max_halvings):
        # a copy, so the coarse rung's samples are freed once the fine run replaces them
        coarse_final = run[1][-1].copy()
        current = current.refined()
        run = _run_fixed_step(model, block, current)
        steps.append(current.step)
        dist = float(np.max(np.linalg.norm(run[1][-1] - coarse_final, axis=0)))
        distances.append(dist)
        drift = run[2]
        if dist <= tolerance and drift <= NORM_DRIFT_LIMIT:
            report = ConvergenceReport(
                requested_step=grid.step,
                initial_step=h0,
                steps=tuple(steps),
                distances=tuple(distances),
                accepted_step=current.step,
                tolerance=tolerance,
                halvings=len(distances),
                norm_drift=drift,
                clamped=clamped,
            )
            return run, current, report
    raise ConvergenceError(
        f"terminal states did not converge to {tolerance} within "
        f"{max_halvings} halvings (distances: "
        + ", ".join(f"{d:.3e}" for d in distances)
        + ")"
    )


def converge_many(
    hamiltonian,
    states: list[StateVector],
    grid: TimeGrid,
    tolerance: float = 1e-8,
    max_halvings: int = _MAX_HALVINGS,
) -> tuple[list[Trajectory], ConvergenceReport]:
    """Halve the step until successive terminal states agree.

    One ladder is shared by the whole batch. Acceptance requires both the
    worst terminal-state distance at or below ``tolerance`` and a healthy
    norm; the finest trajectories are returned. Raises ConvergenceError
    when the halving cap is exhausted.
    """
    model, labels, block = _preflight(hamiltonian, states)
    run, used_grid, report = _converge_block(model, block, grid, tolerance, max_halvings)
    return _trajectories(run, labels, used_grid), report
