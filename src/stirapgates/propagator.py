"""Fixed-step Schrodinger propagation with an explicit convergence ladder.

The integrator is the classical fourth-order Runge-Kutta scheme on a
uniform grid, and the ``_rk4_*`` functions are the one place it lives:
node times, step matrices, idle factor and the ladder's starting step.
Each step is one transfer matrix, built for a chunk of steps at once; a
run of them is applied as a blocked prefix scan. A ``_Plan`` holds what no
step changes, and is built once per ``propagate_many`` call and once per
``converge_many`` ladder: each block of levels that H couples runs on its
own, with one amplitude per cell of levels that stay equal, and blocks
with equal lumped models share one run. A rung builds only the idle
factor's powers and the chunk buffers. Steps where every drive acting on a
block is off and its static part is diagonal are idle: filled with the
factor's powers, unsampled. Norm drift and maximum populations cover every
step. The state is never renormalized; ``converge_many`` halves the step
until successive terminal states agree. Phases are unwrapped along the
time axis only while a level is populated; across depopulated gaps the
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
# A chunk holds at most _CHUNK_STEPS steps and _CHUNK_ENTRIES transfer-matrix
# entries of its largest lumped model: 128 steps at dim 16, 910 at 6 cells.
# Small dim-16 buffers keep the heap from fragmenting when idle runs cut the
# driven runs to varying lengths.
_CHUNK_STEPS = 1024
_CHUNK_ENTRIES = 2**15
# Steps per block of the driven-run scan at every dim: at dim 9, width 1, it
# took 1.0-1.5 us a step against 3.1 us with one step per block
_SCAN_STEPS = 16


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
        for name in ("t_start", "t_end", "base_step"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
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


class _Entries:
    """Source of a callable t -> matrix: the real, then the imaginary part of every entry."""

    def __init__(self, func, dim: int):
        self._func = func
        self._dim = dim

    def weights(self, times: np.ndarray) -> np.ndarray:
        values = np.stack([np.asarray(self._func(float(t)), dtype=complex) for t in times])
        flat = values.reshape(len(times), self._dim**2)
        return np.concatenate((flat.real, flat.imag), axis=1).T


def _as_model(hamiltonian, labels: tuple[str, ...]) -> HamiltonianModel:
    """A HamiltonianModel as it is; a constant matrix as the static part; a
    callable t -> matrix as the source of the unit matrices E_jk and i E_jk."""
    if isinstance(hamiltonian, HamiltonianModel):
        return hamiltonian
    if isinstance(hamiltonian, np.ndarray):
        return HamiltonianModel(labels, hamiltonian, [])
    if callable(hamiltonian):
        dim = len(labels)
        units = np.eye(dim * dim).reshape(dim * dim, dim, dim)
        return HamiltonianModel(labels, np.zeros((dim, dim)),
                                [(_Entries(hamiltonian, dim), *units, *(1j * units))])
    raise TypeError(f"unsupported Hamiltonian input: {type(hamiltonian)!r}")


# RK4, the one place the scheme lives: a step from t to t + h reads H at t,
# t + h/2 and t + h, and consecutive steps share their end node

_STABILITY_FACTOR = 0.8
# A clamped first rung may start at most this many steps; a drive that needs
# more is refused before any step is taken
_MAX_START_STEPS = 2**20
# Up to this dim a batched d x d matmul is bound by its per-call overhead, so
# _rk4_transfer multiplies elementwise
_SMALL_DIM = 4
# _rk4_transfer works through pieces of at most this many matrix entries, so
# each of its temporaries is 64 KB or less: at 1024 steps a piece, dim 3 and 4
# ran 1.5-2x slower, and dim 9 at 404 steps 1.6x
_PIECE_ENTRIES = 4096


def _rk4_nodes(t0: float, h: float, first: int, steps: int) -> np.ndarray:
    """The 2 steps + 1 node times of steps first, ..., first + steps - 1."""
    return t0 + h * (first + 0.5 * np.arange(2 * steps + 1))


def _rk4_node_span(a: int, b: int) -> slice:
    """The nodes of steps a, ..., b - 1 among the nodes ``_rk4_nodes`` gives."""
    return slice(2 * a, 2 * b + 1)


def _rk4_whole_steps(at_nodes: np.ndarray) -> np.ndarray:
    """Mask over the steps whose every node is True in the node mask ``at_nodes``."""
    return at_nodes[0:-1:2] & at_nodes[1::2] & at_nodes[2::2]


def _rk4_combine(a0, a1, a2, product):
    """M - I of the RK4 step from the node stacks A(t), A(t+h/2), A(t+h).

    K1 = A0, K2 = A1 (I + K1/2), K3 = A1 (I + K2/2), K4 = A2 (I + K3) and
    M = I + (K1 + 2 K2 + 2 K3 + K4)/6, with ``product`` the batched matrix
    product of the stacks' layout.
    """
    k2 = a1 + 0.5 * product(a1, a0)
    k3 = a1 + 0.5 * product(a1, k2)
    # M - I accumulates in place, in the formula's order: a fresh temporary per
    # term would let the allocator return pages that the next chunk faults in
    m = k2
    m += k3
    m *= 2.0
    m += a0
    m += a2
    m += product(a2, k3)
    # numpy divides a complex by 6 + 0j as a product with 1/6: the same bits,
    # without the complex division loop
    m *= 1.0 / 6.0
    return m


def _elementwise_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Batched a @ b on the (dim, dim, steps) layout: 2 dim - 1 array operations."""
    out = a[:, :1] * b[0]
    term = np.empty_like(out)
    for k in range(1, len(b)):
        np.multiply(a[:, k:k + 1], b[k], out=term)
        out += term
    return out


def _rk4_transfer(stack: np.ndarray, h: float) -> np.ndarray:
    """RK4 step matrices from a stack of H at the nodes, scaled in place to A = -i h H.

    RK4 is linear in the state, so one step is psi -> M psi, with M the
    scheme applied to the identity (``_rk4_combine``). Up to ``_SMALL_DIM``
    the products are formed elementwise on a (dim, dim, steps) copy of the
    stack; above it, by batched matmul. Either way the steps are taken in
    pieces of at most ``_PIECE_ENTRIES`` matrix entries.
    """
    stack *= -1j * h
    steps, dim = len(stack) // 2, stack.shape[1]
    m = np.empty((steps, dim, dim), dtype=complex)
    piece = max(1, _PIECE_ENTRIES // dim**2)
    for lo in range(0, steps, piece):
        part = stack[2 * lo:2 * (lo + piece) + 1]
        if dim <= _SMALL_DIM:
            even = np.ascontiguousarray(part[::2].transpose(1, 2, 0))
            odd = np.ascontiguousarray(part[1::2].transpose(1, 2, 0))
            m[lo:lo + piece] = _rk4_combine(even[..., :-1], odd, even[..., 1:],
                                            _elementwise_product).transpose(2, 0, 1)
        else:
            m[lo:lo + piece] = _rk4_combine(part[0:-1:2], part[1::2], part[2::2], np.matmul)
    diag = np.arange(dim)
    m[:, diag, diag] += 1.0
    return m


def _rk4_idle_powers(diagonal: np.ndarray, h: float, steps: int) -> np.ndarray:
    """(steps, levels, 1) factors of 1, ..., ``steps`` idle steps: the powers of the RK4
    step 1 + z + z^2/2 + z^3/6 + z^4/24 for the constant A = z = -i h diag(``diagonal``)."""
    z = -1j * h * diagonal
    factor = 1.0 + _rk4_combine(z, z, z, np.multiply)
    return np.cumprod(np.broadcast_to(factor, (steps, len(diagonal))), axis=0)[:, :, None]


def _rk4_start_step(model, grid: TimeGrid) -> float:
    """Largest step the ladder may start from, by an infinity-norm scan.

    The scan probes 257 uniform times plus the peak of every drive envelope
    the model carries, so a pulse narrower than the probe spacing still
    counts. A clamped step that needs more than ``_MAX_START_STEPS`` steps
    raises IntegrationQualityError.
    """
    peaks = [env.t_on + env.tau for fld in model.fields for env in fld.envelopes]
    probes = np.concatenate((
        np.linspace(grid.t_start, grid.t_end, 257),
        [t for t in peaks if grid.t_start <= t <= grid.t_end],
    ))
    stack = model.sample(probes)
    norm = float(np.max(np.sum(np.abs(stack), axis=2)))
    if norm == 0.0:
        return grid.step
    step = min(grid.step, _STABILITY_FACTOR / norm)
    if step < grid.step and grid.span / step > _MAX_START_STEPS:
        raise IntegrationQualityError(
            f"drive strength |H|_inf = {norm:.3e} needs a starting step of {step:.3e}, "
            f"{grid.span / step:.3e} steps over the span; the ladder starts at most "
            f"{_MAX_START_STEPS} steps"
        )
    return step


def _scan(mats: np.ndarray, out: np.ndarray) -> None:
    """States out[k] = M_k ... M_1 out[0], k = 1..L, for a run of transfer matrices.

    ``mats`` (L, dim, dim) is overwritten with the in-block products
    P_i = M_i ... M_1, each block of ``_SCAN_STEPS`` steps starting afresh,
    built for all blocks at once. One matrix-vector product per block carries
    the state to the next block start; one batched product then fills every
    state inside the blocks.
    """
    block = _SCAN_STEPS
    for i in range(1, min(block, len(mats))):
        ith = mats[i::block]
        np.matmul(ith, mats[i - 1::block][:len(ith)], out=ith)
    full = len(mats) // block * block
    for p, psi, nxt in zip(mats[block - 1:full:block], out[:full:block], out[block:full + 1:block]):
        np.matmul(p, psi, out=nxt)
    if full:
        inner = out[1:full + 1].reshape(full // block, block, *out.shape[1:])[:, :-1]
        prods = mats[:full].reshape(full // block, block, *mats.shape[1:])[:, :-1]
        np.matmul(prods, out[:full:block, None], out=inner)
    if full < len(mats):
        np.matmul(mats[full:], out[full], out=out[full + 1:])


def _components(model: HamiltonianModel) -> tuple[np.ndarray, ...]:
    """The connected components of the levels that ``static`` or any coupling
    links, as sorted index arrays ordered by their first level. H(t) never
    couples two of them."""
    dim = model.dim
    # reachability by repeated squaring: 2^k >= dim - 1 after dim.bit_length() rounds
    reach = np.any(model.terms != 0.0, axis=0).reshape(dim, dim)
    reach = (reach | reach.T | np.eye(dim, dtype=bool)).astype(int)
    for _ in range(dim.bit_length()):
        reach = np.minimum(reach @ reach, 1)
    return tuple(np.flatnonzero(row) for k, row in enumerate(reach) if row.argmax() == k)


def _first_seen(keys: list) -> np.ndarray:
    """Index of each key among the distinct keys, numbered by first appearance."""
    ids: dict = {}
    return np.array([ids.setdefault(key, len(ids)) for key in keys])


def _lumped(model: HamiltonianModel, levels: np.ndarray,
            columns: np.ndarray) -> tuple[HamiltonianModel, np.ndarray]:
    """The model of ``levels`` (sorted, a union of ``_components``) on the
    coarsest equitable partition of them, and the cell of each level.

    In an equitable partition every column of ``columns`` (len(levels), n)
    is constant on each cell, and every matrix term gives each level of a
    cell the same row sum into each cell. Amplitudes then stay equal within
    a cell, so the lumped model carries the common amplitude of each cell:
    its matrices are ``(G @ indicator)[reps]``, with ``reps`` the first
    level of each cell, and are not Hermitian when cell sizes differ. Its
    couplings keep the model's sources in order. The partition is found by
    colour refinement from the distinct rows of ``columns``; cells are
    numbered by their first level. When every cell is one level the
    matrices are the model's ``levels`` rows and columns, and the model
    itself when ``levels`` are all of its levels.
    """
    size = len(levels)
    # every matrix term on the levels, stacked row-wise: one product gives all row sums
    mats = model.terms.reshape(-1, model.dim, model.dim)[
        np.ix_(np.arange(len(model.terms)), levels, levels)]
    stacked = mats.reshape(-1, size)
    cells = _first_seen([row.tobytes() for row in np.asarray(columns, dtype=complex) + 0.0])
    while True:
        indicator = np.eye(cells.max() + 1)[cells]
        # + 0.0 turns -0.0 into 0.0, so equal sums have equal bytes
        sums = (stacked @ indicator).reshape(-1, size, indicator.shape[1]) + 0.0
        refined = _first_seen([(c, sums[:, k].tobytes()) for k, c in enumerate(cells.tolist())])
        if refined.max() == cells.max():
            break
        cells = refined
    count = cells.max() + 1
    if count == model.dim:
        return model, cells
    reps = np.unique(cells, return_index=True)[1]
    if count < size:
        mats = sums[:, reps]
    rest = iter(mats[1:])
    couplings = [(source, *(next(rest) for _ in own)) for source, *own in model.couplings]
    sub = HamiltonianModel(tuple(model.basis_labels[levels[r]] for r in reps), mats[0], couplings)
    return sub, cells


class _SharedRun:
    """A lumped model of a ``_Plan`` and the blocks of levels that share it.

    ``members`` holds (rows, cells, cols, slot) per block: its levels, their
    cells, the batch columns it holds amplitude in, and their slice of the
    (cells, columns) start amplitudes ``start``. ``pick`` reads each level's
    cell from an array over cells (in place when each cell is one level).
    When the static part is diagonal, ``diagonal`` is it and ``key`` the
    drive columns its idle steps are read from; else both are None.
    """

    def __init__(self, model: HamiltonianModel, members: list, psi0: np.ndarray):
        self.model = model
        self.members = members
        cells = members[0][1]
        count = cells.max() + 1
        self.pick = slice(None) if count == cells.size else cells
        # start columns are constant on each cell: read its first level; the
        # members' slots follow one another
        firsts = np.unique(cells, return_index=True)[1]
        self.start = np.concatenate([psi0[np.ix_(rows[firsts], cols)]
                                     for rows, _, cols, _ in members], axis=1)
        self.diagonal = self.key = None
        static = model.static
        if not (static - np.diag(np.diag(static))).any():
            self.diagonal = np.diag(static)
            # the coefficient columns whose matrix is nonzero on these cells
            self.key = tuple(1 + np.flatnonzero(model.terms[1:].any(axis=1)))


class _Plan:
    """What a run of the (dim, n_states) batch ``psi0`` does on any grid.

    Each block of levels (``_components``) is lumped on its start columns
    (``_lumped``). Blocks with equal lumped models, that is the same cells
    and bitwise-equal ``terms`` (each carries the model's sources in
    order), share one ``_SharedRun`` of ``runs``. A block with no amplitude
    in any column stays exactly zero, so it is left out, and so are the
    columns it holds none in. ``chunk_steps`` is the most steps a chunk
    holds, set by the largest lumped model.
    """

    def __init__(self, model: HamiltonianModel, psi0: np.ndarray):
        self.model = model
        self.psi0 = psi0
        grouped: dict = {}
        for rows in _components(model):
            cols = np.flatnonzero(np.any(psi0[rows] != 0.0, axis=0))
            if not cols.size:
                continue
            sub, cells = _lumped(model, rows, psi0[np.ix_(rows, cols)])
            _, members = grouped.setdefault((cells.tobytes(), sub.terms.tobytes()), (sub, []))
            width = sum(taken.size for _, _, taken, _ in members)
            members.append((rows, cells, cols, slice(width, width + cols.size)))
        self.runs = [_SharedRun(sub, members, psi0) for sub, members in grouped.values()]
        largest = max(shared.model.dim for shared in self.runs)
        self.chunk_steps = min(_CHUNK_STEPS, _CHUNK_ENTRIES // largest**2)


def _run_fixed_step(plan: _Plan, grid: TimeGrid):
    """Samples, norm drift and maximum populations of the plan's batch on ``grid``.

    The shared runs go in lockstep through each chunk, whose coefficients,
    evaluated once at every node, serve them all. A step is idle for a run
    with a key when every coefficient in the key is zero at all its nodes,
    found once per chunk and key: an idle stretch is its first state times
    the idle factor's powers, unsampled; a driven stretch applies its
    transfer matrices by a blocked prefix scan. A level's sample or maximum
    is its cell's; a column's norm sums every level of every block it spans.
    """
    h = grid.step
    n = grid.n_steps
    sample_idx = grid.sample_indices()
    dim, width = plan.psi0.shape
    chunk_steps = min(plan.chunk_steps, n)

    samples = np.zeros((sample_idx.size, dim, width), dtype=complex)
    samples[0] = plan.psi0
    drift = float(np.max(np.abs(np.sum(np.abs(plan.psi0) ** 2, axis=0) - 1.0)))

    # what depends on the step: each run's (chunk + 1, cells, columns) state
    # buffer, the powers of its idle factor, and its maximum populations
    lanes = []
    for shared in plan.runs:
        out = np.empty((chunk_steps + 1, *shared.start.shape), dtype=complex)
        out[0] = shared.start
        powers = (None if shared.diagonal is None
                  else _rk4_idle_powers(shared.diagonal, h, chunk_steps))
        lanes.append((shared, out, powers, np.abs(shared.start) ** 2))
    done = 0
    while done < n:
        chunk = min(chunk_steps, n - done)
        nodes = _rk4_nodes(grid.t_start, h, done, chunk)
        coeffs = plan.model.coefficients(nodes)
        lo, hi = np.searchsorted(sample_idx, (done, done + chunk), side="right")
        norms = np.zeros((chunk, width))
        runs = {}
        for shared, out, powers, max_pops in lanes:
            if shared.key not in runs:
                idle = (np.zeros(chunk, dtype=bool) if shared.key is None
                        else _rk4_whole_steps(~np.any(coeffs[:, shared.key] != 0.0, axis=1)))
                edges = [0, *(np.flatnonzero(np.diff(idle)) + 1).tolist(), chunk]
                runs[shared.key] = [(a, b, idle[a]) for a, b in zip(edges, edges[1:])]
            for a, b, idle_run in runs[shared.key]:
                if idle_run:
                    np.multiply(powers[:b - a], out[a], out=out[a + 1:b + 1])
                    continue
                span = _rk4_node_span(a, b)
                _scan(_rk4_transfer(shared.model.sample(nodes[span], coeffs[span]), h),
                      out[a:b + 1])

            pops = np.abs(out[1:chunk + 1]) ** 2
            np.maximum(max_pops, pops.max(axis=0), out=max_pops)
            # every level counts its cell's population; einsum sums over the
            # levels as sum(axis=1) does, several times faster
            col_norms = np.einsum("sdw->sw", pops[:, shared.pick])
            states = out[sample_idx[lo:hi] - done][:, shared.pick]
            for rows, _, cols, slot in shared.members:
                norms[:, cols] += col_norms[:, slot]
                samples[lo:hi, rows[:, None], cols] = states[:, :, slot]
            out[0] = out[chunk]
        # np.maximum, unlike max(), keeps a NaN drift from an overflowed step
        drift = float(np.maximum(drift, np.max(np.abs(norms - 1.0))))
        done += chunk

    max_pops = np.zeros((dim, width))
    for shared, _, _, reached in lanes:
        for rows, _, cols, slot in shared.members:
            max_pops[rows[:, None], cols] = reached[shared.pick][:, slot]
    return samples, drift, max_pops


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


def _preflight(hamiltonian, states: list[StateVector]) -> _Plan:
    """The plan of the states' (dim, n_states) amplitude block, once they share one
    basis with the model."""
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
    return _Plan(model, np.stack([st.amplitudes for st in states], axis=1))


def _trajectories(run, labels: tuple[str, ...], grid: TimeGrid) -> list[Trajectory]:
    """One Trajectory per column of a fixed-step run's amplitude block."""
    samples, drift, max_pops = run
    times = grid.sample_times()
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
    plan = _preflight(hamiltonian, states)
    run = _run_fixed_step(plan, grid)
    drift = run[1]
    if check_quality and not drift <= NORM_DRIFT_LIMIT:
        raise IntegrationQualityError(
            f"norm drift {drift:.3e} exceeds {NORM_DRIFT_LIMIT}; "
            f"refine the step (current {grid.step:.3e}) or use converge_many()"
        )
    return _trajectories(run, plan.model.basis_labels, grid)


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
    when the halving cap is exhausted, IntegrationQualityError at the first
    terminal distance that is not finite, and ValueError for a tolerance
    that is not a positive finite number.
    """
    if not (math.isfinite(tolerance) and tolerance > 0.0):
        raise ValueError(f"tolerance must be a positive finite number, got {tolerance!r}")
    plan = _preflight(hamiltonian, states)
    h0 = _rk4_start_step(plan.model, grid)
    clamped = h0 < grid.step
    current = TimeGrid(grid.t_start, grid.t_end, h0, grid.sample_stride) if clamped else grid
    run = _run_fixed_step(plan, current)
    steps = [current.step]
    distances: list[float] = []
    for _ in range(max_halvings):
        # a copy, so the coarse rung's samples are freed once the fine run replaces them
        coarse_final = run[0][-1].copy()
        current = current.refined()
        run = _run_fixed_step(plan, current)
        steps.append(current.step)
        dist = float(np.max(np.linalg.norm(run[0][-1] - coarse_final, axis=0)))
        if not math.isfinite(dist):
            # the first rung is clamped inside RK4's stability region and each rung
            # halves the step, so a state that is not finite comes from a
            # Hamiltonian that is not, and no finer rung mends it
            raise IntegrationQualityError(
                f"terminal distance {dist} at step {current.step:.3e} is not finite"
            )
        distances.append(dist)
        drift = run[1]
        if dist <= tolerance and drift <= NORM_DRIFT_LIMIT:
            return _trajectories(run, plan.model.basis_labels, current), ConvergenceReport(
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
    raise ConvergenceError(
        f"terminal states did not converge to {tolerance} within "
        f"{max_halvings} halvings (distances: "
        + ", ".join(f"{d:.3e}" for d in distances)
        + ")"
    )
