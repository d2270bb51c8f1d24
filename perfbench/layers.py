"""Layer microbenchmarks and workload-property counts.

The microbenchmarks call one public function each on fixed inputs built
from the shipped gate schedule, warm it up, and report the median of
several timed repeats. The counts come from the arguments and the
ConvergenceReport that the traced propagation entry points saw, so they
repeat exactly for a given input.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter

import numpy as np

from stirapgates.cli import apply_override, load_config, parse_config
from stirapgates.geomphase import (
    berry_phase_numeric,
    integrate_piecewise,
    schedule_breakpoints,
    wz_hamiltonian,
)
from stirapgates.propagator import TimeGrid, extract_observables, propagate_many
from stirapgates.pulses import DriveField, MixingProfile, PhaseRamp, build_schedule
from stirapgates.qcore import StateVector, basis_state
from stirapgates.systems import LambdaSystem, TripodSystem, TwoAtomSystem, sequence_fields

CHUNK_STEPS = 4096          # steps per Hamiltonian sampling chunk in the propagator
CHUNK_POINTS = 2 * CHUNK_STEPS + 1
STEP = 2e-4                 # fixed step of the step-cost runs
STEP_RUN = 2048             # steps per step-cost run
REACH_PROBES = 4097


def _median_time(fn, repeats: int, number: int = 1) -> float:
    """Median seconds per call over ``repeats`` batches, after one warm-up call."""
    fn()
    samples = []
    for _ in range(repeats):
        t0 = perf_counter()
        for _ in range(number):
            fn()
        samples.append((perf_counter() - t0) / number)
    return statistics.median(samples)


def _models(schedule):
    pump, stokes = sequence_fields(schedule, 300.0, 300.0, "q", "s",
                                   stokes_phase=PhaseRamp(kind="linear", slope=0.2))
    lam = LambdaSystem(pump=pump, stokes=stokes).model()
    ratio = math.sqrt(2.0) - 1.0
    tripod = TripodSystem(drives={
        "0": DriveField("0", schedule.pump_envelopes(300.0 * ratio),
                        PhaseRamp(kind="constant", offset=math.pi)),
        "1": DriveField("1", schedule.pump_envelopes(300.0)),
        "2": DriveField("2", schedule.stokes_envelopes(300.0 * math.hypot(ratio, 1.0)),
                        PhaseRamp(kind="linear", slope=0.4)),
    }).model()
    pair = TwoAtomSystem(drives={
        "1": DriveField("1", schedule.pump_envelopes(160.0)),
        "2": DriveField("2", schedule.stokes_envelopes(160.0)),
    }, interaction_shift=0.05).model()
    return lam, tripod, pair


def microbenchmarks(ops) -> dict[str, float]:
    """Per-call costs of the hot public functions, in microseconds unless named _s."""
    sched = build_schedule(2.0, 0.8, 8.0)
    lam, tripod, pair = _models(sched)
    out: dict[str, float] = {}

    span_times = np.linspace(sched.t_start, sched.support_end, CHUNK_POINTS)
    field = DriveField("q", sched.pump_envelopes(300.0))
    out["pulses.amplitude_us_per_pt"] = 1e6 * _median_time(
        lambda: field.amplitude(span_times), 9, 5) / CHUNK_POINTS
    profile = MixingProfile(sched, 300.0, 300.0)
    singles = [np.array([t]) for t in np.linspace(sched.t_start, sched.support_end, 256)]

    def mix_points():
        for t in singles:
            profile.values(t)

    out["pulses.mixing_us_per_pt"] = 1e6 * _median_time(mix_points, 9) / len(singles)

    for tag, model in (("d3", lam), ("d4", tripod), ("d16", pair)):
        out[f"systems.sample_us_per_pt.{tag}"] = 1e6 * _median_time(
            lambda m=model: m.sample(span_times), 9, 3) / CHUNK_POINTS

    t_on = sched.t_a
    grid = TimeGrid(t_on, t_on + STEP_RUN * STEP, STEP, sample_stride=16)
    pair_labels = tuple(pair.basis_labels)

    def transport_law(t: float) -> np.ndarray:
        weight = profile.values(np.array([t]))[0][0]
        return wz_hamiltonian(math.asin(math.sqrt(weight)), 0.01)

    runs = {
        "d3w1": (lam, [basis_state(lam.basis_labels, "q")]),
        "d4w2": (tripod, [basis_state(tripod.basis_labels, lv) for lv in ("0", "1")]),
        "d16w1": (pair, [basis_state(pair_labels, "11")]),
        "d16w4": (pair, [basis_state(pair_labels, lv) for lv in ("00", "01", "10", "11")]),
        "d2w1": (transport_law, [StateVector(np.array([1.0, 0.0]), ("D5", "D6"))]),
    }
    for tag, (model, starts) in runs.items():
        out[f"propagator.step_us.{tag}"] = 1e6 * _median_time(
            lambda m=model, s=starts: propagate_many(m, s, grid, check_quality=False),
            3) / STEP_RUN

    dense = propagate_many(pair, runs["d16w1"][1], TimeGrid(t_on, grid.t_end, STEP),
                           check_quality=False)[0]
    out["propagator.observables_us_per_sample"] = 1e6 * _median_time(
        lambda: extract_observables(dense), 9) / len(dense.times)

    ramp = PhaseRamp(kind="linear", slope=0.2)
    out["geomphase.quadrature_us"] = 1e6 * _median_time(
        lambda: berry_phase_numeric(sched, ramp, 300.0, 300.0), 9, 3)
    counted = [0]

    def count_points(times):
        counted[0] += len(times)
        return np.zeros(len(times))

    integrate_piecewise(count_points, sched.t_start, sched.support_end,
                        schedule_breakpoints(sched), intervals=96)
    out["geomphase.integrand_pts"] = float(counted[0])

    def parse_all():
        for op in ops:
            raw = load_config(op.config_path)
            for assignment in op.assignments:
                apply_override(raw, assignment)
            parse_config(raw)

    out["cli.parse_s"] = _median_time(parse_all, 9) / len(ops)
    return out


# ---------------------------------------------------------------------------
# Counts from the traced propagation calls


def _rung_steps(grid, report) -> list[int]:
    if report is None:
        return [grid.n_steps]
    first = round(grid.span / report.steps[0])
    return [first << k for k in range(len(report.steps))]


def _idle_steps(model, grid, n: int) -> int:
    """Steps whose three RK4 stage times all see every drive at zero."""
    if not hasattr(model, "coefficients"):
        return 0
    half = grid.t_start + (grid.span / n) * 0.5 * np.arange(2 * n + 1)
    zero = ~np.any(model.coefficients(half)[:, 1:] != 0.0, axis=1)
    return int(np.count_nonzero(zero[0:-1:2] & zero[1::2] & zero[2::2]))


def _reachable(model, grid, starts) -> int:
    """Levels reachable from each start through the Hamiltonian's nonzero pattern."""
    probes = np.linspace(grid.t_start, grid.t_end, REACH_PROBES)
    if hasattr(model, "sample"):
        stack = model.sample(probes)
    else:
        stack = np.stack([np.asarray(model(float(t))) for t in probes[::16]])
    coupled = np.any(stack != 0.0, axis=0)
    total = 0
    for state in starts:
        seen = set(np.flatnonzero(state.amplitudes).tolist())
        frontier = list(seen)
        while frontier:
            level = frontier.pop()
            for nxt in np.flatnonzero(coupled[level]).tolist():
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        total += len(seen)
    return total


def propagation_counts(captures) -> dict[str, float]:
    steps = finest = rungs = idle = 0
    reach = dims = 0
    for model, starts, grid, report in captures:
        per_rung = _rung_steps(grid, report)
        steps += sum(per_rung)
        finest += per_rung[-1]
        rungs += len(per_rung)
        idle += sum(_idle_steps(model, grid, n) for n in per_rung)
        reach += _reachable(model, grid, starts)
        dims += len(starts) * starts[0].amplitudes.size
    return {
        "propagator.steps_total": float(steps),
        "propagator.rungs": float(rungs),
        "propagator.ladder_ratio": steps / finest if finest else 0.0,
        "propagator.idle_step_frac": idle / steps if steps else 0.0,
        "systems.reachable_frac": reach / dims if dims else 0.0,
    }
