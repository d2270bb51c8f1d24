"""Seeded workload inputs and the oracle check of every operation.

A workload is a cycle of CLI operations. The seed draws each operation's
parameters from narrow ranges around the shipped configs, inside the regime
where the acceptance criteria hold, so every seed does about the same work.
The base config is written as YAML and the seeded values reach the program
as ``--set`` overrides, so set-up goes through load, override and parse.

Tolerances are the ones the acceptance tests use.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field
from typing import Callable

import yaml

from stirapgates.geomphase import two_qubit_phase
from stirapgates.propagator import NORM_DRIFT_LIMIT
from stirapgates.pulses import build_schedule
from stirapgates.qcore import principal_angle

FIDELITY_MIN = 0.999
PHASE_GATE_TOL = 2e-3       # test_gates: phase-gate phase against target
PAIR_PHASE_TOL = 5e-3       # test_gates and criterion 5: pair phases
HADAMARD_AMP_TOL = 1e-3     # criterion 3: worst amplitude error
TRANSPORT_TOL = 0.01        # criterion 1: terminal transport phase
QUAD_CLOSED_TOL = 2e-4      # criterion 2: quadrature against closed form
EXACT_TOL = 1e-9            # closed-form identities
POPULATION_MIN = 0.999      # criterion 1: population back in q

# Ladder tolerance of the gate workloads. The shipped configs ask for 1e-6,
# which takes 4-5 rungs and 5-13 s per gate: a run then holds one or two
# cycles and its figures follow the load on the host during those seconds.
# At 1e-4 a gate takes 2-3 rungs and 1-3 s. The accepted rung is the same
# for every seed: the last ladder distance is 1.8-5x below the tolerance and
# the one before it 3-8x above. Every oracle still holds with margin:
# fidelity >= 0.99995 and phase errors <= 2e-4.
GATE_TOLERANCE = 1e-4


@dataclass
class Op:
    """One CLI call: ``stirapgates <command> --config <base> --set ...``."""

    name: str
    command: str
    base: dict
    overrides: dict
    check: Callable[[str], tuple[list[str], float]]
    config_path: str = ""
    out_dir: str = ""
    argv: list[str] = field(default_factory=list)

    @property
    def assignments(self) -> list[str]:
        return [f"{path}={value!r}" for path, value in self.overrides.items()]

    def prepare(self, workdir: str) -> None:
        """Write the base config and build the CLI arguments."""
        self.config_path = os.path.join(workdir, f"{self.name}.yaml")
        with open(self.config_path, "w", encoding="utf-8") as fh:
            yaml.safe_dump(self.base, fh, sort_keys=True)
        self.out_dir = os.path.join(workdir, self.name)
        self.argv = [self.command, "--config", self.config_path, "--out", self.out_dir]
        for assignment in self.assignments:
            self.argv += ["--set", assignment]


def _jit(rng: random.Random, centre: float, rel: float) -> float:
    return centre * (1.0 + rng.uniform(-rel, rel))


def _load(out_dir: str, name: str) -> dict:
    with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
        return json.load(fh)


def _limit(errors: list[str], label: str, value: float, bound: float) -> None:
    if not value <= bound:
        errors.append(f"{label} {value:.3e} exceeds {bound:.1e}")


def _gate_common(g: dict, errors: list[str]) -> None:
    if not g["fidelity"] >= FIDELITY_MIN:
        errors.append(f"fidelity {g['fidelity']:.6f} below {FIDELITY_MIN}")
    _limit(errors, "norm drift", g["convergence"]["norm_drift"], NORM_DRIFT_LIMIT)


def _check_phase_gate(target: float):
    def check(out_dir: str) -> tuple[list[str], float]:
        g = _load(out_dir, "gate.json")
        errors: list[str] = []
        _gate_common(g, errors)
        to_target = abs(principal_angle(g["phase"] - target))
        to_pred = abs(principal_angle(g["phase"] - g["predicted_phase"]))
        closed = abs(principal_angle(g["predicted_phase"] - target))
        _limit(errors, "phase - target", to_target, PHASE_GATE_TOL)
        _limit(errors, "phase - predicted", to_pred, PHASE_GATE_TOL)
        _limit(errors, "closed form - target", closed, EXACT_TOL)
        return errors, max(to_target, to_pred, closed)

    return check


def _check_hadamard(out_dir: str) -> tuple[list[str], float]:
    g = _load(out_dir, "gate.json")
    errors: list[str] = []
    _gate_common(g, errors)
    h = 1.0 / math.sqrt(2.0)
    target = ((h, h), (h, -h))
    amp = max(
        abs(complex(g["unitary"]["real"][i][j], g["unitary"]["imag"][i][j]) - target[i][j])
        for i in range(2)
        for j in range(2)
    )
    closed = abs(principal_angle(g["predicted_phase"] + math.pi))
    _limit(errors, "amplitude error", amp, HADAMARD_AMP_TOL)
    _limit(errors, "closed form + pi", closed, EXACT_TOL)
    return errors, max(amp, closed)


def _check_controlled_phase(target: float):
    def check(out_dir: str) -> tuple[list[str], float]:
        g = _load(out_dir, "gate.json")
        errors: list[str] = []
        _gate_common(g, errors)
        to_target = abs(principal_angle(g["phase"] - target))
        to_pred = abs(principal_angle(g["phase"] - g["predicted_phase"]))
        solved = abs(principal_angle(g["predicted_phase"] - target))
        _limit(errors, "phase - target", to_target, PAIR_PHASE_TOL)
        _limit(errors, "phase - predicted", to_pred, PAIR_PHASE_TOL)
        _limit(errors, "solved delay phase - target", solved, EXACT_TOL)
        return errors, max(to_target, to_pred, solved)

    return check


def _check_transport(slope: float, sequence_delay: float):
    def check(out_dir: str) -> tuple[list[str], float]:
        s = _load(out_dir, "summary.json")
        errors: list[str] = []
        _limit(errors, "norm drift", s["norm_drift"], NORM_DRIFT_LIMIT)
        err = abs(principal_angle(s["terminal_phases"]["q"] + slope * sequence_delay))
        _limit(errors, "terminal phase + slope * delay", err, TRANSPORT_TOL)
        pop = s["terminal_populations"]["q"]
        if not pop >= POPULATION_MIN:
            errors.append(f"population back in q {pop:.6f} below {POPULATION_MIN}")
        return errors, err

    return check


def _check_pair_transport(schedule: tuple, shift: float, peaks: tuple):
    quad = two_qubit_phase(build_schedule(*schedule), shift,
                           peak_1=peaks[0], peak_2=peaks[1]).value

    def check(out_dir: str) -> tuple[list[str], float]:
        s = _load(out_dir, "summary.json")
        errors: list[str] = []
        _limit(errors, "norm drift", s["norm_drift"], NORM_DRIFT_LIMIT)
        err = abs(principal_angle(s["terminal_phases"]["11"] - quad))
        _limit(errors, "terminal phase - quadrature", err, PAIR_PHASE_TOL)
        return errors, err

    return check


def _check_ramp_phase(slope: float, sequence_delay: float):
    def check(out_dir: str) -> tuple[list[str], float]:
        p = _load(out_dir, "phase.json")
        errors: list[str] = []
        quad = abs(p["numeric"] - p["closed_form"])
        closed = abs(p["closed_form"] + slope * sequence_delay)
        _limit(errors, "quadrature - closed form", quad, QUAD_CLOSED_TOL)
        _limit(errors, "closed form + slope * delay", closed, EXACT_TOL)
        return errors, max(quad, closed)

    return check


def _check_pair_law(out_dir: str) -> tuple[list[str], float]:
    p = _load(out_dir, "phase.json")
    errors: list[str] = []
    err = abs(p["quadrature"] - p["transport_phase"])
    _limit(errors, "quadrature - transport law", err, PAIR_PHASE_TOL)
    return errors, err


def _schedule_overrides(rng: random.Random, tau: float, pulse_delay: float,
                        sequence_delay: float) -> dict:
    return {
        "schedule.tau": _jit(rng, tau, 0.01),
        "schedule.pulse_delay": _jit(rng, pulse_delay, 0.02),
        "schedule.sequence_delay": _jit(rng, sequence_delay, 0.02),
    }


def _time_origin(rng: random.Random) -> dict:
    return {"schedule.t_start": rng.uniform(0.0, 5.0)}


# ---------------------------------------------------------------------------
# Workloads


# The gate workloads keep the pulse shape (tau, delays, peak) at the shipped
# values and draw the time origin and the target instead. The ladder's rung
# count is a sensitive function of the pulse shape: a 1 % change of the peak
# moves the Hadamard between 4 and 5 rungs, and a rung doubles the work.


def gate_single(rng: random.Random) -> list[Op]:
    """Phase gate (lambda, dim 3, 1 start) and Hadamard (tripod, dim 4, 2 starts)."""
    target = -0.5 * math.pi * (1.0 + rng.uniform(-0.1, 0.1))
    schedule = {"tau": 2.0, "pulse_delay": 0.8, "sequence_delay": 8.0}
    phase = Op(
        "phase_gate", "gate",
        {"system": {"kind": "lambda"}, "schedule": schedule,
         "gate": {"kind": "phase", "target_phase": -0.5 * math.pi, "peak_rabi": 300.0},
         "grid": {"tolerance": GATE_TOLERANCE}},
        {**_time_origin(rng), "gate.target_phase": target},
        _check_phase_gate(target),
    )
    hadamard = Op(
        "hadamard", "gate",
        {"system": {"kind": "tripod"}, "schedule": schedule,
         "gate": {"kind": "hadamard", "peak_rabi": 300.0},
         "grid": {"tolerance": GATE_TOLERANCE}},
        _time_origin(rng),
        _check_hadamard,
    )
    return [phase, hadamard]


def gate_pair(rng: random.Random) -> list[Op]:
    """Controlled phase (dim 16, 4 starts) with the hold at about 74 % and 86 %.

    The hold fraction is set by the solved sequence delay, that is by the
    target phase over the shift: a quarter turn at shift 0.05 holds for
    74 % of the span and a half turn for 86 %. One operation sits at each
    end so that every cycle covers the range with the same total work.
    """
    ops = []
    for name, centre in (("cphase_quarter", -0.5 * math.pi), ("cphase_half", -math.pi)):
        target = centre * (1.0 - rng.uniform(0.0, 0.02))
        ops.append(Op(
            name, "gate",
            {"system": {"kind": "two_atom", "interaction_shift": 0.05},
             "schedule": {"tau": 2.0, "pulse_delay": 0.8, "sequence_delay": 8.0},
             "gate": {"kind": "controlled_phase", "target_phase": -0.5 * math.pi,
                      "peak_rabi": 160.0},
             "grid": {"tolerance": GATE_TOLERANCE}},
            {**_time_origin(rng), "system.interaction_shift": _jit(rng, 0.05, 0.02),
             "gate.target_phase": target},
            _check_controlled_phase(target),
        ))
    return ops


def trajectory_dense(rng: random.Random) -> list[Op]:
    """Fixed-step simulate with every step stored: lambda transport and the pair from 11."""
    dense = {"tolerance": None, "base_step": 5e-4, "sample_stride": 1}
    slope = rng.uniform(0.8, 1.2)
    lam_sched = _schedule_overrides(rng, 1.0, 1.0, 5.0)
    lam_peak = _jit(rng, 120.0, 0.02)
    lam = Op(
        "transport_lambda", "simulate",
        {"system": {"kind": "lambda", "initial_state": "q"},
         "schedule": {"tau": 1.0, "pulse_delay": 1.0, "sequence_delay": 5.0},
         "drives": [{"level": "q", "role": "pump", "peak_rabi": 120.0},
                    {"level": "s", "role": "stokes", "peak_rabi": 120.0, "phase_slope": 1.0}],
         "grid": dense},
        {**lam_sched, "drives.0.peak_rabi": lam_peak, "drives.1.peak_rabi": lam_peak,
         "drives.1.phase_slope": slope},
        _check_transport(slope, lam_sched["schedule.sequence_delay"]),
    )
    pair_sched = _schedule_overrides(rng, 2.0, 0.8, 8.0)
    shift = _jit(rng, 0.05, 0.02)
    peaks = (_jit(rng, 160.0, 0.02), _jit(rng, 160.0, 0.02))
    pair = Op(
        "transport_pair", "simulate",
        {"system": {"kind": "two_atom", "interaction_shift": 0.05, "initial_state": "11"},
         "schedule": {"tau": 2.0, "pulse_delay": 0.8, "sequence_delay": 8.0},
         "drives": [{"level": "1", "role": "pump", "peak_rabi": 160.0},
                    {"level": "2", "role": "stokes", "peak_rabi": 160.0}],
         "grid": dense},
        {**pair_sched, "system.interaction_shift": shift,
         "drives.0.peak_rabi": peaks[0], "drives.1.peak_rabi": peaks[1]},
        _check_pair_transport(
            (pair_sched["schedule.tau"], pair_sched["schedule.pulse_delay"],
             pair_sched["schedule.sequence_delay"]),
            shift, peaks),
    )
    return [lam, pair]


def phase_predict(rng: random.Random) -> list[Op]:
    """Quadrature predictions (lambda, tripod) and the dark-pair transport law."""
    ops = []
    for name, kind, drives in (
        ("ramp_lambda", "lambda",
         [{"level": "q", "role": "pump", "peak_rabi": 120.0},
          {"level": "s", "role": "stokes", "peak_rabi": 120.0, "phase_slope": 1.0}]),
        ("ramp_tripod", "tripod",
         [{"level": "0", "role": "pump", "peak_rabi": 50.0},
          {"level": "1", "role": "pump", "peak_rabi": 120.0},
          {"level": "2", "role": "stokes", "peak_rabi": 130.0, "phase_slope": 1.0}]),
    ):
        # The closed form needs the combined pump peak equal to the stokes
        # peak, so every peak moves by one factor.
        slope = rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 1.5)
        sched = _schedule_overrides(rng, 1.0, 1.0, 5.0)
        scale = _jit(rng, 1.0, 0.02)
        peaks = {f"drives.{i}.peak_rabi": d["peak_rabi"] * scale for i, d in enumerate(drives)}
        ops.append(Op(
            name, "phase",
            {"system": {"kind": kind}, "schedule": {"tau": 1.0, "pulse_delay": 1.0,
                                                    "sequence_delay": 5.0},
             "drives": drives, "grid": {}},
            {**sched, **peaks, f"drives.{len(drives) - 1}.phase_slope": slope},
            _check_ramp_phase(slope, sched["schedule.sequence_delay"]),
        ))
    ops.append(Op(
        "pair_law", "phase",
        {"system": {"kind": "two_atom", "interaction_shift": 0.01},
         "schedule": {"tau": 4.0, "pulse_delay": 1.6, "sequence_delay": 16.0},
         "drives": [{"level": "1", "role": "pump", "peak_rabi": 120.0},
                    {"level": "2", "role": "stokes", "peak_rabi": 120.0}],
         "grid": {}},
        {**_schedule_overrides(rng, 4.0, 1.6, 16.0),
         "system.interaction_shift": _jit(rng, 0.01, 0.05),
         "drives.0.peak_rabi": _jit(rng, 120.0, 0.02),
         "drives.1.peak_rabi": _jit(rng, 120.0, 0.02)},
        _check_pair_law,
    ))
    return ops


def dense_predict(rng: random.Random) -> list[Op]:
    """Dense trajectories, then phase predictions: the uses that bypass ``gates``.

    They share a workload so that each workload's runs are long enough to
    average over the host's slow and fast periods within the benchmark's
    time limit; the trace still tells the two apart by module.
    """
    return trajectory_dense(rng) + phase_predict(rng)


WORKLOADS: dict[str, Callable[[random.Random], list[Op]]] = {
    "gate_single": gate_single,
    "gate_pair": gate_pair,
    "dense_predict": dense_predict,
}


def generate(workload: str, seed: int) -> list[Op]:
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
