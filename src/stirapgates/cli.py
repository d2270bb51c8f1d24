"""Command-line front end.

Runs are described by a YAML file and produce CSV/JSON outputs plus a
manifest with content hashes, so a run can be re-executed and compared
byte for byte. Exit codes: 0 success, 1 configuration or usage error,
2 integration- or gate-quality failure, 3 partial sweep failure (some
rows failed; their error column says why).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import itertools
import json
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
import yaml

from . import __version__
from .gates import (
    GateReport,
    GateSpec,
    LeakageError,
    run_controlled_phase,
    run_hadamard,
    run_phase_gate,
)
from .geomphase import (
    berry_phase_closed_form,
    berry_phase_numeric,
    two_qubit_phase,
    wz_propagate,
)
from .propagator import IntegrationQualityError, TimeGrid, converge_many, propagate_many
from .pulses import DriveField, PhaseRamp, StirapSchedule, build_schedule
from .qcore import basis_state
from .systems import (
    LAMBDA_LABELS,
    TRIPOD_LABELS,
    TWO_ATOM_LABELS,
    LambdaSystem,
    TripodSystem,
    TwoAtomSystem,
)


class ConfigError(ValueError):
    """A configuration file or override is invalid; names the field."""


# ---------------------------------------------------------------------------
# Configuration schema


@dataclass(frozen=True)
class SystemConfig:
    kind: str
    detuning: float
    interaction_shift: float
    initial_state: str | None


@dataclass(frozen=True)
class ScheduleConfig:
    tau: float
    pulse_delay: float
    sequence_delay: float
    t_start: float


@dataclass(frozen=True)
class DriveConfig:
    level: str
    role: str
    peak_rabi: float
    phase_slope: float
    phase_offset: float


@dataclass(frozen=True)
class GridConfig:
    base_step: float | None
    sample_stride: int
    tolerance: float | None
    t_end: float | None


@dataclass(frozen=True)
class GateConfig:
    kind: str
    target_phase: float
    peak_rabi: float
    margin: float | None


@dataclass(frozen=True)
class AxisConfig:
    parameter: str
    start: float
    stop: float
    points: int


@dataclass(frozen=True)
class ExperimentConfig:
    system: SystemConfig
    schedule: ScheduleConfig
    drives: tuple[DriveConfig, ...]
    grid: GridConfig
    gate: GateConfig | None
    sweep_axes: tuple[AxisConfig, ...]
    seed: int | None
    output_dir: str | None


def _expect_mapping(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected a mapping, got {type(value).__name__}")
    return value


def _take(mapping: dict, key: str, path: str, default=None, required: bool = False):
    if key in mapping:
        return mapping.pop(key)
    if required:
        raise ConfigError(f"{path}.{key}: required field is missing")
    return default


def _reject_extras(mapping: dict, path: str) -> None:
    if mapping:
        raise ConfigError(f"{path}: unknown field(s) {sorted(mapping)}")


def _as_float(value, path: str) -> float:
    # YAML 1.1 leaves exponent forms like 1e-6 as strings; accept them
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    try:
        number = float(value)
    except ValueError:
        raise ConfigError(f"{path}: expected a number, got {value!r}") from None
    except OverflowError:  # an integer too large for a float
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{path}: expected a finite number, got {value!r}")
    return number


def _as_optional_float(value, path: str) -> float | None:
    return None if value is None else _as_float(value, path)


def _as_int(value, path: str) -> int:
    # sweep axes come from np.linspace, so an integral float counts as integer
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    return value


def _as_choice(value, path: str, choices: tuple[str, ...]) -> str:
    if value not in choices:
        raise ConfigError(f"{path}: expected one of {choices}, got {value!r}")
    return value


def parse_config(raw: dict) -> ExperimentConfig:
    """Validate a raw mapping into a typed configuration."""
    top = dict(_expect_mapping(raw, "config"))

    sys_raw = dict(_expect_mapping(_take(top, "system", "config", required=True), "system"))
    kind = _as_choice(_take(sys_raw, "kind", "system", required=True), "system.kind",
                      ("lambda", "tripod", "two_atom"))
    initial = _take(sys_raw, "initial_state", "system", default=None)
    system = SystemConfig(
        kind=kind,
        detuning=_as_float(_take(sys_raw, "detuning", "system", default=0.0), "system.detuning"),
        interaction_shift=_as_float(
            _take(sys_raw, "interaction_shift", "system", default=0.0),
            "system.interaction_shift",
        ),
        initial_state=None if initial is None else str(initial),
    )
    _reject_extras(sys_raw, "system")

    sch_raw = dict(_expect_mapping(_take(top, "schedule", "config", required=True), "schedule"))
    schedule = ScheduleConfig(
        tau=_as_float(_take(sch_raw, "tau", "schedule", required=True), "schedule.tau"),
        pulse_delay=_as_float(
            _take(sch_raw, "pulse_delay", "schedule", required=True), "schedule.pulse_delay"
        ),
        sequence_delay=_as_float(
            _take(sch_raw, "sequence_delay", "schedule", required=True),
            "schedule.sequence_delay",
        ),
        t_start=_as_float(_take(sch_raw, "t_start", "schedule", default=0.0), "schedule.t_start"),
    )
    _reject_extras(sch_raw, "schedule")

    drives_raw = _take(top, "drives", "config", default=[])
    if not isinstance(drives_raw, list):
        raise ConfigError("drives: expected a list")
    drives = []
    for i, item in enumerate(drives_raw):
        path = f"drives.{i}"
        entry = dict(_expect_mapping(item, path))
        drives.append(
            DriveConfig(
                level=str(_take(entry, "level", path, required=True)),
                role=_as_choice(
                    _take(entry, "role", path, required=True), f"{path}.role", ("pump", "stokes")
                ),
                peak_rabi=_as_float(
                    _take(entry, "peak_rabi", path, required=True), f"{path}.peak_rabi"
                ),
                phase_slope=_as_float(
                    _take(entry, "phase_slope", path, default=0.0), f"{path}.phase_slope"
                ),
                phase_offset=_as_float(
                    _take(entry, "phase_offset", path, default=0.0), f"{path}.phase_offset"
                ),
            )
        )
        _reject_extras(entry, path)

    grid_raw = dict(_expect_mapping(_take(top, "grid", "config", default={}), "grid"))
    grid = GridConfig(
        base_step=_as_optional_float(
            _take(grid_raw, "base_step", "grid", default=None), "grid.base_step"
        ),
        sample_stride=_as_int(
            _take(grid_raw, "sample_stride", "grid", default=16), "grid.sample_stride"
        ),
        tolerance=_as_optional_float(
            _take(grid_raw, "tolerance", "grid", default=1e-8), "grid.tolerance"
        ),
        t_end=_as_optional_float(_take(grid_raw, "t_end", "grid", default=None), "grid.t_end"),
    )
    if grid.sample_stride < 1:
        raise ConfigError("grid.sample_stride: must be at least 1")
    _reject_extras(grid_raw, "grid")

    gate_raw = _take(top, "gate", "config", default=None)
    gate = None
    if gate_raw is not None:
        entry = dict(_expect_mapping(gate_raw, "gate"))
        gate = GateConfig(
            kind=_as_choice(
                _take(entry, "kind", "gate", required=True),
                "gate.kind",
                ("phase", "hadamard", "controlled_phase"),
            ),
            target_phase=_as_float(
                _take(entry, "target_phase", "gate", default=0.0), "gate.target_phase"
            ),
            peak_rabi=_as_float(
                _take(entry, "peak_rabi", "gate", required=True), "gate.peak_rabi"
            ),
            margin=_as_optional_float(_take(entry, "margin", "gate", default=None), "gate.margin"),
        )
        _reject_extras(entry, "gate")

    sweep_raw = _take(top, "sweep", "config", default=None)
    axes = []
    if sweep_raw is not None:
        entry = dict(_expect_mapping(sweep_raw, "sweep"))
        axes_raw = _take(entry, "axes", "sweep", required=True)
        _reject_extras(entry, "sweep")
        if not isinstance(axes_raw, list) or not axes_raw:
            raise ConfigError("sweep.axes: expected a non-empty list")
        for i, item in enumerate(axes_raw):
            path = f"sweep.axes.{i}"
            axis = dict(_expect_mapping(item, path))
            points = _as_int(_take(axis, "points", path, required=True), f"{path}.points")
            if points < 1:
                raise ConfigError(f"{path}.points: must be at least 1")
            axes.append(
                AxisConfig(
                    parameter=str(_take(axis, "parameter", path, required=True)),
                    start=_as_float(_take(axis, "start", path, required=True), f"{path}.start"),
                    stop=_as_float(_take(axis, "stop", path, required=True), f"{path}.stop"),
                    points=points,
                )
            )
            _reject_extras(axis, path)

    seed = _take(top, "seed", "config", default=None)
    if seed is not None:
        seed = _as_int(seed, "seed")
    out_dir = _take(top, "output_dir", "config", default=None)
    if out_dir is not None:
        out_dir = str(out_dir)

    _reject_extras(top, "config")
    return ExperimentConfig(
        system=system,
        schedule=schedule,
        drives=tuple(drives),
        grid=grid,
        gate=gate,
        sweep_axes=tuple(axes),
        seed=seed,
        output_dir=out_dir,
    )


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """Canonical mapping form; parse_config inverts it exactly."""
    out: dict = {
        "system": {
            "kind": cfg.system.kind,
            "detuning": cfg.system.detuning,
            "interaction_shift": cfg.system.interaction_shift,
        },
        "schedule": {
            "tau": cfg.schedule.tau,
            "pulse_delay": cfg.schedule.pulse_delay,
            "sequence_delay": cfg.schedule.sequence_delay,
            "t_start": cfg.schedule.t_start,
        },
        "grid": {
            "base_step": cfg.grid.base_step,
            "sample_stride": cfg.grid.sample_stride,
            "tolerance": cfg.grid.tolerance,
            "t_end": cfg.grid.t_end,
        },
    }
    if cfg.system.initial_state is not None:
        out["system"]["initial_state"] = cfg.system.initial_state
    if cfg.drives:
        out["drives"] = [
            {
                "level": d.level,
                "role": d.role,
                "peak_rabi": d.peak_rabi,
                "phase_slope": d.phase_slope,
                "phase_offset": d.phase_offset,
            }
            for d in cfg.drives
        ]
    if cfg.gate is not None:
        out["gate"] = {
            "kind": cfg.gate.kind,
            "target_phase": cfg.gate.target_phase,
            "peak_rabi": cfg.gate.peak_rabi,
            "margin": cfg.gate.margin,
        }
    if cfg.sweep_axes:
        out["sweep"] = {
            "axes": [
                {
                    "parameter": a.parameter,
                    "start": a.start,
                    "stop": a.stop,
                    "points": a.points,
                }
                for a in cfg.sweep_axes
            ]
        }
    if cfg.seed is not None:
        out["seed"] = cfg.seed
    if cfg.output_dir is not None:
        out["output_dir"] = cfg.output_dir
    return out


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML ({exc})") from exc
    if raw is None:
        raw = {}
    return _expect_mapping(raw, "config")


def apply_override(raw: dict, assignment: str) -> None:
    """Apply one PATH=VALUE override with a dotted path into the mapping."""
    if "=" not in assignment:
        raise ConfigError(f"override {assignment!r}: expected PATH=VALUE")
    path, _, text = assignment.partition("=")
    path = path.strip()
    if not path:
        raise ConfigError(f"override {assignment!r}: empty path")
    try:
        value = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"override {path}: invalid value {text!r} ({exc})") from exc
    node = raw
    parts = path.split(".")
    for j, part in enumerate(parts[:-1]):
        key: object = part
        if isinstance(node, list):
            try:
                key = int(part)
            except ValueError as exc:
                raise ConfigError(f"override {path}: {part!r} is not a list index") from exc
            if not -len(node) <= key < len(node):
                raise ConfigError(f"override {path}: index {part} is out of range")
            node = node[key]
        elif isinstance(node, dict):
            if part not in node:
                node[part] = {}
            node = node[part]
        else:
            prefix = ".".join(parts[:j])
            raise ConfigError(f"override {path}: {prefix!r} is not a container")
    last = parts[-1]
    if isinstance(node, list):
        try:
            idx = int(last)
        except ValueError as exc:
            raise ConfigError(f"override {path}: {last!r} is not a list index") from exc
        if not -len(node) <= idx < len(node):
            raise ConfigError(f"override {path}: index {last} is out of range")
        node[idx] = value
    elif isinstance(node, dict):
        node[last] = value
    else:
        raise ConfigError(f"override {path}: target is not a container")


# ---------------------------------------------------------------------------
# Building runtime objects


def _labels_for(kind: str) -> tuple[str, ...]:
    if kind == "lambda":
        return LAMBDA_LABELS
    if kind == "tripod":
        return TRIPOD_LABELS
    return TWO_ATOM_LABELS


def _build_schedule(cfg: ScheduleConfig) -> StirapSchedule:
    try:
        return build_schedule(cfg.tau, cfg.pulse_delay, cfg.sequence_delay, cfg.t_start)
    except ValueError as exc:
        raise ConfigError(f"schedule: {exc}") from exc


def _build_ramp(drive: DriveConfig) -> PhaseRamp:
    if drive.phase_slope == 0.0:
        return PhaseRamp(kind="constant", offset=drive.phase_offset)
    return PhaseRamp(kind="linear", offset=drive.phase_offset, slope=drive.phase_slope)


def _build_field(schedule: StirapSchedule, drive: DriveConfig, index: int) -> DriveField:
    if drive.role == "pump":
        envelopes = schedule.pump_envelopes(drive.peak_rabi)
    else:
        envelopes = schedule.stokes_envelopes(drive.peak_rabi)
    try:
        return DriveField(level=drive.level, envelopes=envelopes, phase=_build_ramp(drive))
    except ValueError as exc:
        raise ConfigError(f"drives.{index}: {exc}") from exc


def _build_model(cfg: ExperimentConfig, schedule: StirapSchedule):
    fields = [_build_field(schedule, d, i) for i, d in enumerate(cfg.drives)]
    by_level = {d.level: f for d, f in zip(cfg.drives, fields)}
    if len(by_level) != len(fields):
        raise ConfigError("drives: at most one drive per level")
    kind = cfg.system.kind
    try:
        if kind == "lambda":
            if set(by_level) != {"q", "s"}:
                raise ConfigError(
                    "drives: a lambda system needs exactly drives on levels 'q' and 's'"
                )
            system = LambdaSystem(
                pump=by_level["q"], stokes=by_level["s"], detuning=cfg.system.detuning
            )
        elif kind == "tripod":
            system = TripodSystem(drives=by_level, detuning=cfg.system.detuning)
        else:
            system = TwoAtomSystem(
                drives=by_level,
                detuning=cfg.system.detuning,
                interaction_shift=cfg.system.interaction_shift,
            )
        return system.model()
    except ValueError as exc:
        raise ConfigError(f"system: {exc}") from exc


def _build_grid(cfg: ExperimentConfig, schedule: StirapSchedule) -> TimeGrid:
    t_end = cfg.grid.t_end if cfg.grid.t_end is not None else schedule.support_end
    base_step = (
        cfg.grid.base_step if cfg.grid.base_step is not None else cfg.schedule.tau / 200.0
    )
    try:
        return TimeGrid(
            t_start=schedule.t_start,
            t_end=t_end,
            base_step=base_step,
            sample_stride=cfg.grid.sample_stride,
        )
    except ValueError as exc:
        raise ConfigError(f"grid: {exc}") from exc


def _run_trajectory(cfg: ExperimentConfig):
    schedule = _build_schedule(cfg.schedule)
    model = _build_model(cfg, schedule)
    labels = tuple(model.basis_labels)
    initial = cfg.system.initial_state
    if initial is None:
        raise ConfigError("system.initial_state: required for trajectory runs")
    if initial not in labels:
        raise ConfigError(f"system.initial_state: {initial!r} is not one of {labels}")
    state = basis_state(labels, initial)
    grid = _build_grid(cfg, schedule)
    if cfg.grid.tolerance is None:
        return propagate_many(model, [state], grid)[0], None
    (traj,), report = converge_many(model, [state], grid, tolerance=cfg.grid.tolerance)
    return traj, report


def _gate_spec(cfg: ExperimentConfig) -> GateSpec:
    if cfg.gate is None:
        raise ConfigError("gate: section is required for gate runs")
    return GateSpec(
        tau=cfg.schedule.tau,
        pulse_delay=cfg.schedule.pulse_delay,
        sequence_delay=cfg.schedule.sequence_delay,
        peak_rabi=cfg.gate.peak_rabi,
        detuning=cfg.system.detuning,
        interaction_shift=cfg.system.interaction_shift,
        t_start=cfg.schedule.t_start,
        base_step=cfg.grid.base_step,
        tolerance=cfg.grid.tolerance if cfg.grid.tolerance is not None else 1e-8,
        sample_stride=cfg.grid.sample_stride,
    )


def _run_gate(cfg: ExperimentConfig) -> GateReport:
    spec = _gate_spec(cfg)
    try:
        if cfg.gate.kind == "phase":
            return run_phase_gate(spec, cfg.gate.target_phase)
        if cfg.gate.kind == "hadamard":
            return run_hadamard(spec)
        return run_controlled_phase(spec, cfg.gate.target_phase, margin=cfg.gate.margin)
    except ValueError as exc:
        raise ConfigError(f"gate: {exc}") from exc


# ---------------------------------------------------------------------------
# Deterministic serialization


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    v = float(value)
    if math.isnan(v):
        return ""
    return repr(v)


def _plain(obj):
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return None if math.isnan(v) else v
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, complex):
        return {"real": obj.real, "imag": obj.imag}
    return obj


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(_plain(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_trajectory_csv(path: str, traj) -> None:
    labels = traj.basis_labels
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        header = ["t"] + [f"pop_{lb}" for lb in labels] + [f"phase_{lb}" for lb in labels]
        writer.writerow(header)
        for i, t in enumerate(traj.times):
            row = [_fmt(t)]
            row += [_fmt(p) for p in traj.populations[i]]
            row += [_fmt(p) for p in traj.phases[i]]
            writer.writerow(row)


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            digest.update(block)
    return digest.hexdigest()


def _write_manifest(out_dir: str, command: str, canonical: dict,
                    outputs: list[str], started: float) -> str:
    manifest = {
        "version": __version__,
        "command": command,
        "config_sha256": hashlib.sha256(
            json.dumps(_plain(canonical), sort_keys=True).encode("utf-8")
        ).hexdigest(),
        "outputs": {name: _sha256(os.path.join(out_dir, name)) for name in outputs},
        "wall_clock_seconds": round(time.monotonic() - started, 3),
    }
    path = os.path.join(out_dir, "manifest.json")
    _write_json(path, manifest)
    return path


def _dump_resolved_config(out_dir: str, canonical: dict) -> None:
    path = os.path.join(out_dir, "resolved_config.yaml")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        yaml.safe_dump(_plain(canonical), fh, sort_keys=True)


# ---------------------------------------------------------------------------
# Commands


def _prepare(args) -> tuple[dict, ExperimentConfig, str]:
    raw = load_config(args.config)
    for assignment in args.overrides:
        apply_override(raw, assignment)
    cfg = parse_config(raw)
    out_dir = args.out or cfg.output_dir or "."
    os.makedirs(out_dir, exist_ok=True)
    return raw, cfg, out_dir


def _convergence_payload(report) -> dict | None:
    if report is None:
        return None
    return {
        "requested_step": report.requested_step,
        "initial_step": report.initial_step,
        "steps": list(report.steps),
        "distances": list(report.distances),
        "accepted_step": report.accepted_step,
        "tolerance": report.tolerance,
        "halvings": report.halvings,
        "norm_drift": report.norm_drift,
        "clamped": report.clamped,
    }


def cmd_simulate(args) -> int:
    started = time.monotonic()
    _, cfg, out_dir = _prepare(args)
    canonical = config_to_dict(cfg)
    traj, report = _run_trajectory(cfg)
    labels = traj.basis_labels
    _write_trajectory_csv(os.path.join(out_dir, "trajectory.csv"), traj)
    summary = {
        "basis": list(labels),
        "terminal_populations": dict(zip(labels, traj.populations[-1])),
        "terminal_phases": dict(zip(labels, traj.phases[-1])),
        "max_populations": dict(zip(labels, traj.max_populations)),
        "max_e_population": traj.max_e_population,
        "norm_drift": traj.norm_drift,
        "step": traj.step,
        "n_steps": traj.n_steps,
        "convergence": _convergence_payload(report),
    }
    _write_json(os.path.join(out_dir, "summary.json"), summary)
    _dump_resolved_config(out_dir, canonical)
    _write_manifest(
        out_dir, "simulate", canonical,
        ["trajectory.csv", "summary.json", "resolved_config.yaml"], started,
    )
    step = report.accepted_step if report else traj.step
    print(
        f"simulate: {len(traj.times)} samples, step {step:.3e}, "
        f"norm drift {traj.norm_drift:.3e} -> {out_dir}"
    )
    if args.verbose and report is not None:
        print(
            "  convergence: steps "
            + " ".join(f"{s:.3e}" for s in report.steps)
            + " | distances "
            + " ".join(f"{d:.3e}" for d in report.distances)
        )
    return 0


def cmd_gate(args) -> int:
    started = time.monotonic()
    _, cfg, out_dir = _prepare(args)
    canonical = config_to_dict(cfg)
    report = _run_gate(cfg)
    payload = {
        "kind": report.kind,
        "qubit_labels": list(report.qubit_labels),
        "unitary": {"real": report.unitary.real, "imag": report.unitary.imag},
        "target": {"real": report.target.real, "imag": report.target.imag},
        "fidelity": report.fidelity,
        "leakage": report.leakage,
        "phase": report.phase,
        "predicted_phase": report.predicted_phase,
        "max_excited_population": report.max_excited_population,
        "schedule": {
            "tau": report.schedule.tau,
            "pulse_delay": report.schedule.pulse_delay,
            "sequence_delay": report.schedule.sequence_delay,
            "t_start": report.schedule.t_start,
        },
        "convergence": _convergence_payload(report.convergence),
        "note": report.note,
    }
    _write_json(os.path.join(out_dir, "gate.json"), payload)
    _dump_resolved_config(out_dir, canonical)
    _write_manifest(out_dir, "gate", canonical, ["gate.json", "resolved_config.yaml"], started)
    print(
        f"gate {report.kind}: fidelity {report.fidelity:.6f}, "
        f"leakage {report.leakage:.3e} -> {out_dir}"
    )
    if args.verbose:
        print(f"  achieved phase {report.phase}, predicted {report.predicted_phase}")
        if report.note:
            print(f"  note: {report.note}")
    return 0


_GATE_SWEEP_FIELDS = (
    "fidelity",
    "phase",
    "predicted_phase",
    "leakage",
    "max_excited_population",
)


def _sweep_columns(cfg: ExperimentConfig) -> list[str]:
    columns = [axis.parameter for axis in cfg.sweep_axes]
    if cfg.gate is not None:
        columns += list(_GATE_SWEEP_FIELDS)
    else:
        labels = _labels_for(cfg.system.kind)
        columns += [f"pop_{lb}" for lb in labels]
        columns += [f"phase_{lb}" for lb in labels]
        columns += ["norm_drift", "step"]
    columns.append("error")
    return columns


def _sweep_point(payload: tuple[dict, list[tuple[str, float]]]) -> dict:
    base, assignments = payload
    raw = json.loads(json.dumps(base))
    row: dict[str, object] = {path: value for path, value in assignments}
    try:
        for path, value in assignments:
            apply_override(raw, f"{path}={value!r}")
        cfg = parse_config(raw)
        if cfg.gate is not None:
            report = _run_gate(cfg)
            row["fidelity"] = report.fidelity
            row["phase"] = math.nan if report.phase is None else report.phase
            row["predicted_phase"] = (
                math.nan if report.predicted_phase is None else report.predicted_phase
            )
            row["leakage"] = report.leakage
            row["max_excited_population"] = report.max_excited_population
        else:
            traj, report = _run_trajectory(cfg)
            for k, lb in enumerate(traj.basis_labels):
                row[f"pop_{lb}"] = float(traj.populations[-1, k])
                row[f"phase_{lb}"] = float(traj.phases[-1, k])
            row["norm_drift"] = traj.norm_drift
            row["step"] = report.accepted_step if report else traj.step
        row["error"] = ""
    except (ConfigError, IntegrationQualityError, LeakageError, ValueError) as exc:
        row["error"] = str(exc)
    return row


def cmd_sweep(args) -> int:
    started = time.monotonic()
    raw, cfg, out_dir = _prepare(args)
    canonical = config_to_dict(cfg)
    if not cfg.sweep_axes:
        raise ConfigError("sweep: section with at least one axis is required")
    axes_values = [
        np.linspace(axis.start, axis.stop, axis.points) for axis in cfg.sweep_axes
    ]
    names = [axis.parameter for axis in cfg.sweep_axes]
    points = [
        (raw, [(name, float(v)) for name, v in zip(names, combo)])
        for combo in itertools.product(*axes_values)
    ]
    workers = args.workers if args.workers else (os.cpu_count() or 1)
    workers = max(1, min(workers, len(points)))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_point, points))
    else:
        rows = [_sweep_point(p) for p in points]

    columns = _sweep_columns(cfg)
    path = os.path.join(out_dir, "sweep.csv")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row.get(c, math.nan)) for c in columns])
    _dump_resolved_config(out_dir, canonical)
    _write_manifest(out_dir, "sweep", canonical, ["sweep.csv", "resolved_config.yaml"], started)
    failures = sum(1 for row in rows if row["error"])
    print(
        f"sweep: {len(rows)} points over {names}, {failures} failed, "
        f"{workers} worker(s) -> {out_dir}"
    )
    if failures:
        if args.verbose:
            for row in rows:
                if row["error"]:
                    vals = ", ".join(f"{n}={row[n]}" for n in names)
                    print(f"  failed at {vals}: {row['error']}", file=sys.stderr)
        return 3
    return 0


def cmd_phase(args) -> int:
    started = time.monotonic()
    _, cfg, out_dir = _prepare(args)
    canonical = config_to_dict(cfg)
    schedule = _build_schedule(cfg.schedule)
    by_level = {d.level: d for d in cfg.drives}
    kind = cfg.system.kind
    if kind in ("lambda", "tripod"):
        stokes_level = "s" if kind == "lambda" else "2"
        stokes = by_level.get(stokes_level)
        if stokes is None:
            raise ConfigError(
                f"drives: the phase command needs a stokes drive on level {stokes_level!r}"
            )
        pumps = [d for d in cfg.drives if d.role == "pump"]
        if not pumps:
            raise ConfigError("drives: the phase command needs at least one pump drive")
        combined = math.hypot(*[d.peak_rabi for d in pumps])
        ramp = _build_ramp(stokes)
        est = berry_phase_numeric(
            schedule, ramp, peak_pump=combined, peak_stokes=stokes.peak_rabi
        )
        closed = berry_phase_closed_form(schedule, ramp)
        payload = {
            "kind": kind,
            "numeric": est.value,
            "error_estimate": est.error_estimate,
            "closed_form": closed,
            "difference": est.value - closed,
        }
    else:
        shift = cfg.system.interaction_shift
        if shift == 0.0:
            raise ConfigError(
                "system.interaction_shift: must be nonzero for two-atom phase prediction"
            )
        peak_1 = by_level["1"].peak_rabi if "1" in by_level else 1.0
        peak_2 = by_level["2"].peak_rabi if "2" in by_level else 1.0
        est = two_qubit_phase(schedule, shift, peak_1=peak_1, peak_2=peak_2)
        wz = wz_propagate(schedule, shift, peak_1=peak_1, peak_2=peak_2)
        payload = {
            "kind": kind,
            "quadrature": est.value,
            "error_estimate": est.error_estimate,
            "transport_phase": wz.geometric_phase,
            "difference": est.value - wz.geometric_phase,
            "max_mixing": wz.max_mixing,
            "terminal_mixing": wz.terminal_mixing,
        }
    _write_json(os.path.join(out_dir, "phase.json"), payload)
    _dump_resolved_config(out_dir, canonical)
    _write_manifest(out_dir, "phase", canonical, ["phase.json", "resolved_config.yaml"], started)
    keys = [k for k in payload if k != "kind"]
    print("phase: " + ", ".join(f"{k} {payload[k]:.9g}" for k in keys) + f" -> {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# Entry point


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="YAML experiment description")
    parser.add_argument(
        "--out", default=None, help="directory for result files (default: config output_dir or .)"
    )
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="PATH=VALUE",
        help="override a config field by dotted path (repeatable)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="parallel worker processes for sweeps (default: all cores)",
    )
    parser.add_argument("--verbose", action="store_true", help="print extra diagnostics")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="stirapgates",
        description="Dark-state transport simulations and geometric-phase gates.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p_sim = sub.add_parser("simulate", help="propagate one initial state and dump the trajectory")
    _add_common(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_gate = sub.add_parser("gate", help="run a gate construction and report its quality")
    _add_common(p_gate)
    p_gate.set_defaults(func=cmd_gate)

    p_sweep = sub.add_parser("sweep", help="grid-scan config parameters and tabulate outcomes")
    _add_common(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_phase = sub.add_parser("phase", help="quadrature phase predictions without propagation")
    _add_common(p_phase)
    p_phase.set_defaults(func=cmd_phase)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (IntegrationQualityError, LeakageError) as exc:
        print(f"integration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
