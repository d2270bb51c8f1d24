"""Command-line front end.

Runs are described by a YAML file and produce CSV/JSON outputs plus a
manifest with content hashes, so a run can be re-executed and compared
byte for byte. Exit codes: 0 success, 1 configuration or usage error,
2 integration- or gate-quality failure, 3 partial sweep failure (some
rows failed; their error column says why).
"""

from __future__ import annotations

import argparse
import copy
import csv
import hashlib
import itertools
import json
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass

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
    schedule_grid,
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
#
# Each section is a dataclass whose fields declare, once, how the YAML value
# is parsed and what it defaults to (no default: required). parse_config and
# config_to_dict are generic walks over these declarations.


def _expect_mapping(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected a mapping, got {type(value).__name__}")
    return value


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


def _as_positive(value, path: str) -> float:
    number = _as_float(value, path)
    if not number > 0.0:
        raise ConfigError(f"{path}: must be positive")
    return number


def _as_int(value, path: str) -> int:
    # sweep axes come from np.linspace, so an integral float counts as integer
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    return value


def _as_count(value, path: str) -> int:
    count = _as_int(value, path)
    if count < 1:
        raise ConfigError(f"{path}: must be at least 1")
    return count


def _as_text(value, path: str) -> str:
    return str(value)


def _one_of(*choices: str):
    def parse(value, path: str) -> str:
        if value not in choices:
            raise ConfigError(f"{path}: expected one of {choices}, got {value!r}")
        return value

    return parse


# basis labels of each system kind; its keys are the choices of system.kind
_SYSTEM_LABELS = {"lambda": LAMBDA_LABELS, "tripod": TRIPOD_LABELS, "two_atom": TWO_ATOM_LABELS}


def _scalar(parse, default=MISSING, *, nullable: bool = False):
    """A leaf field. A null value is taken when the default is None or the
    field is ``nullable``; only a nullable null is written back out."""
    return field(default=default, metadata={"parse": parse, "nullable": nullable})


def _nested(section: type, default=MISSING, *, many: bool = False):
    """A sub-section, or with ``many`` a list of them (non-empty if required)."""
    return field(default=default, metadata={"section": section, "many": many})


@dataclass(frozen=True, kw_only=True)
class SystemConfig:
    kind: str = _scalar(_one_of(*_SYSTEM_LABELS))
    detuning: float = _scalar(_as_float, 0.0)
    interaction_shift: float = _scalar(_as_float, 0.0)
    initial_state: str | None = _scalar(_as_text, None)


@dataclass(frozen=True, kw_only=True)
class ScheduleConfig:
    tau: float = _scalar(_as_float)
    pulse_delay: float = _scalar(_as_float)
    sequence_delay: float = _scalar(_as_float)
    t_start: float = _scalar(_as_float, 0.0)


@dataclass(frozen=True, kw_only=True)
class DriveConfig:
    level: str = _scalar(_as_text)
    role: str = _scalar(_one_of("pump", "stokes"))
    peak_rabi: float = _scalar(_as_float)
    phase_slope: float = _scalar(_as_float, 0.0)
    phase_offset: float = _scalar(_as_float, 0.0)


@dataclass(frozen=True, kw_only=True)
class GridConfig:
    base_step: float | None = _scalar(_as_positive, None, nullable=True)
    sample_stride: int = _scalar(_as_count, 16)
    tolerance: float | None = _scalar(_as_positive, 1e-8, nullable=True)
    t_end: float | None = _scalar(_as_float, None, nullable=True)


@dataclass(frozen=True, kw_only=True)
class GateConfig:
    kind: str = _scalar(_one_of("phase", "hadamard", "controlled_phase"))
    target_phase: float = _scalar(_as_float, 0.0)
    peak_rabi: float = _scalar(_as_positive)
    margin: float | None = _scalar(_as_float, None, nullable=True)


@dataclass(frozen=True, kw_only=True)
class AxisConfig:
    parameter: str = _scalar(_as_text)
    start: float = _scalar(_as_float)
    stop: float = _scalar(_as_float)
    points: int = _scalar(_as_count)


@dataclass(frozen=True, kw_only=True)
class SweepConfig:
    axes: tuple[AxisConfig, ...] = _nested(AxisConfig, many=True)


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig:
    system: SystemConfig = _nested(SystemConfig)
    schedule: ScheduleConfig = _nested(ScheduleConfig)
    drives: tuple[DriveConfig, ...] = _nested(DriveConfig, (), many=True)
    grid: GridConfig = _nested(GridConfig, GridConfig())
    gate: GateConfig | None = _nested(GateConfig, None)
    sweep: SweepConfig | None = _nested(SweepConfig, None)
    seed: int | None = _scalar(_as_int, None)
    output_dir: str | None = _scalar(_as_text, None)

    @property
    def sweep_axes(self) -> tuple[AxisConfig, ...]:
        return () if self.sweep is None else self.sweep.axes


def _parse_field(spec, value, path: str):
    meta = spec.metadata
    if value is None and (spec.default is None or meta.get("nullable")):
        return None
    if "parse" in meta:
        return meta["parse"](value, path)
    if not meta["many"]:
        return _section(meta["section"], value, path)
    return _section_list(meta["section"], value, path, required=spec.default is MISSING)


def _section(cls, raw, path: str):
    """Parse the mapping ``raw`` into the section dataclass ``cls``."""
    label = path or "config"
    entry = dict(_expect_mapping(raw, label))
    values = {}
    for spec in fields(cls):
        if spec.name in entry:
            sub = f"{path}.{spec.name}" if path else spec.name
            values[spec.name] = _parse_field(spec, entry.pop(spec.name), sub)
        elif spec.default is MISSING:
            raise ConfigError(f"{label}.{spec.name}: required field is missing")
    if entry:
        raise ConfigError(f"{label}: unknown field(s) {sorted(entry)}")
    return cls(**values)


def _section_list(cls, raw, path: str, required: bool) -> tuple:
    if not isinstance(raw, list) or (required and not raw):
        raise ConfigError(f"{path}: expected a {'non-empty ' if required else ''}list")
    return tuple(_section(cls, item, f"{path}.{i}") for i, item in enumerate(raw))


def _names_scalar(cfg: ExperimentConfig, dotted: str) -> bool:
    """Whether ``dotted`` names a scalar field of ``cfg``; list entries need an index."""
    cls, node = ExperimentConfig, cfg
    parts = dotted.split(".")
    while parts:
        spec = {f.name: f for f in fields(cls)}.get(parts.pop(0))
        if spec is None:
            return False
        node = getattr(node, spec.name)
        if "parse" in spec.metadata:
            return not parts
        if node is None:  # an optional section this config leaves out
            return False
        cls = spec.metadata["section"]
        if spec.metadata["many"]:
            try:
                node = node[int(parts.pop(0))]
            except (IndexError, ValueError):
                return False
    return False


def parse_config(raw: dict) -> ExperimentConfig:
    """Validate a raw mapping into a typed configuration."""
    cfg = _section(ExperimentConfig, raw, "")
    for i, axis in enumerate(cfg.sweep_axes):
        if not _names_scalar(cfg, axis.parameter):
            raise ConfigError(
                f"sweep.axes.{i}.parameter: {axis.parameter!r} names no scalar field of this config"
            )
    return cfg


def _dump(value):
    if isinstance(value, tuple):
        return [_dump(v) for v in value]
    if not is_dataclass(value):
        return value
    out = {}
    for spec in fields(value):
        item = getattr(value, spec.name)
        if spec.metadata.get("nullable") or not (item is None or item == ()):
            out[spec.name] = _dump(item)
    return out


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """Canonical mapping form; parse_config inverts it exactly. Unset optional
    values are left out, except nullable ones, which are written as null."""
    return _dump(cfg)


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


def _list_index(items: list, part: str, path: str) -> int:
    try:
        index = int(part)
    except ValueError as exc:
        raise ConfigError(f"override {path}: {part!r} is not a list index") from exc
    if not -len(items) <= index < len(items):
        raise ConfigError(f"override {path}: index {part} is out of range")
    return index


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
        if isinstance(node, list):
            node = node[_list_index(node, part, path)]
        elif isinstance(node, dict):
            if part not in node:
                node[part] = {}
            node = node[part]
        else:
            prefix = ".".join(parts[:j])
            raise ConfigError(f"override {path}: {prefix!r} is not a container")
    last = parts[-1]
    if isinstance(node, list):
        node[_list_index(node, last, path)] = value
    elif isinstance(node, dict):
        node[last] = value
    else:
        raise ConfigError(f"override {path}: target is not a container")


# ---------------------------------------------------------------------------
# Building runtime objects


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
    try:
        return schedule.drive(drive.level, drive.role, drive.peak_rabi, _build_ramp(drive))
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
    grid = cfg.grid
    try:
        return schedule_grid(schedule, grid.base_step, grid.sample_stride, grid.t_end)
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
    try:
        if cfg.grid.tolerance is None:
            return propagate_many(model, [state], grid)[0], None
        (traj,), report = converge_many(model, [state], grid, tolerance=cfg.grid.tolerance)
    except (ValueError, OverflowError) as exc:
        # a grid with more steps than numpy can index fails here, before it allocates
        raise ConfigError(f"grid: {exc}") from exc
    return traj, report


def _gate_spec(cfg: ExperimentConfig) -> GateSpec:
    if cfg.gate is None:
        raise ConfigError("gate: section is required for gate runs")
    if cfg.grid.tolerance is None:
        raise ConfigError("grid.tolerance: gate runs converge the step ladder; null is not allowed")
    if cfg.grid.t_end is not None:
        raise ConfigError("grid.t_end: gate runs span the whole pulse support; leave it unset")
    if cfg.gate.kind == "controlled_phase" and not cfg.system.interaction_shift > 0.0:
        raise ConfigError("system.interaction_shift: must be positive for a controlled-phase "
                          "gate, which solves for the sequence delay that hits its phase")
    # a controlled phase re-solves sequence_delay, but the configured schedule must still hold
    _build_schedule(cfg.schedule)
    return GateSpec(
        tau=cfg.schedule.tau,
        pulse_delay=cfg.schedule.pulse_delay,
        sequence_delay=cfg.schedule.sequence_delay,
        peak_rabi=cfg.gate.peak_rabi,
        detuning=cfg.system.detuning,
        interaction_shift=cfg.system.interaction_shift,
        t_start=cfg.schedule.t_start,
        base_step=cfg.grid.base_step,
        tolerance=cfg.grid.tolerance,
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
    if value is None:
        return ""
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


_CSV_BLOCK_ROWS = 256


def _write_trajectory_csv(path: str, traj) -> None:
    """One row per sample, each value written as ``_fmt`` writes it.

    Rows are formatted a block at a time from the repr of the block's
    nested list: float repr is what ``_fmt`` uses, "nan" becomes the empty
    field, and the list punctuation becomes commas and newlines. Only one
    block is ever stacked, so memory does not grow with the trajectory.
    """
    labels = traj.basis_labels
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["t"] + [f"pop_{lb}" for lb in labels] + [f"phase_{lb}" for lb in labels])
        for lo in range(0, len(traj.times), _CSV_BLOCK_ROWS):
            rows = slice(lo, lo + _CSV_BLOCK_ROWS)
            block = np.column_stack((traj.times[rows], traj.populations[rows], traj.phases[rows]))
            text = repr(block.tolist())[2:-2]
            fh.write(text.replace("], [", "\n").replace("nan", "").replace(", ", ",") + "\n")


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            digest.update(block)
    return digest.hexdigest()


def _write_manifest(out_dir: str, command: str, canonical: dict,
                    outputs: list[str], started: float) -> None:
    manifest = {
        "version": __version__,
        "command": command,
        "config_sha256": hashlib.sha256(
            json.dumps(_plain(canonical), sort_keys=True).encode("utf-8")
        ).hexdigest(),
        "outputs": {name: _sha256(os.path.join(out_dir, name)) for name in outputs},
        "wall_clock_seconds": round(time.monotonic() - started, 3),
    }
    _write_json(os.path.join(out_dir, "manifest.json"), manifest)


def _dump_resolved_config(out_dir: str, canonical: dict) -> None:
    path = os.path.join(out_dir, "resolved_config.yaml")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        yaml.safe_dump(_plain(canonical), fh, sort_keys=True)


# ---------------------------------------------------------------------------
# Commands


def _summary_payload(traj, report) -> dict:
    labels = traj.basis_labels
    return {
        "basis": list(labels),
        "terminal_populations": dict(zip(labels, traj.populations[-1])),
        "terminal_phases": dict(zip(labels, traj.phases[-1])),
        "max_populations": dict(zip(labels, traj.max_populations)),
        "max_e_population": traj.max_e_population,
        "norm_drift": traj.norm_drift,
        "step": traj.step,
        "n_steps": traj.n_steps,
        "convergence": None if report is None else asdict(report),
    }


def _gate_payload(report: GateReport) -> dict:
    return {
        "kind": report.kind,
        "qubit_labels": list(report.qubit_labels),
        "unitary": {"real": report.unitary.real, "imag": report.unitary.imag},
        "target": {"real": report.target.real, "imag": report.target.imag},
        "fidelity": report.fidelity,
        "leakage": report.leakage,
        "phase": report.phase,
        "predicted_phase": report.predicted_phase,
        "max_excited_population": report.max_excited_population,
        "schedule": asdict(report.schedule),
        "convergence": asdict(report.convergence),
        "note": report.note,
    }


def cmd_simulate(args, raw: dict, cfg: ExperimentConfig, out_dir: str) -> tuple[list[str], int]:
    traj, report = _run_trajectory(cfg)
    _write_trajectory_csv(os.path.join(out_dir, "trajectory.csv"), traj)
    _write_json(os.path.join(out_dir, "summary.json"), _summary_payload(traj, report))
    print(
        f"simulate: {len(traj.times)} samples, step {traj.step:.3e}, "
        f"norm drift {traj.norm_drift:.3e} -> {out_dir}"
    )
    if args.verbose and report is not None:
        print(
            "  convergence: steps "
            + " ".join(f"{s:.3e}" for s in report.steps)
            + " | distances "
            + " ".join(f"{d:.3e}" for d in report.distances)
        )
    return ["trajectory.csv", "summary.json"], 0


def cmd_gate(args, raw: dict, cfg: ExperimentConfig, out_dir: str) -> tuple[list[str], int]:
    report = _run_gate(cfg)
    _write_json(os.path.join(out_dir, "gate.json"), _gate_payload(report))
    print(
        f"gate {report.kind}: fidelity {report.fidelity:.6f}, "
        f"leakage {report.leakage:.3e} -> {out_dir}"
    )
    if args.verbose:
        print(f"  achieved phase {report.phase}, predicted {report.predicted_phase}")
        if report.note:
            print(f"  note: {report.note}")
    return ["gate.json"], 0


# gate.json fields that a gate sweep tabulates
_GATE_SWEEP_FIELDS = ("fidelity", "phase", "predicted_phase", "leakage", "max_excited_population")


def _sweep_columns(cfg: ExperimentConfig) -> list[str]:
    columns = [axis.parameter for axis in cfg.sweep_axes]
    if cfg.gate is not None:
        columns += list(_GATE_SWEEP_FIELDS)
    else:
        labels = _SYSTEM_LABELS[cfg.system.kind]
        columns += [f"pop_{lb}" for lb in labels]
        columns += [f"phase_{lb}" for lb in labels]
        columns += ["norm_drift", "step"]
    columns.append("error")
    return columns


def _sweep_point(payload: tuple[dict, list[tuple[str, float]]]) -> dict:
    base, assignments = payload
    raw = copy.deepcopy(base)
    row: dict[str, object] = {path: value for path, value in assignments}
    try:
        for path, value in assignments:
            apply_override(raw, f"{path}={value!r}")
        cfg = parse_config(raw)
        if cfg.gate is not None:
            gate = _gate_payload(_run_gate(cfg))
            row.update((name, gate[name]) for name in _GATE_SWEEP_FIELDS)
        else:
            summary = _summary_payload(*_run_trajectory(cfg))
            for lb in summary["basis"]:
                row[f"pop_{lb}"] = summary["terminal_populations"][lb]
                row[f"phase_{lb}"] = summary["terminal_phases"][lb]
            row["norm_drift"] = summary["norm_drift"]
            row["step"] = summary["step"]
        row["error"] = ""
    except (ConfigError, IntegrationQualityError, LeakageError, ValueError) as exc:
        row["error"] = str(exc)
    return row


def cmd_sweep(args, raw: dict, cfg: ExperimentConfig, out_dir: str) -> tuple[list[str], int]:
    if not cfg.sweep_axes:
        raise ConfigError("sweep: section with at least one axis is required")
    if cfg.gate is not None:
        _gate_spec(cfg)  # every row runs a gate: reject its settings once, up front
    axes_values = [
        np.linspace(axis.start, axis.stop, axis.points) for axis in cfg.sweep_axes
    ]
    names = [axis.parameter for axis in cfg.sweep_axes]
    points = [
        (raw, [(name, float(v)) for name, v in zip(names, combo)])
        for combo in itertools.product(*axes_values)
    ]
    workers = min(args.workers or os.cpu_count() or 1, len(points))
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
        return ["sweep.csv"], 3
    return ["sweep.csv"], 0


def cmd_phase(args, raw: dict, cfg: ExperimentConfig, out_dir: str) -> tuple[list[str], int]:
    """Drives are picked by role, for every system kind: the one stokes drive,
    and the pump drives, whose combined peak is the hypot of their peaks."""
    schedule = _build_schedule(cfg.schedule)
    kind = cfg.system.kind
    shift = cfg.system.interaction_shift
    if kind == "two_atom" and shift == 0.0:
        raise ConfigError(
            "system.interaction_shift: must be nonzero for two-atom phase prediction"
        )
    roles = [d.role for d in cfg.drives]
    if roles.count("stokes") != 1 or "pump" not in roles:
        raise ConfigError(
            "drives: the phase command needs exactly one stokes drive and at least one "
            f"pump drive, got {roles.count('stokes')} and {roles.count('pump')}"
        )
    # built as simulate builds them, so a drive is refused by the same path
    fields = [_build_field(schedule, d, i) for i, d in enumerate(cfg.drives)]
    (stokes,) = [f for f, role in zip(fields, roles) if role == "stokes"]
    peak_stokes = stokes.envelopes[0].omega_max
    peak_pump = math.hypot(*[f.envelopes[0].omega_max
                             for f, role in zip(fields, roles) if role == "pump"])
    if peak_pump == 0.0 or peak_stokes == 0.0:
        raise ConfigError("drives: the phase command needs a positive stokes peak and "
                          "a positive combined pump peak")
    if kind != "two_atom":
        est = berry_phase_numeric(
            schedule, stokes.phase, peak_pump=peak_pump, peak_stokes=peak_stokes
        )
        closed = berry_phase_closed_form(schedule, stokes.phase)
        payload = {
            "kind": kind,
            "numeric": est.value,
            "error_estimate": est.error_estimate,
            "closed_form": closed,
            "difference": est.value - closed,
        }
    else:
        est = two_qubit_phase(schedule, shift, peak_1=peak_pump, peak_2=peak_stokes)
        wz = wz_propagate(schedule, shift, peak_1=peak_pump, peak_2=peak_stokes)
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
    keys = [k for k in payload if k != "kind"]
    print("phase: " + ", ".join(f"{k} {payload[k]:.9g}" for k in keys) + f" -> {out_dir}")
    return ["phase.json"], 0


def _run_command(args) -> int:
    """Load the config with its overrides, run the command, then write the
    resolved config and a manifest of every file the command wrote."""
    started = time.monotonic()
    raw = load_config(args.config)
    for assignment in args.overrides:
        apply_override(raw, assignment)
    cfg = parse_config(raw)
    out_dir = args.out or cfg.output_dir or "."
    os.makedirs(out_dir, exist_ok=True)
    outputs, code = args.func(args, raw, cfg, out_dir)
    canonical = config_to_dict(cfg)
    _dump_resolved_config(out_dir, canonical)
    _write_manifest(out_dir, args.command, canonical, [*outputs, "resolved_config.yaml"], started)
    return code


# ---------------------------------------------------------------------------
# Entry point


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _worker_count(text: str) -> int:
    if not (text.isdecimal() and int(text) >= 1):
        raise argparse.ArgumentTypeError(f"expected an integer of at least 1, got {text!r}")
    return int(text)


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
    parser.add_argument("--verbose", action="store_true", help="print extra diagnostics")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="stirapgates",
        description="Dark-state transport simulations and geometric-phase gates.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name, func, text in (
        ("simulate", cmd_simulate, "propagate one initial state and dump the trajectory"),
        ("gate", cmd_gate, "run a gate construction and report its quality"),
        ("sweep", cmd_sweep, "grid-scan config parameters and tabulate outcomes"),
        ("phase", cmd_phase, "quadrature phase predictions without propagation"),
    ):
        command = sub.add_parser(name, help=text)
        _add_common(command)
        command.set_defaults(func=func)
    sub.choices["sweep"].add_argument(
        "--workers", type=_worker_count, help="parallel worker processes (default: all cores)"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _run_command(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (IntegrationQualityError, LeakageError) as exc:
        print(f"integration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
