"""Command-line workflows: config parsing, outputs, determinism, exit codes."""

import csv
import dataclasses
import hashlib
import json
import math
import pathlib
import subprocess
import sys
import time
import types

import numpy as np
import pytest
import yaml

from stirapgates.cli import (
    _CSV_BLOCK_ROWS,
    ConfigError,
    ExperimentConfig,
    apply_override,
    config_to_dict,
    load_config,
    _fmt,
    _write_trajectory_csv,
    main,
    parse_config,
)

PHASE_TARGET = -math.pi / 2.0
REPO = pathlib.Path(__file__).resolve().parents[1]


def minimal_raw():
    return {
        "system": {"kind": "lambda"},
        "schedule": {"tau": 1.0, "pulse_delay": 0.5, "sequence_delay": 4.0},
    }


def simulate_raw():
    return {
        "system": {"kind": "lambda", "initial_state": "q"},
        "schedule": {"tau": 1.0, "pulse_delay": 0.5, "sequence_delay": 4.0},
        "drives": [
            {"level": "q", "role": "pump", "peak_rabi": 60.0},
            {"level": "s", "role": "stokes", "peak_rabi": 60.0, "phase_slope": 0.5},
        ],
        "grid": {"base_step": 0.005, "tolerance": None, "sample_stride": 8},
    }


def gate_raw(peak=100.0 * math.pi):
    return {
        "system": {"kind": "lambda"},
        "schedule": {"tau": 1.0, "pulse_delay": 0.8, "sequence_delay": 4.0},
        "grid": {"tolerance": 1e-6},
        "gate": {"kind": "phase", "target_phase": PHASE_TARGET, "peak_rabi": peak},
    }


def write_config(tmp_path, raw, name="config.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(raw), encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# parsing and overrides


def test_parse_fills_grid_defaults():
    cfg = parse_config(minimal_raw())
    assert cfg.grid.base_step is None
    assert cfg.grid.sample_stride == 16
    assert cfg.grid.tolerance == 1e-8
    assert cfg.gate is None
    assert cfg.sweep_axes == ()
    assert cfg.seed is None


def test_parse_names_unknown_keys():
    raw = minimal_raw()
    raw["system"]["bogus"] = 1
    with pytest.raises(ConfigError, match="bogus"):
        parse_config(raw)


def test_parse_names_missing_fields():
    raw = minimal_raw()
    del raw["schedule"]["tau"]
    with pytest.raises(ConfigError, match="tau"):
        parse_config(raw)


def test_parse_rejects_unknown_system_kind():
    raw = minimal_raw()
    raw["system"]["kind"] = "ladder"
    with pytest.raises(ConfigError, match="system.kind"):
        parse_config(raw)


def test_parse_validates_sweep_axes():
    raw = minimal_raw()
    raw["sweep"] = {
        "axes": [{"parameter": "schedule.tau", "start": 1.0, "stop": 2.0, "points": 0}]
    }
    with pytest.raises(ConfigError, match="points"):
        parse_config(raw)


def test_config_round_trips_through_its_dict_form():
    raw = {
        "system": {
            "kind": "two_atom",
            "detuning": 0.3,
            "interaction_shift": 0.05,
            "initial_state": "11",
        },
        "schedule": {"tau": 2.0, "pulse_delay": 0.8, "sequence_delay": 9.0, "t_start": 1.0},
        "drives": [
            {"level": "1", "role": "pump", "peak_rabi": 80.0, "phase_offset": 0.1},
            {"level": "2", "role": "stokes", "peak_rabi": 90.0, "phase_slope": -0.4},
        ],
        "grid": {"base_step": 0.01, "sample_stride": 4, "tolerance": 1e-7, "t_end": 20.0},
        "gate": {"kind": "controlled_phase", "target_phase": -1.5, "peak_rabi": 100.0},
        "sweep": {
            "axes": [
                {"parameter": "gate.peak_rabi", "start": 90.0, "stop": 110.0, "points": 3}
            ]
        },
        "seed": 7,
        "output_dir": "results",
    }
    cfg = parse_config(raw)
    assert parse_config(config_to_dict(cfg)) == cfg


def test_override_nested_and_list_paths():
    raw = simulate_raw()
    apply_override(raw, "schedule.tau=2.5")
    apply_override(raw, "drives.1.peak_rabi=75")
    apply_override(raw, "grid.tolerance=1e-6")
    assert raw["schedule"]["tau"] == 2.5
    assert raw["drives"][1]["peak_rabi"] == 75
    # YAML keeps bare 1e-6 as a string; the typed parse still understands it
    assert parse_config(raw).grid.tolerance == 1e-6


def test_override_error_paths():
    raw = simulate_raw()
    with pytest.raises(ConfigError, match="PATH=VALUE"):
        apply_override(raw, "no-equals-sign")
    with pytest.raises(ConfigError, match="out of range"):
        apply_override(raw, "drives.5.level=x")
    with pytest.raises(ConfigError, match="list index"):
        apply_override(raw, "drives.first.level=x")


def test_parse_rejects_non_finite_numbers():
    raw = minimal_raw()
    raw["schedule"]["tau"] = "nan"
    with pytest.raises(ConfigError, match="schedule.tau: expected a finite number"):
        parse_config(raw)
    raw = simulate_raw()
    raw["drives"][0]["peak_rabi"] = math.inf
    with pytest.raises(ConfigError, match="drives.0.peak_rabi: expected a finite number"):
        parse_config(raw)
    raw["drives"][0]["peak_rabi"] = 10**400
    with pytest.raises(ConfigError, match="drives.0.peak_rabi: expected a finite number"):
        parse_config(raw)


def test_non_finite_override_is_a_config_error(tmp_path, capsys):
    cfg_path = write_config(tmp_path, simulate_raw())
    rc = main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "x"),
               "--set", "schedule.tau=.nan"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "schedule.tau" in err and "finite" in err


def test_parse_accepts_integral_floats_as_integers():
    raw = minimal_raw()
    raw["grid"] = {"sample_stride": 4.0}
    assert parse_config(raw).grid.sample_stride == 4
    raw["sweep"] = {
        "axes": [{"parameter": "schedule.tau", "start": 1.0, "stop": 2.0, "points": 2.5}]
    }
    with pytest.raises(ConfigError, match="expected an integer"):
        parse_config(raw)


def test_sweep_axis_must_name_a_scalar_config_field(tmp_path, capsys):
    raw = simulate_raw()
    bad = ("schedule.tua", "schedule", "drives.peak_rabi", "drives.2.peak_rabi", "gate.peak_rabi")
    for parameter in bad:
        raw["sweep"] = {"axes": [{"parameter": parameter, "start": 1, "stop": 2, "points": 2}]}
        with pytest.raises(ConfigError, match=r"sweep\.axes\.0\.parameter: .*no scalar"):
            parse_config(raw)
    raw["sweep"]["axes"][0]["parameter"] = "drives.1.peak_rabi"
    assert parse_config(raw).sweep_axes[0].parameter == "drives.1.peak_rabi"

    raw["sweep"]["axes"][0]["parameter"] = "schedule.tua"
    out = tmp_path / "run"
    rc = main(["sweep", "--config", write_config(tmp_path, raw), "--out", str(out)])
    assert rc == 1
    assert "sweep.axes.0.parameter" in capsys.readouterr().err
    assert not (out / "sweep.csv").exists()


def _schema_paths(cls, prefix=""):
    paths = set()
    for spec in dataclasses.fields(cls):
        section = spec.metadata.get("section")
        name = prefix + spec.name
        paths |= _schema_paths(section, name + ".") if section else {name}
    return paths


def _raw_paths(node, prefix=""):
    if isinstance(node, list):
        return set().union(*(_raw_paths(item, prefix) for item in node))
    if not isinstance(node, dict):
        return {prefix[:-1]}
    return set().union(*(_raw_paths(v, f"{prefix}{k}.") for k, v in node.items()))


def test_readme_schema_block_matches_the_schema():
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Configuration schema", 1)[1]
    block = section.split("```yaml\n", 1)[1].split("```", 1)[0]
    raw = yaml.safe_load(block)
    parse_config(raw)
    # list entries are listed without their index: drives.level, sweep.axes.start
    assert _raw_paths(raw) == _schema_paths(ExperimentConfig)


# ---------------------------------------------------------------------------
# simulate


def test_simulate_writes_the_expected_files(tmp_path):
    cfg_path = write_config(tmp_path, simulate_raw())
    out = tmp_path / "run"
    rc = main(["simulate", "--config", cfg_path, "--out", str(out)])
    assert rc == 0

    with open(out / "trajectory.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    assert header[0] == "t"
    assert "pop_q" in header and "phase_s" in header
    assert len(rows) > 10

    summary = json.loads((out / "summary.json").read_text())
    assert summary["terminal_populations"]["q"] > 0.9
    assert summary["max_e_population"] < 0.05
    assert summary["norm_drift"] < 1e-6
    assert summary["convergence"] is None  # fixed-step run

    resolved = load_config(str(out / "resolved_config.yaml"))
    assert parse_config(resolved) == parse_config(simulate_raw())


def test_overflowing_simulate_is_an_integration_error(tmp_path, capsys):
    overrides = ["grid.tolerance=null", "drives.0.peak_rabi=1e200", "drives.1.peak_rabi=1e200"]
    argv = ["simulate", "--config", str(REPO / "configs" / "dark_transport.yaml"),
            "--out", str(tmp_path / "x")]
    for assignment in overrides:
        argv += ["--set", assignment]
    with np.errstate(over="ignore", invalid="ignore"):
        rc = main(argv)
    assert rc == 2
    assert "norm drift nan" in capsys.readouterr().err
    assert not (tmp_path / "x" / "summary.json").exists()


@pytest.mark.parametrize("peak", ["1e9", "1e200"])
def test_huge_gate_peak_is_refused_before_stepping(tmp_path, capsys, peak):
    """A drive whose clamped first rung needs billions of steps exits 2 at once."""
    argv = ["gate", "--config", str(REPO / "configs" / "phase_gate.yaml"),
            "--out", str(tmp_path / "x"), "--set", f"gate.peak_rabi={peak}"]
    start = time.perf_counter()
    rc = main(argv)
    assert time.perf_counter() - start < 1.0
    assert rc == 2
    err = capsys.readouterr().err
    assert "drive strength" in err and "the ladder starts at most" in err
    assert not (tmp_path / "x" / "gate.json").exists()


def test_simulate_is_byte_deterministic(tmp_path):
    cfg_path = write_config(tmp_path, simulate_raw())
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 0
        outs.append(out)
    for fname in ("trajectory.csv", "summary.json", "resolved_config.yaml"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()
    first = json.loads((outs[0] / "manifest.json").read_text())
    second = json.loads((outs[1] / "manifest.json").read_text())
    first.pop("wall_clock_seconds")
    second.pop("wall_clock_seconds")
    assert first == second


def test_trajectory_csv_matches_the_scalar_rule(tmp_path, rng):
    """The block writer writes the bytes of csv.writer over ``_fmt``, row by row."""
    # two full blocks and a partial third
    n = 2 * _CSV_BLOCK_ROWS + 37
    labels = ("q", "e", "s")
    times = np.cumsum(rng.uniform(0.0, 1e-3, n))
    populations = rng.uniform(0.0, 1.0, (n, 3)) ** 7
    phases = rng.normal(0.0, 40.0, (n, 3))
    specials = [-0.0, 1e16, 1e-5, 1e-4, 5e-324, 1.0, math.inf, -math.inf]
    for k, value in enumerate(specials):
        for row in (k, _CSV_BLOCK_ROWS - 1 - k, _CSV_BLOCK_ROWS + k, n - 1 - k):
            populations[row, k % 3] = value
            phases[row, 1] = value
    # NaN in the first and last phase columns: at block edges, in a run, in one row together
    for row in (0, _CSV_BLOCK_ROWS - 1, _CSV_BLOCK_ROWS, 2 * _CSV_BLOCK_ROWS, n - 1):
        phases[row, 0] = phases[row, -1] = math.nan
    phases[40:90, 0] = math.nan
    phases[_CSV_BLOCK_ROWS + 10:n - 5, -1] = math.nan
    traj = types.SimpleNamespace(basis_labels=labels, times=times,
                                 populations=populations, phases=phases)

    written = tmp_path / "trajectory.csv"
    _write_trajectory_csv(str(written), traj)
    reference = tmp_path / "reference.csv"
    with open(reference, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["t"] + [f"pop_{lb}" for lb in labels] + [f"phase_{lb}" for lb in labels])
        for i in range(n):
            writer.writerow([_fmt(v) for v in (times[i], *populations[i], *phases[i])])
    assert written.read_bytes() == reference.read_bytes()
    assert written.read_text().count("\n") == n + 1


def test_manifest_hashes_are_real(tmp_path):
    cfg_path = write_config(tmp_path, simulate_raw())
    out = tmp_path / "run"
    assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    for name, digest in manifest["outputs"].items():
        actual = hashlib.sha256((out / name).read_bytes()).hexdigest()
        assert actual == digest, name
    canonical = config_to_dict(parse_config(load_config(str(out / "resolved_config.yaml"))))

    def scrub(obj):
        if isinstance(obj, dict):
            return {k: scrub(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [scrub(v) for v in obj]
        return obj

    recomputed = hashlib.sha256(
        json.dumps(scrub(canonical), sort_keys=True).encode("utf-8")
    ).hexdigest()
    assert recomputed == manifest["config_sha256"]


def test_overrides_reach_the_run(tmp_path):
    cfg_path = write_config(tmp_path, simulate_raw())
    out = tmp_path / "run"
    rc = main(
        [
            "simulate",
            "--config",
            cfg_path,
            "--out",
            str(out),
            "--set",
            "schedule.sequence_delay=5.0",
        ]
    )
    assert rc == 0
    resolved = load_config(str(out / "resolved_config.yaml"))
    assert resolved["schedule"]["sequence_delay"] == 5.0


# ---------------------------------------------------------------------------
# gate and sweep


def test_gate_run_reports_quality(tmp_path):
    cfg_path = write_config(tmp_path, gate_raw())
    out = tmp_path / "run"
    assert main(["gate", "--config", cfg_path, "--out", str(out)]) == 0
    payload = json.loads((out / "gate.json").read_text())
    assert payload["kind"] == "phase"
    assert payload["fidelity"] >= 0.9999
    assert abs(payload["phase"] - PHASE_TARGET) < 2e-3
    assert payload["unitary"]["real"][0][0] == 1.0
    assert payload["schedule"]["sequence_delay"] == 4.0


def test_gate_run_rejects_grid_settings_it_cannot_honour(tmp_path, capsys):
    for grid, path in (({"tolerance": None}, "grid.tolerance"), ({"t_end": 20.0}, "grid.t_end")):
        raw = gate_raw()
        raw["grid"].update(grid)
        cfg_path = write_config(tmp_path, raw)
        assert main(["gate", "--config", cfg_path, "--out", str(tmp_path / "x")]) == 1
        assert f"error: {path}:" in capsys.readouterr().err


def test_gate_sweep_rejects_grid_settings_before_any_row_runs(tmp_path, capsys):
    raw = gate_raw()
    raw["grid"]["tolerance"] = None
    raw["sweep"] = {
        "axes": [{"parameter": "gate.peak_rabi", "start": 300.0, "stop": 320.0, "points": 2}]
    }
    out = tmp_path / "run"
    rc = main(["sweep", "--config", write_config(tmp_path, raw), "--out", str(out)])
    assert rc == 1
    assert "error: grid.tolerance:" in capsys.readouterr().err
    assert not (out / "sweep.csv").exists()


@pytest.mark.parametrize("shift", [-0.05, 0.0])
def test_controlled_phase_refuses_a_shift_that_is_not_positive(tmp_path, capsys, shift):
    """The gate solves for a delay, so the error names the config path it reads."""
    raw = load_config(str(REPO / "configs" / "controlled_phase_gate.yaml"))
    raw["system"]["interaction_shift"] = shift
    assert main(["gate", "--config", write_config(tmp_path, raw),
                 "--out", str(tmp_path / "gate")]) == 1
    assert "error: system.interaction_shift:" in capsys.readouterr().err
    # a sweep refuses it once, before any row runs
    raw["sweep"] = {
        "axes": [{"parameter": "gate.peak_rabi", "start": 150.0, "stop": 170.0, "points": 2}]
    }
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", write_config(tmp_path, raw), "--out", str(out)]) == 1
    assert "error: system.interaction_shift:" in capsys.readouterr().err
    assert not (out / "sweep.csv").exists()


@pytest.mark.parametrize("command, config, assignment", [
    ("gate", "phase_gate", "schedule.pulse_delay=5"),
    ("gate", "controlled_phase_gate", "schedule.sequence_delay=-5"),
    ("sweep", "pulse_area_sweep", "schedule.tau=-1"),
])
def test_gate_runs_refuse_an_invalid_schedule_under_its_path(
        tmp_path, capsys, command, config, assignment):
    """A gate builds the configured schedule first, even the controlled phase, which
    re-solves its sequence delay; a gate sweep does so once, before any row runs."""
    out = tmp_path / "x"
    rc = main([command, "--config", str(REPO / "configs" / f"{config}.yaml"),
               "--out", str(out), "--set", assignment])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: schedule: ")
    assert not any(out.iterdir())


@pytest.mark.parametrize("peak", ["-3", "0"])
def test_gate_peak_must_be_positive(tmp_path, capsys, peak):
    out = tmp_path / "x"
    rc = main(["gate", "--config", str(REPO / "configs" / "phase_gate.yaml"),
               "--out", str(out), "--set", f"gate.peak_rabi={peak}"])
    assert rc == 1
    assert capsys.readouterr().err == "error: gate.peak_rabi: must be positive\n"
    assert not out.exists()


@pytest.mark.parametrize("name", ["hadamard_gate", "controlled_phase_gate"])
def test_shipped_hadamard_and_controlled_phase_run_at_a_coarse_tolerance(tmp_path, capsys, name):
    """The unit tier's run of these two gate kinds, with the lines --verbose adds."""
    out = tmp_path / "x"
    assert main(["gate", "--config", str(REPO / "configs" / f"{name}.yaml"), "--out", str(out),
                 "--set", "grid.tolerance=1e-4", "--verbose"]) == 0
    payload = json.loads((out / "gate.json").read_text())
    assert payload["kind"] == name.removesuffix("_gate")
    assert payload["fidelity"] >= 0.999
    text = capsys.readouterr().out
    assert f"  achieved phase {payload['phase']}, predicted " in text
    assert (f"  note: {payload['note']}" in text) == bool(payload["note"])
    if name == "controlled_phase_gate":
        assert payload["note"]


def test_converged_tripod_simulate_reports_its_ladder(tmp_path, capsys):
    out = tmp_path / "x"
    argv = ["simulate", "--config", str(REPO / "configs" / "dark_transport.yaml"),
            "--out", str(out), "--verbose"]
    for assignment in ("system.kind=tripod", "system.initial_state=0", "drives.0.level=0",
                       "drives.1.level=1", "grid.tolerance=1e-4"):
        argv += ["--set", assignment]
    assert main(argv) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["basis"] == ["0", "1", "2", "e"]
    report = summary["convergence"]
    assert report is not None and report["tolerance"] == 1e-4
    assert report["distances"][-1] <= 1e-4
    steps = " ".join(f"{step:.3e}" for step in report["steps"])
    assert f"  convergence: steps {steps} | distances " in capsys.readouterr().out


def test_verbose_sweep_names_each_failed_point(tmp_path, capsys):
    raw = simulate_raw()
    raw["sweep"] = {
        "axes": [{"parameter": "schedule.tau", "start": -2.0, "stop": -1.0, "points": 2}]
    }
    rc = main(["sweep", "--config", write_config(tmp_path, raw), "--out", str(tmp_path / "x"),
               "--workers", "1", "--verbose"])
    assert rc == 3
    err = capsys.readouterr().err
    for tau in (-2.0, -1.0):
        assert f"  failed at schedule.tau={tau}: schedule: tau must be positive\n" in err


def test_sweep_accepts_a_yaml_timestamp_override(tmp_path):
    """YAML reads 2024-01-01 as a date; the sweep rows copy the config with it."""
    config = str(REPO / "configs" / "pulse_area_sweep.yaml")
    tables = []
    for extra in ([], ["--set", "output_dir=2024-01-01"]):
        out = tmp_path / f"run{len(extra)}"
        assert main(["sweep", "--config", config, "--set", "sweep.axes.0.points=2",
                     "--workers", "1", "--out", str(out), *extra]) == 0
        tables.append((out / "sweep.csv").read_bytes())
    assert tables[0] == tables[1]


def test_single_point_sweep_matches_the_gate_run(tmp_path):
    raw = gate_raw(peak=314.0)
    out_gate = tmp_path / "gate"
    assert main(["gate", "--config", write_config(tmp_path, raw), "--out", str(out_gate)]) == 0

    raw_sweep = gate_raw(peak=1.0)  # overridden by the axis value
    raw_sweep["sweep"] = {
        "axes": [
            {"parameter": "gate.peak_rabi", "start": 314.0, "stop": 314.0, "points": 1}
        ]
    }
    out_sweep = tmp_path / "sweep"
    cfg_path = write_config(tmp_path, raw_sweep, name="sweep.yaml")
    assert main(["sweep", "--config", cfg_path, "--out", str(out_sweep), "--workers", "1"]) == 0

    with open(out_sweep / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    row = rows[0]
    gate_payload = json.loads((out_gate / "gate.json").read_text())
    assert float(row["fidelity"]) == gate_payload["fidelity"]
    assert float(row["phase"]) == gate_payload["phase"]
    assert row["error"] == ""


def test_sweep_reports_partial_failures(tmp_path, capsys):
    raw = gate_raw()
    raw["sweep"] = {
        "axes": [{"parameter": "schedule.tau", "start": -1.0, "stop": 1.0, "points": 2}]
    }
    out = tmp_path / "run"
    cfg_path = write_config(tmp_path, raw)
    rc = main(["sweep", "--config", cfg_path, "--out", str(out)])
    assert rc == 3
    with open(out / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    failed = [r for r in rows if r["error"]]
    clean = [r for r in rows if not r["error"]]
    assert len(failed) == 1 and len(clean) == 1
    assert failed[0]["fidelity"] == ""
    assert float(clean[0]["fidelity"]) > 0.999


def test_sweep_output_is_worker_count_independent(tmp_path):
    raw = gate_raw()
    raw["sweep"] = {
        "axes": [
            {"parameter": "gate.peak_rabi", "start": 300.0, "stop": 320.0, "points": 2}
        ]
    }
    cfg_path = write_config(tmp_path, raw)
    outputs = []
    for workers, name in ((1, "serial"), (2, "parallel")):
        out = tmp_path / name
        rc = main(
            ["sweep", "--config", cfg_path, "--out", str(out), "--workers", str(workers)]
        )
        assert rc == 0
        outputs.append((out / "sweep.csv").read_bytes())
    assert outputs[0] == outputs[1]


def test_sweep_over_an_integer_field(tmp_path):
    raw = simulate_raw()
    raw["sweep"] = {
        "axes": [{"parameter": "grid.sample_stride", "start": 4, "stop": 8, "points": 2}]
    }
    out = tmp_path / "run"
    cfg_path = write_config(tmp_path, raw)
    assert main(["sweep", "--config", cfg_path, "--out", str(out), "--workers", "1"]) == 0
    with open(out / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["grid.sample_stride"]) for r in rows] == [4.0, 8.0]
    assert all(r["error"] == "" for r in rows)


def test_sweep_rejects_worker_counts_below_one(tmp_path, capsys):
    raw = gate_raw()
    raw["sweep"] = {
        "axes": [{"parameter": "gate.peak_rabi", "start": 300.0, "stop": 320.0, "points": 2}]
    }
    cfg_path = write_config(tmp_path, raw)
    for workers in ("0", "-3"):
        out = tmp_path / f"workers{workers}"
        assert main(["sweep", "--config", cfg_path, "--out", str(out), "--workers", workers]) == 1
        assert "--workers" in capsys.readouterr().err
        assert not out.exists()


def test_only_sweep_takes_a_worker_count(tmp_path, capsys):
    cfg_path = write_config(tmp_path, gate_raw())
    for command in ("simulate", "gate", "phase"):
        out = tmp_path / command
        assert main([command, "--config", cfg_path, "--out", str(out), "--workers", "2"]) == 1
        assert "--workers" in capsys.readouterr().err
        assert not out.exists()


# ---------------------------------------------------------------------------
# phase predictions


def test_phase_prediction_for_the_three_level_chain(tmp_path):
    raw = {
        "system": {"kind": "lambda"},
        "schedule": {"tau": 1.0, "pulse_delay": 1.0, "sequence_delay": 5.0},
        "drives": [
            {"level": "q", "role": "pump", "peak_rabi": 1.0},
            {"level": "s", "role": "stokes", "peak_rabi": 1.0, "phase_slope": 0.8},
        ],
    }
    out = tmp_path / "run"
    cfg_path = write_config(tmp_path, raw)
    assert main(["phase", "--config", cfg_path, "--out", str(out)]) == 0
    payload = json.loads((out / "phase.json").read_text())
    assert payload["closed_form"] == pytest.approx(-4.0)
    assert abs(payload["difference"]) < 1e-8


def test_phase_prediction_needs_an_interaction_shift(tmp_path, capsys):
    raw = {
        "system": {"kind": "two_atom"},
        "schedule": {"tau": 1.0, "pulse_delay": 0.5, "sequence_delay": 4.0},
    }
    cfg_path = write_config(tmp_path, raw)
    assert main(["phase", "--config", cfg_path, "--out", str(tmp_path / "x")]) == 1
    assert "interaction_shift" in capsys.readouterr().err


@pytest.mark.parametrize("kind, drives", [
    # the tripod's level-2 drive is a pump, so no drive is the stokes
    ("tripod", [{"level": "0", "role": "pump", "peak_rabi": 120.0},
                {"level": "2", "role": "pump", "peak_rabi": 120.0}]),
    ("two_atom", [{"level": "1", "role": "pump", "peak_rabi": 120.0}]),
])
def test_phase_prediction_needs_one_stokes_drive(tmp_path, capsys, kind, drives):
    raw = {
        "system": {"kind": kind, "interaction_shift": 0.01},
        "schedule": {"tau": 1.0, "pulse_delay": 0.5, "sequence_delay": 4.0},
        "drives": drives,
    }
    out = tmp_path / "x"
    assert main(["phase", "--config", write_config(tmp_path, raw), "--out", str(out)]) == 1
    assert "drives" in capsys.readouterr().err
    assert not (out / "phase.json").exists()


def test_two_atom_phase_prediction_reads_the_stokes_drive_by_role(tmp_path):
    config = str(REPO / "configs" / "collisional_phase_prediction.yaml")
    assert main(["phase", "--config", config, "--out", str(tmp_path / "shipped")]) == 0
    assert main(["phase", "--config", config, "--out", str(tmp_path / "moved"),
                 "--set", "drives.1.level=0"]) == 0
    shipped = (tmp_path / "shipped" / "phase.json").read_bytes()
    assert (tmp_path / "moved" / "phase.json").read_bytes() == shipped


# ---------------------------------------------------------------------------
# exit codes


def test_missing_config_file_is_a_config_error(tmp_path, capsys):
    rc = main(["simulate", "--config", str(tmp_path / "nope.yaml")])
    assert rc == 1
    assert "not found" in capsys.readouterr().err


def test_invalid_schedule_is_a_config_error(tmp_path, capsys):
    raw = simulate_raw()
    raw["schedule"]["tau"] = -1.0
    cfg_path = write_config(tmp_path, raw)
    rc = main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "x")])
    assert rc == 1


def test_negative_peak_is_a_config_error(tmp_path, capsys):
    raw = simulate_raw()
    raw["drives"][0]["peak_rabi"] = -1.0
    cfg_path = write_config(tmp_path, raw)
    rc = main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "x")])
    assert rc == 1
    assert "drives.0: omega_max must be non-negative" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["ramp_phase_prediction", "collisional_phase_prediction"])
@pytest.mark.parametrize("drive", [0, 1])
@pytest.mark.parametrize("peak", ["0", "-120"])
def test_phase_prediction_refuses_zero_and_negative_peaks(tmp_path, capsys, name, drive, peak):
    """A negative peak fails as simulate fails it; a zero pump or stokes peak has no mixing angle."""
    out = tmp_path / "x"
    rc = main(["phase", "--config", str(REPO / "configs" / f"{name}.yaml"), "--out", str(out),
               "--set", f"drives.{drive}.peak_rabi={peak}"])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: drives")
    assert not (out / "phase.json").exists()


# numpy cannot index this many steps (nor Python count them, together), so these
# fail before anything is allocated; a step that numpy can allocate would ask for
# gigabytes, so none is tried here
@pytest.mark.parametrize("overrides", [["grid.base_step=1e-300"], ["grid.t_end=1e300"],
                                       ["grid.base_step=1e-300", "grid.t_end=1e300"]])
def test_unbuildable_simulate_grid_is_a_config_error(tmp_path, capsys, overrides):
    out = tmp_path / "x"
    argv = ["simulate", "--config", str(REPO / "configs" / "dark_transport.yaml"),
            "--out", str(out)]
    for assignment in overrides:
        argv += ["--set", assignment]
    rc = main(argv)
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: grid")
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("command, config, assignment", [
    ("gate", "phase_gate", "grid.tolerance=0"),
    ("gate", "phase_gate", "grid.tolerance=-1"),
    ("simulate", "dark_transport", "grid.tolerance=0"),
    ("simulate", "dark_transport", "grid.tolerance=-1"),
    ("gate", "phase_gate", "grid.base_step=-1"),
])
def test_non_positive_grid_tolerance_or_step_is_refused_at_parse_time(
        tmp_path, capsys, command, config, assignment):
    """A ladder that cannot converge, or a grid that cannot step, exits 1 before any step."""
    out = tmp_path / "x"
    rc = main([command, "--config", str(REPO / "configs" / f"{config}.yaml"),
               "--out", str(out), "--set", assignment])
    assert rc == 1
    name = assignment.partition("=")[0]
    assert capsys.readouterr().err == f"error: {name}: must be positive\n"
    assert not out.exists()


def test_dense_pair_csv_keeps_exchange_partners_identical(tmp_path):
    """The pair from 11, as the determinism check runs it: 12/21, 1e/e1 and 2e/e2
    hold one amplitude, so their population and phase columns are the same text."""
    out = tmp_path / "dense_pair"
    overrides = ["system.kind=two_atom", "system.initial_state=11",
                 "system.interaction_shift=0.05", "drives.0.level=1", "drives.1.level=2",
                 "drives.0.peak_rabi=160", "drives.1.peak_rabi=160", "drives.1.phase_slope=0",
                 "schedule.tau=2.0", "schedule.pulse_delay=0.8", "schedule.sequence_delay=8.0",
                 "grid.tolerance=null", "grid.base_step=5e-4", "grid.sample_stride=1"]
    argv = ["simulate", "--config", str(REPO / "configs" / "dark_transport.yaml"),
            "--out", str(out)]
    for assignment in overrides:
        argv += ["--set", assignment]
    assert main(argv) == 0
    with open(out / "trajectory.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 25_601
    for prefix in ("pop_", "phase_"):
        for a, b in (("12", "21"), ("1e", "e1"), ("2e", "e2")):
            assert [r[prefix + a] for r in rows] == [r[prefix + b] for r in rows]
    assert max(float(r["pop_12"]) for r in rows) > 0.01


def test_leaky_gate_is_an_integration_error(tmp_path, capsys):
    cfg_path = write_config(tmp_path, gate_raw(peak=3.0))
    rc = main(["gate", "--config", cfg_path, "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "integration error" in capsys.readouterr().err


def test_version_flag_exits_cleanly(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "stirapgates" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# benchmark contract


def test_setup_probe_reads_every_shipped_config(tmp_path):
    """perfbench/setup_probe.py parses configs through this module and reads
    cfg.system, cfg.schedule, cfg.drives[i] and cfg.gate.peak_rabi."""
    ops = [
        {"config": str(path), "overrides": []}
        for path in sorted((REPO / "configs").glob("*.yaml"))
    ]
    ops.append(
        {"config": str(REPO / "configs" / "dark_transport.yaml"),
         "overrides": ["drives.1.phase_slope=0.3"]}
    )
    ops_path = tmp_path / "ops.json"
    ops_path.write_text(json.dumps(ops), encoding="utf-8")
    result = subprocess.run(
        [sys.executable, str(REPO / "perfbench" / "setup_probe.py"), str(REPO / "src"),
         str(ops_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert float(result.stdout.strip()) > 0.0
