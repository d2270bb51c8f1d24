"""Time one cold set-up: import, config load/override/parse, schedule and model build.

Run as ``python3 setup_probe.py <src dir> <ops.json>``; prints the elapsed
seconds. The clock starts before the package (and numpy) is imported.
"""

from time import perf_counter

_T0 = perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def _fields(cfg, schedule, DriveField, PhaseRamp):
    if cfg.drives:
        return {
            d.level: DriveField(
                d.level,
                schedule.pump_envelopes(d.peak_rabi) if d.role == "pump"
                else schedule.stokes_envelopes(d.peak_rabi),
                PhaseRamp(kind="linear" if d.phase_slope else "constant",
                          offset=d.phase_offset, slope=d.phase_slope),
            )
            for d in cfg.drives
        }
    # Gate configs carry no drives; the runners put pump and stokes envelopes
    # on the kind's qubit and storage levels.
    levels = {"lambda": ("q", "s"), "tripod": ("1", "2"), "two_atom": ("1", "2")}
    pump, stokes = levels[cfg.system.kind]
    peak = cfg.gate.peak_rabi
    return {
        pump: DriveField(pump, schedule.pump_envelopes(peak)),
        stokes: DriveField(stokes, schedule.stokes_envelopes(peak)),
    }


def main() -> int:
    src, ops_path = sys.argv[1], sys.argv[2]
    sys.path.insert(0, src)
    from stirapgates.cli import apply_override, load_config, parse_config
    from stirapgates.pulses import DriveField, PhaseRamp, build_schedule
    from stirapgates.systems import LambdaSystem, TripodSystem, TwoAtomSystem

    with open(ops_path, encoding="utf-8") as fh:
        ops = json.load(fh)
    for op in ops:
        raw = load_config(op["config"])
        for assignment in op["overrides"]:
            apply_override(raw, assignment)
        cfg = parse_config(raw)
        s = cfg.schedule
        schedule = build_schedule(s.tau, s.pulse_delay, s.sequence_delay, s.t_start)
        fields = _fields(cfg, schedule, DriveField, PhaseRamp)
        kind = cfg.system.kind
        if kind == "lambda":
            LambdaSystem(pump=fields["q"], stokes=fields["s"],
                         detuning=cfg.system.detuning).model()
        elif kind == "tripod":
            TripodSystem(drives=fields, detuning=cfg.system.detuning).model()
        else:
            TwoAtomSystem(drives=fields, detuning=cfg.system.detuning,
                          interaction_shift=cfg.system.interaction_shift).model()
    print(repr(perf_counter() - _T0))
    return 0


if __name__ == "__main__":
    sys.exit(main())
