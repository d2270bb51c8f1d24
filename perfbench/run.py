"""Benchmark of the stirapgates library and CLI, end to end and per layer.

    python3 perfbench/run.py --workload gate_single --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1

One process, one caller, closed loop: each operation is an in-process call
of ``stirapgates.cli.main`` that starts when the previous one has finished,
as a physicist's script runs gates. A workload is a cycle of operations
generated from the seed (see workloads.py); cycles repeat until
``--seconds`` have passed, and every operation's outputs are checked
against its oracle and, on repeats, for byte-identical files.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced cycles, wraps the package's module boundaries (see
spans.py) during the traced ones, then runs the layer microbenchmarks and
reports the per-layer metrics. Either way the last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--workload all`` runs every workload both ways, each in its own process.

Only the package under ``src/`` next to this directory is benchmarked; the
run fails without it.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

from spans import MODULES, Tracer

# One BLAS thread: the hot loops are small matrix products, and on a shared
# 2-core machine idle BLAS workers spinning on the second core would make
# the figures measure the scheduler. Set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"
SETUP_REPEATS = 9
WORKLOAD_NAMES = ("gate_single", "gate_pair", "dense_predict")

SPEC = ROOT / "BENCHMARK.json"
# Units of the metrics that are printed but not in BENCHMARK.json: they are
# zero or absent on some workloads, or describe the run rather than the code.
PRINTED_UNITS = {
    "op_count": "count",
    "cycles": "count",
    "op_s.p50": "s",
    "op_s.p90": "s",
    "oracle_err_max": "abs",
    "failed_frac": "frac",
    "determinism_checks": "count",
    "trace.cycles": "count",
    "trace.wall_s": "s",
    "trace.self_sum_s": "s",
    "gates.run_s.phase": "s",
    "gates.run_s.hadamard": "s",
    "gates.run_s.controlled_phase": "s",
    "geomphase.wz_propagate_s": "s",
    **{f"{module}.self_s": "s" for module in MODULES},
}


class Runner:
    """Runs cycles of operations and checks every result."""

    def __init__(self, ops, cli_main) -> None:
        self.ops = ops
        self.cli_main = cli_main
        self.hashes: dict[tuple[str, str], str] = {}
        self.attempted = 0
        self.failed = 0
        self.oracle_err = 0.0
        self.problems: list[str] = []
        self.op_seconds: list[float] = []
        self.repeats_checked = 0

    def cycle(self, tracer=None) -> tuple[float, int]:
        """(seconds spent in operations, bytes the operations wrote)."""
        seconds = 0.0
        written = 0
        for op in self.ops:
            secs, nbytes = self._run(op, tracer)
            seconds += secs
            written += nbytes
        return seconds, written

    def _run(self, op, tracer) -> tuple[float, int]:
        self.attempted += 1
        problems: list[str] = []
        # Collect what earlier operations left in reference cycles, so that no
        # operation pays for collecting another's garbage.
        gc.collect()
        sink = io.StringIO()
        rc = None
        t0 = perf_counter()
        try:
            with redirect_stdout(sink), redirect_stderr(sink):
                if tracer is not None:
                    tracer.begin_op(self.attempted, "cli.main", "cli")
                try:
                    rc = self.cli_main(op.argv)
                finally:
                    if tracer is not None:
                        tracer.end_op()
        except Exception as exc:  # a crashing operation is a failed one
            problems.append(f"raised {exc!r}")
        secs = perf_counter() - t0
        self.op_seconds.append(secs)
        if rc not in (0, None):
            problems.append(f"exit code {rc}: {sink.getvalue().strip()[-300:]}")
        written = 0
        if rc == 0:
            try:
                errors, err = op.check(op.out_dir)
                problems += errors
                self.oracle_err = max(self.oracle_err, err)
            except (OSError, KeyError, TypeError, ValueError) as exc:
                problems.append(f"unreadable output: {exc!r}")
            written = self._hash_outputs(op, problems)
        if problems:
            self.failed += 1
            self.problems.append(f"{op.name}: " + "; ".join(problems))
        return secs, written

    def _hash_outputs(self, op, problems: list[str]) -> int:
        written = 0
        for fname in sorted(os.listdir(op.out_dir)):
            path = os.path.join(op.out_dir, fname)
            written += os.path.getsize(path)
            if fname == "manifest.json":  # holds the wall clock by design
                continue
            digest = hashlib.sha256()
            with open(path, "rb") as fh:
                for block in iter(lambda: fh.read(1 << 20), b""):
                    digest.update(block)
            key = (op.name, fname)
            previous = self.hashes.get(key)
            if previous is None:
                self.hashes[key] = digest.hexdigest()
            else:
                self.repeats_checked += 1
                if previous != digest.hexdigest():
                    problems.append(f"{fname} differs from an earlier repeat")
        return written


class SetupProbe:
    """Cold set-up timed in fresh interpreter processes (setup_probe.py)."""

    def __init__(self, ops, workdir: Path) -> None:
        self.spec = workdir / "setup_ops.json"
        self.spec.write_text(json.dumps(
            [{"config": op.config_path, "overrides": op.assignments} for op in ops]
        ))
        self.samples: list[float] = []
        self.walls: list[float] = []

    def run(self) -> None:
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(self.spec)],
            capture_output=True, text=True, timeout=120, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        self.samples.append(float(proc.stdout.strip().splitlines()[-1]))
        self.walls.append(perf_counter() - t0)

    def left(self) -> int:
        return SETUP_REPEATS - len(self.samples)


def _until(seconds: float, step, reserve=lambda: 0.0) -> None:
    """Call ``step`` until ``seconds`` have passed.

    No call starts that would, at the median length of the calls so far,
    end past ``seconds`` with ``reserve()`` seconds still to spend after it.
    The first call always runs.
    """
    start = perf_counter()
    spent: list[float] = []
    while True:
        t0 = perf_counter()
        step()
        spent.append(perf_counter() - t0)
        left = seconds - (perf_counter() - start)
        if statistics.median(spent) + reserve() > left:
            return


def run_untraced(ops, runner, seconds: float, workdir: Path) -> dict[str, float]:
    # Set-up probes are spread over the run, so that their median spans it
    # and not only the load on the machine during its first seconds. They
    # count towards ``seconds``.
    probe = SetupProbe(ops, workdir)
    cycles: list[float] = []
    peak_mb: list[float] = []
    start = perf_counter()

    def step() -> None:
        due = max(1, math.ceil(SETUP_REPEATS * (perf_counter() - start) / seconds))
        while probe.left() > 0 and len(probe.samples) < due:
            probe.run()
        cycles.append(runner.cycle()[0])
        if not peak_mb:
            # High-water mark of the first cycle. Later cycles start from a
            # heap that the allocator kept fragmented, and the mark then
            # moves by seed with no change in the program's demand.
            peak_mb.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)

    _until(seconds, step, lambda: probe.left() * statistics.median(probe.walls))
    while probe.left() > 0:
        probe.run()
    ops_s = runner.op_seconds
    print("cycle_s " + " ".join(f"{c:.4f}" for c in cycles))
    out = {
        "setup_s": statistics.median(probe.samples),
        "wall_s": statistics.median(cycles),
        "ops_per_s": len(ops_s) / sum(ops_s),
        "op_s.p50": statistics.median(ops_s),
        "peak_rss_mb": peak_mb[0],
        "op_count": float(len(ops_s)),
        "cycles": float(len(cycles)),
        "oracle_err_max": runner.oracle_err,
        "failed_frac": runner.failed / runner.attempted,
        "determinism_checks": float(runner.repeats_checked),
    }
    if len(ops_s) >= 100:
        out["op_s.p90"] = statistics.quantiles(ops_s, n=10)[8]
    return out


def run_traced(ops, runner, seconds: float, workload: str) -> dict[str, float]:
    from layers import microbenchmarks, propagation_counts

    tracer = Tracer()
    plain: list[float] = []
    traced: list[tuple[float, int]] = []
    out: dict[str, float] = {}

    def pair() -> None:
        plain.append(runner.cycle()[0])
        tracer.capture = not traced
        tracer.install()
        try:
            traced.append(runner.cycle(tracer))
        finally:
            tracer.uninstall()
        if tracer.capture:
            out.update(propagation_counts(tracer.captures))
            tracer.captures.clear()
            tracer.capture = False

    _until(seconds, pair)
    out.update(microbenchmarks(ops))
    OUT.mkdir(exist_ok=True)
    tracer.write(str(OUT / f"spans-{workload}.csv"))

    n = len(traced)
    wall = sum(s for s, _ in traced)
    self_s = tracer.module_self_s()
    self_total = sum(self_s.values())
    written = statistics.median(b for _, b in traced)
    for module in MODULES:
        out[f"{module}.self_frac"] = self_s[module] / self_total
        out[f"{module}.self_s"] = self_s[module] / n
    out["systems.sample_points"] = tracer.points.get("HamiltonianModel.sample", 0) / n
    out["cli.bytes_written"] = float(written)
    out["cli.write_mb_per_s"] = written / 1e6 / (self_s["cli"] / n)
    out["trace.overhead_frac"] = (
        statistics.median(s for s, _ in traced) / statistics.median(plain) - 1.0
    )
    out["trace.self_sum_frac"] = self_total / wall
    out["trace.wall_s"] = wall / n
    out["trace.self_sum_s"] = self_total / n
    out["trace.cycles"] = float(n)
    for name, span in (("gates.run_s.phase", "cli.run_phase_gate"),
                       ("gates.run_s.hadamard", "cli.run_hadamard"),
                       ("gates.run_s.controlled_phase", "cli.run_controlled_phase"),
                       ("geomphase.wz_propagate_s", "cli.wz_propagate")):
        calls, total = tracer.span_stats(span)
        if calls:
            out[name] = total / calls
    return out


# ---------------------------------------------------------------------------
# Environment record


def _src_lines() -> int:
    return sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(SRC.rglob("*.py"))
    )


def _src_digest() -> str:
    digest = hashlib.sha256()
    for p in sorted(SRC.rglob("*.py")):
        digest.update(p.relative_to(SRC).as_posix().encode())
        digest.update(p.read_bytes())
    return digest.hexdigest()


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (no git metadata)"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30, check=False)
    return proc.stdout.strip() or "unknown"


def environment(seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    threads = ", ".join(
        f"{var}={os.environ[var]}"
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        if var in os.environ
    ) or "library default"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": threads,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "seed": seed,
        "commit": _commit(),
        "src_sha256": _src_digest(),
        "src_lines": _src_lines(),
    }


# ---------------------------------------------------------------------------
# Entry points


def run_one(args, declared: dict[str, str]) -> int:
    from stirapgates.cli import main as cli_main
    from workloads import generate

    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ops = generate(args.workload, args.seed)
        for op in ops:
            op.prepare(str(workdir))
        runner = Runner(ops, cli_main)
        if args.trace:
            measured = run_traced(ops, runner, args.seconds, args.workload)
        else:
            measured = run_untraced(ops, runner, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in runner.problems[:20]:
        print(f"FAILED {problem}")
    units = {**PRINTED_UNITS, **declared}
    for name in sorted(measured):
        print(f"{args.workload:<17} {name:<40} {measured[name]:>14.6g} {units[name]}")
    print("env " + json.dumps(environment(args.seed), sort_keys=True))
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": measured[name], "unit": unit}
                    for name, unit in declared.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload untraced then traced, each in its own process."""
    combined: dict = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900,
                                  check=False)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.stdout.write(proc.stdout)
                sys.stderr.write(proc.stderr)
                return proc.returncode or 1
            print("\n".join(lines[:-1]), flush=True)
            result = json.loads(lines[-1])
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for name, entry in result["metrics"].items():
                combined["metrics"][f"{workload}.{name}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    if not SPEC.is_file():
        print(f"error: {SPEC} is missing", file=sys.stderr)
        return 2
    if not (SRC / "stirapgates" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import stirapgates

    if Path(stirapgates.__file__).resolve().parent != (SRC / "stirapgates").resolve():
        print(f"error: imported stirapgates from {stirapgates.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    section = spec["per_layer" if args.trace else "end_to_end"]
    return run_one(args, {m["name"]: m["unit"] for m in section})


if __name__ == "__main__":
    sys.exit(main())
