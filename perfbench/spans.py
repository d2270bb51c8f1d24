"""Span tracer installed around the package's module boundaries.

Only the benchmark process is instrumented, and nothing under ``src/`` is
edited: the tracer rebinds names in the package's module namespaces and
class dictionaries, and puts the originals back on ``uninstall``.

Two kinds of boundary are wrapped:

* a public function that one package module imports from another, under
  the name the importing module binds (``cli.run_phase_gate``,
  ``gates.converge_many``, ``geomphase.converge``);
* a public method or constructor of a package class, under
  ``Class.method`` (``HamiltonianModel.sample``, ``MixingProfile.values``,
  ``DriveField.amplitude``). A call that comes from the class's own module
  is not a boundary and runs unwrapped.

A plain callable handed to a propagation entry point (the transport law's
Hamiltonian) is traced as code of the module that defined it.

Spans live in flat arrays while the run lasts and are written when it
ends. Self time (a span's duration minus its children's) is accumulated
as each span closes, so a module's self time never needs the span list.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from time import perf_counter

PACKAGE = "stirapgates"
MODULES = ("qcore", "pulses", "systems", "propagator", "geomphase", "gates", "cli")
# Entry points whose arguments and ConvergenceReport feed the step counts.
PROPAGATION = frozenset({"converge", "converge_many", "propagate", "propagate_many"})
# Spans that also count the time points they were asked for.
POINT_COUNTED = frozenset({"HamiltonianModel.sample"})


def _short(module_name: str) -> str:
    return module_name.rpartition(".")[2]


class Tracer:
    """Records nested spans for the operation currently marked active."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_module: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.self_s: list[float] = []
        self.total_s: list[float] = []
        self.calls: list[int] = []
        self.points: dict[str, int] = {}
        self.captures: list[tuple] = []
        self.capture = False
        self._stack: list[list] = []
        self._op_id = -1
        self._restore: list[tuple] = []

    # -- span bookkeeping ---------------------------------------------------

    def _name_id(self, name: str, module: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = len(self.names)
            self._ids[name] = nid
            self.names.append(name)
            self.name_module.append(module)
            self.self_s.append(0.0)
            self.total_s.append(0.0)
            self.calls.append(0)
        return nid

    def _enter(self, nid: int) -> None:
        idx = len(self.start)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.name.append(nid)
        self.op.append(self._op_id)
        self.end.append(0.0)
        self._stack.append([idx, 0.0])
        self.start.append(perf_counter())

    def _exit(self) -> None:
        t = perf_counter()
        idx, child = self._stack.pop()
        self.end[idx] = t
        dur = t - self.start[idx]
        nid = self.name[idx]
        self.self_s[nid] += dur - child
        self.total_s[nid] += dur
        self.calls[nid] += 1
        if self._stack:
            self._stack[-1][1] += dur

    def begin_op(self, op_id: int, name: str, module: str) -> None:
        """Open the root span of one operation; spans record until end_op."""
        self._op_id = op_id
        self._enter(self._name_id(name, module))

    def end_op(self) -> None:
        while self._stack:
            self._exit()
        self._op_id = -1

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, fn, name: str, module: str, skip_caller: str | None,
              propagation: bool = False):
        tracer = self
        nid = self._name_id(name, module)
        counted = name in POINT_COUNTED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._op_id < 0 or (
                skip_caller is not None
                and sys._getframe(1).f_globals.get("__name__") == skip_caller
            ):
                return fn(*args, **kwargs)
            if propagation:
                args = tracer._traced_hamiltonian(args)
            if counted:
                tracer.points[name] = tracer.points.get(name, 0) + len(args[1])
            tracer._enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit()
            if propagation and tracer.capture:
                tracer._record_propagation(args, kwargs, result)
            return result

        return wrapper

    def _traced_hamiltonian(self, args: tuple) -> tuple:
        ham = args[0]
        if hasattr(ham, "sample") or not callable(ham) or hasattr(ham, "shape"):
            return args
        module = getattr(ham, "__module__", "") or ""
        if not module.startswith(PACKAGE + "."):
            return args
        name = f"{_short(module)}.{ham.__qualname__}"
        traced = self._wrap(ham, name, _short(module), skip_caller=None)
        traced.original = ham
        return (traced,) + tuple(args[1:])

    def _record_propagation(self, args, kwargs, result) -> None:
        ham = getattr(args[0], "original", args[0])
        states = args[1] if isinstance(args[1], list) else [args[1]]
        grid = args[2] if len(args) > 2 else kwargs["grid"]
        report = result[1] if isinstance(result, tuple) else None
        self.captures.append((ham, states, grid, report))

    def install(self) -> None:
        """Wrap every cross-module binding and public class method."""
        modules = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                owner = getattr(obj, "__module__", "") or ""
                if inspect.isfunction(obj) and owner.startswith(PACKAGE + ".") \
                        and owner != mod.__name__:
                    wrapped = self._wrap(obj, f"{short}.{attr}", _short(owner), None,
                                         propagation=attr in PROPAGATION)
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrapped)
                elif inspect.isclass(obj) and owner == mod.__name__ \
                        and not issubclass(obj, BaseException):
                    self._wrap_class(obj, short, mod.__name__)

    def _wrap_class(self, cls, short: str, module_name: str) -> None:
        for meth, fn in list(vars(cls).items()):
            if not inspect.isfunction(fn):
                continue
            if meth.startswith("_") and meth != "__init__":
                continue
            wrapped = self._wrap(fn, f"{cls.__name__}.{meth}", short, module_name)
            self._restore.append((cls, meth, fn))
            setattr(cls, meth, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results --------------------------------------------------------------

    def module_self_s(self) -> dict[str, float]:
        out = {m: 0.0 for m in MODULES}
        for nid, module in enumerate(self.name_module):
            out[module] = out.get(module, 0.0) + self.self_s[nid]
        return out

    def span_stats(self, name: str) -> tuple[int, float]:
        """(calls, inclusive seconds) of one span name."""
        nid = self._ids.get(name)
        if nid is None:
            return 0, 0.0
        return self.calls[nid], self.total_s[nid]

    def write(self, path: str) -> None:
        """One CSV row per span: name, module, start, end, parent, op."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,name,module,start_s,end_s,parent,op\n")
            t0 = self.start[0] if len(self.start) else 0.0
            for i in range(len(self.start)):
                nid = self.name[i]
                fh.write(
                    f"{i},{self.names[nid]},{self.name_module[nid]},"
                    f"{self.start[i] - t0:.9f},{self.end[i] - t0:.9f},"
                    f"{self.parent[i]},{self.op[i]}\n"
                )
