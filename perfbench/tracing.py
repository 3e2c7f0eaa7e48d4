"""Wall-clock spans around the program's layer entry points.

The traced run patches a fixed set of public functions and methods with
thin wrappers that record a span (name, start, end, parent, run id) in
memory.  Nothing inside ``src/`` changes: the wrappers are installed
for one measured unit and removed again, so untraced units run the
pristine code.

Self time of a span is its duration minus the time its child spans
cover.  The simulator's four pipeline stages are *absorbed* while a
reconfiguration window step or a drain is open: their time then counts
as window or drain time, which is how the stage split answers "where
did a runtime-fault campaign spend its time" (normal cycles vs window
cycles vs drain) without double counting.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: spans inside which the simulator stages do not open spans of their own
ABSORBING = frozenset({"sim.window", "sim.drain"})

#: (module, class, span name) of each pipeline stage implementation
STAGES = (
    ("repro.sim.stages", "GenerationStage", "sim.generation"),
    ("repro.sim.stages", "InjectionStage", "sim.injection"),
    ("repro.sim.stages", "AllocationStage", "sim.allocation"),
    ("repro.sim.stages", "TransferStage", "sim.transfer"),
    ("repro.sim.vector", "VectorAllocationStage", "sim.allocation"),
    ("repro.sim.vector", "VectorTransferStage", "sim.transfer"),
)

#: (module, class, method, span name) of the other methods
METHODS = (
    ("repro.sim.engine", "Simulator", "drain", "sim.drain"),
    ("repro.sim.engine", "Simulator", "inject_runtime_fault", "sim.inject_fault"),
    ("repro.sim.network", "SimNetwork", "__init__", "sim.network_build"),
    ("repro.reliability.transport", "ReliableTransport", "on_cycle", "reliability.on_cycle"),
    ("repro.exec.store", "ResultStore", "load", "exec.store.read"),
    ("repro.exec.store", "ResultStore", "store", "exec.store.write"),
)

#: (defining module, function, span name, count key) of module-level
#: functions; every ``repro`` module that imported the function by name
#: gets its binding patched too
FUNCTIONS = (
    ("repro.analysis.cdg", "assert_deadlock_free", "analysis.cdg", "analysis.cdg.checks"),
    ("repro.faults.generation", "degrade_fault_pattern", "faults.degrade", "faults.degrade.calls"),
)

#: modules imported before patching, so that no module binds a wrapper
#: by importing it while a unit is traced
PRELOAD = (
    "repro.sim.engine",
    "repro.sim.reconfiguration",
    "repro.sim.network",
    "repro.reliability.campaign",
    "repro.reliability.transport",
    "repro.analysis.cdg",
    "repro.mc.classify",
    "repro.exec.store",
)


class SpanRecorder:
    """Spans and counters, kept in memory until :meth:`write`."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent index, run id]`` per span
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self.run = "setup"
        self.enabled = False
        self._stack: List[int] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_counter(), 0.0, parent, self.run])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    def innermost(self) -> Optional[str]:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def count(self, key: str, amount: int = 1) -> None:
        self.counts[(self.run, key)] += amount

    def call(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """Run ``fn`` under a span (the benchmark's own unit and client
        spans)."""
        index = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(index)

    def add(self, name: str, start: float, end: float, parent: Optional[int] = None) -> int:
        """Record an interval the caller measured (e.g. the wait for a
        job's first progress event); the parent defaults to the innermost
        open span."""
        if parent is None and self._stack:
            parent = self._stack[-1]
        self.spans.append([name, start, end, parent, self.run])
        return len(self.spans) - 1

    # ------------------------------------------------------------------
    def self_times(self, runs: Iterable[str]) -> Tuple[Dict[str, float], Dict[str, int]]:
        """Summed self time and span count per span name, over ``runs``."""
        wanted = set(runs)
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _run in self.spans:
            if parent is not None:
                covered[parent] += end - start
        totals: Dict[str, float] = {}
        calls: Dict[str, int] = {}
        for index, (name, start, end, _parent, run) in enumerate(self.spans):
            if run not in wanted:
                continue
            totals[name] = totals.get(name, 0.0) + (end - start) - covered[index]
            calls[name] = calls.get(name, 0) + 1
        return totals, calls

    def durations(self, name: str, runs: Optional[Iterable[str]] = None) -> List[float]:
        wanted = set(runs) if runs is not None else None
        return [
            end - start
            for span_name, start, end, _parent, run in self.spans
            if span_name == name and (wanted is None or run in wanted)
        ]

    def total_count(self, key: str, runs: Iterable[str]) -> int:
        return sum(self.counts[(run, key)] for run in runs)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, run) in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "run": run,
                        }
                    )
                    + "\n"
                )


# ----------------------------------------------------------------------
# wrappers
# ----------------------------------------------------------------------


def _timed(rec: SpanRecorder, name: str, fn: Callable, count: Optional[str], absorb: bool):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.enabled or (absorb and rec.innermost() in ABSORBING):
            return fn(*args, **kwargs)
        if count is not None:
            rec.count(count)
        index = rec.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close(index)

    return wrapper


def _step(rec: SpanRecorder, fn: Callable):
    """``Simulator.step``: counts cycles, and turns every step that starts
    with a reconfiguration window open into a ``sim.window`` span."""

    @functools.wraps(fn)
    def step(sim):
        if not rec.enabled:
            return fn(sim)
        rec.count("sim.cycles")
        if rec.innermost() == "sim.drain":
            rec.count("sim.drain_cycles")
        if sim.reconfig is None:
            return fn(sim)
        rec.count("sim.window_cycles")
        index = rec.open("sim.window")
        try:
            return fn(sim)
        finally:
            rec.close(index)

    return step


class Hooks:
    """Context manager: patch every layer entry point for one traced
    unit, restore the originals on exit.  Entry points a future version
    of the program no longer has are skipped and listed in
    :attr:`missing`."""

    def __init__(self, recorder: SpanRecorder):
        self.rec = recorder
        self.missing: List[str] = []
        self._saved: List[Tuple[Any, str, Any]] = []
        for module in PRELOAD:
            __import__(module)
        try:
            import repro.sim.vector  # noqa: F401  (needs numpy)
        except ImportError:
            pass

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _class(self, module: str, name: str):
        return getattr(sys.modules.get(module), name, None)

    def __enter__(self) -> "Hooks":
        rec = self.rec
        self.missing = []
        for module, cls_name, span in STAGES:
            cls = self._class(module, cls_name)
            if cls is None or "run" not in cls.__dict__:
                if module != "repro.sim.vector":
                    self.missing.append(f"{cls_name}.run")
                continue
            self._patch(cls, "run", _timed(rec, span, cls.__dict__["run"], None, True))
        simulator = self._class("repro.sim.engine", "Simulator")
        if simulator is not None and "step" in simulator.__dict__:
            self._patch(simulator, "step", _step(rec, simulator.__dict__["step"]))
        else:
            self.missing.append("Simulator.step")
        for module, cls_name, method, span in METHODS:
            cls = self._class(module, cls_name)
            if cls is None or method not in cls.__dict__:
                self.missing.append(f"{cls_name}.{method}")
                continue
            self._patch(cls, method, _timed(rec, span, cls.__dict__[method], None, False))
        for module, func_name, span, count in FUNCTIONS:
            original = getattr(sys.modules.get(module), func_name, None)
            if original is None:
                self.missing.append(func_name)
                continue
            wrapper = _timed(rec, span, original, count, False)
            for loaded_name, loaded in list(sys.modules.items()):
                if loaded is None or not loaded_name.startswith("repro"):
                    continue
                for attr, value in list(vars(loaded).items()):
                    if value is original:
                        self._patch(loaded, attr, wrapper)
        rec.enabled = True
        return self

    def __exit__(self, *exc: Any) -> None:
        self.rec.enabled = False
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
