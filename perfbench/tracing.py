"""Spans around brisq's public functions, recorded from outside the program.

The tracer replaces module attributes with timing wrappers, at the names
brisq.cli and brisq.pipeline look up when they call into the next layer.
Each span keeps its name, start, end, parent span and request number in
flat arrays; self time (duration minus the children's durations) is
worked out once the run ends.
"""

from __future__ import annotations

import importlib
import time
from array import array
from contextlib import contextmanager

# module -> attribute names wrapped there
TARGETS = {
    "brisq.cli": ("main", "load_scenario", "run", "sweep"),
    "brisq.pipeline": ("run", "phase_match", "pump_steady_state", "diagonalize",
                       "full_moment_table", "pair_probability", "table_deviation",
                       "choose_cutoff", "squeezed_vacuum", "measure_moments"),
}

# span names, in the order the per-layer metrics list them
SPANS = (
    "cli.main", "pipeline.load_scenario", "pipeline.sweep", "pipeline.run",
    "waveguide.phase_match", "pump.pump_steady_state", "bogoliubov.diagonalize",
    "squeezing.full_moment_table", "squeezing.pair_probability",
    "squeezing.table_deviation", "focksim.choose_cutoff", "focksim.squeezed_vacuum",
    "focksim.measure_moments",
)
MODULES = ("cli", "pipeline", "waveguide", "pump", "bogoliubov", "squeezing", "focksim")


def span_name(fn) -> str:
    """<module>.<function> of the function's defining brisq module."""
    return f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}"


class Tracer:
    """In-memory span store; one instance per traced run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.request = array("q")
        self.raised = array("b")
        self.request_id = 0
        self._stack: list[int] = []

    def wrap(self, fn):
        name = span_name(fn)
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        clock = time.perf_counter_ns
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.request.append(self.request_id)
            self.raised.append(0)
            self.end.append(0)
            stack.append(idx)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.raised[idx] = 1
                raise
            finally:
                self.end[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, raised, and self times in ns."""
        import numpy as np

        if not self.start:
            return {}
        start = np.frombuffer(self.start, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=np.int64) - start
        parent = np.frombuffer(self.parent, dtype=np.int64)
        names = np.frombuffer(self.name_id, dtype=np.uint16)
        raised = np.frombuffer(self.raised, dtype=np.int8)
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        self_ns = dur - child
        out = {}
        for nid, name in enumerate(self.names):
            mask = names == nid
            out[name] = {"calls": int(mask.sum()), "raised": int(raised[mask].sum()),
                         "self_ns": self_ns[mask]}
        return out


@contextmanager
def installed(tracer: Tracer):
    """Wrap every target for the duration of the block, then restore."""
    saved = []
    try:
        for module_name, attrs in TARGETS.items():
            module = importlib.import_module(module_name)
            for attr in attrs:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, tracer.wrap(original))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
