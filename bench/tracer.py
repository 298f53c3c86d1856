"""Span tracing of resonatorsim's public functions, from outside the package.

install() wraps every public function of the layer modules at each module
attribute it is bound to: its defining module, the package namespace and
every `from .x import name` site (for example experiments.build_full), so
calls between modules are traced too.  The wrappers live only in the
benchmark's process; uninstall() restores the originals.  Spans are
(function, start, end, parent) tuples kept in memory.
"""

from __future__ import annotations

import importlib
import inspect
import os
import time
from collections import defaultdict

LAYERS = ("fockspace", "model", "hamiltonians", "dynamics", "analytic", "observables",
          "experiments", "cli")


def _samples(traj) -> int:
    """States returned: T for vectors, T*B for a batch of density matrices."""
    shape = traj.states.shape
    return shape[0] * (shape[1] if len(shape) == 4 else 1)


def _bytes(paths) -> int:
    return sum(os.path.getsize(p) for p in paths)


#: work counted from a call's output, by function
WORK = {
    "dynamics.evolve_lindblad_batch": ("samples", _samples),
    "dynamics.evolve_unitary": ("samples", _samples),
    "dynamics.integrate_amplitudes": ("samples", _samples),
    "experiments.write_result": ("bytes", _bytes),
}


class Tracer:
    def __init__(self):
        self.modules = [importlib.import_module("resonatorsim")] + [
            importlib.import_module(f"resonatorsim.{layer}") for layer in LAYERS
        ]
        self.functions: list[tuple[str, object]] = []
        for mod in self.modules[1:]:
            layer = mod.__name__.rsplit(".", 1)[1]
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    self.functions.append((f"{layer}.{name}", obj))
        self.spans: list = []
        self.work: dict = defaultdict(int)
        self._patched: list = []

    def install(self) -> None:
        stack: list[int] = []
        for index, (qualname, fn) in enumerate(self.functions):
            wrapper = self._wrap(index, fn, stack, WORK.get(qualname))
            for mod in self.modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._patched.append((mod, attr, fn))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, fn in self._patched:
            setattr(mod, attr, fn)
        self._patched.clear()

    def _wrap(self, index, fn, stack, work):
        spans, counts, clock = self.spans, self.work, time.perf_counter
        qualname = self.functions[index][0]

        def wrapper(*args, **kwargs):
            slot = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(slot)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                spans[slot] = (index, start, clock(), parent)
                stack.pop()
            if work is not None:
                counts[f"{qualname}.{work[0]}"] += work[1](out)
            return out

        return wrapper

    def take(self) -> tuple[list, dict]:
        """Spans and work counts recorded since the last take()."""
        spans, work = list(self.spans), dict(self.work)
        self.spans.clear()
        self.work.clear()
        return spans, work

    def summarize(self, spans: list) -> dict:
        """Per function: calls, self_s (duration minus child spans), wall_s."""
        child = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = {}
        for slot, (index, start, end, _) in enumerate(spans):
            entry = out.setdefault(self.functions[index][0],
                                   {"calls": 0, "self_s": 0.0, "wall_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += end - start - child[slot]
            entry["wall_s"] += end - start
        return out

    def dump(self, spans: list) -> list:
        return [[self.functions[i][0], start, end, parent] for i, start, end, parent in spans]
