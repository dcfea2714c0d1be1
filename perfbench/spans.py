"""Span tracing for the benchmark's traced run.

Wrappers are installed from here around the public functions of each
holovec module, in every holovec module namespace that holds a reference to
the function (``cleanup`` is imported by name into ``decoder`` and ``cli``,
for instance), so every call site goes through them. The program itself
carries no tracing code. Spans are kept in flat arrays in memory and written
out as JSON when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from array import array
from pathlib import Path

import numpy as np

# holovec modules whose public functions are wrapped; ``_fileio`` reports as ``fileio``
LAYERS = ("hrr", "codebook", "encoder", "decoder", "analysis", "_fileio", "selftest", "cli")


def _file_size(bound: inspect.BoundArguments) -> int:
    """Size of the file named by the first argument (``read_vectors(path, ...)``)."""
    try:
        return os.path.getsize(next(iter(bound.arguments.values())))
    except (OSError, TypeError, StopIteration):  # the wrapped call reports a bad path itself
        return 0


def _text_size(bound: inspect.BoundArguments) -> int:
    """UTF-8 size of the second argument (``atomic_write_text(path, text)``)."""
    values = list(bound.arguments.values())
    return len(values[1].encode("utf-8")) if len(values) > 1 and isinstance(values[1], str) else 0


# functions whose spans also carry the bytes they read or write
BYTES = {"encoder.read_vectors": _file_size, "fileio.atomic_write_text": _text_size}


def _public(module, name: str) -> bool:
    exported = getattr(module, "__all__", None)
    return name in exported if exported is not None else not name.startswith("_")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.round = array("i")
        self.start = array("d")
        self.end = array("d")
        self.nbytes = array("q")
        self.rounds = 0
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin_round(self) -> None:
        self.rounds += 1

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        return self._call(self._id(name), 0, fn, args, kwargs)

    def _call(self, name_id: int, nbytes: int, fn, args, kwargs):
        index = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.round.append(self.rounds - 1)
        self.nbytes.append(nbytes)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[index] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn):
        name_id = self._id(name)
        measure = BYTES.get(name)
        signature = inspect.signature(fn) if measure else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                nbytes = measure(signature.bind(*args, **kwargs)) if measure else 0
            except TypeError:  # arguments the function rejects; the call below raises
                nbytes = 0
            return self._call(name_id, nbytes, fn, args, kwargs)

        return traced

    def install(self) -> None:
        """Route every holovec reference to a public function through a wrapper."""
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"holovec.{layer}")
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and _public(module, attr):
                    wrappers[obj] = self._wrap(f"{layer.lstrip('_')}.{attr}", obj)
        namespaces = [m for n, m in sys.modules.items() if n == "holovec" or n.startswith("holovec.")]
        for module in namespaces:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patched.append((module, attr, obj))
                    setattr(module, attr, wrappers[obj])

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._patched):
            setattr(module, attr, obj)
        self._patched.clear()

    # -- results -----------------------------------------------------------

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name, the median over traced rounds of its inclusive s, self_s, calls and bytes."""
        name = np.frombuffer(self.name, dtype=np.int32).astype(np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        duration = np.frombuffer(self.end) - np.frombuffer(self.start)
        child = parent >= 0
        own = duration - np.bincount(parent[child], weights=duration[child], minlength=len(duration))
        cell = name * self.rounds + np.frombuffer(self.round, dtype=np.int32)
        shape = (len(self.names), self.rounds)
        per_round = {
            "s": np.bincount(cell, weights=duration, minlength=shape[0] * shape[1]),
            "self_s": np.bincount(cell, weights=own, minlength=shape[0] * shape[1]),
            "calls": np.bincount(cell, minlength=shape[0] * shape[1]).astype(np.float64),
            "bytes": np.bincount(cell, weights=np.frombuffer(self.nbytes, dtype=np.int64).astype(np.float64),
                                 minlength=shape[0] * shape[1]),
        }
        medians = {kind: np.median(values.reshape(shape), axis=1) for kind, values in per_round.items()}
        return {n: {kind: float(medians[kind][i]) for kind in per_round} for i, n in enumerate(self.names)}

    def write(self, path: Path, summary: dict) -> None:
        doc = {
            "names": self.names,
            "rounds": self.rounds,
            "spans": {
                "name": self.name.tolist(),
                "parent": self.parent.tolist(),
                "round": self.round.tolist(),
                "start": self.start.tolist(),
                "end": self.end.tolist(),
                "bytes": self.nbytes.tolist(),
            },
            **summary,
        }
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n", encoding="utf-8")
