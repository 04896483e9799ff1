"""Span tracer installed from outside the library, for the traced run.

``Tracer.install`` wraps every public function of the ``moritakit``
modules under every module name that binds it (``picard`` imports
``bibundle_isomorphic`` directly, for example), plus
``FiniteGroupoid.__eq__``.  Each call is a span with a name, start, end,
parent span and job; a generator gets one span per ``next()``.  Self
time is a span's duration minus the time its child spans cover.  Spans
stay in memory and are written once, at the end of the run.

Work counters are read from arguments and results at the same
boundaries: functors yielded, biprincipal and isomorphism hit ratios,
tensor carrier points, isomorphisms found, automorphism orders, grid
points and computed bytes of the gauge kernels (array sizes, not a
memory measurement) and file bytes of the io functions.
"""
from __future__ import annotations

import inspect
import json
import os
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

PACKAGE = "moritakit"


class Stat:
    __slots__ = ("calls", "self_s", "counters")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.counters = defaultdict(float)


def _field_args(args):
    return [a for a in args if hasattr(a, "grid") and hasattr(a, "values")]


def _gauge_counter(stat, args, result):
    fields = _field_args(args)
    stat.counters["points"] += fields[0].grid.n_points()
    computed = sum(f.values.nbytes for f in fields)
    if isinstance(result, np.ndarray):
        computed += result.nbytes
    elif hasattr(result, "values"):
        computed += result.values.nbytes
    stat.counters["computed_bytes"] += computed


def _file_bytes(path_index):
    def counter(stat, args, result):
        path = args[path_index]
        if isinstance(path, (str, os.PathLike)) and os.path.exists(path):
            stat.counters["bytes"] += os.path.getsize(path)
    return counter


def _count(name, value):
    def counter(stat, args, result):
        stat.counters[name] += value(result)
    return counter


COUNTERS = {
    "bibundles.principality": _count("biprincipal", lambda r: r.biprincipal),
    "bibundles.bibundle_isomorphic": _count("hits", lambda r: r is not None),
    "bibundles.tensor": _count("carrier_points", lambda r: len(r.carrier)),
    "groups.group_isomorphisms": _count("results", len),
    "tss.graph_automorphisms": _count("order", len),
    **{f"gauge.{f}": _gauge_counter for f in (
        "apply_gauge", "invertibility_check", "rank_map", "jacobi_residual",
        "closedness_residual")},
    **{f"io.{f}": _file_bytes(0) for f in (
        "load_groupoid", "load_bibundle", "load_tss", "load_field",
        "sha256_digest", "detect_kind")},
    "io.save_field": _file_bytes(1),
    "io.save_bibundle": _file_bytes(1),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.stats: dict[str, Stat] = {}
        self.job = -1
        self._stack = []  # [stat, span index, start, child seconds]
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._patches = []

    # -- spans -------------------------------------------------------------

    def _enter(self, name_id, stat):
        stack = self._stack
        idx = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(stack[-1][1] if stack else -1)
        self.span_job.append(self.job)
        self.span_end.append(0.0)
        start = time.perf_counter()
        self.span_start.append(start)
        stack.append([stat, idx, start, 0.0])

    def _exit(self):
        end = time.perf_counter()
        stat, idx, start, child = self._stack.pop()
        self.span_end[idx] = end
        duration = end - start
        stat.self_s += duration - child
        if self._stack:
            self._stack[-1][3] += duration

    # -- wrapping ----------------------------------------------------------

    def _stat(self, name):
        if name not in self.stats:
            self.stats[name] = Stat()
            self.names.append(name)
        return self.names.index(name), self.stats[name]

    def _wrap(self, fn, name):
        name_id, stat = self._stat(name)
        counter = COUNTERS.get(name)
        enter, exit_ = self._enter, self._exit

        if inspect.isgeneratorfunction(fn):
            def traced_gen(*args, **kwargs):
                stat.calls += 1
                it = fn(*args, **kwargs)
                while True:
                    enter(name_id, stat)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        exit_()
                    stat.counters["yielded"] += 1
                    yield item
            wrapper = traced_gen
        else:
            def traced(*args, **kwargs):
                enter(name_id, stat)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    exit_()
                stat.calls += 1
                if counter is not None:
                    counter(stat, args, result)
                return result
            wrapper = traced
        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def install(self):
        wrapped = {}
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(value)
                        or not value.__module__.startswith(PACKAGE)):
                    continue
                if value not in wrapped:
                    short = value.__module__.rsplit(".", 1)[-1]
                    wrapped[value] = self._wrap(value, f"{short}.{value.__name__}")
                self._patches.append((mod, attr, value))
                setattr(mod, attr, wrapped[value])
        groupoid_cls = sys.modules[f"{PACKAGE}.groupoids"].FiniteGroupoid
        eq = groupoid_cls.__dict__["__eq__"]
        self._patches.append((groupoid_cls, "__eq__", eq))
        groupoid_cls.__eq__ = self._wrap(eq, "groupoids.FiniteGroupoid.__eq__")

    def uninstall(self):
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    # -- output ------------------------------------------------------------

    def metrics(self, rounds):
        """Per-round calls, self time and counters of every traced function."""
        out = {}
        for name, st in self.stats.items():
            out[f"{name}.calls"] = st.calls / rounds
            out[f"{name}.self_s"] = st.self_s / rounds
            for key, value in st.counters.items():
                out[f"{name}.{key}"] = value / rounds
            calls = st.calls or 1
            if "biprincipal" in st.counters:
                out[f"{name}.biprincipal_ratio"] = st.counters["biprincipal"] / calls
            if "hits" in st.counters:
                out[f"{name}.hit_ratio"] = st.counters["hits"] / calls
        return out

    def write(self, path: Path, summary: dict):
        """Spans as columns (``.npz``) plus a JSON table of names and stats."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path.with_suffix(".npz"),
                 name=np.frombuffer(self.span_name, dtype=np.int32),
                 parent=np.frombuffer(self.span_parent, dtype=np.int32),
                 job=np.frombuffer(self.span_job, dtype=np.int32),
                 start=np.frombuffer(self.span_start, dtype=np.float64),
                 end=np.frombuffer(self.span_end, dtype=np.float64))
        path.with_suffix(".json").write_text(json.dumps(
            {"names": self.names, **summary}, indent=1, sort_keys=True))
