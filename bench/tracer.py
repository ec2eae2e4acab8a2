"""Spans around fairslice's public functions, for the benchmark's traced run.

install() replaces each function in TARGETS, in every fairslice module that
holds it and in the mechanism registry, with a wrapper that records a span:
name, start, end and the enclosing span. remove() puts the originals back,
so a process that never calls install() runs the program untouched. Spans
stay in flat arrays until the block ends; summarize() turns them into calls
and self time per name, self time being a span's duration minus the time
its child spans cover.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import time
from array import array

# (metric name, module, class or None, attribute)
TARGETS = (
    ("intervals.from_endpoints", "intervals", "IntervalSet", "from_endpoints"),
    ("intervals.union", "intervals", "IntervalSet", "union"),
    ("intervals.intersection", "intervals", "IntervalSet", "intersection"),
    ("intervals.difference", "intervals", "IntervalSet", "difference"),
    ("intervals.measure_intersection", "intervals", "IntervalSet", "measure_intersection"),
    ("intervals.contains", "intervals", "IntervalSet", "contains"),
    ("intervals.__post_init__", "intervals", "IntervalSet", "__post_init__"),
    ("model.Allocation.__post_init__", "model", "Allocation", "__post_init__"),
    ("model.Instance.__init__", "model", "Instance", "__init__"),
    ("mechanisms.crossing_point", "mechanisms", None, "crossing_point"),
    ("eating.simulate_eating", "eating", None, "simulate_eating"),
    ("properties.search_deviations", "properties", None, "search_deviations"),
    ("properties.candidate_reports", "properties", None, "candidate_reports"),
    ("properties.deviation_value", "properties", None, "deviation_value"),
    ("properties.summarize_deviation_search", "properties", None, "summarize_deviation_search"),
    ("properties.check_full_and_connected", "properties", None, "check_full_and_connected"),
    ("properties.check_envy_free", "properties", None, "check_envy_free"),
    ("properties.check_proportional", "properties", None, "check_proportional"),
    ("properties.check_pareto", "properties", None, "check_pareto"),
    ("properties.check_anonymity", "properties", None, "check_anonymity"),
    ("properties.check_position_oblivious", "properties", None, "check_position_oblivious"),
    ("properties.check_crossing_vs_eating", "properties", None, "check_crossing_vs_eating"),
    ("serialize.parse_instance", "serialize", None, "parse_instance"),
    ("serialize.to_jsonable", "serialize", None, "to_jsonable"),
    ("serialize.dumps", "serialize", None, "dumps"),
    ("cli.main", "cli", None, "main"),
)
MECHANISMS = (
    "cake2",
    "cake2-eating",
    "chore2",
    "prefix-cake",
    "prefix-chore",
    "cut-and-choose",
    "connected-baseline",
)
# Generator functions: a span covers each resumption, and the items they
# yield are counted under the given name.
GENERATORS = (("sweeps.sweep_prefix_grid", "sweeps", "sweep_prefix_grid", "instances"),)


def span_names() -> list[str]:
    return (
        [name for name, *_ in TARGETS]
        + [f"mechanisms.{m}.run" for m in MECHANISMS]
        + [name for name, *_ in GENERATORS]
    )


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = span_names()
        self._index = {name: i for i, name in enumerate(self.names)}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.stack = [-1]
        self.generator_calls = {name: 0 for name, *_ in GENERATORS}
        self.generator_items = {name: 0 for name, *_ in GENERATORS}
        self._undo: list = []

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, name, fn):
        ix = self._index[name]
        names, parents, starts, ends = (
            self.span_name, self.span_parent, self.span_start, self.span_end
        )
        stack = self.stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(names)
            names.append(ix)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(sid)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()

        return traced

    def _wrap_generator(self, name, fn):
        ix = self._index[name]
        names, parents, starts, ends = (
            self.span_name, self.span_parent, self.span_start, self.span_end
        )
        stack = self.stack
        clock = time.perf_counter_ns
        calls, items = self.generator_calls, self.generator_items

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[name] += 1
            inner = fn(*args, **kwargs)
            while True:
                sid = len(names)
                names.append(ix)
                parents.append(stack[-1])
                ends.append(0)
                stack.append(sid)
                starts.append(clock())
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    ends[sid] = clock()
                    stack.pop()
                items[name] += 1
                yield item

        return traced

    # -- installing -------------------------------------------------------

    def _replace_everywhere(self, original, replacement) -> None:
        for module_name, module in list(sys.modules.items()):
            if module_name != "fairslice" and not module_name.startswith("fairslice."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._undo.append((module, attr, original))

    def install(self) -> None:
        modules = {m: sys.modules[f"fairslice.{m}"] for m in
                   ("intervals", "model", "mechanisms", "eating", "properties",
                    "sweeps", "serialize", "cli")}
        for name, module, owner, attr in TARGETS:
            if owner is None:
                fn = getattr(modules[module], attr)
                self._replace_everywhere(fn, self._wrap(name, fn))
                continue
            cls = getattr(modules[module], owner)
            raw = cls.__dict__[attr]
            if isinstance(raw, staticmethod):
                replacement = staticmethod(self._wrap(name, raw.__func__))
            else:
                replacement = self._wrap(name, raw)
            setattr(cls, attr, replacement)
            self._undo.append((cls, attr, raw))
        registry = modules["mechanisms"].MECHANISMS
        for mechanism in MECHANISMS:
            info = registry[mechanism]
            wrapped = self._wrap(f"mechanisms.{mechanism}.run", info.run)
            registry[mechanism] = dataclasses.replace(info, run=wrapped)
            self._undo.append((registry, mechanism, info))
            self._replace_everywhere(info.run, wrapped)
        for name, module, attr, _ in GENERATORS:
            fn = getattr(modules[module], attr)
            self._replace_everywhere(fn, self._wrap_generator(name, fn))

    def remove(self) -> None:
        while self._undo:
            holder, key, original = self._undo.pop()
            if isinstance(holder, dict):
                holder[key] = original
            else:
                setattr(holder, key, original)

    # -- results ----------------------------------------------------------

    def summarize(self) -> dict[str, dict[str, float]]:
        """Calls and self time (s) per span name over the spans held now."""
        names, parents, starts, ends = (
            self.span_name, self.span_parent, self.span_start, self.span_end
        )
        child = [0] * len(names)
        for i, parent in enumerate(parents):
            if parent >= 0:
                child[parent] += ends[i] - starts[i]
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for i, ix in enumerate(names):
            calls[ix] += 1
            self_ns[ix] += ends[i] - starts[i] - child[i]
        out = {
            name: {"calls": calls[ix], "self_s": self_ns[ix] / 1e9}
            for ix, name in enumerate(self.names)
        }
        for name, _, _, item_label in GENERATORS:
            out[name]["calls"] = self.generator_calls[name]
            out[name][item_label] = self.generator_items[name]
        return out

    def flush(self, handle) -> None:
        """Append the spans held now to an open binary file and drop them.

        One record per flush, in native byte order: the span count (i64),
        then four columns of that length: name index into span_names()
        (i32), parent span index within the record (i32, -1 at a root),
        start and end (i64 nanoseconds of the perf_counter clock).
        """
        columns = (self.span_name, self.span_parent, self.span_start, self.span_end)
        array("q", [len(self.span_name)]).tofile(handle)
        for column in columns:
            column.tofile(handle)
        for column in columns:
            del column[:]
        for name in self.generator_calls:
            self.generator_calls[name] = 0
            self.generator_items[name] = 0
