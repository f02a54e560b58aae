"""In-memory span recorder and the module-boundary instrumentation of reflectsim.

A span is ``[name, start_ns, end_ns, parent_index, op_id]``. Spans stay in
the recorder's list until the run ends; the workload process aggregates
them into per-layer metrics and writes them out once.
"""
from __future__ import annotations

import contextlib
import functools
import inspect
import time
import types
from collections import defaultdict

NAME, START, END, PARENT, OP = range(5)


class Recorder:
    """Records nested spans of one thread, plus counts taken at boundaries."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.peaks: dict[str, int] = defaultdict(int)
        self.kept: dict[str, object] = {}
        self.op_id = None
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        record = [name, self.clock(), None, parent, self.op_id]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record[END] = self.clock()
            self._stack.pop()

    def wrap(self, name: str, fn, count=None, keep: bool = False):
        """``fn`` inside a span called ``name``. ``count(bound_args)`` returns
        ``{counter: value}`` to add up; ``keep`` stores the last result."""
        signature = inspect.signature(fn) if count else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                for key, value in count(bound.arguments).items():
                    self.counts[key] += value
                    self.peaks[key] = max(self.peaks[key], value)
            with self.span(name):
                result = fn(*args, **kwargs)
            if keep:
                self.kept[name] = result
            return result

        return traced


def self_times_ns(spans) -> list[int]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for record in spans:
        if record[PARENT] is not None:
            children[record[PARENT]].append((record[START], record[END]))
    out = []
    for index, record in enumerate(spans):
        covered = 0
        reach = record[START]
        for start, end in sorted(children[index]):
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        out.append(record[END] - record[START] - covered)
    return out


def totals(spans) -> tuple[dict, dict]:
    """(self seconds, calls) per span name."""
    seconds = defaultdict(float)
    calls = defaultdict(int)
    for record, own in zip(spans, self_times_ns(spans)):
        seconds[record[NAME]] += own / 1e9
        calls[record[NAME]] += 1
    return seconds, calls


def instrument(recorder: Recorder, modules: dict, counters=None, keep=()):
    """Wrap the public functions of ``modules`` ({short name: module}).

    Every module attribute bound to such a function is replaced, so calls
    through ``from .x import f`` names and through ``x.f`` both open a span
    named ``short.f``. ``DenseOp.__init__`` is wrapped on the class as
    ``core_sim.DenseOp_init``. Returns a function that undoes the patching.
    """
    counters = counters or {}
    wrapped = {}
    for short, module in modules.items():
        for name, obj in vars(module).items():
            if (isinstance(obj, types.FunctionType) and not name.startswith("_")
                    and obj.__module__ == module.__name__):
                span = f"{short}.{name}"
                wrapped[id(obj)] = (obj, recorder.wrap(
                    span, obj, counters.get(span), keep=span in keep))
    undo = []
    for module in modules.values():
        for name, obj in list(vars(module).items()):
            if id(obj) in wrapped:
                setattr(module, name, wrapped[id(obj)][1])
                undo.append((module, name, obj))
    dense = getattr(modules.get("core_sim"), "DenseOp", None)
    if dense is not None:
        init = dense.__init__
        dense.__init__ = recorder.wrap("core_sim.DenseOp_init", init)
        undo.append((dense, "__init__", init))

    def restore():
        for owner, name, obj in reversed(undo):
            setattr(owner, name, obj)

    return restore
