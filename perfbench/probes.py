"""Layer probes: timing wrappers the benchmark installs around the program.

Nothing under ``src/`` knows about these probes.  A cold execution
(:mod:`cold`) imports the program, then replaces public layer entry points
— functions by identity in every loaded ``repro`` module, methods on
their classes — with wrappers that record into a :class:`Tracer` or a
:class:`SetupClock`.  Three probe kinds keep the overhead proportional to
what a probe is for:

- **span** probes record one span per call (name, start, end, parent
  span) in flat arrays kept in memory until the execution ends; layer
  self time is computed from them afterwards (:func:`self_times`);
- **count** probes only count calls (the rejoin model and ``derive_rng``
  run millions of times per execution and have no timing metric);
- **hot** probes count every call and time one call in ``stride``
  (perturbation point and mask queries, ~8 million per ``pastry-flap``
  execution).  Their total time is estimated as ``stride`` times the sum
  of the sampled durations, and the same estimate is charged to the span
  that was open at each sample, so parent self times exclude it.

Count and hot probes only record the *outermost* call of their layer: a
timeline answering a point query by asking its component processes is
one query, not three.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from typing import Any, Callable, Iterable, Optional, Sequence

import numpy as np

#: the benchmark's clock (CLOCK_MONOTONIC on Linux, shared by processes)
clock = time.monotonic  # repro: allow[DET003] benchmark timing, never reaches artifacts

#: one perturbation query in this many is timed (the rest are only counted)
HOT_STRIDE = 16

#: called with (tracer, call args, result) after each outermost span of a probe
Observer = Callable[["Tracer", tuple, Any], None]


class ProbeError(Exception):
    """A probe target is missing or registered inconsistently."""


class SetupClock:
    """Accumulates the time spent in the outermost construction calls.

    Used with tracing on and off: it is the benchmark's ``setup_s`` source
    besides imports and registry load.
    """

    def __init__(self):
        self.total = 0.0
        self._depth = 0

    def wrap(self, fn: Callable) -> Callable:
        def setup_call(*args, **kwargs):
            if self._depth:
                return fn(*args, **kwargs)
            self._depth = 1
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.total += clock() - started
                self._depth = 0

        return setup_call


class Tracer:
    """In-memory spans, call counts and sampled timings for one execution."""

    def __init__(self, stride: int = HOT_STRIDE):
        self.stride = stride
        self.names: list[str] = []
        self.layers: list[str] = []
        self.kinds: list[str] = []
        # one entry per span, in call-entry order
        self.span_probe = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        #: 1 when a span of the same probe was already open (recursion or
        #: one wrapped target calling another): not outermost
        self.nested = array("b")
        self._open: list[int] = []
        self._stack: list[int] = [-1]
        #: per probe id: calls of count and hot probes
        self.calls: dict[int, int] = {}
        #: per hot probe id: sampled durations
        self.samples: dict[int, array] = {}
        #: per span probe id (or -1 for "no span open"): estimated hot-probe
        #: time spent while one of that probe's spans was innermost
        self.hot_cover: dict[int, float] = {}
        #: quantities observed from call results (edges, events, arrivals)
        self.values: dict[str, float] = {}
        self._inside: dict[str, list[bool]] = {}

    def probe_id(self, name: str, layer: str, kind: str) -> int:
        """The id of probe ``name``, registering it on first use."""
        if name in self.names:
            pid = self.names.index(name)
            if self.layers[pid] != layer or self.kinds[pid] != kind:
                raise ProbeError(f"probe {name!r} registered twice with other settings")
            return pid
        self.names.append(name)
        self.layers.append(layer)
        self.kinds.append(kind)
        self._open.append(0)
        return len(self.names) - 1

    def add(self, key: str, amount: float) -> None:
        self.values[key] = self.values.get(key, 0.0) + amount

    # -- wrappers --------------------------------------------------------

    def span(
        self, name: str, layer: str, fn: Callable, observe: Optional[Observer] = None
    ) -> Callable:
        """Wrap ``fn`` so each call records one span."""
        pid = self.probe_id(name, layer, "span")
        span_probe, starts, ends, parents, nested = (
            self.span_probe, self.starts, self.ends, self.parents, self.nested
        )
        stack, open_spans = self._stack, self._open

        def span_call(*args, **kwargs):
            index = len(ends)
            outer = not open_spans[pid]
            span_probe.append(pid)
            parents.append(stack[-1])
            nested.append(0 if outer else 1)
            ends.append(0.0)
            stack.append(index)
            open_spans[pid] += 1
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                open_spans[pid] -= 1
                stack.pop()
            if observe is not None and outer:
                observe(self, args, result)
            return result

        return span_call

    def count(self, name: str, layer: str, fn: Callable) -> Callable:
        """Wrap ``fn`` so each outermost call among ``layer``'s count and
        hot probes is counted (no timing)."""
        pid = self.probe_id(name, layer, "count")
        self.calls.setdefault(pid, 0)
        calls = self.calls
        inside = self._inside.setdefault(layer, [False])

        def counted_call(*args, **kwargs):
            if inside[0]:
                return fn(*args, **kwargs)
            calls[pid] += 1
            inside[0] = True
            try:
                return fn(*args, **kwargs)
            finally:
                inside[0] = False

        return counted_call

    def hot(self, name: str, layer: str, fn: Callable) -> Callable:
        """Wrap ``fn`` so outermost calls are counted and one in
        :attr:`stride` is timed."""
        pid = self.probe_id(name, layer, "hot")
        self.calls.setdefault(pid, 0)
        calls, cover = self.calls, self.hot_cover
        samples = self.samples.setdefault(pid, array("d"))
        inside = self._inside.setdefault(layer, [False])
        stride, stack, span_probe = self.stride, self._stack, self.span_probe

        def hot_call(*args, **kwargs):
            if inside[0]:
                return fn(*args, **kwargs)
            n = calls[pid]
            calls[pid] = n + 1
            inside[0] = True
            try:
                if n % stride:
                    return fn(*args, **kwargs)
                started = clock()
                result = fn(*args, **kwargs)
                elapsed = clock() - started
                samples.append(elapsed)
                top = stack[-1]
                owner = span_probe[top] if top >= 0 else -1
                cover[owner] = cover.get(owner, 0.0) + elapsed * stride
                return result
            finally:
                inside[0] = False

        return hot_call

    # -- analysis --------------------------------------------------------

    def _ids(self, names: Iterable[str]) -> list[int]:
        return [self.names.index(name) for name in names if name in self.names]

    def _outermost_durations(self, names: Iterable[str]) -> np.ndarray:
        """Durations of the outermost spans of each probe in ``names``."""
        probes = np.frombuffer(self.span_probe, dtype=np.int32)
        picked = np.isin(probes, self._ids(names)) & (
            np.frombuffer(self.nested, dtype=np.int8) == 0
        )
        starts = np.frombuffer(self.starts, dtype=np.float64)
        ends = np.frombuffer(self.ends, dtype=np.float64)
        return ends[picked] - starts[picked]

    def total(self, *names: str) -> float:
        """Inclusive seconds of the outermost spans of ``names``."""
        return float(self._outermost_durations(names).sum())

    def spans(self, *names: str) -> int:
        """Number of outermost spans of ``names``."""
        return int(self._outermost_durations(names).size)

    def percentile_us(self, name: str, q: float) -> float:
        """Per-call percentile of probe ``name``'s outermost spans, in µs."""
        durations = self._outermost_durations((name,))
        return float(np.percentile(durations, q) * 1e6) if durations.size else 0.0

    def counted(self, *names: str) -> int:
        """Calls recorded by count or hot probes ``names``."""
        return sum(self.calls.get(pid, 0) for pid in self._ids(names))

    def hot_estimate(self, *names: str) -> float:
        """Estimated seconds spent in hot probes ``names``."""
        return sum(
            float(sum(self.samples[pid])) * self.stride
            for pid in self._ids(names)
            if pid in self.samples
        )

    def probe_report(self, wall_s: float) -> list[dict]:
        """Per probe: layer, self time, share of ``wall_s``, calls, p50/p99.

        Span probes report measured self time (children's union and the
        hot-probe estimate charged to them subtracted) and per-call
        percentiles over every span; hot probes report their estimated
        time and percentiles over the timed sample; count probes report
        calls only.
        """
        self_by_span = self_times(self.starts, self.ends, self.parents)
        probes = np.frombuffer(self.span_probe, dtype=np.int32)
        starts = np.frombuffer(self.starts, dtype=np.float64)
        ends = np.frombuffer(self.ends, dtype=np.float64)
        rows = []
        for pid, name in enumerate(self.names):
            if self.kinds[pid] == "span":
                mine = probes == pid
                timed = ends[mine] - starts[mine]
                self_s = float(self_by_span[mine].sum()) - self.hot_cover.get(pid, 0.0)
                calls = int(mine.sum())
            else:
                timed = np.frombuffer(self.samples.get(pid, array("d")), dtype=np.float64)
                self_s = float(timed.sum()) * self.stride
                calls = self.calls.get(pid, 0)
            rows.append(
                {
                    "layer": self.layers[pid],
                    "probe": name,
                    "kind": self.kinds[pid],
                    "self_s": self_s,
                    "share": self_s / wall_s if wall_s > 0 else 0.0,
                    "calls": calls,
                    "p50_us": float(np.percentile(timed, 50) * 1e6) if timed.size else 0.0,
                    "p99_us": float(np.percentile(timed, 99) * 1e6) if timed.size else 0.0,
                }
            )
        return rows


def self_times(
    starts: Sequence[float], ends: Sequence[float], parents: Sequence[int]
) -> np.ndarray:
    """Each span's duration minus the part of it its children cover.

    Children may nest, overlap each other (concurrent work) or run past
    the parent's end; only the union of their intervals, clipped to the
    parent's interval, is subtracted.
    """
    durations = np.asarray(ends, dtype=np.float64) - np.asarray(starts, dtype=np.float64)
    children: dict[int, list[int]] = {}
    for index in range(len(starts)):
        parent = parents[index]
        if parent >= 0:
            children.setdefault(parent, []).append(index)
    for parent, kids in children.items():
        high = ends[parent]
        covered = 0.0
        reach = starts[parent]  # the union so far ends here
        for begin, end in sorted((starts[k], min(ends[k], high)) for k in kids):
            if end > reach:
                covered += end - max(begin, reach)
                reach = end
        durations[parent] -= covered
    return durations


# -- installing probes ------------------------------------------------------


def patch_function(module_name: str, attr: str, wrap: Callable[[Callable], Callable]) -> None:
    """Replace function ``module_name.attr`` everywhere it is bound.

    ``from x import f`` copies the binding into the importing module, so
    the wrapper replaces every module attribute of a loaded ``repro``
    module that *is* the original function.  Modules imported later get
    the wrapper from the defining module.
    """
    module = importlib.import_module(module_name)
    original = getattr(module, attr, None)
    if not callable(original):
        raise ProbeError(f"{module_name}.{attr} is not a function")
    wrapper = wrap(original)
    for loaded in list(sys.modules.values()):
        if not getattr(loaded, "__name__", "").startswith("repro"):
            continue
        namespace = vars(loaded)
        for key in [k for k, v in namespace.items() if v is original]:
            namespace[key] = wrapper


def patch_method(target: str, wrap: Callable[[Callable], Callable]) -> None:
    """Replace method ``module:Class.method`` on its class."""
    module_name, _, qualified = target.partition(":")
    class_name, _, method = qualified.partition(".")
    cls = getattr(importlib.import_module(module_name), class_name)
    original = cls.__dict__.get(method)
    if not callable(original):
        raise ProbeError(f"{target} is not a method defined on {class_name}")
    setattr(cls, method, wrap(original))


def patch(target: str, wrap: Callable[[Callable], Callable]) -> None:
    """Patch ``module:function`` or ``module:Class.method``."""
    module_name, _, qualified = target.partition(":")
    if "." in qualified:
        patch_method(target, wrap)
    else:
        patch_function(module_name, qualified, wrap)
