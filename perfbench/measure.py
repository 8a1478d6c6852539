"""Sample statistics and an in-process tracer for the benchmark.

The tracer replaces every binding of chosen functions and methods in the
``hamrank`` modules with a wrapper, for the duration of a ``with`` block,
and puts the originals back afterwards.  A *span* wrapper records
(id, name, start, end, parent) for each call; a *count* wrapper only counts
calls, for functions called too often to time one by one.  Spans are kept
in per-thread arrays and turned into per-name self times at the end.
"""

from __future__ import annotations

import itertools
import math
import statistics
import threading
import types
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Iterable, Sequence


# -------------------------------------------------------------------
# Sample statistics
# -------------------------------------------------------------------


def tail_percentile(values: Sequence[float], beyond: int = 10):
    """The highest whole percentile that has at least ``beyond`` samples above it.

    Returns ``(p, value)`` by the nearest-rank rule, or ``None`` when there
    are too few samples for any percentile to have ``beyond`` above it.
    """
    n = len(values)
    if n <= beyond:
        return None
    p = (100 * (n - beyond)) // n
    if p < 1:
        return None
    rank = math.ceil(p * n / 100)
    return p, sorted(values)[rank - 1]


def summarize(values: Sequence[float]) -> dict:
    """Median, sample count and tail percentile of a list of timings."""
    tail = tail_percentile(values)
    return {
        "median": statistics.median(values),
        "n": len(values),
        "tail": None if tail is None else {"p": tail[0], "value": tail[1]},
    }


# -------------------------------------------------------------------
# Self time
# -------------------------------------------------------------------


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for s, e in sorted(intervals):
        s, e = max(s, lo), min(e, hi)
        if e <= s:
            continue
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Iterable[tuple[int, str, float, float, int]]) -> dict:
    """Per-name totals from spans given as (id, name, start, end, parent).

    A span's self time is its duration minus the part of its interval that
    its child spans cover (children may overlap when they run on several
    threads, so the union is taken).  ``parent`` is -1 for a root span.
    Returns ``{name: {"calls", "total_s", "self_s"}}``.
    """
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = {}
    for _, _, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out: dict[str, dict] = {}
    for sid, name, start, end, _ in spans:
        kids = children.get(sid)
        own = (end - start) - (_covered(kids, start, end) if kids else 0.0)
        agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["total_s"] += end - start
        agg["self_s"] += own
    return out


# -------------------------------------------------------------------
# Tracer
# -------------------------------------------------------------------


class _ThreadBuffer:
    """Spans and counts recorded by one thread, with its open-span stack."""

    def __init__(self):
        self.ids = array("q")
        self.names = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.counts: Counter = Counter()
        self.stack: list[int] = []


Hook = Callable[[str, tuple, dict, object, float], None]


class Tracer:
    """Wraps functions by identity across all their module bindings.

    ``span(qualname, hook)`` and ``count(qualname)`` declare targets by
    ``"module.function"`` or ``"module.Class.method"`` (module relative to
    the package).  ``installed(modules)`` patches them in; a hook is called
    as ``hook(binding_module, args, kwargs, result, duration)`` after each
    call of a span target, so it can tell which module's binding was used.
    """

    def __init__(self):
        self._targets: list[tuple[str, str, Hook | None]] = []
        self._name_ids: dict[str, int] = {}
        self._names: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._buffers: list[_ThreadBuffer] = []
        self._main: _ThreadBuffer | None = None
        self._patches: list[tuple[object, str, object, bool]] = []

    # declaration -----------------------------------------------------

    def span(self, qualname: str, hook: Hook | None = None) -> None:
        self._targets.append(("span", qualname, hook))

    def count(self, qualname: str) -> None:
        self._targets.append(("count", qualname, None))

    # recording -------------------------------------------------------

    def _buffer(self) -> _ThreadBuffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _ThreadBuffer()
            self._local.buf = buf
            self._buffers.append(buf)
        return buf

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self._names)
            self._names.append(name)
        return self._name_ids[name]

    def _span_wrapper(self, name: str, via: str, fn, hook: Hook | None):
        name_id = self._name_id(name)
        tracer = self

        def wrapper(*args, **kwargs):
            buf = tracer._buffer()
            stack = buf.stack
            if stack:
                parent = stack[-1]
            else:
                # a worker thread's outermost span belongs to whatever the
                # main thread has open, so its time is not counted twice
                main = tracer._main
                parent = main.stack[-1] if main is not None and main.stack else -1
            sid = next(tracer._ids)
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                buf.ids.append(sid)
                buf.names.append(name_id)
                buf.starts.append(start)
                buf.ends.append(end)
                buf.parents.append(parent)
            if hook is not None:
                hook(via, args, kwargs, result, end - start)
            return result

        return wrapper

    def _count_wrapper(self, name: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer._buffer().counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # installation ----------------------------------------------------

    def _patch(self, owner, attr: str, kind: str, name: str, via: str, fn, hook) -> None:
        if kind == "span":
            new = self._span_wrapper(name, via, fn, hook)
        else:
            new = self._count_wrapper(name, fn)
        had_own = attr in vars(owner)
        self._patches.append((owner, attr, vars(owner).get(attr), had_own))
        setattr(owner, attr, new)

    def _install(self, modules: list[types.ModuleType], package: str) -> None:
        by_name = {m.__name__: m for m in modules}
        for kind, qualname, hook in self._targets:
            mod_name, _, attr_path = qualname.partition(".")
            home = by_name[f"{package}.{mod_name}"]
            if "." in attr_path:
                # a method: its one binding is the class attribute
                cls_name, meth = attr_path.split(".")
                cls = getattr(home, cls_name)
                self._patch(cls, meth, kind, attr_path, mod_name, vars(cls)[meth], hook)
                continue
            fn = getattr(home, attr_path)
            for module in modules:
                via = module.__name__.rpartition(".")[2]
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._patch(module, attr, kind, attr_path, via, fn, hook)

    def restore(self) -> None:
        """Put every patched binding back, newest first."""
        while self._patches:
            owner, attr, original, had_own = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    @contextmanager
    def installed(self, modules: list[types.ModuleType], package: str = "hamrank"):
        """Patch every target in ``modules`` for the duration of the block."""
        self._main = self._buffer()
        try:
            self._install(modules, package)
            yield self
        finally:
            self.restore()

    # results ---------------------------------------------------------

    def spans(self) -> Iterable[tuple[int, str, float, float, int]]:
        for buf in self._buffers:
            for i in range(len(buf.ids)):
                yield (
                    buf.ids[i],
                    self._names[buf.names[i]],
                    buf.starts[i],
                    buf.ends[i],
                    buf.parents[i],
                )

    def counts(self) -> Counter:
        total: Counter = Counter()
        for buf in self._buffers:
            total.update(buf.counts)
        return total
