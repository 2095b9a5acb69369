"""Thread-aware span recording around the program's public functions.

The benchmark measures each layer from outside: it replaces a layer's
public function, at the binding its caller looks up, with a wrapper
that records one span per call, runs the call, and restores the
original binding when the traced run ends. Nothing inside the program
changes, so the untraced runs measure the program as shipped.

Every thread has its own span stack, so spans from the serve daemon's
handler threads nest correctly next to the client threads. A span's
self time is its duration minus the part covered by its children on
the same thread; :func:`adopt` moves the cover of a span that ran on
another thread on behalf of a caller (a server handler serving a
client request) onto that caller.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import inspect
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Binding",
    "SpanRecord",
    "SpanRecorder",
    "adopt",
    "self_times",
    "traced",
]


@dataclass
class SpanRecord:
    """One finished call of a wrapped function."""

    name: str
    tid: int
    start: float
    end: float
    #: Duration minus the duration of child spans on the same thread
    #: (and, after :func:`adopt`, of spans run for it on other threads).
    self_s: float
    depth: int
    #: Value of the binding's ``tag`` function (request key, memo hit).
    tag: Any = None

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Binding:
    """Where a layer function is looked up, and what to call its spans.

    ``owner`` is ``"module"`` or ``"module:Class"``; ``attr`` the name
    bound there. ``tag(args, result)`` optionally labels each span.
    """

    owner: str
    attr: str
    span: str
    tag: Optional[Callable[[Tuple[Any, ...], Any], Any]] = None

    def resolve(self) -> Any:
        module_name, _, class_name = self.owner.partition(":")
        target = importlib.import_module(module_name)
        return getattr(target, class_name) if class_name else target


class SpanRecorder:
    """Collects :class:`SpanRecord` objects from any number of threads."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.records: List[SpanRecord] = []

    def _stack(self) -> List[List[float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        tag: Optional[Callable[[Tuple[Any, ...], Any], Any]] = None,
    ) -> Callable[..., Any]:
        """``fn`` with a span recorded around every call."""
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = recorder._stack()
            cover = [0.0]
            stack.append(cover)
            start = time.perf_counter()
            label = None
            try:
                result = fn(*args, **kwargs)
                if tag is not None:
                    label = tag(args, result)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                record = SpanRecord(
                    name=name,
                    tid=threading.get_ident(),
                    start=start,
                    end=end,
                    self_s=duration - cover[0],
                    depth=len(stack),
                    tag=label,
                )
                with recorder._lock:
                    recorder.records.append(record)

        return wrapper


class traced:
    """Context manager: install span wrappers, restore them on exit.

    Each binding is patched where its caller looks it up (a module
    global, or a class attribute, inherited ones included) and put
    back exactly as it was found.
    """

    def __init__(
        self, recorder: SpanRecorder, bindings: Iterable[Binding]
    ) -> None:
        self.recorder = recorder
        self.bindings = list(bindings)
        self._undo: List[Callable[[], None]] = []

    def __enter__(self) -> SpanRecorder:
        try:
            for binding in self.bindings:
                self._patch(binding)
        except BaseException:
            self._restore()
            raise
        return self.recorder

    def __exit__(self, *exc_info: Any) -> None:
        self._restore()

    def _patch(self, binding: Binding) -> None:
        owner = binding.resolve()
        attr = binding.attr
        wrap = functools.partial(
            self.recorder.wrap, binding.span, tag=binding.tag
        )
        if inspect.ismodule(owner):
            original = getattr(owner, attr)
            setattr(owner, attr, wrap(original))
            self._undo.append(lambda: setattr(owner, attr, original))
            return
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, classmethod):
            patched: Any = classmethod(wrap(raw.__func__))
        elif callable(raw):
            patched = wrap(raw)
        else:
            raise TypeError(f"cannot trace {binding.owner}.{attr}")
        own = attr in vars(owner)
        setattr(owner, attr, patched)
        if own:
            self._undo.append(lambda: setattr(owner, attr, raw))
        else:
            self._undo.append(lambda: delattr(owner, attr))

    def _restore(self) -> None:
        while self._undo:
            self._undo.pop()()


def adopt(
    records: Sequence[SpanRecord],
    parent_span: str,
    thread_parent: Dict[int, int],
) -> List[SpanRecord]:
    """Charge other-thread work to the span it was done for.

    ``thread_parent`` maps a worker thread (a server handler) to the
    thread whose ``parent_span`` spans wait on it (the client). Each
    top-level span of a worker thread is covered by the parent span
    that contains it in time; its duration leaves the parent's self
    time. Returns the worker spans no parent span contains (which would
    break the reconciliation, so callers check that none are left).
    """
    parents: Dict[int, List[SpanRecord]] = {}
    for rec in records:
        if rec.name == parent_span and rec.tid in thread_parent.values():
            parents.setdefault(rec.tid, []).append(rec)
    starts: Dict[int, List[float]] = {}
    for tid, spans in parents.items():
        spans.sort(key=lambda r: r.start)
        starts[tid] = [r.start for r in spans]
    orphans = []
    for rec in records:
        if rec.depth != 0 or rec.tid not in thread_parent:
            continue
        ptid = thread_parent[rec.tid]
        spans = parents.get(ptid, [])
        i = bisect.bisect_right(starts.get(ptid, []), rec.start) - 1
        if i >= 0 and spans[i].end >= rec.end:
            spans[i].self_s -= rec.duration
        else:
            orphans.append(rec)
    return orphans


def self_times(records: Iterable[SpanRecord]) -> Dict[str, float]:
    """Total self time per span name."""
    out: Dict[str, float] = {}
    for rec in records:
        out[rec.name] = out.get(rec.name, 0.0) + rec.self_s
    return out
