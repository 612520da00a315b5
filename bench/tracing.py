"""In-memory spans recorded around partwarp's public functions, from outside.

A traced run replaces a function in the module namespace its callers look
it up in (for example ``partwarp.transfer.infer``, which ``fit_parts``
calls) with a wrapper that records one span per call: name, start, end,
the span that was open when it started, whether it returned, and a few
counts read off its arguments and result. Nothing under ``src/`` changes,
and every patch is undone when the traced block ends.

Self time is a span's duration minus the time its direct children cover;
a grandchild is already inside its parent, so it is never subtracted twice.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    ok: bool = True
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


# (module, attribute, span name, attrs(args, kwargs, result) -> dict or None)
TracePoint = tuple[str, str, str, Callable | None]


class Tracer:
    """Collects spans from wrapped functions; single-threaded by design."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._clock = clock

    def wrap(self, name: str, fn: Callable, attrs: Callable | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = Span(name, 0.0, parent=self._open[-1] if self._open else None)
            self.spans.append(span)
            self._open.append(index)
            span.start = self._clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.ok = False
                raise
            finally:
                span.end = self._clock()
                self._open.pop()
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, points: Iterable[TracePoint]) -> Iterator["Tracer"]:
        """Patch every trace point for the duration of the block."""
        patched = []
        try:
            for module, attr, name, attrs in points:
                mod = importlib.import_module(module)
                original = getattr(mod, attr)
                patched.append((mod, attr, original))
                setattr(mod, attr, self.wrap(name, original, attrs))
            yield self
        finally:
            for mod, attr, original in reversed(patched):
                setattr(mod, attr, original)


def self_times(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.duration
    return [span.duration - c for span, c in zip(spans, covered)]


def ancestors(spans: Sequence[Span], index: int) -> Iterator[Span]:
    parent = spans[index].parent
    while parent is not None:
        yield spans[parent]
        parent = spans[parent].parent


def select(
    spans: Sequence[Span],
    names: Iterable[str],
    under: Iterable[str] = (),
    not_under: Iterable[str] = (),
) -> list[Span]:
    """Outermost spans named in `names`, optionally filtered by ancestry.

    A span nested inside another span of the selected names is dropped, so
    a wrapper that ends up wrapping itself is counted once.
    """
    names, under, not_under = set(names), set(under), set(not_under)
    chosen = []
    for i, span in enumerate(spans):
        if span.name not in names:
            continue
        above = {s.name for s in ancestors(spans, i)}
        if above & names or (under and not above & under) or above & not_under:
            continue
        chosen.append(span)
    return chosen


def total_time(spans: Iterable[Span]) -> float:
    return float(sum(s.duration for s in spans))


def self_time_by_name(spans: Sequence[Span]) -> dict[str, float]:
    out: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        out[span.name] = out.get(span.name, 0.0) + own
    return dict(sorted(out.items(), key=lambda kv: -kv[1]))
