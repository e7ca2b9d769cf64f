"""In-memory spans around the package's public functions.

The benchmark records spans from its own files: a traced pass rebinds each
wrapped function wherever a module of the package holds it by name (modules
import by name, so patching only the defining module would miss
``factoring.proth_test`` or ``cli.lehmer_constrained_factor``).  Every call
records name, start, end, parent span and trace id; the trace id is the
index n of the row being worked on, taken from the most recent wrapped call
whose argument is an index.
"""

from __future__ import annotations

import functools
import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

# span layout: [name, start, end, parent span id or -1, trace id, extras]
NAME, START, END, PARENT, TRACE, EXTRA = range(6)


@dataclass
class Target:
    """One function to wrap: ``owner`` is a module or a class, ``attr`` the
    name there, ``index_arg`` the position of an index-n argument (if any),
    and ``extra(args, result)`` a tuple of numbers to add up per span name,
    such as the bit length that reached an exponentiation."""

    name: str
    owner: object
    attr: str
    index_arg: int | None = None
    extra: Callable | None = None


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    _stack: list = field(default_factory=list)
    trace_id: int | None = None

    def wrap(self, target: Target, fn: Callable) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if target.index_arg is not None and len(args) > target.index_arg:
                self.trace_id = args[target.index_arg]
            span = [target.name, perf_counter(), 0.0,
                    stack[-1] if stack else -1, self.trace_id, ()]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if target.extra is not None:
                try:
                    span[EXTRA] = target.extra(args, result)
                except (AttributeError, TypeError, IndexError):
                    pass  # a result whose shape changed loses its extras, not the span
            return result

        return traced

    def write(self, path) -> None:
        """Write the spans out, one JSON array per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


@contextmanager
def patched(tracer: Tracer, targets: list[Target], modules: list):
    """Rebind every target in its owner and in each of ``modules`` that holds
    it by name; restore all bindings on exit.  Targets missing from the
    code under test are skipped and reported through the yielded list."""
    saved = []
    missing = []
    try:
        for target in targets:
            original = vars(target.owner).get(target.attr)
            if original is None:
                missing.append(target.name)
                continue
            wrapper = tracer.wrap(target, original)
            holders = [target.owner] + [m for m in modules if m is not target.owner]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        saved.append((holder, key, value))
                        setattr(holder, key, wrapper)
        yield missing
    finally:
        for holder, key, value in reversed(saved):
            setattr(holder, key, value)


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def summarize(spans: list) -> dict[str, dict[str, float]]:
    """Per span name: calls, busy_s (inclusive time, counting only the
    outermost span where a name nests inside itself), self_s (duration minus
    the part of it the span's children cover) and the summed extras."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    stats: dict[str, dict[str, float]] = {}
    for sid, span in enumerate(spans):
        entry = stats.setdefault(span[NAME], {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "extra": []})
        duration = span[END] - span[START]
        entry["calls"] += 1
        entry["self_s"] += duration - _covered(children.get(sid, []))
        extra = entry["extra"]
        extra += [0] * (len(span[EXTRA]) - len(extra))
        for i, x in enumerate(span[EXTRA]):
            extra[i] += x
        if not _has_ancestor_named(spans, sid, span[NAME]):
            entry["busy_s"] += duration
    return stats


def _has_ancestor_named(spans: list, sid: int, name: str) -> bool:
    parent = spans[sid][PARENT]
    while parent >= 0:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False
