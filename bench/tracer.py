"""In-memory span tracer for the benchmark's traced run.

A span is ``(id, parent, name, thread, start, end, counts)``.  Spans are
appended to a list while the traced code runs and are only summarised or
written out afterwards, so the cost inside the timed region is two clock
reads, a lock and a list append per call.

Functions are wrapped at every name under which ``alpha_lab`` code looks
them up: ``from .losses import margin_alpha_loss`` binds a second name in
``alpha_lab.logistic``, so patching only the defining module would miss
those calls.  ``installed`` scans every loaded ``alpha_lab`` module for
the original function object and patches each binding it finds.

Spans opened on a thread other than the one that created the tracer, with
no open span of their own (the certificate audit's pool threads), get the
creating thread's innermost open span as parent: that thread is blocked
inside the call that started the pool.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import sys
import threading
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._owner = threading.get_ident()
        self._owner_stack = []

    def _stack(self):
        if threading.get_ident() == self._owner:
            return self._owner_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, count=None):
        """Return ``fn`` recording one span per call.

        ``name`` is a string or ``name(args, kwargs) -> str``; ``count`` is
        ``count(args, kwargs, result) -> dict`` of counters for the span.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            elif self._owner_stack:
                parent = self._owner_stack[-1]
            else:
                parent = 0
            with self._lock:
                sid = next(self._ids)
            stack.append(sid)
            ok = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = time.perf_counter()
                stack.pop()
                counts = count(args, kwargs, result) if ok and count is not None else {}
                label = name(args, kwargs) if callable(name) else name
                span = (sid, parent, label, threading.get_ident(), start, end, counts)
                with self._lock:
                    self.spans.append(span)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, targets):
        """Patch ``targets`` = [(module, attr, name, count)] for the block."""
        modules = [m for k, m in list(sys.modules.items())
                   if k == "alpha_lab" or k.startswith("alpha_lab.")]
        patches = []
        try:
            for module, attr, name, count in targets:
                original = getattr(importlib.import_module(module), attr)
                wrapper = self.wrap(name, original, count)
                for mod in modules:
                    for key, val in list(vars(mod).items()):
                        if val is original:
                            setattr(mod, key, wrapper)
                            patches.append((mod, key, original))
            yield self
        finally:
            for mod, key, original in reversed(patches):
                setattr(mod, key, original)


def self_times(spans):
    """Span id -> duration minus the union of its children's intervals.

    Children are clipped to the parent's interval, so a self time is never
    negative even when children on pool threads overlap each other.
    """
    children = defaultdict(list)
    for s in spans:
        children[s[1]].append((s[4], s[5]))
    out = {}
    for sid, _, _, _, lo, hi, _ in spans:
        covered, reach = 0.0, lo
        for a, b in sorted(children.get(sid, ())):
            a, b = max(a, reach), min(b, hi)
            if b > a:
                covered += b - a
                reach = b
        out[sid] = (hi - lo) - covered
    return out


def summarize(spans):
    """Per span name: calls, inclusive seconds, self seconds, summed counts."""
    selfs = self_times(spans)
    out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "counts": defaultdict(float)})
    for sid, _, name, _, lo, hi, counts in spans:
        row = out[name]
        row["calls"] += 1
        row["total_s"] += hi - lo
        row["self_s"] += selfs[sid]
        for key, val in counts.items():
            row["counts"][key] += val
    return out
