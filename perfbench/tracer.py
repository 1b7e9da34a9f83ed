"""A tracer that wraps magri's layer functions from outside the program.

Each wrapped layer function records a span (id, parent id, name, start,
end) and adds its self time (duration minus the time its child spans
cover) to a per-name total.  ``DiffFunction.__add__`` and ``__mul__``
run hundreds of thousands of times per chain, so they keep only
aggregated counters; their time still counts as covered by the
enclosing span.  Spans live in flat arrays so that memory stays small.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from collections import Counter


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self._name_ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls = Counter()
        self.self_s = Counter()
        self.counts = Counter()
        self._stack = []  # open spans as [span id, child time]
        self._in_leaf = False
        self._undo = []

    # -- wrappers ---------------------------------------------------------

    def span(self, name, fn, on_exit=None):
        """Wrap ``fn`` so that each call records a span named ``name``.

        ``on_exit(args, kwargs, result, raised, seconds)`` may add counters.
        """
        nid = self._name_ids.setdefault(name, len(self._name_ids))
        if nid == len(self.names):
            self.names.append(name)
        stack = self._stack
        clock = self.clock

        def wrapper(*args, **kwargs):
            sid = len(self.span_name)
            self.span_name.append(nid)
            self.span_parent.append(stack[-1][0] if stack else -1)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            frame = [sid, 0.0]
            stack.append(frame)
            raised = True
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                self.span_start[sid] = t0
                self.span_end[sid] = t1
                self.calls[name] += 1
                self.self_s[name] += dur - frame[1]
                if on_exit is not None:
                    on_exit(args, kwargs, result, raised, dur)

        wrapper.__wrapped__ = fn
        return wrapper

    def leaf(self, name, fn, on_exit):
        """Wrap a hot binary method with aggregated counters only."""
        stack = self._stack
        clock = self.clock

        def wrapper(a, b):
            if self._in_leaf:
                return fn(a, b)
            self._in_leaf = True
            t0 = clock()
            try:
                result = fn(a, b)
            finally:
                dur = clock() - t0
                self._in_leaf = False
                if stack:
                    stack[-1][1] += dur
                self.calls[name] += 1
                self.self_s[name] += dur
            if result is not NotImplemented:
                on_exit(a, b, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installing -------------------------------------------------------

    def rebind(self, orig, wrapper, package="magri"):
        """Point every name in ``package``'s modules that holds ``orig`` at
        ``wrapper``; returns how many names were rebound."""
        n = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for key, val in list(vars(mod).items()):
                if val is orig:
                    self._undo.append((mod, key, orig))
                    setattr(mod, key, wrapper)
                    n += 1
        return n

    def rebind_method(self, cls, orig, wrapper):
        n = 0
        for key, val in list(vars(cls).items()):
            if val is orig:
                self._undo.append((cls, key, orig))
                setattr(cls, key, wrapper)
                n += 1
        return n

    def uninstall(self):
        for obj, key, orig in reversed(self._undo):
            setattr(obj, key, orig)
        self._undo.clear()

    # -- output -----------------------------------------------------------

    def write_spans(self, path):
        """Spans as tab-separated id, parent, name, start, end."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tparent\tname\tstart\tend\n")
            names = self.names
            for sid in range(len(self.span_name)):
                fh.write(
                    f"{sid}\t{self.span_parent[sid]}\t{names[self.span_name[sid]]}\t"
                    f"{self.span_start[sid]!r}\t{self.span_end[sid]!r}\n"
                )
