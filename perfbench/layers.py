"""Spans around the public entry points of the simulator's layers.

A :class:`Tracer` wraps functions and methods of the ``repro`` modules
from outside: each wrapped call opens a span (name, start, end, parent
span, point id) on a per-thread stack, and on exit adds its duration to
the span name's total and its self time -- duration minus the time its
child spans cover -- to the name's self total.

Wrapping is best-effort by design: a hook whose target does not exist
(a later commit may delete the gang engine, a dispatcher, or rename a
module) is skipped and listed in :attr:`Tracer.missing`, so the same
benchmark runs on both sides of such a change.

Memory-hierarchy calls happen hundreds of thousands of times per grid,
so they are *counted* spans: they keep exact totals and self-time
attribution but are not stored one by one in the span file.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

now = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: List[tuple] = []  #: (id, name, start, end, parent, point)
        self.total: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.missing: List[str] = []
        self.point: Optional[str] = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self._undo: List[Callable[[], None]] = []

    # -- span bookkeeping ---------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, name: str) -> list:
        stack = self._stack()
        with self._lock:
            self._next_id += 1
            span_id = self._next_id
        parent = stack[-1][1] if stack else None
        # [name, id, parent, start, time covered by children]
        frame = [name, span_id, parent, now(), 0.0]
        stack.append(frame)
        return frame

    def _exit(self, frame: list, keep: bool) -> None:
        end = now()
        stack = self._stack()
        stack.pop()
        name, span_id, parent, start, child = frame
        duration = end - start
        if stack:
            stack[-1][4] += duration
        with self._lock:
            self.total[name] += duration
            self.self_time[name] += duration - child
            self.calls[name] += 1
            if keep:
                self.spans.append((span_id, name, start, end, parent,
                                   self.point))

    # -- hook installation ----------------------------------------------------

    def wrap(self, target: str, name: str, keep: bool = True,
             after: Optional[Callable] = None,
             point_of: Optional[Callable] = None) -> None:
        """Wrap ``module:attr`` or ``module:Class.method`` in spans named
        *name*.  *after(args, result)* sees every completed call;
        *point_of(args)* names the simulation point the call works on,
        which tags every span opened while it runs."""
        found = self._resolve(target)
        if found is None:
            return
        owner, attr, original = found

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            outer = self.point
            if point_of is not None:
                self.point = point_of(args)
            frame = self._enter(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._exit(frame, keep)
                self.point = outer
            if after is not None:
                after(args, result)
            return result

        self._install(owner, attr, original, wrapper)

    def wrap_generator(self, target: str, name: str,
                       on_item: Callable) -> None:
        """Wrap a generator function: one span from the first to the last
        item, with *on_item* seeing every yielded item."""
        found = self._resolve(target)
        if found is None:
            return
        owner, attr, original = found

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            frame = self._enter(name)
            try:
                for item in original(*args, **kwargs):
                    on_item(item)
                    yield item
            finally:
                self._exit(frame, True)

        self._install(owner, attr, original, wrapper)

    def _resolve(self, target: str):
        """``(owner, attr, original)`` for ``module:attr`` or
        ``module:Class.method``, or ``None`` (recorded in
        :attr:`missing`) when this version of the program lacks it."""
        module_name, _, path = target.partition(":")
        try:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
        except (ImportError, AttributeError, KeyError):
            self.missing.append(target)
            return None
        return owner, attr, original

    def _install(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._undo.append(lambda: setattr(owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- reporting ------------------------------------------------------------

    def rollup(self) -> Dict[str, float]:
        """Self time per layer (the span-name prefix before the dot)."""
        out: Dict[str, float] = defaultdict(float)
        for name, value in self.self_time.items():
            out[name.split(".")[0]] += value
        return dict(sorted(out.items()))

    def write_spans(self, fh, header: dict) -> None:
        fh.write(json.dumps({"header": header,
                             "counted_spans": {
                                 n: {"calls": self.calls[n],
                                     "total_s": self.total[n],
                                     "self_s": self.self_time[n]}
                                 for n in sorted(self.calls)}}) + "\n")
        for span_id, name, start, end, parent, point in self.spans:
            fh.write(json.dumps({"id": span_id, "name": name,
                                 "start": start, "end": end,
                                 "parent": parent, "point": point}) + "\n")
