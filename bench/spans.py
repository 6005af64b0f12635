"""Spans recorded from the benchmark's own files.

The program under test has no tracing of its own (ROADMAP item 5), so
the traced run wraps the public entry points of each layer from here:
nothing under ``src/`` changes.  Spans are kept in memory, one log per
thread, and written out as JSON lines when the run ends.  A span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional

# Span fields, by position (a list per span keeps recording cheap).
NAME, START, END, PARENT, OP, WEIGHT = range(6)


class _ThreadLog:
    def __init__(self, thread: str) -> None:
        self.thread = thread
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.op = 0


class Tracer:
    def __init__(self) -> None:
        self.enabled = True
        self._local = threading.local()
        self._logs: List[_ThreadLog] = []
        self._lock = threading.Lock()
        self._undo: List[tuple] = []
        self._ops = 0
        self._indexed: tuple = (-1, {})
        #: op id -> the method of the call that started it.
        self.op_method: Dict[int, str] = {}
        #: When set (a ``load.SpeedProbe`` reading in the background),
        #: ``rows`` reports every span at the vCPU's full speed.
        self.probe = None

    # -- recording -----------------------------------------------------
    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = _ThreadLog(threading.current_thread().name)
            self._local.log = log
            with self._lock:
                self._logs.append(log)
        return log

    def begin_op(self, method: str) -> None:
        """Spans this thread records from now on belong to a new
        operation (one request, end to end)."""
        log = self._log()
        with self._lock:
            self._ops += 1
            self.op_method[self._ops] = method
            log.op = self._ops

    @contextmanager
    def span(self, name: str, weight: float = 1.0) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        log = self._log()
        record = [name, time.perf_counter(), 0.0,
                  log.stack[-1] if log.stack else -1, log.op, weight]
        log.stack.append(len(log.spans))
        log.spans.append(record)
        try:
            yield
        finally:
            record[END] = time.perf_counter()
            log.stack.pop()

    def add(self, name: str, start: float, end: float) -> None:
        """Record a span that was timed by the caller."""
        log = self._log()
        log.spans.append([name, start, end, -1, log.op, 1.0])

    # -- wrapping the program's entry points ---------------------------
    def wrap(self, name: str, function: Callable,
             weight: Optional[Callable[..., float]] = None) -> Callable:
        @functools.wraps(function)  # handlers are introspected by signature
        def traced(*args, **kwargs):
            if not self.enabled:
                return function(*args, **kwargs)
            with self.span(name, weight(*args, **kwargs) if weight else 1.0):
                return function(*args, **kwargs)
        return traced

    def patch_method(self, name: str, cls: type, attribute: str,
                     weight: Optional[Callable[..., float]] = None) -> None:
        original = cls.__dict__[attribute]
        if isinstance(original, staticmethod):
            traced = staticmethod(self.wrap(name, original.__func__, weight))
        else:
            traced = self.wrap(name, original, weight)
        setattr(cls, attribute, traced)
        self._undo.append((cls, attribute, original))

    def patch_function(self, name: str, module: str, attribute: str) -> None:
        """Wrap a module-level function wherever ``repro`` bound it:
        callers that did ``from x import f`` hold their own reference."""
        original = getattr(importlib.import_module(module), attribute)
        traced = self.wrap(name, original)
        for holder in list(sys.modules.values()):
            if not getattr(holder, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, key, traced)
                    self._undo.append((holder, key, original))

    def uninstall(self) -> None:
        while self._undo:
            holder, key, original = self._undo.pop()
            setattr(holder, key, original)

    # -- reading -------------------------------------------------------
    def _index(self) -> Dict[str, List[dict]]:
        """Finished spans by name, each with its self time, weight and
        parent's name.  Rebuilt only when spans were added since."""
        total = sum(len(log.spans) for log in self._logs)
        if self._indexed[0] == total:
            return self._indexed[1]
        index: Dict[str, List[dict]] = {}
        timeline = self.probe.timeline() if self.probe is not None else None

        def seconds(record: list) -> float:
            if timeline is None:
                return record[END] - record[START]
            return timeline.full_speed(record[START], record[END])

        for log in list(self._logs):
            spans = list(log.spans)
            children: Dict[int, float] = {}
            for record in spans:
                if record[PARENT] >= 0:
                    children[record[PARENT]] = (
                        children.get(record[PARENT], 0.0) + seconds(record))
            for position, record in enumerate(spans):
                if record[END] == 0.0:
                    continue  # still open
                duration = seconds(record)
                parent = record[PARENT]
                index.setdefault(record[NAME], []).append({
                    "duration": duration,
                    "self": duration - children.get(position, 0.0),
                    "weight": record[WEIGHT],
                    "parent": spans[parent][NAME] if parent >= 0 else None,
                    "method": self.op_method.get(record[OP]),
                })
        self._indexed = (total, index)
        return index

    def rows(self, name: str, method: Optional[str] = None) -> List[dict]:
        """Every finished span called ``name``, optionally only those
        inside an operation started by ``method``."""
        rows = self._index().get(name, [])
        if method is None:
            return rows
        return [row for row in rows if row["method"] == method]

    def write(self, path: str) -> int:
        """All spans as JSON lines: name, start, end, parent, op_id."""
        count = 0
        with open(path, "w") as handle:
            for number, log in enumerate(list(self._logs)):
                for index, record in enumerate(list(log.spans)):
                    parent = record[PARENT]
                    handle.write(json.dumps({
                        "id": f"{number}.{index}",
                        "name": record[NAME],
                        "start": record[START],
                        "end": record[END],
                        "parent": f"{number}.{parent}" if parent >= 0 else None,
                        "op_id": record[OP],
                        "thread": log.thread,
                    }) + "\n")
                    count += 1
        return count
