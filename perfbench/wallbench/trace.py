"""Wall-clock spans recorded around calls into the engine's modules.

The benchmark never edits ``src/``: it wraps public functions and methods at
module boundaries from its own files (:class:`Patcher`), records one span per
outermost call, and restores the originals afterwards.

Forked ``ParallelRunner`` workers inherit the wrappers.  A worker notices it
is no longer the recording process, starts an empty span list, and after each
task appends its spans to a per-pid file; the driver merges those files when
the pool closes.  All spans are written out as Chrome trace events, one pid
per process.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import os
import pickle
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Callable, List, Tuple

from wallbench.stats import Span

_now = time.perf_counter_ns


class Tracer:
    """In-memory spans and call counts of one traced run."""

    def __init__(self, spill_dir: Path):
        self.spill_dir = spill_dir
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self.pid = os.getpid()
        self.driver_pid = self.pid
        self._stack: List[str] = []
        self._spill_file = None

    # -- recording ---------------------------------------------------------------

    def _ensure_process(self) -> None:
        """Start afresh in a forked child: drop the driver's spans and stack."""
        pid = os.getpid()
        if pid != self.pid:
            self.pid = pid
            self.spans = []
            self.counts = Counter()
            self._stack = []
            self._spill_file = None

    def span(self, name: str, fn: Callable) -> Callable:
        """Wrap ``fn`` so each outermost call records a ``name`` span.

        A call made while a span of the same name is innermost (recursion,
        or one wrapped entry point calling another of the same layer) folds
        into the enclosing span instead of opening a new one.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._ensure_process()
            stack = tracer._stack
            if stack and stack[-1] == name:
                return fn(*args, **kwargs)
            stack.append(name)
            start = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                end = _now()
                stack.pop()
                tracer.spans.append((name, start, end, tracer.pid))

        return wrapper

    def counter(self, name: str, fn: Callable) -> Callable:
        """Wrap ``fn`` so each call bumps ``counts[name]`` (no span)."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._ensure_process()
            tracer.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def worker_task(self, name: str, fn: Callable) -> Callable:
        """Like :meth:`span`, then hand a forked worker's records to the driver."""
        spanned = self.span(name, fn)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                return spanned(*args, **kwargs)
            finally:
                if tracer.pid != tracer.driver_pid and not tracer._stack:
                    tracer._spill()

        return wrapper

    # -- cross-process merge -------------------------------------------------------

    def _spill_path(self, pid: int) -> Path:
        return self.spill_dir / f"spans-{self.driver_pid}-{pid}.pickle"

    def _spill(self) -> None:
        if self._spill_file is None:
            self._spill_file = open(self._spill_path(self.pid), "ab")
        pickle.dump((self.spans, dict(self.counts)), self._spill_file)
        self._spill_file.flush()
        self.spans = []
        self.counts = Counter()

    def merge_workers(self) -> None:
        """Absorb (and delete) the records every finished worker spilled."""
        for path in sorted(self.spill_dir.glob(f"spans-{self.driver_pid}-*.pickle")):
            with open(path, "rb") as handle:
                while True:
                    try:
                        spans, counts = pickle.load(handle)
                    except EOFError:
                        break
                    self.spans.extend(spans)
                    self.counts.update(counts)
            path.unlink()

    # -- output ------------------------------------------------------------------

    def write_chrome_trace(self, path: Path) -> None:
        """Write every span as a Chrome trace-event ``X`` event, one pid per process.

        A ``.gz`` path is gzip-compressed, which Perfetto opens as is.
        """
        origin = min((s[1] for s in self.spans), default=0)
        pids = sorted({s[3] for s in self.spans})
        events: List[dict] = []
        for pid in pids:
            label = "benchmark driver" if pid == self.driver_pid else f"worker {pid}"
            events.append(
                {"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
                 "args": {"name": label}}
            )
        for name, start, end, pid in self.spans:
            events.append({
                "name": name,
                "cat": name.split(".", 1)[0],
                "ph": "X",
                "ts": (start - origin) / 1000.0,
                "dur": (end - start) / 1000.0,
                "pid": pid,
                "tid": 0,
            })
        path.parent.mkdir(parents=True, exist_ok=True)
        opener = gzip.open if path.suffix == ".gz" else open
        with opener(path, "wt") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)


class Patcher:
    """Replaces functions and methods, everywhere they are bound, reversibly.

    A module-level function is rebound in its defining module and in every
    loaded ``repro`` module that imported it by name; a method is replaced on
    its class.  :meth:`restore` puts every original back.
    """

    def __init__(self):
        self._undo: List[Tuple[object, str, object]] = []

    def patch(self, target: str, make_wrapper: Callable[[Callable], Callable]) -> None:
        """Wrap ``"package.module:function"`` or ``"package.module:Class.method"``."""
        module_name, _, attr_path = target.partition(":")
        owner = importlib.import_module(module_name)
        *owners, attr = attr_path.split(".")
        for part in owners:
            owner = getattr(owner, part)
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        wrapper = make_wrapper(original)
        if isinstance(owner, type):
            self._set(owner, attr, original, wrapper)
            return
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "") or ""
            if not (name == "repro" or name.startswith("repro.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._set(module, key, original, wrapper)

    def _set(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
