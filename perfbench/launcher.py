"""Start ``repro-serve`` with span recorders around each layer's entry points.

Usage::

    python3 perfbench/launcher.py SPANS_DIR <repro-serve arguments...>

Before handing control to the program's own ``serve_main``, this
replaces the class and module attributes listed in :data:`TARGETS` with
wrappers that record one span per call: name, start, end, parent span
and request id.  The program resolves those attributes at call time, so
its source is left unchanged.  Spans stay in memory; on ``SIGUSR1`` the
launcher writes them to ``SPANS_DIR/spans-<pid>.json``.

Request ids: an HTTP request carries its ``X-Request-Id``; a TCP request
is numbered ``t<i>`` in the order the dispatcher sees it, which is the
client's line order for one closed-loop client.  Work that the scheduler
hands to a worker thread is linked back to the dispatch span through the
payload object it carries.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import signal
import sys
import threading
import time
from concurrent.futures import Future

#: (module, class or None for a module function, attribute, span name)
TARGETS = [
    ("repro.service.serve", "Dispatcher", "dispatch_payload",
     "service.dispatch"),
    ("repro.server.scheduler", "ShardedScheduler", "submit",
     "server.submit"),
    ("repro.service.engine", "Engine", "submit_dict", "service.engine"),
    ("repro.service.engine", None, "parse_request", "service.parse"),
    ("repro.service.engine", "Engine", "_summary_response",
     "service.serialize"),
    ("repro.service.api", "_WireMessage", "to_dict", "service.to_dict"),
    ("repro.service.api", "SummaryResponse", "to_dict", "service.to_dict"),
    ("repro.core.semilattice", "ClusterPool", "__init__", "core.pool_build"),
    ("repro.core.semilattice", "ClusterPool", "extended", "core.pool_extend"),
    ("repro.core.problem", "ProblemInstance", "solve", "core.merge"),
    ("repro.interactive.precompute", "SolutionStore", "__init__",
     "interactive.sweep"),
    ("repro.interactive.precompute", "SolutionStore", "retrieve",
     "interactive.retrieve"),
    ("repro.interactive.guidance", None, "build_guidance_view",
     "interactive.guidance_view"),
    ("repro.query.csv_io", None, "read_csv", "query.read_csv"),
    ("repro.query.sql", None, "execute_sql", "query.sql"),
    ("repro.core.answers", "AnswerSet", "from_rows", "query.answer_set"),
    ("repro.core.answers", "AnswerSet", "extended", "query.answer_extend"),
    ("repro.durability.manager", "DurabilityManager", "record_append",
     "durability.wal_append"),
    ("repro.durability.manager", "DurabilityManager", "recover",
     "durability.replay"),
    ("repro.durability.manager", "DurabilityManager", "record_register",
     "durability.snapshot"),
    ("repro.durability.manager", "DurabilityManager", "maybe_compact",
     "durability.compact"),
]


class Recorder:
    """In-memory span store shared by every wrapper."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.ids = itertools.count(1)
        self.tcp_ids = itertools.count(0)
        self.local = threading.local()
        # id(payload) -> (request id, dispatch span id)
        self.pending: dict[int, tuple[str | None, int]] = {}
        self.lock = threading.Lock()
        self.engines: list = []

    def stack(self) -> list[tuple[int, str | None]]:
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        return stack

    def record(self, span_id, parent, name, rid, start, end, attrs=None):
        self.spans.append([span_id, parent, name, rid, start, end, attrs])

    def wrap(self, name: str, function):
        recorder = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            stack = recorder.stack()
            parent, rid = stack[-1] if stack else (None, None)
            span_id = next(recorder.ids)
            stack.append((span_id, rid))
            start = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                stack.pop()
                recorder.record(span_id, parent, name, rid, start,
                                time.perf_counter())

        return wrapper

    def wrap_dispatch(self, function):
        recorder = self

        @functools.wraps(function)
        def dispatch_payload(dispatcher, payload, request_id=None):
            rid = request_id
            if rid is None:
                rid = "t%d" % next(recorder.tcp_ids)
            span_id = next(recorder.ids)
            stack = recorder.stack()
            stack.append((span_id, rid))
            start = time.perf_counter()
            try:
                outcome = function(dispatcher, payload, request_id=request_id)
            finally:
                stack.pop()
            response = getattr(outcome, "response", None)
            if isinstance(response, Future):
                # Analytic kinds resolve on a worker thread; the span ends
                # when the transport could first see the response.
                response.add_done_callback(
                    lambda _: recorder.record(
                        span_id, None, "service.dispatch", rid, start,
                        time.perf_counter())
                )
            else:
                recorder.record(span_id, None, "service.dispatch", rid,
                                start, time.perf_counter())
            return outcome

        return dispatch_payload

    def wrap_submit(self, function):
        recorder = self
        plain = self.wrap("server.submit", function)

        @functools.wraps(function)
        def submit(scheduler, payload, *args, **kwargs):
            stack = recorder.stack()
            if stack:
                span_id, rid = stack[-1]
                with recorder.lock:
                    recorder.pending[id(payload)] = (rid, span_id)
            return plain(scheduler, payload, *args, **kwargs)

        return submit

    def wrap_engine(self, function):
        recorder = self

        @functools.wraps(function)
        def submit_dict(engine, payload, *args, **kwargs):
            with recorder.lock:
                rid, parent = recorder.pending.pop(id(payload), (None, None))
            span_id = next(recorder.ids)
            stack = recorder.stack()
            stack.append((span_id, rid))
            start = time.perf_counter()
            try:
                return function(engine, payload, *args, **kwargs)
            finally:
                stack.pop()
                recorder.record(span_id, parent, "service.engine", rid,
                                start, time.perf_counter())

        return submit_dict

    def wrap_wal(self, function):
        recorder = self

        @functools.wraps(function)
        def record_append(manager, name, rows, values):
            stack = recorder.stack()
            parent, rid = stack[-1] if stack else (None, None)
            span_id = next(recorder.ids)
            before = _wal_bytes(manager)
            start = time.perf_counter()
            try:
                return function(manager, name, rows, values)
            finally:
                end = time.perf_counter()
                recorder.record(
                    span_id, parent, "durability.wal_append", rid, start, end,
                    {"bytes": _wal_bytes(manager) - before, "rows": len(rows)},
                )

        return record_append

    def wrap_engine_init(self, function):
        recorder = self

        @functools.wraps(function)
        def __init__(engine, *args, **kwargs):
            function(engine, *args, **kwargs)
            recorder.engines.append(engine)

        return __init__

    def stale_pools(self) -> int:
        """Cached pools keyed by a dataset version that is no longer
        current (or a dataset no longer registered)."""
        stale = 0
        for engine in self.engines:
            for key, _ in engine._pools.snapshot_items():
                try:
                    current = engine.dataset_version(key[0]) == key[1]
                except Exception:
                    current = False
                stale += not current
        return stale

    def dump(self, directory: str) -> None:
        path = os.path.join(directory, "spans-%d.json" % os.getpid())
        payload = {
            "pid": os.getpid(),
            "stale_pools": self.stale_pools(),
            "spans": list(self.spans),
        }
        with open(path + ".tmp", "w") as handle:
            json.dump(payload, handle)
        os.replace(path + ".tmp", path)


def _wal_bytes(manager) -> int:
    return sum(wal.bytes for wal in manager._wals.values())


def install(recorder: Recorder) -> None:
    """Replace every target with its recording wrapper."""
    special = {
        "service.dispatch": recorder.wrap_dispatch,
        "server.submit": recorder.wrap_submit,
        "service.engine": recorder.wrap_engine,
        "durability.wal_append": recorder.wrap_wal,
    }
    for module_name, class_name, attribute, name in TARGETS:
        module = importlib.import_module(module_name)
        owner = getattr(module, class_name) if class_name else module
        raw = (owner.__dict__[attribute] if class_name
               else getattr(module, attribute))
        if isinstance(raw, classmethod):
            setattr(owner, attribute,
                    classmethod(recorder.wrap(name, raw.__func__)))
            continue
        make = special.get(name)
        wrapped = make(raw) if make else recorder.wrap(name, raw)
        setattr(owner, attribute, wrapped)
    engine_class = importlib.import_module("repro.service.engine").Engine
    engine_class.__init__ = recorder.wrap_engine_init(engine_class.__init__)


def main(argv: list[str]) -> int:
    spans_dir, serve_args = argv[0], argv[1:]
    recorder = Recorder()
    install(recorder)
    signal.signal(signal.SIGUSR1, lambda *_: recorder.dump(spans_dir))
    from repro.cli import serve_main

    return serve_main(serve_args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
