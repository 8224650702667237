"""Per-layer metrics and the latency breakdown of a traced run.

Inputs are the client's request log (request id, label, phase, start,
end, response) and the span dumps the launcher wrote for every server
process.  Client and server read the same monotonic clock, so a client
round trip and a server span can be subtracted.

A span's *self time* is its duration minus the part of it that its child
spans cover.  For one request:

    round trip = transport gap + queue wait + sum of self times

where the transport gap is the round trip minus the dispatch span (the
web or TCP layer: decode, encode, socket), and the queue wait is the part
of the time from ``ShardedScheduler.submit`` to the worker's
``Engine.submit_dict`` that the submit span itself does not cover.

The self times of the two envelope spans, ``Dispatcher.dispatch_payload``
and ``Engine.submit_dict``, are work that no narrower named callable
covers.  The breakdown reports them apart, as ``unattributed``, so that
the named layers account for the round trip only as far as that residual
is small (the margin is :data:`MARGIN_SHARE` of the round trip or
:data:`MARGIN_MS`, whichever is larger).
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from typing import Any

LAYERS = ("web", "server", "service", "core", "interactive", "query",
          "durability")
#: spans whose self time is glue between named callables
ENVELOPES = ("service.dispatch", "service.engine")
MARGIN_SHARE = 0.10
MARGIN_MS = 0.25

#: per-layer metric -> span name whose per-call duration it reports
SPAN_METRICS = {
    "core.pool_build_ms": "core.pool_build",
    "core.pool_extend_ms": "core.pool_extend",
    "core.merge_ms": "core.merge",
    "interactive.sweep_ms": "interactive.sweep",
    "interactive.retrieve_ms": "interactive.retrieve",
    "interactive.guidance_view_ms": "interactive.guidance_view",
    "query.read_csv_ms": "query.read_csv",
    "query.sql_ms": "query.sql",
    "query.answer_set_ms": "query.answer_set",
    "durability.wal_append_ms": "durability.wal_append",
}


def _median_ms(values: list[float]) -> float:
    return 1000.0 * statistics.median(values) if values else 0.0


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def _self_times(spans: list[list]) -> dict[int, float]:
    """Span id -> duration minus the union of its children (clipped)."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    by_id = {span[0]: span for span in spans}
    for span in spans:
        parent = by_id.get(span[1])
        if parent is not None:
            children[parent[0]].append(
                (max(span[4], parent[4]), min(span[5], parent[5]))
            )
    return {
        span[0]: (span[5] - span[4]) - _union_length(
            [iv for iv in children[span[0]] if iv[1] > iv[0]]
        )
        for span in spans
    }


def load_dumps(dumps: list[tuple[str, str]]) -> list[dict[str, Any]]:
    loaded = []
    for role, path in dumps:
        with open(path) as handle:
            data = json.load(handle)
        data["role"] = role
        loaded.append(data)
    return loaded


def analyse(
    log: list[tuple], dumps: list[dict[str, Any]], transport: str,
    figures: dict[str, Any],
) -> tuple[dict[str, float], list[dict[str, Any]]]:
    """Per-layer metrics, and one breakdown row per request label.

    A span metric is the median per-call duration over the requests of
    the main loop, or of set-up when the main loop makes no such call
    (the warm-up open excluded): the same phase that feeds the related
    end-to-end metric.  ``durability.replay`` comes from the restarts.
    """
    phase_of = {(entry[0], entry[1]): (entry[2], entry[3]) for entry in log}
    durations: dict[str, dict[str, list[float]]] = defaultdict(
        lambda: defaultdict(list))
    wal: dict[str, list[int]] = defaultdict(lambda: [0, 0])
    by_request: dict[tuple[int, str], list[list]] = defaultdict(list)
    for dump in dumps:
        for span in dump["spans"]:
            name = span[2]
            if name == "durability.replay":
                if dump["role"] == "drill":
                    durations[name]["drill"].append(span[5] - span[4])
                continue
            key = (dump["pid"], span[3])
            label, phase = phase_of.get(key, ("warmup", None))
            if label == "warmup":
                continue
            durations[name][phase].append(span[5] - span[4])
            if name == "durability.wal_append":
                wal[phase][0] += span[6]["bytes"]
                wal[phase][1] += span[6]["rows"]
            by_request[key].append(span)

    def per_call(name: str) -> list[float]:
        phases = durations[name]
        return phases["main"] or phases["setup"] or phases["drill"]

    wal_bytes, wal_rows = wal["main"] if wal["main"][1] else wal["setup"]

    gaps: list[float] = []
    queues: list[float] = []
    dispatch_self: list[float] = []
    serialize: list[float] = []
    argmax_evals: list[float] = []
    breakdown: dict[str, dict[str, list[float]]] = defaultdict(
        lambda: defaultdict(list))
    for pid, rid, label, phase, started, ended, response in log:
        if phase != "main":
            continue
        phases = response.get("phase_seconds") or {}
        if "serialize" in phases:
            serialize.append(phases["serialize"])
        if label == "summary" and "argmax_evals" in phases:
            argmax_evals.append(phases["argmax_evals"])
        spans = by_request.get((pid, rid))
        roots = [s for s in spans or () if s[2] == "service.dispatch"]
        if len(roots) != 1:
            continue
        root = roots[0]
        selfs = _self_times(spans)
        rtt = ended - started
        gap = rtt - (root[5] - root[4])
        parts = dict.fromkeys(LAYERS + ("unattributed",), 0.0)
        parts["web" if transport == "http" else "server"] += gap
        submit = [s for s in spans if s[2] == "server.submit"]
        engine = [s for s in spans if s[2] == "service.engine"]
        waiting = 0.0
        if len(submit) == 1 and len(engine) == 1:
            queues.append(engine[0][4] - submit[0][4])
            # The part of the wait no span covers: enqueue to dequeue.
            waiting = max(0.0, engine[0][4] - submit[0][5])
            parts["server"] += waiting
        for span in spans:
            own = selfs[span[0]]
            if span is root:
                own -= waiting
                dispatch_self.append(own)
            if span[2] in ENVELOPES:
                parts["unattributed"] += own
            else:
                parts[span[2].split(".", 1)[0]] += own
        gaps.append(gap)
        row = breakdown[label]
        row["rtt"].append(rtt)
        for layer, value in parts.items():
            row[layer].append(value)

    metrics = {
        "web.keepalive_gap_ms": _median_ms(gaps) if transport == "http"
        else 0.0,
        "server.tcp_gap_ms": _median_ms(gaps) if transport == "tcp" else 0.0,
        "server.queue_wait_ms": _median_ms(queues),
        "server.cpu_ms_per_request": figures["cpu_ms_per_request"],
        "service.dispatch_self_ms": _median_ms(dispatch_self),
        "service.serialize_ms": _median_ms(serialize),
        "service.pool_hit_rate": figures["hit_rates"]["pools"],
        "service.store_hit_rate": figures["hit_rates"]["stores"],
        "service.stale_pools": float(figures["stale_pools"]),
        "core.argmax_evals": (statistics.median(argmax_evals)
                              if argmax_evals else 0.0),
        "durability.wal_bytes_per_row": (wal_bytes / wal_rows
                                         if wal_rows else 0.0),
        "durability.replay_ms": _median_ms(per_call("durability.replay")),
    }
    for metric, name in SPAN_METRICS.items():
        metrics[metric] = _median_ms(per_call(name))

    rows = []
    for label in sorted(breakdown):
        row = breakdown[label]
        rtt = statistics.fmean(row["rtt"])
        means = {layer: statistics.fmean(row[layer]) for layer in LAYERS}
        residual = statistics.fmean(row["unattributed"])
        rows.append({
            "label": label,
            "requests": len(row["rtt"]),
            "rtt_ms": 1000.0 * rtt,
            "layers_ms": {k: 1000.0 * v for k, v in means.items()},
            "unattributed_ms": 1000.0 * residual,
            "unattributed_share": residual / rtt if rtt else 0.0,
            "within_margin": 1000.0 * residual <= max(
                MARGIN_MS, 1000.0 * MARGIN_SHARE * rtt),
        })
    return metrics, rows
