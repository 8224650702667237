"""The workloads and the run lifecycle they share.

Every run of every workload goes through the same lifecycle, so that each
end-to-end metric has samples on each workload:

1. **Set-up**, repeated ``SETUP_REPS`` times on a fresh server and data
   directory: spawn, ingest (``load_csv`` plus a stream of ``append_rows``
   batches), warm.  ``setup_s`` is the median.  The last server is kept.
2. **Main loop** for ``--seconds``: whole rounds of the workload's mix,
   one closed-loop client on one connection.
3. **Crash drill**: a fixed probe set, then ``RESTARTS`` times SIGKILL,
   respawn on the same data directory (``recovery_s``: spawn to the first
   200 from ``/healthz``), and the probes again, which must answer exactly
   as before the kill.

Each sample bucket holds one population.  Where a workload's main loop
does not perform an operation, its samples come from set-up (``open`` on
both workloads, ``append`` on session-http);
the table in README.md lists the source of every metric on every
workload.  Every response is checked by :mod:`oracle` after the main loop
(outside every timed region).
"""

from __future__ import annotations

import heapq
import os
import random
import shutil
import time
from collections import Counter, defaultdict
from typing import Any

import inputs
import oracle
from server import HttpClient, Server, TcpClient

SETUP_REPS = 3
RESTARTS = 7
INGEST_BATCHES = 36
DRILL_BATCHES = 48
#: The CPUs this process may use when the module is first imported.
CPUS = sorted(os.sched_getaffinity(0))
#: Restart probes build lazily-mapped pools: the same answers as the eager
#: default, without a second-long pool build after every restart.
PROBE_MAPPING = "lazy"


class Run:
    """One run: the current server and client, samples, counts, checks."""

    def __init__(
        self, root: str, work: str, transport: str, traced: bool
    ) -> None:
        self.root = root
        self.work = work
        self.transport = transport
        self.spans_dir = None
        if traced:
            self.spans_dir = os.path.join(work, "spans")
            os.makedirs(self.spans_dir)
        self.server: Server | None = None
        self.client: HttpClient | TcpClient | None = None
        self.phase = "setup"
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.attempted: Counter = Counter()
        self.failed: Counter = Counter()
        self.problems: list[str] = []
        self.deferred: list[tuple[str, Any]] = []
        # (server pid, request id, label, phase, start, end, response)
        self.log: list[tuple] = []
        self.dumps: list[tuple[str, str]] = []
        self._seq = 0
        self._tcp_seq = 0
        # Client and server on separate CPUs when there are two or more,
        # so the two busy processes do not trade places between runs.
        self.server_cpus: set[int] = set()
        if len(CPUS) >= 2:
            os.sched_setaffinity(0, {CPUS[0]})
            self.server_cpus = set(CPUS[1:])

    # -- server lifecycle ----------------------------------------------------

    def start_server(self, data_dir: str) -> float:
        self.server = Server(
            self.root, data_dir, tcp=self.transport == "tcp",
            spans_dir=self.spans_dir,
            log_path=os.path.join(self.work, "server.log"),
            cpus=self.server_cpus,
        )
        return self.restart_server()

    def restart_server(self) -> float:
        self.attempted["start"] += 1
        seconds = self.server.start()
        self._tcp_seq = 0
        self.client = (
            HttpClient(self.server.http_port) if self.transport == "http"
            else TcpClient(self.server.tcp_port)
        )
        return seconds

    def stop_server(self, role: str) -> None:
        """Collect the spans of a traced server, then SIGKILL it."""
        if self.server is None:
            return
        try:
            if self.server.proc is not None and self.spans_dir is not None:
                self.dumps.append((role, self.server.dump_spans()))
        finally:
            if self.client is not None:
                self.client.close()
                self.client = None
            self.server.kill()

    # -- requests ------------------------------------------------------------

    def call(
        self,
        kind: str,
        payload: dict[str, Any],
        bucket: str | None = None,
        label: str | None = None,
    ) -> tuple[dict[str, Any], float]:
        """One request; its round trip joins *bucket* when given."""
        label = label or kind
        if self.transport == "http":
            self._seq += 1
            rid = "h%d" % self._seq
        else:
            rid = "t%d" % self._tcp_seq
            self._tcp_seq += 1
        self.attempted[label] += 1
        started, ended, response, status = self.client.call(
            kind, payload, rid
        )
        if status != 200 or response.get("kind") == "error":
            self.failed[label] += 1
            self.problems.append("%s failed (HTTP %d): %s"
                                 % (label, status, response.get("message")))
        self.log.append((self.server.pid, rid, label, self.phase, started,
                         ended, response))
        if bucket is not None:
            self.samples[bucket].append(ended - started)
        return response, ended - started

    def check(self, label: str, thunk) -> None:
        """Queue an oracle check; run after the main loop."""
        self.deferred.append((label, thunk))

    def run_checks(self) -> None:
        for label, thunk in self.deferred:
            for problem in thunk():
                self.problems.append("%s: %s" % (label, problem))
        self.deferred.clear()


WARMUP = inputs.Table(["a0", "a1"], [("x", "p"), ("y", "q")], [1.0, 2.0])


def _analytic(**fields: Any) -> dict[str, Any]:
    return dict(fields, schema_version=2)


class Explorer:
    """Shared request helpers: every response is queued for the oracle,
    and explore objectives are kept for the guidance cross-check."""

    def __init__(self) -> None:
        # store key -> {(k, D): objective}; store key -> guidance responses
        self.explored: dict[tuple, dict[tuple[int, int], float]] = (
            defaultdict(dict))
        self.guided: dict[tuple, list[dict[str, Any]]] = defaultdict(list)

    def before_drill(self, run: Run) -> None:
        """Bring the server to the state the crash drill recovers."""

    def warm_up(self, run: Run) -> None:
        """Open a two-row table first, so the set-up's timed opens are
        opens on a running server, not the first-request imports."""
        path = os.path.join(run.work, "warmup.csv")
        if not os.path.exists(path):
            WARMUP.write_csv(path)
        self.load(run, path, "warmup", 2, 2, label="warmup")
        answers = oracle.Answers(WARMUP.attributes, WARMUP.rows,
                                 WARMUP.values)
        response, _ = run.call(
            "summary", _analytic(dataset="warmup", k=1, L=1, D=0),
            label="warmup")
        run.check("warm-up summary", lambda: oracle.check_summary(
            answers.view(), response, k=1, L=1, D=0))

    def view_of(self, dataset: str):
        raise NotImplementedError

    def state_of(self, dataset: str) -> tuple:
        """A key that changes whenever the dataset's content does."""
        raise NotImplementedError

    # Requests with ``timed=False`` (first summaries of an open, set-up
    # warming, restart probes) are checked but join no latency sample.

    def summary(self, run: Run, dataset, L, k, D, timed=True,
                mapping=None):
        payload = _analytic(dataset=dataset, k=k, L=L, D=D)
        if mapping is not None:
            payload["mapping"] = mapping
        response, seconds = run.call("summary", payload,
                                     "summary" if timed else None)
        view = self.view_of(dataset)
        run.check("summary %s k=%d L=%d D=%d" % (dataset, k, L, D),
                  lambda: oracle.check_summary(
                      view(), response, k=k, L=L, D=D))
        return response, seconds

    def explore(self, run: Run, dataset, L, k, D, k_range, d_values,
                expand=False, timed=True, mapping=None):
        label = "expand" if expand else "explore"
        payload = _analytic(dataset=dataset, k=k, L=L, D=D,
                            k_range=list(k_range), d_values=list(d_values))
        if expand:
            payload["include_elements"] = True
        if mapping is not None:
            payload["mapping"] = mapping
        response, seconds = run.call("explore", payload,
                                     label if timed else None, label)
        view = self.view_of(dataset)
        run.check("%s %s k=%d L=%d D=%d" % (label, dataset, k, L, D),
                  lambda: oracle.check_summary(
                      view(), response, k=k, L=L, D=D,
                      expand=expand))
        if "objective" in response:
            key = (self.state_of(dataset), L, tuple(k_range),
                   tuple(d_values), mapping)
            self.explored[key][(k, D)] = response["objective"]
        return response, seconds

    def guidance(self, run: Run, dataset, L, k_range, d_values,
                 timed=True):
        response, seconds = run.call(
            "guidance", _analytic(dataset=dataset, L=L, k_range=list(k_range),
                                  d_values=list(d_values)),
            "guidance" if timed else None)
        key = (self.state_of(dataset), L, tuple(k_range), tuple(d_values),
               None)
        self.guided[key].append(response)
        return response, seconds

    def check_guidance(self, run: Run) -> None:
        for key, responses in self.guided.items():
            explored = self.explored.get(key, {})
            for response in responses:
                for problem in oracle.check_guidance(response, explored):
                    run.problems.append("guidance %s: %s"
                                        % (key[0], problem))
        self.guided.clear()

    def load(self, run: Run, path, name, answer_n, answer_m, sql=None,
             label="open"):
        payload = {"path": path, "name": name, "replace": True}
        if sql is not None:
            payload["sql"] = sql
        response, seconds = run.call("load_csv", payload, label=label)
        run.check("load %s" % name,
                  lambda: oracle.check_loaded(response, answer_n, answer_m))
        return seconds

    def append(self, run: Run, dataset, rows, values, expected_n,
               timed=True):
        response, seconds = run.call(
            "append_rows",
            {"dataset": dataset, "rows": [list(r) for r in rows],
             "values": values},
            "append" if timed else None, "append")
        run.check("append %s" % dataset,
                  lambda: oracle.check_appended(response, expected_n,
                                                len(rows)))
        return seconds


def _grid_choice(rng: random.Random, k_range, d_values) -> tuple[int, int]:
    return rng.randint(*k_range), rng.choice(d_values)


class SessionHttp(Explorer):
    """Warm interactive session over HTTP keep-alive (n = 10^4, m = 8)."""

    name = "session-http"
    transport = "http"
    N = 10000
    CARDS = [4, 5, 6, 8, 10, 12, 16, 20]
    LS = (32, 64)
    K_RANGE = (1, 12)
    D_VALUES = (1, 2, 3)
    DATASET = "session"
    OPENS = 3

    def prepare(self, rng: random.Random, work: str) -> None:
        base_n = self.N - INGEST_BATCHES * 16
        table = inputs.synthetic_answers(rng, base_n, self.CARDS)
        self.csv = os.path.join(work, "session.csv")
        table.write_csv(self.csv)
        stream = inputs.AppendStream.for_table(rng, table)
        self.batches = [stream.next_batch() for _ in range(INGEST_BATCHES)]
        self.base_n = base_n
        self.answers = oracle.Answers(table.attributes, table.rows,
                                      table.values)
        for rows, values in self.batches:
            self.answers.extend(rows, values)

    def view_of(self, dataset):
        return self.answers.view

    def state_of(self, dataset):
        return (dataset, self.answers.n)

    def setup(self, run: Run) -> None:
        # OPENS sampled opens of the base table, then the one that stays:
        # ingest appends go in before its first summary, while no pool is
        # cached, so its first summary is not an open of the same table.
        for _ in range(self.OPENS):
            opened = self.load(run, self.csv, self.DATASET, self.base_n,
                               len(self.CARDS))
            _, seconds = self.summary(run, self.DATASET, self.LS[0], 6, 2,
                                      timed=False)
            run.samples["open"].append(opened + seconds)
        self.load(run, self.csv, self.DATASET, self.base_n, len(self.CARDS))
        n = self.base_n
        for rows, values in self.batches:
            n += len(rows)
            self.append(run, self.DATASET, rows, values, n)
        for L in self.LS:
            self.summary(run, self.DATASET, L, 6, 2, timed=False)
            self.explore(run, self.DATASET, L, 6, 2, self.K_RANGE,
                         self.D_VALUES, timed=False)
            self.guidance(run, self.DATASET, L, self.K_RANGE, self.D_VALUES,
                          timed=False)

    def round(self, run: Run, rng: random.Random, index: int) -> None:
        for L in self.LS:
            for _ in range(2):
                k, D = _grid_choice(rng, self.K_RANGE, self.D_VALUES)
                self.explore(run, self.DATASET, L, k, D, self.K_RANGE,
                             self.D_VALUES)
            for _ in range(2):
                k, D = _grid_choice(rng, (2, 12), self.D_VALUES)
                self.summary(run, self.DATASET, L, k, D)
        # One expand request, so its samples are one population: the
        # response size decides how the keep-alive stall hits it.
        self.explore(run, self.DATASET, self.LS[0], 4, 1, self.K_RANGE,
                     self.D_VALUES, expand=True)
        self.guidance(run, self.DATASET, self.LS[index % 2], self.K_RANGE,
                      self.D_VALUES)

    def probes(self, run: Run) -> list[dict[str, Any]]:
        return [self.summary(run, self.DATASET, self.LS[0], 8, 2,
                             timed=False, mapping=PROBE_MAPPING)[0]]


class AppendLive(Explorer):
    """Live appends beside reads over TCP, WAL fsync on every batch.

    The answer set is opened the way an analyst runs a query: ``load_csv``
    of a raw table with ``GROUP BY ... avg(val) HAVING count(*) > 1``."""

    name = "append-live"
    transport = "tcp"
    N = 4000
    CARDS = [4, 5, 6, 8, 10, 12]
    L = 32
    K_RANGE = (1, 10)
    D_VALUES = (1, 2)
    DATASET = "live"
    OPENS = 6
    HAVING = 1

    def prepare(self, rng: random.Random, work: str) -> None:
        raw = inputs.grouped_source(
            inputs.synthetic_answers(rng, self.N, self.CARDS))
        self.csv = os.path.join(work, "live.csv")
        raw.write_csv(self.csv)
        # The checker's copy of the answer set is the benchmark's own
        # GROUP BY of the raw rows, not the generator's table.
        table = inputs.group_by_avg(raw, self.HAVING)
        self.sql = inputs.group_by_sql(self.DATASET, table.attributes,
                                       self.HAVING)
        self.stream = inputs.AppendStream.for_table(rng, table)
        self.answers = oracle.Answers(table.attributes, table.rows,
                                      table.values)
        self.top = heapq.nlargest(self.L, table.values)
        heapq.heapify(self.top)  # min-heap: top[0] is the L-th largest
        self.table = table
        drill = inputs.AppendStream.for_table(rng, table)
        self.drill_batches = [drill.next_batch()
                              for _ in range(DRILL_BATCHES)]

    def view_of(self, dataset):
        answers, n = self.answers, self.answers.n
        return lambda: answers.view(n)

    def state_of(self, dataset):
        return (dataset, id(self.answers), self.answers.n)

    def before_drill(self, run: Run) -> None:
        # The drill recovers a fixed state, whatever the main loop
        # appended: the base table (a fresh snapshot, empty WAL) plus
        # DRILL_BATCHES acked batches.
        self.load(run, self.csv, self.DATASET, len(self.table.rows),
                  len(self.CARDS), sql=self.sql)
        table = self.table
        self.answers = oracle.Answers(table.attributes, table.rows,
                                      table.values)
        for rows, values in self.drill_batches:
            self.answers.extend(rows, values)
            self.append(run, self.DATASET, rows, values, self.answers.n,
                        timed=False)

    def setup(self, run: Run) -> None:
        for _ in range(self.OPENS):
            opened = self.load(run, self.csv, self.DATASET,
                               len(self.table.rows),
                               len(self.CARDS), sql=self.sql)
            _, seconds = self.summary(run, self.DATASET, self.L, 6, 2,
                                      timed=False)
            run.samples["open"].append(opened + seconds)
        self.explore(run, self.DATASET, self.L, 6, 2, self.K_RANGE,
                     self.D_VALUES, timed=False)
        self.guidance(run, self.DATASET, self.L, self.K_RANGE,
                      self.D_VALUES, timed=False)

    def round(self, run: Run, rng: random.Random, index: int) -> None:
        for step in range(2):
            rows, values = self.stream.next_batch(self.top[0], max(self.top))
            for value in values:
                if value > self.top[0]:
                    heapq.heapreplace(self.top, value)
            self.answers.extend(rows, values)
            self.append(run, self.DATASET, rows, values, self.answers.n)
            k, D = _grid_choice(rng, (2, 10), self.D_VALUES)
            self.summary(run, self.DATASET, self.L, k, D)
            k, D = _grid_choice(rng, self.K_RANGE, self.D_VALUES)
            self.explore(run, self.DATASET, self.L, k, D, self.K_RANGE,
                         self.D_VALUES)
            if step == 0:
                self.guidance(run, self.DATASET, self.L, self.K_RANGE,
                              self.D_VALUES)
            else:
                self.explore(run, self.DATASET, self.L, 4, 1, self.K_RANGE,
                             self.D_VALUES, expand=True)

    def probes(self, run: Run) -> list[dict[str, Any]]:
        return [
            self.summary(run, self.DATASET, self.L, 6, 2, timed=False,
                         mapping=PROBE_MAPPING)[0],
            self.explore(run, self.DATASET, self.L, 6, 2, self.K_RANGE,
                         self.D_VALUES, timed=False,
                         mapping=PROBE_MAPPING)[0],
        ]


WORKLOADS = {w.name: w for w in (SessionHttp, AppendLive)}


def execute(
    root: str,
    work: str,
    workload_name: str,
    seed: int,
    seconds: float,
    traced: bool,
    setup_reps: int = SETUP_REPS,
    restarts: int = RESTARTS,
) -> tuple[Run, dict[str, Any]]:
    """One full run; returns the run and its main-loop figures."""
    workload = WORKLOADS[workload_name]()
    workload.prepare(random.Random(seed), work)
    run = Run(root, work, workload.transport, traced)
    figures: dict[str, Any] = {}
    try:
        for rep in range(setup_reps):
            data_dir = os.path.join(work, "data-%d" % rep)
            if rep:
                run.stop_server("setup")
                shutil.rmtree(os.path.join(work, "data-%d" % (rep - 1)))
            started = time.perf_counter()
            run.start_server(data_dir)
            workload.warm_up(run)
            workload.setup(run)
            run.samples["setup"].append(time.perf_counter() - started)

        run.phase = "stats"
        stats_before, _ = run.call("stats", {})
        cpu_before = run.server.cpu_seconds()
        run.phase = "main"
        rng = random.Random(seed * 7919 + 1)
        first = len(run.log)
        started = time.perf_counter()
        rounds = 0
        while True:
            workload.round(run, rng, rounds)
            rounds += 1
            if time.perf_counter() - started >= seconds:
                break
        elapsed = time.perf_counter() - started
        requests = len(run.log) - first
        cpu = run.server.cpu_seconds() - cpu_before
        run.phase = "stats"
        stats_after, _ = run.call("stats", {})
        figures.update(
            rounds=rounds,
            main_seconds=elapsed,
            main_requests=requests,
            throughput_rps=requests / elapsed,
            cpu_ms_per_request=1000.0 * cpu / requests,
            peak_rss_mb=run.server.vm_hwm_mb(),
            hit_rates={
                cache: _hit_rate(stats_before[cache], stats_after[cache])
                for cache in ("pools", "stores")
            },
        )
        if traced:
            # Before ``before_drill``, which may reload the dataset.
            figures["stale_pools"] = run.server.stale_pools()

        run.phase = "drill"
        workload.before_drill(run)
        before = workload.probes(run)
        for restart in range(restarts):
            run.stop_server("main" if restart == 0 else "drill")
            run.samples["recovery"].append(run.restart_server())
            after = workload.probes(run)
            for number, (old, new) in enumerate(zip(before, after)):
                run.problems.extend(oracle.check_probe(
                    old, new, "%d after restart %d" % (number, restart + 1)))
        run.stop_server("drill")
    finally:
        if run.server is not None:
            run.server.kill()
    run.run_checks()
    workload.check_guidance(run)
    return run, figures


def _hit_rate(before: dict[str, Any], after: dict[str, Any]) -> float:
    hits = after["hits"] - before["hits"]
    lookups = hits + after["misses"] - before["misses"]
    return hits / lookups if lookups else 1.0
