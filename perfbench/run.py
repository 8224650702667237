#!/usr/bin/env python3
"""The repository benchmark: ``repro-serve`` driven end to end.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload session-http --seed 1 \
        --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

One run starts the program's own server as a child process, drives it
from this process with one closed-loop client, checks every response
with :mod:`oracle`, and prints human-readable lines followed by one JSON
object as the last line: ``correct``, ``attempted``, ``failed`` and
``metrics`` (every end-to-end metric with ``--trace 0``, every per-layer
metric with ``--trace 1``).  ``--smoke`` makes a short untraced and
traced pass of every workload and exits non-zero if any check fails.
See README.md for the workloads, metrics and reference figures.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

#: The metric names, units and directions are declared once, in
#: BENCHMARK.json at the root of the checkout.
with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)
#: end-to-end metric -> the sample bucket whose median it reports; the
#: others (throughput_rps, peak_rss_mb) are figures of the main loop.
BUCKETS = {
    "setup_s": "setup",
    "summary_p50_ms": "summary",
    "explore_p50_ms": "explore",
    "expand_p50_ms": "expand",
    "guidance_p50_ms": "guidance",
    "open_p50_ms": "open",
    "append_p50_ms": "append",
    "recovery_s": "recovery",
}
#: Tails printed beside the medians but not gated: on a 2-vCPU guest
#: with bursts of CPU steal, the tail of a 1-10 ms request swings two-fold
#: between runs (README.md, "Noise").  p90 needs 100 samples for ten
#: beyond it.
TAILS = [("summary_p90_ms", "summary"), ("explore_p90_ms", "explore"),
         ("append_p90_ms", "append")]


def nearest_rank(samples: list[float], q: float) -> tuple[float, int]:
    """The q-th percentile of raw samples (nearest rank) and how many
    samples lie beyond it."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


class CpuContext:
    """Machine-wide steal, iowait and load over a run, read from /proc."""

    def __init__(self) -> None:
        self.start = self._jiffies()
        self.load_start = self._load()

    @staticmethod
    def _jiffies() -> list[int]:
        with open("/proc/stat") as handle:
            return [int(x) for x in handle.readline().split()[1:]]

    @staticmethod
    def _load() -> float:
        with open("/proc/loadavg") as handle:
            return float(handle.read().split()[0])

    def report(self) -> str:
        end = self._jiffies()
        delta = [b - a for a, b in zip(self.start, end)]
        total = sum(delta[:8]) or 1
        # /proc/stat cpu fields: user nice system idle iowait irq softirq
        # steal guest guest_nice
        return "steal=%.2f%% iowait=%.2f%% load1=%.2f->%.2f" % (
            100.0 * delta[7] / total, 100.0 * delta[4] / total,
            self.load_start, self._load(),
        )


def machine() -> str:
    import numpy

    model = "unknown"
    with open("/proc/cpuinfo") as handle:
        for line in handle:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return "python=%s numpy=%s nproc=%d cpu=%r" % (
        platform.python_version(), numpy.__version__, os.cpu_count(), model)


def run_one(
    workload: str, seed: int, seconds: float, trace: bool,
    setup_reps: int | None = None, restarts: int | None = None,
) -> dict:
    import layers
    import workloads

    kwargs = {}
    if setup_reps is not None:
        kwargs.update(setup_reps=setup_reps, restarts=restarts)
    work = os.path.join(ROOT, ".perfbench_work",
                        "%s-%d-%d" % (workload, seed, os.getpid()))
    os.makedirs(work)
    context = CpuContext()
    try:
        run, figures = workloads.execute(
            ROOT, work, workload, seed, seconds, trace, **kwargs)
        print("perfbench workload=%s seed=%d seconds=%g trace=%d"
              % (workload, seed, seconds, trace))
        print("context %s %s" % (machine(), context.report()))
        print("main rounds=%d requests=%d seconds=%.3f"
              % (figures["rounds"], figures["main_requests"],
                 figures["main_seconds"]))
        metrics = {}
        for spec in SPEC["end_to_end"]:
            name, unit = spec["name"], spec["unit"]
            bucket = BUCKETS.get(name)
            if bucket is None:
                value = figures[name]
                print("metric %s %.6g %s" % (name, value, unit))
            else:
                samples = run.samples[bucket]
                value = statistics.median(samples) * (
                    1000.0 if unit == "ms" else 1.0)
                print("metric %s %.6g %s (n=%d)"
                      % (name, value, unit, len(samples)))
            metrics[name] = {"value": value, "unit": unit}
        for name, bucket in TAILS:
            samples = run.samples[bucket]
            value, beyond = nearest_rank(samples, 90)
            print("tail %s %.6g ms (n=%d, %d beyond%s)" % (
                name, 1000.0 * value, len(samples), beyond,
                "" if beyond >= 10 else ", fewer than 10: not a tail"))
        for label in sorted(run.attempted):
            print("ops kind=%s attempted=%d failed=%d"
                  % (label, run.attempted[label], run.failed[label]))
        if trace:
            per_layer, rows = layers.analyse(
                run.log, layers.load_dumps(run.dumps), run.transport,
                figures)
            for row in rows:
                parts = " ".join(
                    "%s=%.3f" % item for item in row["layers_ms"].items())
                print("breakdown kind=%s n=%d rtt_ms=%.3f %s "
                      "unattributed=%.3f (%.1f%%, %s)"
                      % (row["label"], row["requests"], row["rtt_ms"],
                         parts, row["unattributed_ms"],
                         100.0 * row["unattributed_share"],
                         "within margin" if row["within_margin"]
                         else "OVER margin"))
            metrics = {}
            for spec in SPEC["per_layer"]:
                name, unit = spec["name"], spec["unit"]
                metrics[name] = {"value": per_layer[name], "unit": unit}
                print("layer %s %.6g %s" % (name, per_layer[name], unit))
        for problem in run.problems[:20]:
            print("problem %s" % problem, file=sys.stderr)
        print("checks responses=%d problems=%d"
              % (len(run.log), len(run.problems)))
        return {
            "correct": not run.problems,
            "attempted": sum(run.attempted.values()),
            "failed": sum(run.failed.values()),
            "metrics": metrics,
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass


def smoke() -> int:
    """Every workload, untraced and traced, two seconds each, one set-up
    and one restart: a quick end-to-end sanity pass with all checks."""
    import workloads

    ok = True
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            result = run_one(name, 1, 2.0, trace, setup_reps=1, restarts=1)
            good = result["correct"] and not result["failed"]
            ok &= good
            print("smoke %s trace=%d %s" % (name, trace,
                                             "ok" if good else "FAILED"))
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.exists(os.path.join(ROOT, "src", "repro", "cli.py")):
        print("error: no program source at %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error("--workload must be one of %s"
                     % ", ".join(workloads.WORKLOADS))
    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
