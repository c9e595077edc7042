#!/usr/bin/env python3
"""End-to-end benchmark of the race predictor, with a traced per-layer run.

Usage, from the repository root::

    python3 perfbench/run.py --workload contended_batch --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20     # ledger

Workloads (the reasons are also in ``BENCHMARK.json`` and
``workloads.py``): ``contended_batch``, ``sharded_stream`` and
``wide_kernel_log`` drive ``repro.cli.main(["analyze", ...])`` in a
fresh interpreter per sample; ``serve_ingest`` drives a ``python3 -m
repro.cli serve`` subprocess over a real TCP socket from this process,
a closed loop on 2 concurrent connections, one connection per stream.

Every input is generated from ``--seed``; the program only receives the
generated files and streams.  Every output is checked: analyze reports
against a reference pass made once per run through the library (the
sharded run against the *unsharded* pass), serve replies byte for byte
against the engine's direct pass over the same stream, and each
reference against the races the generator planted.  A wrong report, an
unexpected exit code or a wrong, shed or rejected reply counts as a
failed operation and yields no throughput sample.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer ones from a separate traced run (spans around each layer's
public functions, see ``spans.py``) together with the tracing overhead.
``--workload all`` runs both modes on every workload and prints every
metric by name with its unit.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

Timed single-process samples (and the serve subprocess) are pinned to
the core a short probe finds quietest just before they start; the
sharded workload is left unpinned because its workers need every core.
End-to-end times are scaled to a quiet reference host by that probe,
taken before and after each sample (see ``HostSpeed``).

Generated files, the kernel cache, span dumps and temporary files all
live under ``.bench_build/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import select
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"
SPANS = BUILD / "spans"

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402
from child import vm_hwm_kb  # noqa: E402

#: A run must finish within 180 s; no child may outlive this.
CHILD_TIMEOUT_S = 100.0
#: Minimum analyze samples per run, whatever ``--seconds`` says: the
#: median needs ten samples beyond it.
MIN_SAMPLES = 21

SERVE_DETECTORS = "wcp,hb"
#: Stream sizes vary so that the two closed-loop clients keep drifting
#: in and out of phase: with equal sizes the phase set by the first
#: stream persists and decides whether every reply waits for one stream
#: or for two, which made the median reply swing from run to run.
SERVE_STREAM_EVENTS = (500, 1500)
SERVE_DISTINCT_STREAMS = 32
SERVE_CONNECTIONS = 2
#: The load runs on one server in windows of this length, with the host
#: speed probed between them (see ``HostSpeed``).
SERVE_WINDOW_S = 1.0
#: Spawn-to-ready samples per run, on servers that take no load.
SERVE_SETUPS = 10
#: p90 needs at least ten samples beyond it.
SERVE_MIN_STREAMS = 100
#: Streams pushed to each server of a traced pair.
SERVE_TRACED_STREAMS = 40

#: ``reply_ms`` is the latency statistic a run's sample count supports
#: with at least ten samples beyond it: on ``serve_ingest`` the p90 of
#: the per-stream reply latency over at least 100 streams; on the analyze
#: workloads, whose fresh-interpreter samples number 21 to 40 a run,
#: the median file -> report latency.
END_TO_END_UNITS = {
    "events_per_s": "events/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "reply_ms": "ms",
}

#: Printed beside the end-to-end metrics of ``serve_ingest`` but not part
#: of the result: on a shared host the median reply tracks the host's
#: speed more closely than any other figure (its run-to-run spread
#: exceeded 0.25 of its median), so it cannot carry a regression bound.
INFORMATIONAL_UNITS = {"reply_ms_p50": "ms"}

PER_LAYER_UNITS = {
    "cli.import_s": "s",
    "parsers.decode_s": "s",
    "parsers.events_per_s": "events/s",
    "adapters.decode_s": "s",
    "trace.build_s": "s",
    "validate.online_s": "s",
    "engine.pass_s": "s",
    "engine.dispatch_s": "s",
    "wcp.detect_s": "s",
    "wcp.events_per_s": "events/s",
    "wcp.max_queue_total": "count",
    "hb.detect_s": "s",
    "clock.merge_us.w12": "us",
    "clock.merge_us.w64": "us",
    "kernels.cffi_active": "count",
    "partition.classify_s": "s",
    "partition.events_per_s": "events/s",
    "sharding.replication_factor": "ratio",
    "sharding.work_bound": "ratio",
    "sharding.worker_idle_share": "ratio",
    "sharding.vs_unsharded": "ratio",
    "serve.step_us_p50": "us",
    "serve.step_us_p99": "us",
    "serve.shed": "count",
    "serve.rejected": "count",
    "serve.overhead_us_per_event": "us",
    "tracing.overhead_s": "s",
}


class AnalyzeWorkload:
    """A workload driven through ``analyze`` on one generated file."""

    def __init__(self, generator, events: int, suffix: str, argv: List[str],
                 detectors: List[str], stream: bool = False,
                 format: Optional[str] = None,
                 unsharded_argv: Optional[List[str]] = None) -> None:
        #: Single-process workloads run pinned to the quietest core; the
        #: sharded one needs every core for its workers.
        self.generator = generator
        self.events = events
        self.suffix = suffix
        self.argv = argv
        self.detectors = detectors
        self.stream = stream
        self.format = format
        self.unsharded_argv = unsharded_argv
        self.pinned = unsharded_argv is None


WORKLOADS = {
    "contended_batch": AnalyzeWorkload(
        workloads.contended_batch, 20_000, ".std",
        ["--detector", "wcp,hb"], ["wcp", "hb"],
    ),
    "sharded_stream": AnalyzeWorkload(
        workloads.sharded_stream, 100_000, ".std",
        ["--stream", "--shards", "2", "--shard-mode", "process",
         "--detector", "wcp"], ["wcp"], stream=True,
        unsharded_argv=["--stream", "--detector", "wcp"],
    ),
    "wide_kernel_log": AnalyzeWorkload(
        workloads.wide_kernel_log, 20_000, ".mtrace",
        ["--format", "mtrace", "--detector", "wcp"], ["wcp"],
        format="mtrace",
    ),
    "serve_ingest": None,  # driven by run_serve / trace_serve below
}


# --------------------------------------------------------------------- #
# Environment
# --------------------------------------------------------------------- #

def child_env() -> Dict[str, str]:
    """Environment for every process the benchmark starts.

    The kernel cache and temporary files stay inside the checkout; the
    cache is warmed once per run before anything is timed, because users
    pay the compile once, not per run.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_KERNEL_CACHE"] = str(BUILD / "kernels")
    env["TMPDIR"] = str(BUILD / "tmp")
    return env


def environment_labels(env: Dict[str, str]) -> dict:
    """Python version, cores and the clock-kernel backend, from a fresh
    interpreter (this also compiles the kernel into the cache)."""
    probe = (
        "import json, os, sys, repro.cli\n"
        "from repro.vectorclock import kernels\n"
        "print(json.dumps({'python': sys.version.split()[0],"
        " 'nproc': os.cpu_count(), 'backend': kernels.BACKEND,"
        " 'fallback_reason': kernels.FALLBACK_REASON,"
        " 'repro': os.path.dirname(os.path.abspath(repro.__file__))}))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, cwd=str(ROOT),
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )
    labels = json.loads(out.stdout.strip().splitlines()[-1])
    if Path(labels.pop("repro")) != SRC / "repro":
        raise SystemExit("benchmark imported repro from outside %s" % SRC)
    return labels


# --------------------------------------------------------------------- #
# Output checks
# --------------------------------------------------------------------- #

def report_lines(text: str) -> List[str]:
    """The comparable part of analyze's printed reports: headers and race
    pairs, without the ``stat`` lines (timings differ run to run)."""
    return [
        line for line in text.splitlines()
        if line.strip() and not line.startswith("  stat ")
    ]


def check_report(expected: Optional[List[str]], printed: str) -> bool:
    return expected is not None and report_lines(printed) == expected


def check_planted(result, racy) -> bool:
    """Every detector must report races on exactly the planted variables."""
    for name, report in result.items():
        found = {pair.variable for pair in report.pairs()}
        if found != set(racy) or not found:
            print("reference %s reports races on %s, the generator planted %s"
                  % (name, sorted(found), sorted(racy)), file=sys.stderr)
            return False
    return True


def make_detectors(names: List[str], stream: bool):
    from repro.api import make_detector

    return [
        make_detector(name, stream_reclaim=True)
        if stream and name == "wcp" else make_detector(name)
        for name in names
    ]


def reference_analyze(workload: AnalyzeWorkload, path: Path,
                      racy) -> Optional[List[str]]:
    """The library's direct, unsharded pass over the same file; None when
    it misses a planted race or reports another (every sample then fails)."""
    from repro.api import run_engine
    from repro.engine import FileSource, ValidatingSource
    from repro.trace.parsers import load_trace

    if workload.stream:
        source = ValidatingSource(FileSource(str(path), format=workload.format))
    else:
        source = load_trace(str(path), format=workload.format)
    result = run_engine(
        source, detectors=make_detectors(workload.detectors, workload.stream)
    )
    if not check_planted(result, racy):
        return None
    return report_lines(
        "\n".join(report.summary() for report in result.values())
    )


def serve_reply(lines: List[str], racy) -> Optional[bytes]:
    """The reply ``serve`` owes for one stream: the engine's direct pass
    (None when that pass misses a planted race or reports another)."""
    from repro.api import run_engine
    from repro.engine.sources import IterableSource
    from repro.trace.parsers import iter_std_events

    result = run_engine(
        IterableSource(iter_std_events(lines), name="stream"),
        detectors=make_detectors(SERVE_DETECTORS.split(","), stream=True),
    )
    if not check_planted(result, racy):
        return None
    text = "".join(
        "%s %d %d\n" % (key, report.count(), report.raw_race_count)
        for key, report in result.items()
    )
    return (text + "done %d\n" % result.events).encode("utf-8")


# --------------------------------------------------------------------- #
# Statistics
# --------------------------------------------------------------------- #

def summary(values: List[float]) -> dict:
    """The reported ``value`` (the median) with quartiles and count."""
    ordered = sorted(values)
    median = statistics.median(ordered)
    if len(ordered) >= 2:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
    else:
        q1 = q3 = median
    return {"value": median, "median": median, "q1": q1, "q3": q3,
            "n": len(ordered)}


def log_samples(metric: str, values: List[float]) -> None:
    """Every raw sample, on standard error, for offline inspection."""
    print("samples %s %s" % (metric, " ".join("%.6g" % v for v in values)),
          file=sys.stderr)


def point(value: float, samples: int) -> dict:
    """A statistic computed over ``samples`` values (a percentile)."""
    return {"value": value, "median": value, "q1": value, "q3": value,
            "n": samples}


def fast_half_rate(samples: List[Tuple[int, float]]) -> float:
    """Events per second over the faster half of ``(events, seconds)``
    samples.

    On a shared host a busy neighbour slows a whole sample by up to 1.5x,
    and the share of samples it hits changes from run to run; that share,
    not the program, is what moved the pooled and the median rate.  A
    change to the program moves every sample, the faster half included.
    """
    ordered = sorted(samples, key=lambda sample: sample[1] / sample[0])
    fastest = ordered[:max(1, (len(ordered) + 1) // 2)]
    return sum(e for e, _ in fastest) / sum(t for _, t in fastest)


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[min(len(ordered), rank) - 1]


# --------------------------------------------------------------------- #
# Processes
# --------------------------------------------------------------------- #

#: What ``probe_s`` takes on a quiet reference host (2-vCPU Xeon VM at
#: 2.0 GHz, Python 3.11).  Time metrics are reported at that speed.
REFERENCE_PROBE_S = 0.010


def probe_s() -> float:
    """Median of five runs of a fixed stretch of interpreter work (dict,
    string, list and sort operations; about 10 ms on the reference host).
    It runs no code of the program, so no change to the program moves it."""
    timings = []
    for _ in range(5):
        began = time.perf_counter()
        table: Dict[str, int] = {}
        window: List[Tuple[int, str]] = []
        for i in range(20000):
            key = "k%d" % (i & 127)
            table[key] = table.get(key, 0) + i
            window.append((i, key))
            if len(window) > 64:
                window.sort(key=lambda item: item[1])
                del window[:32]
        timings.append(time.perf_counter() - began)
    return statistics.median(timings)


class HostSpeed:
    """The speed of each core, probed between timed samples.

    The host is shared: a neighbour slows everything on a core by up to
    2x, on one core or both, for minutes at a time, so no statistic
    within one run removes it and a set of runs spans fast and slow
    stretches.  The probe slows with the program: over 257 analyze
    samples on this benchmark's reference host, block medians of raw
    wall time varied 1.7x while walls scaled by the probe varied by
    about 7%.  So each timed sample is scaled by ``REFERENCE_PROBE_S``
    over the mean probe of its cores just before and just after it, and
    the time metrics read as on the quiet reference host.  Samples are
    pinned to the core the last probe found fastest.
    """

    def __init__(self) -> None:
        self.cpus = sorted(os.sched_getaffinity(0))
        self.last = self._probe()

    def _probe(self) -> Dict[int, float]:
        timings = {}
        try:
            for cpu in self.cpus:
                os.sched_setaffinity(0, {cpu})
                timings[cpu] = probe_s()
        finally:
            os.sched_setaffinity(0, self.cpus)
        return timings

    def quietest(self) -> Optional[int]:
        """The core to pin the next sample to (None with only one core)."""
        if len(self.cpus) < 2:
            return None
        return min(self.last, key=self.last.get)

    def refresh(self) -> None:
        self.last = self._probe()

    def scale(self, cpu: Optional[int]) -> float:
        """Probe again and return the factor for the sample just taken on
        ``cpu`` (None: on every core)."""
        before = self.last
        self.refresh()
        cpus = self.cpus if cpu is None else [cpu]
        probed = [run[c] for run in (before, self.last) for c in cpus]
        return REFERENCE_PROBE_S / statistics.mean(probed)


def run_child(env, mode: str, spec: dict,
              cpu: Optional[int] = None) -> Optional[dict]:
    """Run one ``child.py`` sample (pinned to ``cpu`` when given); None
    when it failed."""
    command = [sys.executable, str(HERE / "child.py"), mode, json.dumps(spec)]
    spawned = time.monotonic()
    process = subprocess.Popen(
        command, env=env, cwd=str(ROOT), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    if cpu is not None:
        os.sched_setaffinity(process.pid, {cpu})
    try:
        out, err = process.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("child timed out: %s" % mode, file=sys.stderr)
        return None
    finally:
        if process.poll() is None:
            os.killpg(process.pid, signal.SIGKILL)
            process.communicate()
    if process.returncode != 0:
        print("child failed (%d): %s" % (process.returncode, err.strip()[-2000:]),
              file=sys.stderr)
        return None
    sample = json.loads(out.strip().splitlines()[-1])
    if "ready" in sample:
        sample["setup_s"] = sample["ready"] - spawned
    return sample


class Collector:
    """Values of each metric across the samples of one run."""

    def __init__(self) -> None:
        self.values: Dict[str, List[float]] = {}

    def add(self, metric: str, value: float) -> None:
        self.values.setdefault(metric, []).append(value)

    def summaries(self) -> Dict[str, dict]:
        return {metric: summary(values) for metric, values in self.values.items()}


class Tally:
    """Attempted and failed operations of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
        return ok


# --------------------------------------------------------------------- #
# Analyze workloads
# --------------------------------------------------------------------- #

def prepare_analyze(name: str, workload: AnalyzeWorkload, seed: int, workdir: Path):
    generated = workload.generator(seed, workload.events)
    path = workdir / (name + workload.suffix)
    path.write_text("\n".join(generated.lines) + "\n")
    expected = reference_analyze(workload, path, generated.racy)
    return path, len(generated.lines), expected


def analyze_sample(env, workload, path, events, expected, tally, speed,
                   spans=None):
    spec = {"argv": [str(path)] + workload.argv, "trace": spans is not None,
            "spans": spans, "sharded": workload.unsharded_argv is not None}
    cpu = speed.quietest() if workload.pinned else None
    sample = run_child(env, "analyze", spec, cpu)
    scale = speed.scale(cpu)
    ok = (
        sample is not None
        and sample["code"] == 1  # races found, as in the reference
        and check_report(expected, sample["stdout"])
    )
    if not tally.record(ok):
        return None
    sample["scale"] = scale
    sample["peak_rss_mb"] = (sample["self_kb"] + sample["children_kb"]) / 1024.0
    return sample


def run_analyze(name, workload, env, seed, seconds, workdir, tally):
    path, events, expected = prepare_analyze(name, workload, seed, workdir)
    samples = []
    speed = HostSpeed()
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline or tally.attempted < MIN_SAMPLES:
        sample = analyze_sample(env, workload, path, events, expected, tally,
                                speed)
        if sample is not None:
            samples.append(sample)
    if not samples:
        return {}
    log_samples("raw_wall_ms", [s["wall_s"] * 1000.0 for s in samples])
    log_samples("raw_setup_s", [s["setup_s"] for s in samples])
    log_samples("scale", [s["scale"] for s in samples])
    walls = [s["wall_s"] * s["scale"] for s in samples]
    setups = [s["setup_s"] * s["scale"] for s in samples]
    walls_ms = [wall * 1000.0 for wall in walls]
    rates = summary([events / wall for wall in walls])
    rates["value"] = fast_half_rate([(events, wall) for wall in walls])
    return {
        "events_per_s": rates,
        "setup_s": summary(setups),
        "peak_rss_mb": summary([s["peak_rss_mb"] for s in samples]),
        # The input is complete when analyze starts, so the reply is the
        # final report and its latency the whole file -> report time.
        "reply_ms": summary(walls_ms),
    }


def trace_analyze(name, workload, env, seed, seconds, workdir, tally):
    path, events, expected = prepare_analyze(name, workload, seed, workdir)
    layers = Collector()
    speed = HostSpeed()
    if workload.unsharded_argv is not None:
        ratio = run_child(env, "shard_ratio", {
            "sharded": [str(path)] + workload.argv,
            "unsharded": [str(path)] + workload.unsharded_argv,
            "pairs": 2,
        })
        if tally.record(
            ratio is not None
            and check_report(expected, ratio["stdout"]["sharded"])
            and check_report(expected, ratio["stdout"]["unsharded"])
        ):
            walls = ratio["walls"]
            layers.add("sharding.vs_unsharded",
                       statistics.median(walls["unsharded"])
                       / statistics.median(walls["sharded"]))
            for key in ("replication_factor", "work_bound", "worker_idle_share"):
                layers.add("sharding." + key, ratio[key])
    deadline = time.monotonic() + seconds
    pair = 0
    while time.monotonic() < deadline or pair == 0:
        spans = SPANS / ("%s-seed%d-%d.json" % (name, seed, pair))
        order = [None, spans] if pair % 2 == 0 else [spans, None]
        taken = {}
        for target in order:
            sample = analyze_sample(env, workload, path, events, expected,
                                    tally, speed,
                                    spans=str(target) if target else None)
            taken["traced" if target else "plain"] = sample
        pair += 1
        plain, traced = taken["plain"], taken["traced"]
        if plain is None or traced is None:
            continue
        layers.add("tracing.overhead_s", traced["wall_s"] - plain["wall_s"])
        layers.add("cli.import_s", plain["import_s"])
        layers.add("clock.merge_us.w12", traced["merge_us_w12"])
        layers.add("clock.merge_us.w64", traced["merge_us_w64"])
        add_layer_metrics(layers.add, traced["layers"])
    return layers.summaries()


def add_layer_metrics(add, layers: dict) -> None:
    def rate(items: float, seconds: float) -> float:
        return items / seconds if seconds > 0 else 0.0

    add("parsers.decode_s", layers["parsers.decode"])
    add("parsers.events_per_s", rate(layers["std_decoded"], layers["parsers.decode"]))
    add("adapters.decode_s", layers["adapters.decode"])
    add("trace.build_s", layers["trace.build"])
    add("validate.online_s", layers["validate.online"])
    add("engine.pass_s", layers["engine.pass_busy"])
    add("engine.dispatch_s", layers["engine.pass"])
    if "wcp.report_time_s" in layers:
        # Sharded: WCP runs in the shard workers, not in the traced
        # process; the merged report carries the busiest worker's time.
        add("wcp.detect_s", layers["wcp.report_time_s"])
        add("wcp.events_per_s", layers["wcp.report_events_per_s"])
    else:
        add("wcp.detect_s", layers["wcp.detect"])
        add("wcp.events_per_s", rate(layers["wcp.calls"], layers["wcp.detect"]))
    add("wcp.max_queue_total", layers["wcp.max_queue_total"])
    add("hb.detect_s", layers["hb.detect"])
    add("partition.classify_s", layers["partition.classify"])
    add("partition.events_per_s",
        rate(layers["partition.calls"], layers["partition.classify"]))


# --------------------------------------------------------------------- #
# Serve workload
# --------------------------------------------------------------------- #

class ServeInstance:
    """One ``serve`` subprocess on an ephemeral localhost port."""

    def __init__(self, env, cpu: Optional[int],
                 traced_out: Optional[Path] = None) -> None:
        argv = ["--port", "0", "--detector", SERVE_DETECTORS]
        if traced_out is None:
            command = [sys.executable, "-m", "repro.cli", "serve"] + argv
        else:
            spec = {"argv": argv, "out": str(traced_out)}
            command = [sys.executable, str(HERE / "child.py"), "serve",
                       json.dumps(spec)]
        spawned = time.monotonic()
        self.process = subprocess.Popen(
            command, env=env, cwd=str(ROOT), stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, start_new_session=True,
        )
        self.pin(cpu)
        first = self._first_line(spawned + CHILD_TIMEOUT_S)
        self.setup_s = time.monotonic() - spawned
        self.stderr_tail: List[bytes] = []
        self._drains = [
            threading.Thread(target=self._drain, args=(stream, keep), daemon=True)
            for stream, keep in ((self.process.stdout, None),
                                 (self.process.stderr, self.stderr_tail))
        ]
        for thread in self._drains:
            thread.start()
        if not first.startswith("serving on "):
            self.stop()
            raise RuntimeError("serve did not start: %r %r"
                               % (first, b"".join(self.stderr_tail)[-500:]))
        self.port = int(first.strip().rsplit(":", 1)[1])

    def _first_line(self, deadline: float) -> str:
        """The server's first stdout line, read straight from the pipe so
        the wait is bounded: "" when it exits or the deadline passes
        first (the caller then stops it and reports the failure)."""
        descriptor = self.process.stdout.fileno()
        data = b""
        while b"\n" not in data:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([descriptor], [], [], left)[0]:
                break
            chunk = os.read(descriptor, 4096)
            if not chunk:
                break
            data += chunk
        return data.split(b"\n", 1)[0].decode("utf-8", "replace")

    @staticmethod
    def _drain(stream, keep) -> None:
        for line in iter(stream.readline, b""):
            if keep is not None:
                keep.append(line)
                del keep[:-20]

    def pin(self, cpu: Optional[int]) -> None:
        """Move the server to ``cpu`` (None: leave it where it is)."""
        self.cpu = cpu
        if cpu is not None:
            os.sched_setaffinity(self.process.pid, {cpu})

    def push(self, streams, deadline: float, at_least: int,
             start: int = 0) -> List[Outcome]:
        """Run the load with this process (the load generator) kept off
        the server's core."""
        if self.cpu is None:
            return push_load(self.port, streams, deadline, at_least, start)
        cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, cpus - {self.cpu})
        try:
            return push_load(self.port, streams, deadline, at_least, start)
        finally:
            os.sched_setaffinity(0, cpus)

    def stats(self) -> Dict[str, float]:
        """The in-band ``/stats`` query, as ``{key: first value}``."""
        with socket.create_connection(("127.0.0.1", self.port), timeout=30) as conn:
            conn.sendall(b"/stats\n")
            data = b""
            while not data.endswith(b"done stats\n"):
                chunk = conn.recv(65536)
                if not chunk:
                    break
                data += chunk
        stats = {}
        for line in data.decode("utf-8").splitlines():
            parts = line.split()
            if len(parts) >= 2:
                try:
                    stats[parts[0]] = float(parts[1])
                except ValueError:
                    pass
        return stats

    def peak_rss_mb(self) -> float:
        return vm_hwm_kb(self.process.pid) / 1024.0

    def stop(self) -> None:
        """SIGTERM (graceful drain) and reap."""
        process = self.process
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()
        for thread in self._drains:
            thread.join(timeout=10)
        process.stdout.close()
        process.stderr.close()


class Outcome(NamedTuple):
    ok: bool
    reply_ms: float
    events: int


def push_stream(port: int, payload: bytes, expected: bytes, events: int) -> Outcome:
    """One closed-loop stream: connect, send, half-close, await the reply."""
    try:
        with socket.create_connection(("127.0.0.1", port), timeout=60) as conn:
            conn.sendall(payload)
            conn.shutdown(socket.SHUT_WR)
            sent = time.perf_counter()
            reply = b""
            while b"done " not in reply or not reply.endswith(b"\n"):
                chunk = conn.recv(65536)
                if not chunk:
                    break
                reply += chunk
            replied = time.perf_counter()
    except OSError:
        return Outcome(False, 0.0, events)
    return Outcome(expected is not None and reply == expected,
                   (replied - sent) * 1000.0, events)


def push_load(port: int, streams, deadline: float, at_least: int,
              start: int = 0) -> List[Outcome]:
    """Closed loop on ``SERVE_CONNECTIONS`` connections until ``deadline``
    (and at least ``at_least`` streams), cycling through ``streams`` from
    the ``start``-th."""
    outcomes: List[Outcome] = []
    lock = threading.Lock()
    position = [0]

    def client() -> None:
        while True:
            with lock:
                if position[0] >= at_least and time.monotonic() >= deadline:
                    return
                payload, expected, events = streams[
                    (start + position[0]) % len(streams)]
                position[0] += 1
            outcome = push_stream(port, payload, expected, events)
            with lock:
                outcomes.append(outcome)

    threads = [threading.Thread(target=client) for _ in range(SERVE_CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return outcomes


def prepare_serve(seed: int):
    streams = []
    sizes = random.Random(seed)
    for k in range(SERVE_DISTINCT_STREAMS):
        generated = workloads.serve_stream(
            seed * 1000 + k, sizes.randint(*SERVE_STREAM_EVENTS)
        )
        expected = serve_reply(generated.lines, generated.racy)
        payload = ("# stream-id: bench.s%d\n" % k
                   + "\n".join(generated.lines) + "\n").encode("utf-8")
        streams.append((payload, expected, len(generated.lines)))
    return streams


def warm_up(instance: ServeInstance, streams, tally: Tally) -> None:
    """Every distinct stream once, checked but not timed: the first
    connection pays the server's lazy imports, and the server's memory,
    which grows with the streams it has served, reaches the same point on
    every run."""
    for outcome in instance.push(streams, 0.0, len(streams)):
        tally.record(outcome.ok)


def run_serve(env, seed, seconds, tally):
    streams = prepare_serve(seed)
    speed = HostSpeed()
    outcomes, windowed, scales = [], [], []
    instance = ServeInstance(env, speed.quietest())
    try:
        warm_up(instance, streams, tally)
        rss_mb = instance.peak_rss_mb()
        speed.refresh()
        deadline = time.monotonic() + seconds
        while time.monotonic() < deadline or len(outcomes) < SERVE_MIN_STREAMS:
            instance.pin(speed.quietest())
            began = time.perf_counter()
            batch = instance.push(streams, time.monotonic() + SERVE_WINDOW_S,
                                  0, start=len(outcomes))
            window = time.perf_counter() - began
            # The server and the load generator are both on a reply's path.
            scale = speed.scale(None)
            scales.append(scale)
            windowed.append((sum(o.events for o in batch if o.ok),
                             window * scale))
            outcomes.extend(o._replace(reply_ms=o.reply_ms * scale)
                            for o in batch)
    finally:
        instance.stop()
    setups = []
    for _ in range(SERVE_SETUPS):
        instance = ServeInstance(env, speed.quietest())
        instance.stop()
        setups.append(instance.setup_s * speed.scale(instance.cpu))
    log_samples("scale", scales)
    for outcome in outcomes:
        tally.record(outcome.ok)
    done = [o for o in outcomes if o.ok]
    if not done:
        return {}
    # A failed stream misses any latency limit: it ranks as the slowest.
    worst = seconds * 1000.0
    latencies = [o.reply_ms if o.ok else worst for o in outcomes]
    log_samples("reply_ms", latencies)
    log_samples("window_events_per_s", [e / t for e, t in windowed])
    log_samples("setup_s", setups)
    rates = summary([e / t for e, t in windowed])
    rates["value"] = fast_half_rate(windowed)
    return {
        "events_per_s": rates,
        "setup_s": summary(setups),
        "peak_rss_mb": summary([rss_mb]),
        "reply_ms_p50": point(percentile(latencies, 0.5), len(latencies)),
        "reply_ms": point(percentile(latencies, 0.9), len(latencies)),
    }


def trace_serve(env, seed, seconds, tally):
    streams = prepare_serve(seed)
    speed = HostSpeed()
    layers = Collector()
    add = layers.add
    deadline = time.monotonic() + seconds
    pair = 0
    while time.monotonic() < deadline or pair == 0:
        out = SPANS / ("serve_ingest-seed%d-%d.json" % (seed, pair))
        out.unlink(missing_ok=True)
        order = [None, out] if pair % 2 == 0 else [out, None]
        walls = {}
        for target in order:
            instance = ServeInstance(env, speed.quietest(), traced_out=target)
            try:
                warm_up(instance, streams, tally)
                began = time.perf_counter()
                batch = instance.push(streams, 0.0, SERVE_TRACED_STREAMS)
                walls[target is not None] = time.perf_counter() - began
                for outcome in batch:
                    tally.record(outcome.ok)
                if target is None:
                    stats = instance.stats()
                    add("serve.step_us_p50", stats.get("latency_p50_us", 0.0))
                    add("serve.step_us_p99", stats.get("latency_p99_us", 0.0))
                    add("serve.shed", stats.get("shed", 0.0))
                    add("serve.rejected", stats.get("rejected", 0.0))
            finally:
                instance.stop()
        speed.refresh()
        pair += 1
        if not tally.record(out.is_file()):
            continue
        with open(out) as handle:
            traced = json.load(handle)
        add("tracing.overhead_s", walls[True] - walls[False])
        spent = traced["layers"]
        add_layer_metrics(add, spent)
        events = max(1, traced["events"])
        attributed = (spent["parsers.decode"] + spent["validate.online"]
                      + spent["wcp.detect"] + spent["hb.detect"])
        add("serve.overhead_us_per_event",
            (traced["cpu_s"] - traced["tracer_s"] - attributed) / events * 1e6)
    probe = run_child(env, "probe", {})
    if tally.record(probe is not None) and probe is not None:
        add("cli.import_s", probe["import_s"])
        add("clock.merge_us.w12", probe["merge_us_w12"])
        add("clock.merge_us.w64", probe["merge_us_w64"])
    return layers.summaries()


# --------------------------------------------------------------------- #
# Entry point
# --------------------------------------------------------------------- #

def measure(name: str, traced: bool, env, seed: int, seconds: float,
            workdir: Path, tally: Tally, labels: dict) -> Dict[str, dict]:
    workload = WORKLOADS[name]
    if not traced:
        if name == "serve_ingest":
            return run_serve(env, seed, seconds, tally)
        return run_analyze(name, workload, env, seed, seconds, workdir, tally)
    if name == "serve_ingest":
        metrics = trace_serve(env, seed, seconds, tally)
    else:
        metrics = trace_analyze(name, workload, env, seed, seconds, workdir,
                                tally)
    metrics["kernels.cffi_active"] = point(
        1.0 if labels["backend"] == "cffi" else 0.0, 1
    )
    # A layer this workload never calls did no work: 0, by definition.
    for metric in PER_LAYER_UNITS:
        metrics.setdefault(metric, point(0.0, 0))
    return metrics


def print_metrics(name: str, metrics: Dict[str, dict], units: Dict[str, str]) -> None:
    for metric, unit in units.items():
        stats = metrics.get(metric)
        if stats is None:
            continue
        print("%-16s %-28s %14.6g %-9s median %.6g q1 %.6g q3 %.6g n %d" % (
            name, metric, stats["value"], unit, stats["median"], stats["q1"],
            stats["q3"], stats["n"],
        ))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _terminate(signum, frame) -> None:
    # Unwind through the ``finally`` blocks that stop every child.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    args = parse_args(argv)
    if not (SRC / "repro" / "cli.py").is_file():
        print("no program to benchmark: %s is missing" % (SRC / "repro"),
              file=sys.stderr)
        return 2
    env = child_env()
    for directory in (BUILD / "kernels", BUILD / "tmp", SPANS):
        directory.mkdir(parents=True, exist_ok=True)
    os.environ.update({key: env[key] for key in
                       ("REPRO_KERNEL_CACHE", "TMPDIR")})
    sys.path.insert(0, str(SRC))
    labels = environment_labels(env)
    print("env python %s nproc %s kernels.BACKEND %s kernels.FALLBACK_REASON %s"
          % (labels["python"], labels["nproc"], labels["backend"],
             labels["fallback_reason"]))

    workdir = BUILD / ("run-%d" % os.getpid())
    workdir.mkdir(parents=True)
    tally = Tally()
    try:
        if args.workload == "all":
            return ledger(args, env, workdir, tally, labels)
        traced = bool(args.trace)
        metrics = measure(args.workload, traced, env, args.seed, args.seconds,
                          workdir, tally, labels)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = PER_LAYER_UNITS if traced else END_TO_END_UNITS
    print_metrics(args.workload, metrics, units)
    if not traced:
        print_metrics(args.workload, metrics, INFORMATIONAL_UNITS)
    if not tally.attempted:
        tally.record(False)  # nothing ran: that is a failure, not a pass
    correct = tally.failed == 0 and all(metric in metrics for metric in units)
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            metric: {"value": metrics[metric]["value"], "unit": unit}
            for metric, unit in units.items() if metric in metrics
        },
    }
    print(json.dumps(result))
    return 0


def ledger(args, env, workdir: Path, tally: Tally, labels: dict) -> int:
    """Every metric of every workload, by name with its unit."""
    for name in WORKLOADS:
        for traced, units in ((False, {**END_TO_END_UNITS, **INFORMATIONAL_UNITS}),
                              (True, PER_LAYER_UNITS)):
            metrics = measure(name, traced, env, args.seed, args.seconds,
                              workdir, tally, labels)
            print_metrics(name, metrics, units)
    print("operations attempted %d failed %d" % (tally.attempted, tally.failed))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
