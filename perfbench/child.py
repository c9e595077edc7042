"""One fresh-interpreter sample for the benchmark (internal).

Invoked by ``run.py`` as ``python3 perfbench/child.py <mode> <spec-json>``
so that every sample pays the same cold start a user does:

``analyze``
    Time ``import repro.cli`` (set-up), then run
    ``repro.cli.main(["analyze", ...])`` in-process with its stdout
    captured, and print one JSON line: wall time, import time, the
    monotonic instant the interpreter became ready, the printed report,
    and peak RSS of this process and of its largest child (a shard
    worker).  With ``"trace": true`` the layer boundaries are patched
    (:mod:`spans`) and the per-layer self times, net of the tracer's own
    per-call cost, come back too; ``"sharded": true`` leaves the
    detectors unpatched, because they run in the forked shard workers.
``shard_ratio``
    Untraced, in one process: alternate the sharded and the unsharded
    command on the same file and report their wall times and printed
    reports plus the sharded run's partition statistics.
``probe``
    Time ``import repro.cli`` and the clock copy+merge on its own.
``serve``
    Run ``repro.cli.main(["serve", ...])`` with the layer boundaries
    patched; when the server drains (SIGTERM) write the spans, the CPU
    time spent serving, the tracer's estimated share of it and the
    per-stream report statistics to the spec's ``out`` file.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import resource
import statistics
import sys
import time

#: ``DenseClock`` copy+merge calls per timing, and timings per figure.
MERGE_CALLS = 4000
MERGE_REPEATS = 5


def vm_hwm_kb(pid="self") -> int:
    """Peak resident set of one process image, from ``/proc``.

    ``ru_maxrss`` would not do for this process: Linux carries the
    high-water mark across ``execve``, so a child of a large parent
    reports the parent's peak.  ``VmHWM`` belongs to the current image.
    """
    with open("/proc/%s/status" % pid) as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/%s/status" % pid)


def _peak_rss_kb() -> dict:
    # Shard workers are forked without exec, so their ru_maxrss is their
    # own peak (shared pages included, as any RSS reading counts them).
    return {
        "self_kb": vm_hwm_kb(),
        "children_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    }


def _merge_us(width: int) -> float:
    """Median microseconds of one ``DenseClock`` copy plus merge."""
    from repro.vectorclock.dense import DenseClock

    rng = random.Random(width)
    left = DenseClock([rng.randrange(1 << 20) for _ in range(width)])
    right = DenseClock([rng.randrange(1 << 20) for _ in range(width)])
    timings = []
    for _ in range(MERGE_REPEATS):
        began = time.perf_counter()
        for _ in range(MERGE_CALLS):
            clock = left.copy()
            clock.merge(right)
        timings.append((time.perf_counter() - began) / MERGE_CALLS * 1e6)
    return statistics.median(timings)


def _layer_times(tracer, results) -> dict:
    totals = tracer.totals()

    def self_s(name: str) -> float:
        return totals.get(name, {}).get("self_s", 0.0)

    def items(name: str) -> int:
        return int(totals.get(name, {}).get("items", 0))

    layers = {name: self_s(name) for name in (
        "parsers.decode", "adapters.decode", "trace.build",
        "validate.online", "wcp.detect", "hb.detect", "partition.classify",
        "engine.pass",
    )}
    layers["engine.pass_busy"] = totals.get("engine.pass", {}).get("busy_s", 0.0)
    layers["std_decoded"] = items("parsers.decode")
    layers["wcp.calls"] = int(totals.get("wcp.detect", {}).get("calls", 0))
    layers["partition.calls"] = int(
        totals.get("partition.classify", {}).get("calls", 0)
    )
    queue = 0
    for result in results:
        for report in result.values():
            queue = max(queue, int(report.stats.get("max_queue_total", 0)))
    layers["wcp.max_queue_total"] = queue
    sharded = [r for r in results if hasattr(r, "shard_busy_s")]
    if sharded:
        stats = sharded[-1]["WCP"].stats
        layers["wcp.report_time_s"] = float(stats["time_s"])
        layers["wcp.report_events_per_s"] = float(stats["events_per_s"])
    return layers


def run_analyze(spec: dict) -> dict:
    began = time.perf_counter()
    import repro.cli

    import_s = time.perf_counter() - began
    ready = time.monotonic()
    tracer = None
    results: list = []
    main = repro.cli.main
    if spec.get("trace"):
        from spans import Tracer, install

        tracer = Tracer()
        install(tracer, results, detectors=not spec.get("sharded"))
        main = tracer.traced("cli.main", repro.cli.main)
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        started = time.perf_counter()
        code = main(["analyze"] + spec["argv"])
        wall_s = time.perf_counter() - started
    sample = {
        "code": code,
        "wall_s": wall_s,
        "import_s": import_s,
        "ready": ready,
        "stdout": captured.getvalue(),
    }
    sample.update(_peak_rss_kb())
    if tracer is not None:
        from spans import calibrate

        tracer.restore()
        calibrate(tracer)
        sample["layers"] = _layer_times(tracer, results)
        sample["merge_us_w12"] = _merge_us(12)
        sample["merge_us_w64"] = _merge_us(64)
        tracer.dump(spec["spans"], {"argv": spec["argv"], "wall_s": wall_s})
    return sample


def run_probe(spec: dict) -> dict:
    """Import time and clock-kernel cost, for workloads with no analyze."""
    began = time.perf_counter()
    import repro.cli  # noqa: F401

    return {
        "import_s": time.perf_counter() - began,
        "merge_us_w12": _merge_us(12),
        "merge_us_w64": _merge_us(64),
    }


def run_shard_ratio(spec: dict) -> dict:
    """Sharded vs unsharded wall on one file, alternating, one process."""
    import repro.cli

    results: list = []
    original = repro.cli.run_engine

    def capture(*args, **kwargs):
        result = original(*args, **kwargs)
        results.append(result)
        return result

    repro.cli.run_engine = capture
    walls = {"sharded": [], "unsharded": []}
    printed = {}
    order = ["sharded"] + ["sharded", "unsharded"] * spec["pairs"]
    try:
        for position, name in enumerate(order):
            captured = io.StringIO()
            with contextlib.redirect_stdout(captured):
                started = time.perf_counter()
                repro.cli.main(["analyze"] + spec[name])
                wall_s = time.perf_counter() - started
            printed[name] = captured.getvalue()
            if position:  # the first run only warms up
                walls[name].append(wall_s)
    finally:
        repro.cli.run_engine = original
    sharded = [r for r in results if hasattr(r, "shard_busy_s")][-1]
    return {
        "walls": walls,
        "stdout": printed,
        "replication_factor": sharded.replication_factor(),
        "work_bound": sharded.work_speedup_bound(),
        "worker_idle_share": 1.0 - max(sharded.shard_busy_s) / sharded.elapsed_s,
    }


def run_serve(spec: dict) -> int:
    import repro.cli
    from spans import Tracer, calibrate, install

    tracer = Tracer()
    results: list = []
    install(tracer, results)
    cpu_before = time.process_time()
    code = repro.cli.main(["serve"] + spec["argv"])
    cpu_s = time.process_time() - cpu_before
    tracer.restore()
    calibrate(tracer)
    layers = _layer_times(tracer, results)
    tracer.dump(spec["out"], {
        "argv": spec["argv"],
        "cpu_s": cpu_s,
        "tracer_s": tracer.overhead_s(),
        "events": sum(result.events for result in results),
        "layers": layers,
    })
    return code


def main(argv) -> int:
    mode, spec = argv[0], json.loads(argv[1])
    if mode == "serve":
        return run_serve(spec)
    runner = {"analyze": run_analyze, "probe": run_probe,
              "shard_ratio": run_shard_ratio}[mode]
    sample = runner(spec)
    sys.stdout.write(json.dumps(sample) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
