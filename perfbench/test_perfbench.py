"""Tests of the benchmark's own parts: generators and output checks.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from repro.trace.adapters import iter_mtrace_events  # noqa: E402
from repro.trace.parsers import parse_std  # noqa: E402
from repro.trace.trace import Trace  # noqa: E402

STD_GENERATORS = [
    workloads.contended_batch,
    workloads.sharded_stream,
    workloads.serve_stream,
]


@pytest.mark.parametrize("generator", STD_GENERATORS)
def test_std_generators_validate(generator):
    generated = generator(3, 4000)
    trace = parse_std("\n".join(generated.lines), validate=True)
    assert len(trace) == len(generated.lines)
    assert generated.racy


def test_mtrace_generator_validates():
    generated = workloads.wide_kernel_log(3, 20000)
    events = list(iter_mtrace_events(generated.lines))
    trace = Trace(events, validate=True)
    assert len(trace.threads) > workloads.KERNEL_TASKS
    assert generated.racy


@pytest.mark.parametrize(
    "generator", STD_GENERATORS + [workloads.wide_kernel_log]
)
def test_seed_decides_the_trace(generator):
    assert generator(5, 3000).lines == generator(5, 3000).lines
    assert generator(5, 3000).lines != generator(6, 3000).lines


def _reference(tmp_path, name):
    workload = run.WORKLOADS[name]
    generated = workload.generator(2, 6000)
    path = tmp_path / (name + workload.suffix)
    path.write_text("\n".join(generated.lines) + "\n")
    return run.reference_analyze(workload, path, generated.racy)


def test_check_flags_an_altered_report(tmp_path):
    expected = _reference(tmp_path, "contended_batch")
    printed = "\n\n".join(
        ["\n".join(expected[:1]) + "\n  stat time_s = 0.1",
         "\n".join(expected[1:])]
    )
    assert run.check_report(expected, printed)
    pair = next(i for i, line in enumerate(expected) if line.startswith("  - "))
    altered = list(expected)
    altered[pair] = altered[pair].replace("distance=", "distance=1")
    assert not run.check_report(expected, "\n".join(altered))
    assert not run.check_report(expected, "\n".join(expected[:-1]))


def test_reference_must_match_the_planted_races(tmp_path):
    from repro.api import run_engine

    generated = workloads.contended_batch(4, 3000)
    trace = parse_std("\n".join(generated.lines))
    result = run_engine(trace, detectors=["wcp", "hb"])
    assert run.check_planted(result, generated.racy)
    assert not run.check_planted(result, generated.racy | {"x0"})
    assert not run.check_report(None, "")


@pytest.mark.parametrize(
    "generator, events",
    [(workloads.contended_batch, 100), (workloads.sharded_stream, 1200),
     (workloads.serve_stream, 100), (workloads.wide_kernel_log, 2000)],
)
def test_every_seed_plants_a_race(generator, events):
    # The shortest traces hold two or three racer writes; whatever the
    # seed, two of them must come from different racers on one variable.
    for seed in range(300):
        assert generator(seed, events).racy, seed


def test_serve_reply_reference_counts_races():
    generated = workloads.serve_stream(7, 500)
    reply = run.serve_reply(generated.lines, generated.racy).decode()
    lines = reply.splitlines()
    assert lines[-1] == "done %d" % len(generated.lines)
    assert [line.split()[0] for line in lines[:-1]] == ["WCP", "HB"]
    assert all(int(line.split()[1]) > 0 for line in lines[:-1])


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert run.percentile(values, 0.5) == 50
    assert run.percentile(values, 0.9) == 90
    assert run.percentile([4.0], 0.9) == 4.0


def test_tracer_cost_comes_out_of_span_and_caller():
    import spans

    tracer = spans.Tracer()
    parent = tracer._span("parent")
    tracer._stack.append(parent)
    for _ in range(10):
        child = tracer._span("child")
        tracer._close(child, tracer.clock() - 0.5, 0)
    tracer._stack.pop()
    tracer._close(parent, tracer.clock() - 10.0, 0)
    parent.busy_s, child.busy_s, parent.child_s = 10.0, 5.0, 5.0
    tracer.plain_cost = spans.Cost(inside=0.01, outside=0.02)
    totals = tracer.totals()
    assert totals["child"]["self_s"] == pytest.approx(5.0 - 10 * 0.01)
    assert totals["parent"]["self_s"] == pytest.approx(
        10.0 - 5.0 - 0.01 - 10 * 0.02
    )
    assert tracer.overhead_s() == pytest.approx(11 * 0.03)


def test_calibration_measures_a_cost_per_call():
    import spans

    tracer = spans.Tracer()
    spans.calibrate(tracer)
    for cost in (tracer.plain_cost, tracer.generator_cost):
        assert cost.inside >= 0.0 and cost.outside >= 0.0
        assert 0.0 < cost.total < 1e-4


def test_host_speed_scales_by_the_probes_around_a_sample(monkeypatch):
    readings = iter([{0: 0.01, 1: 0.03}, {0: 0.03, 1: 0.05},
                     {0: 0.02, 1: 0.01}])
    monkeypatch.setattr(run.HostSpeed, "_probe", lambda self: next(readings))
    speed = run.HostSpeed()
    speed.cpus = [0, 1]
    assert speed.quietest() == 0
    # Pinned to core 0: only that core's probes, before and after.
    assert speed.scale(0) == pytest.approx(run.REFERENCE_PROBE_S / 0.02)
    # On every core: the mean of both cores' probes.
    assert speed.scale(None) == pytest.approx(run.REFERENCE_PROBE_S / 0.0275)
    assert speed.quietest() == 1


def test_fast_half_rate_ignores_the_slow_half():
    assert run.fast_half_rate(
        [(100, 1.0), (100, 2.0), (100, 9.0), (100, 9.0)]
    ) == pytest.approx(200 / 3.0)
    # Ranked by time per event; odd counts keep the middle sample.
    assert run.fast_half_rate(
        [(300, 2.0), (100, 1.0), (100, 9.0)]
    ) == pytest.approx(400 / 3.0)
    assert run.fast_half_rate([(10, 0.5)]) == pytest.approx(20.0)
