"""Span recording around calls into each layer's public functions.

The tracer patches a layer's public entry points from the outside (the
program itself carries no instrumentation) and records, per call site,
a span with a name, a start, an end and the span that caused it.  Calls
that happen once per event -- a detector's ``process``, the online
validator's ``check``, the partitioner's ``classify`` -- would swamp
memory as one record each, so repeated calls with the same name and
parent fold into one aggregate span: ``start`` is the first call's
start, ``end`` the last call's end, ``busy_s`` the summed durations and
``calls`` the call count.  A once-per-run call is simply an aggregate of
one.

A span's *self time* is its busy time minus the busy time of its child
spans; summing self time by layer attributes every traced second to
exactly one layer.  Spans stay in memory and are written out when the
run ends (:meth:`Tracer.dump`).

The wrapper's own bookkeeping costs a fraction of a microsecond per
call, which adds up on the per-event wrappers.  Part of it falls inside
the wrapped call's ``[start, end]`` (it inflates the span) and the rest
outside (it inflates the caller's span).  :func:`calibrate` times both
parts on a no-op in the same process, and :meth:`Tracer.totals` takes
``calls x`` each part out of the span and of its parent, so self times
report the program, not the tracer.
"""

from __future__ import annotations

import json
import statistics
import time
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

#: Calls per calibration timing, and timings per calibration.
CALIBRATION_CALLS = 50_000
CALIBRATION_REPEATS = 5


class Cost(NamedTuple):
    """Seconds the tracer adds per wrapped call: ``inside`` the span,
    ``outside`` it (charged to the caller's span)."""

    inside: float
    outside: float

    @property
    def total(self) -> float:
        return self.inside + self.outside


NO_COST = Cost(0.0, 0.0)


class Span:
    """One aggregate span: every call of ``name`` under one parent."""

    __slots__ = ("sid", "name", "parent", "start", "end", "calls", "busy_s",
                 "child_s", "child_calls", "items", "generator")

    def __init__(self, sid: int, name: str, parent: Optional["Span"]) -> None:
        self.sid = sid
        self.name = name
        self.parent = parent
        self.start = 0.0
        self.end = 0.0
        self.calls = 0
        self.busy_s = 0.0
        self.child_s = 0.0
        #: Calls of child spans, split by wrapper kind (plain, generator).
        self.child_calls = [0, 0]
        self.items = 0
        self.generator = False

    def self_s(self, plain: Cost, generator: Cost) -> float:
        """Busy time minus the children's, with the tracer's own cost
        taken out: ``inside`` per call of this span, ``outside`` per call
        of each child."""
        own = generator if self.generator else plain
        return (self.busy_s - self.child_s - self.calls * own.inside
                - self.child_calls[0] * plain.outside
                - self.child_calls[1] * generator.outside)

    def to_dict(self, plain: Cost, generator: Cost) -> dict:
        return {
            "id": self.sid,
            "name": self.name,
            "parent": self.parent.sid if self.parent is not None else None,
            "start": self.start,
            "end": self.end,
            "calls": self.calls,
            "busy_s": self.busy_s,
            "self_s": self.self_s(plain, generator),
            "items": self.items,
        }


class Tracer:
    """Collects aggregate spans; patches and restores layer entry points."""

    def __init__(self) -> None:
        self.clock = time.perf_counter
        self.root = Span(0, "run", None)
        self.spans: Dict[Tuple[str, int], Span] = {}
        self._stack: List[Span] = [self.root]
        self._patches: List[Tuple[object, str, object]] = []
        #: Per-call tracer cost of each wrapper kind (see :func:`calibrate`).
        self.plain_cost = NO_COST
        self.generator_cost = NO_COST

    # -- recording ------------------------------------------------------- #

    def _span(self, name: str, generator: bool = False) -> Span:
        parent = self._stack[-1]
        key = (name, parent.sid)
        span = self.spans.get(key)
        if span is None:
            span = self.spans[key] = Span(len(self.spans) + 1, name, parent)
            span.generator = generator
        parent.child_calls[generator] += 1
        return span

    def _close(self, span: Span, began: float, items: int) -> None:
        ended = self.clock()
        if not span.calls:
            span.start = began
        span.end = ended
        span.calls += 1
        span.busy_s += ended - began
        span.items += items
        span.parent.child_s += ended - began

    def traced(self, name: str, function: Callable,
               count: Optional[Callable[[object], int]] = None) -> Callable:
        """Wrap a plain function or method: one span per call."""
        stack = self._stack
        clock = self.clock

        def wrapper(*args, **kwargs):
            span = self._span(name)
            stack.append(span)
            began = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                stack.pop()
            self._close(span, began, count(result) if count else 0)
            return result

        wrapper.__wrapped__ = function
        return wrapper

    def traced_generator(self, name: str, function: Callable) -> Callable:
        """Wrap a generator function: each ``next`` is one call; items
        counts the values produced."""
        stack = self._stack
        clock = self.clock

        def wrapper(*args, **kwargs):
            inner = function(*args, **kwargs)
            while True:
                span = self._span(name, generator=True)
                stack.append(span)
                began = clock()
                try:
                    value = next(inner)
                except StopIteration:
                    return
                finally:
                    stack.pop()
                self._close(span, began, 1)
                yield value

        wrapper.__wrapped__ = function
        return wrapper

    def patch(self, owner: object, key: str, replacement: object) -> None:
        """Replace ``owner.key`` (or ``owner[key]`` for a dict) until
        :meth:`restore`."""
        if isinstance(owner, dict):
            original = owner[key]
            owner[key] = replacement
        else:
            original = (owner.__dict__[key] if isinstance(owner, type)
                        else getattr(owner, key))
            setattr(owner, key, replacement)
        self._patches.append((owner, key, original))

    def restore(self) -> None:
        for owner, key, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()

    # -- reading --------------------------------------------------------- #

    def overhead_s(self) -> float:
        """The tracer's estimated own cost over the whole run."""
        return sum(
            span.calls * (self.generator_cost if span.generator
                          else self.plain_cost).total
            for span in self.spans.values()
        )

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: summed busy, self (tracer cost removed), calls
        and items."""
        out: Dict[str, Dict[str, float]] = {}
        for span in self.spans.values():
            entry = out.setdefault(
                span.name, {"busy_s": 0.0, "self_s": 0.0, "calls": 0, "items": 0}
            )
            entry["busy_s"] += span.busy_s
            entry["self_s"] += span.self_s(self.plain_cost, self.generator_cost)
            entry["calls"] += span.calls
            entry["items"] += span.items
        return out

    def dump(self, path: str, extra: Optional[dict] = None) -> None:
        payload = {
            "spans": [span.to_dict(self.plain_cost, self.generator_cost)
                      for span in self.spans.values()],
            "tracer_cost_s": {"plain": self.plain_cost._asdict(),
                              "generator": self.generator_cost._asdict()},
        }
        if extra:
            payload.update(extra)
        with open(path, "w") as handle:
            json.dump(payload, handle, indent=1)


class _Probe:
    def noop(self, value):
        return value


def _probe_values():
    for value in range(CALIBRATION_CALLS):
        yield value


def _calls_s(probe: _Probe) -> float:
    began = time.perf_counter()
    for value in range(CALIBRATION_CALLS):
        probe.noop(value)
    return time.perf_counter() - began


def _loop_s() -> float:
    began = time.perf_counter()
    for value in range(CALIBRATION_CALLS):
        pass
    return time.perf_counter() - began


def _drain_s(values) -> float:
    began = time.perf_counter()
    for value in values:
        pass
    return time.perf_counter() - began


def _split(bare_s: float, traced_s: float, busy_s: float, loop_s: float) -> Cost:
    """Per-call cost inside and outside the span, from one timing each of
    the bare calls, the traced calls (with the span's busy time) and the
    empty loop around them."""
    calls = CALIBRATION_CALLS
    call_s = (bare_s - loop_s) / calls
    inside = busy_s / calls - call_s
    outside = (traced_s - loop_s - busy_s) / calls
    return Cost(max(0.0, inside), max(0.0, outside))


def calibrate(tracer: Tracer) -> None:
    """Time the two wrappers on no-ops and store their per-call cost on
    ``tracer``; each part is the median of several timings.  Run it in
    the traced process, after the run, so the cost matches that run."""
    plain, generator = [], []
    for _ in range(CALIBRATION_REPEATS):
        probe = Tracer()
        loop_s = _loop_s()
        bare_s = _calls_s(_Probe())
        probe.patch(_Probe, "noop", probe.traced("noop", _Probe.noop))
        try:
            traced_s = _calls_s(_Probe())
        finally:
            probe.restore()
        plain.append(_split(bare_s, traced_s, probe.totals()["noop"]["busy_s"],
                            loop_s))
        probe = Tracer()
        drain_bare_s = _drain_s(_probe_values())
        drain_traced_s = _drain_s(probe.traced_generator("gen", _probe_values)())
        generator.append(_split(drain_bare_s, drain_traced_s,
                                probe.totals()["gen"]["busy_s"], loop_s))

    def median(costs: List[Cost]) -> Cost:
        return Cost(statistics.median(c.inside for c in costs),
                    statistics.median(c.outside for c in costs))

    tracer.plain_cost = median(plain)
    tracer.generator_cost = median(generator)


def install(tracer: Tracer, results: list, detectors: bool = True) -> None:
    """Patch every layer boundary the benchmark traces.

    Engine results (analyze's ``run_engine`` return values, serve's
    per-stream ``EnginePass.result``) are appended to ``results`` so the
    caller can read report statistics.  Imports happen here, after the
    caller has timed ``import repro.cli``, so tracing never shifts the
    set-up measurement.  With ``detectors=False`` the detectors' ``process``
    stays untouched: sharded runs detect in forked workers, whose spans
    never reach this process and whose reported time the wrapper would
    only inflate.
    """
    import repro.cli
    import repro.engine.engine as engine
    import repro.engine.sources as sources
    import repro.trace.adapters as adapters
    import repro.trace.parsers as parsers
    from repro.core.wcp import WCPDetector
    from repro.engine.partition import StreamPartitioner
    from repro.engine.validate import OnlineValidator
    from repro.hb.hb import HBDetector
    from repro.trace.trace import Trace

    def keep(result) -> int:
        results.append(result)
        return 0

    decode = tracer.traced(
        "parsers.decode", parsers.parse_std_batch,
        count=lambda result: len(result[0]),
    )
    tracer.patch(parsers, "parse_std_batch", decode)
    tracer.patch(sources, "parse_std_batch", decode)
    tracer.patch(adapters.ADAPTERS, "mtrace", tracer.traced_generator(
        "adapters.decode", adapters.iter_mtrace_events
    ))
    tracer.patch(Trace, "__init__", tracer.traced("trace.build", Trace.__init__))
    tracer.patch(OnlineValidator, "check",
                 tracer.traced("validate.online", OnlineValidator.check))
    if detectors:
        tracer.patch(WCPDetector, "process",
                     tracer.traced("wcp.detect", WCPDetector.process))
        tracer.patch(HBDetector, "process",
                     tracer.traced("hb.detect", HBDetector.process))
    tracer.patch(StreamPartitioner, "classify",
                 tracer.traced("partition.classify", StreamPartitioner.classify))
    tracer.patch(repro.cli, "run_engine", tracer.traced(
        "engine.pass", repro.cli.run_engine, count=keep
    ))
    original_result = engine.EnginePass.result

    def result(self):
        value = original_result(self)
        results.append(value)
        return value

    tracer.patch(engine.EnginePass, "result", result)
