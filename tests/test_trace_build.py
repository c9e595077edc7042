"""The lean ``Trace`` build: on-demand lock structure, identity-hashed kinds.

``Trace`` validates and indexes in one pass but builds its lock structure
(``match``/``held_locks``/``enclosing_acquire``/``critical_section``) only
when first asked.  These tests pin three properties of that design:

* the on-demand structure agrees with a reference computed here, from
  per-thread stacks of open sections, on the whole vocabulary and on
  unvalidated fragments with unmatched releases and unreleased acquires;
* the vector-clock detectors never trigger the build;
* ``EventType`` hashes by identity, and serialized detector and shard
  output does not depend on any hash order (two hash seeds, same bytes).
"""

import os
import random
import subprocess
import sys
from collections import defaultdict

import pytest

from repro.bench.generators import mixed_vocabulary_trace
from repro.core.wcp import WCPDetector
from repro.engine import RaceEngine
from repro.hb import FastTrackDetector, HBDetector
from repro.trace.event import Event, EventType
from repro.trace.parsers import load_trace
from repro.trace.semantics import TraceError
from repro.trace.trace import Trace
from repro.trace.writers import dump_trace

from conftest import random_trace

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")

#: Kinds that open a section -> the section's mode.
OPEN_MODE = {
    EventType.ACQUIRE: "excl",
    EventType.WAIT: "excl",
    EventType.RACQ_W: "write",
    EventType.RACQ_R: "read",
}
#: Kinds that close a section -> the modes they may close.
CLOSE_MODES = {
    EventType.RELEASE: ("excl",),
    EventType.RREL: ("read", "write"),
}


def reference_lock_structure(trace):
    """``(match, held, enclosing, read_open)`` from per-thread open stacks.

    An event is inside every section open in its thread, its own acquire
    and release included (``e in l``); read sections confer no mutual
    exclusion and so hold no lock.  A release closes the innermost open
    section of its lock it may close; one with none is unmatched.
    """
    stacks = defaultdict(list)
    match, held, enclosing = {}, [], []
    read_open = 0
    for event in trace:
        stack = stacks[event.thread]
        if event.etype in OPEN_MODE:
            stack.append((event.target, event.index, OPEN_MODE[event.etype]))
        inside = [(lock, index) for lock, index, mode in stack if mode != "read"]
        held.append(tuple(lock for lock, _ in inside))
        enclosing.append(dict(inside))
        read_open += any(mode == "read" for _, _, mode in stack)
        closable = CLOSE_MODES.get(event.etype, ())
        for position in range(len(stack) - 1, -1, -1):
            lock, index, mode = stack[position]
            if lock == event.target and mode in closable:
                del stack[position]
                match[index] = event.index
                match[event.index] = index
                break
    return match, held, enclosing, read_open


def unvalidated_fragment(seed, n_events=120):
    """Random lock/access soup: unmatched releases, unreleased acquires."""
    rng = random.Random(seed)
    kinds = list(OPEN_MODE) + list(CLOSE_MODES) + [
        EventType.NOTIFY, EventType.READ, EventType.WRITE,
    ]
    events = []
    for _ in range(n_events):
        kind = rng.choice(kinds)
        target = rng.choice("xy" if kind in (EventType.READ, EventType.WRITE)
                            else "ab")
        events.append(Event(-1, rng.choice(["t0", "t1", "t2"]), kind, target))
    return Trace(events, validate=False, name="fragment-%d" % seed)


INPUTS = (
    [mixed_vocabulary_trace(seed, threads=3, steps=150) for seed in range(8)]
    + [random_trace(seed, n_events=150, n_threads=4, n_locks=3)
       for seed in range(8)]
    + [unvalidated_fragment(seed) for seed in range(8)]
)


def _expected_section(trace, event, match):
    """The reference critical section of ``event`` (an open or a close)."""
    if event.etype in OPEN_MODE:
        start = event.index
        end = match.get(start, len(trace) - 1)
    else:
        end = event.index
        start = match[end]
    thread = trace[start].thread
    return [
        other for other in trace
        if other.thread == thread and start <= other.index <= end
    ]


class TestOnDemandLockStructure:
    @pytest.mark.parametrize("trace", INPUTS, ids=lambda trace: trace.name)
    def test_matches_open_section_reference(self, trace):
        match, held, enclosing, _ = reference_lock_structure(trace)
        assert trace._lock_index is None
        for event in trace:
            partner = trace.match(event)
            assert (partner.index if partner else None) == match.get(event.index)
            assert trace.held_locks(event) == held[event.index]
            for lock in trace.locks:
                acquire = trace.enclosing_acquire(event, lock)
                assert (acquire.index if acquire else None) == (
                    enclosing[event.index].get(lock)
                )
            if event.etype in OPEN_MODE or event.etype in CLOSE_MODES:
                if event.etype in CLOSE_MODES and event.index not in match:
                    with pytest.raises(TraceError, match="no matching acquire"):
                        trace.critical_section(event)
                else:
                    assert trace.critical_section(event) == _expected_section(
                        trace, event, match
                    )
            elif event.etype is EventType.NOTIFY:
                with pytest.raises(ValueError):
                    trace.critical_section(event)

    def test_inputs_cover_the_hard_cases(self):
        """Guard against a vacuous differential: every case must occur."""
        kinds = set()
        read_open = unmatched_releases = unreleased_acquires = 0
        for trace in INPUTS:
            match, _, _, reads = reference_lock_structure(trace)
            read_open += reads
            for event in trace:
                kinds.add(event.etype)
                if event.index not in match:
                    unmatched_releases += event.etype in CLOSE_MODES
                    unreleased_acquires += event.etype in OPEN_MODE
        assert {EventType.WAIT, EventType.NOTIFY, EventType.RACQ_R,
                EventType.RACQ_W, EventType.RREL} <= kinds
        assert read_open and unmatched_releases and unreleased_acquires

    def test_built_once_on_first_use(self):
        trace = mixed_vocabulary_trace(1)
        assert trace._lock_index is None
        trace.held_locks(trace[0])
        built = trace._lock_index
        assert built is not None
        trace.match(trace[-1])
        trace.critical_section(next(e for e in trace if e.etype in OPEN_MODE))
        assert trace._lock_index is built

    @pytest.mark.parametrize("seed", [0, 3])
    def test_detectors_never_build_it(self, tmp_path, seed):
        path = dump_trace(mixed_vocabulary_trace(seed, threads=4, steps=300),
                          tmp_path / "mixed.std")
        trace = load_trace(path)
        result = RaceEngine().run(
            trace, detectors=[WCPDetector(), HBDetector(), FastTrackDetector()]
        )
        assert result.events == len(trace)
        for detector in (WCPDetector(), HBDetector(), FastTrackDetector()):
            detector.run(trace)
        trace.census()
        trace.stats()
        assert trace._lock_index is None


_SERIALIZE = r"""
import sys
from repro.bench.generators import mixed_vocabulary_trace
from repro.core.wcp import WCPDetector
from repro.engine import ShardedEngine, sharding
from repro.vectorclock.codec import encode

trace = mixed_vocabulary_trace(5, threads=4, steps=300)
wcp = WCPDetector()
wcp.reset(trace)
for event in trace.events[: len(trace) // 2]:
    wcp.process(event)
print(wcp.state_snapshot().hex())

wire = []
send = sharding._SerialTransport.send

def recording_send(self, batch):
    wire.append(encode((self.worker.shard_id, batch)))
    send(self, batch)

sharding._SerialTransport.send = recording_send
ShardedEngine(shards=2, mode="serial", batch_size=64).run(
    trace, detectors=[WCPDetector()]
)
print(b"".join(wire).hex())
"""


class TestIdentityHashedKinds:
    def test_event_type_hashes_by_identity(self):
        for kind in EventType:
            assert hash(kind) == object.__hash__(kind)
            assert {kind: 1}[EventType(kind.value)] == 1

    def test_serialized_output_independent_of_hash_seed(self):
        outputs = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=seed)
            proc = subprocess.run(
                [sys.executable, "-c", _SERIALIZE],
                capture_output=True, text=True, env=env,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout.split())
        snapshot, wire = outputs[0]
        assert len(snapshot) > 200 and len(wire) > 200
        assert outputs[0] == outputs[1]
