"""Seeded trace generators for the end-to-end benchmark.

Every generator is a pure function of its seed and size: the same seed
gives byte-identical text, and the program under test only ever sees the
files (or socket streams) written from that text.  Each trace carries a
few *racer* threads that never synchronise and write shared variables,
so every reference report holds at least one race and no correctness
check is vacuous.

Why each workload exists (also recorded in ``BENCHMARK.json``):

* ``contended_batch`` -- 12 threads and one shared lock, batch STD
  analysis with WCP and HB: the detectors' Rule (a)/(b) work and the
  ``Trace`` build dominate; routing, transport and serve are bypassed.
* ``sharded_stream`` -- 8 threads with private unprotected bursts and
  rare shared sections, streamed through 2 process shards: decode,
  online validation, ``classify`` and the pipe transport dominate.
* ``serve_ingest`` -- many short streams pushed to ``repro-race serve``
  over 2 concurrent connections: the only workload that runs the serve
  event loop and per-line online decode.
* ``wide_kernel_log`` -- an mtrace run-queue lock log from 64 tasks with
  reader/writer ``&mm_sem`` sections: the only workload whose clocks are
  wide enough for the compiled clock kernel to matter, and the only one
  that decodes through the adapter layer.
"""

from __future__ import annotations

import random
from typing import Dict, FrozenSet, List, NamedTuple, Set, Tuple

CONTENDED_THREADS = 12
SHARDED_THREADS = 8
#: Private accesses per burst before a thread's shared section.
SHARDED_RUN_LENGTH = 64
KERNEL_TASKS = 64
KERNEL_CPUS = 8


class Generated(NamedTuple):
    """A generated trace and the variables that must be reported racy.

    Only racer threads touch shared variables outside a lock, and they
    never synchronise, so a variable is racy exactly when at least two
    distinct racers wrote it.  Every sound detector must report a race on
    each such variable and on no other.
    """

    lines: List[str]
    racy: FrozenSet[str]


class _Racers:
    def __init__(self, names: List[str], targets: int) -> None:
        self.names = names
        self.targets = targets
        self.picked = 0
        self.writers: Dict[str, Set[str]] = {}

    def pick(self, rng: random.Random) -> Tuple[str, int]:
        """The next racer write as ``(racer, target)``.  The first two are
        two different racers on target 0, so every trace with room for two
        racer writes holds a race whatever its seed; later ones are drawn
        from ``rng``."""
        planted = self.picked
        self.picked += 1
        if planted < 2:
            return self.names[planted], 0
        return rng.choice(self.names), rng.randrange(self.targets)

    def write(self, racer: str, variable: str) -> None:
        self.writers.setdefault(variable, set()).add(racer)

    def racy(self) -> FrozenSet[str]:
        return frozenset(v for v, who in self.writers.items() if len(who) > 1)


def contended_batch(seed: int, n_events: int) -> Generated:
    """STD lines: 12 threads hammer shared variables under one lock."""
    rng = random.Random(seed)
    racers = _Racers(["racer%d" % i for i in range(3)], 3)
    threads = ["t%d" % i for i in range(CONTENDED_THREADS)]
    lines: List[str] = []
    section = 0
    while len(lines) < n_events:
        thread = rng.choice(threads)
        slot = rng.randrange(6)
        lines.append("%s|acq(l)|hc:acq" % thread)
        lines.append("%s|r(x%d)|hc:%d:r" % (thread, slot, slot))
        lines.append("%s|w(x%d)|hc:%d:w" % (thread, slot, slot))
        lines.append("%s|rel(l)|hc:rel" % thread)
        if section % 8 == 0:
            racer, target = racers.pick(rng)
            lines.append("%s|w(u%d)|hc:%s:%d" % (racer, target, racer, target))
            racers.write(racer, "u%d" % target)
        section += 1
    return Generated(lines, racers.racy())


def sharded_stream(seed: int, n_events: int) -> Generated:
    """STD lines in the partitionable shape: private bursts, rare sharing."""
    rng = random.Random(seed)
    racers = _Racers(["racer0", "racer1"], 3)
    threads = ["t%d" % i for i in range(SHARDED_THREADS)]
    lines: List[str] = []
    burst = 0
    while len(lines) < n_events:
        thread = threads[burst % SHARDED_THREADS]
        for _ in range(SHARDED_RUN_LENGTH):
            variable = "%s_v%d" % (thread, rng.randrange(8))
            op = "r" if rng.random() < 0.5 else "w"
            lines.append("%s|%s(%s)|sh:%s:%s" % (thread, op, variable, variable, op))
        lines.append("%s|acq(shared)|sh:acq" % thread)
        lines.append("%s|w(counter)|sh:counter" % thread)
        lines.append("%s|rel(shared)|sh:rel" % thread)
        if burst % 16 == 0:
            racer, target = racers.pick(rng)
            lines.append("%s|w(u%d)|sh:%s:%d" % (racer, target, racer, target))
            racers.write(racer, "u%d" % target)
        burst += 1
    return Generated(lines, racers.racy())


def serve_stream(seed: int, n_events: int) -> Generated:
    """STD lines for one pushed stream: 6 threads, two locks, racers."""
    rng = random.Random(seed)
    racers = _Racers(["racer0", "racer1"], 2)
    threads = ["t%d" % i for i in range(6)]
    lines: List[str] = []
    section = 0
    while len(lines) < n_events:
        thread = rng.choice(threads)
        lock = rng.choice(("m", "n"))
        slot = rng.randrange(4)
        lines.append("%s|acq(%s)|sv:acq:%s" % (thread, lock, lock))
        lines.append("%s|r(%s%d)|sv:%s%d:r" % (thread, lock, slot, lock, slot))
        lines.append("%s|w(%s%d)|sv:%s%d:w" % (thread, lock, slot, lock, slot))
        lines.append("%s|rel(%s)|sv:rel:%s" % (thread, lock, lock))
        if section % 10 == 0:
            racer, target = racers.pick(rng)
            lines.append("%s|w(u%d)|sv:%s:%d" % (racer, target, racer, target))
            racers.write(racer, "u%d" % target)
        section += 1
    return Generated(lines, racers.racy())


def wide_kernel_log(seed: int, n_events: int) -> Generated:
    """mtrace lines: 64 tasks on 8 run-queue locks plus ``&mm_sem``.

    Sections are emitted whole, so no two tasks ever hold the same lock
    at once and the log is well-formed by construction.  Timestamps
    increase monotonically, as a real tracer's would.
    """
    rng = random.Random(seed)
    tasks = ["kworker/%d-%d" % (i, 1000 + i) for i in range(KERNEL_TASKS)]
    racers = _Racers(["irq/%d-%d" % (i, 90 + i) for i in range(3)], 3)
    lines: List[str] = []
    stamp = [5000.0]
    section = 0

    def record(task: str, cpu: int, op: str, args: str) -> None:
        stamp[0] += rng.random() * 1e-5
        lines.append("%s [%03d] %.6f: %s: %s" % (task, cpu, stamp[0], op, args))

    while len(lines) < n_events:
        task = rng.choice(tasks)
        cpu = rng.randrange(KERNEL_CPUS)
        kind = rng.random()
        if kind < 0.7:
            lock = "&rq%d->lock" % cpu
            record(task, cpu, "lock_acquire", lock)
            record(task, cpu, "mem_read", "rq%d.nr_running" % cpu)
            record(task, cpu, "mem_write", "rq%d.nr_running" % cpu)
            record(task, cpu, "lock_release", lock)
        elif kind < 0.9:
            region = rng.randrange(4)
            record(task, cpu, "lock_acquire", "read &mm_sem")
            record(task, cpu, "mem_read", "mm.vma%d" % region)
            record(task, cpu, "lock_release", "&mm_sem")
        else:
            region = rng.randrange(4)
            record(task, cpu, "lock_acquire", "write &mm_sem")
            record(task, cpu, "mem_write", "mm.vma%d" % region)
            record(task, cpu, "lock_release", "&mm_sem")
        if section % 500 == 0:
            racer, target = racers.pick(rng)
            variable = "stat.irqs%d" % target
            record(racer, cpu, "mem_write", variable)
            racers.write(racer, variable)
        section += 1
    return Generated(lines, racers.racy())
