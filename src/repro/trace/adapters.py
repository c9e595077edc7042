"""Real-trace ingest adapters: mtrace-style kernel logs and a TSan-like format.

Production traces rarely arrive in the STD format; they come out of
kernel tracers and sanitizer runtimes with their own line grammars and a
richer synchronization vocabulary (reader/writer locks, condition
variables, barriers).  The adapters below map two such families onto the
event vocabulary declared in :mod:`repro.trace.semantics`, yielding
ordinary :class:`~repro.trace.event.Event` streams that every consumer
(batch ``load_trace``, streaming ``FileSource``, the CLI's
``--format {std,csv,mtrace,tsan}``) treats identically.

**mtrace** -- ftrace/lockdep-style kernel lock logs, one record per line::

    worker-1042 [001] 5012.347812: lock_acquire: &rq->lock
    reader-77   [000] 5012.348100: lock_acquire: read &sem
    reader-77   [000] 5012.348150: mem_read: counter
    reader-77   [000] 5012.348300: lock_release: &sem

``comm-pid`` is the thread identity, the bracketed CPU and the
timestamp become the program location.  ``lock_acquire`` takes an
optional ``read``/``write`` mode prefix (lockdep's reader flag); plain
acquires are exclusive mutex acquires.  ``lock_release`` is
mode-resolved by the adapter: it tracks which locks each task opened
through a reader/writer acquire and emits ``rrel`` for those, ``rel``
otherwise -- kernel logs do not distinguish on the release side.
Records: ``lock_acquire``, ``lock_release``, ``mem_read``,
``mem_write``, ``task_fork``, ``task_join``.

**tsan** -- a ThreadSanitizer-like annotation stream, one op per line::

    T0 thread_create T1
    T1 mutex_lock m 0x4a2f
    T1 write data 0x4a33
    T1 mutex_unlock m
    T2 rwlock_read_lock rw
    T2 barrier_wait b0
    T2 cond_signal cv

``thread verb target [pc]`` with verbs mapping 1:1 onto the vocabulary
(``cond_wait`` maps to ``wait``, i.e. the *wake-side* re-acquire; the
producer emits ``mutex_unlock`` at wait-start, the RVPredict desugaring
documented in :mod:`repro.trace.semantics`).

Both adapters follow the streaming-parser contract of
:func:`repro.trace.parsers.iter_std_events`: lazy, blank lines and
``#`` comments skipped, events numbered in order of appearance,
``registry`` stamping interned thread tids, and every error a one-line
:class:`~repro.trace.parsers.TraceParseError` naming the line number
and the offending token.
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, Iterator, Optional, Set

from repro.trace.event import Event, EventType
from repro.trace.parsers import TraceParseError, takes_lines
from repro.vectorclock.registry import ThreadRegistry

__all__ = ["iter_mtrace_events", "iter_tsan_events", "ADAPTERS"]


_MTRACE_PATTERN = re.compile(
    r"^\s*(?P<thread>\S+-\d+)\s+\[(?P<cpu>\d+)\]\s+(?P<ts>[0-9.]+):\s*"
    r"(?P<op>\w+):\s*(?P<args>.*?)\s*$"
)

#: mtrace record -> (etype for plain form); lock_acquire handled specially.
_MTRACE_SIMPLE = {
    "mem_read": EventType.READ,
    "mem_write": EventType.WRITE,
    "task_fork": EventType.FORK,
    "task_join": EventType.JOIN,
}


@takes_lines
def iter_mtrace_events(
    lines: Iterable[str], registry: Optional[ThreadRegistry] = None
) -> Iterator[Event]:
    """Lazily parse mtrace-style kernel lock-log lines into events."""
    intern = registry.intern if registry is not None else None
    # Locks each task currently holds through a reader/writer acquire;
    # their releases must surface as ``rrel``, the rest as ``rel``.
    rw_open: Dict[str, Set[str]] = {}
    index = 0
    for line_number, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        match = _MTRACE_PATTERN.match(line)
        if match is None:
            raise TraceParseError(
                "line %d: expected 'comm-pid [cpu] ts: op: args', got %r"
                % (line_number, raw)
            )
        thread = match.group("thread")
        op = match.group("op")
        args = match.group("args")
        loc = "%s:%s" % (match.group("cpu"), match.group("ts"))

        if op == "lock_acquire":
            mode, _, rest = args.partition(" ")
            if mode in ("read", "write") and rest.strip():
                lock = rest.strip()
                etype = EventType.RACQ_R if mode == "read" else EventType.RACQ_W
                rw_open.setdefault(thread, set()).add(lock)
            else:
                lock = args.strip()
                etype = EventType.ACQUIRE
            if not lock:
                raise TraceParseError(
                    "line %d: 'lock_acquire' requires a lock name" % line_number
                )
            target = lock
        elif op == "lock_release":
            lock = args.strip()
            if not lock:
                raise TraceParseError(
                    "line %d: 'lock_release' requires a lock name" % line_number
                )
            opened = rw_open.get(thread)
            if opened is not None and lock in opened:
                opened.discard(lock)
                etype = EventType.RREL
            else:
                etype = EventType.RELEASE
            target = lock
        elif op in _MTRACE_SIMPLE:
            etype = _MTRACE_SIMPLE[op]
            target = args.strip()
            if not target:
                raise TraceParseError(
                    "line %d: %r requires an operand" % (line_number, op)
                )
        else:
            raise TraceParseError(
                "line %d: unknown mtrace record %r" % (line_number, op)
            )

        yield Event(
            index, thread, etype, target, loc,
            tid=intern(thread) if intern is not None else None,
        )
        index += 1


#: tsan verb -> etype (all 1:1; the producer desugars waits, see module docs).
_TSAN_VERBS = {
    "read": EventType.READ,
    "write": EventType.WRITE,
    "mutex_lock": EventType.ACQUIRE,
    "mutex_unlock": EventType.RELEASE,
    "rwlock_read_lock": EventType.RACQ_R,
    "rwlock_write_lock": EventType.RACQ_W,
    "rwlock_unlock": EventType.RREL,
    "thread_create": EventType.FORK,
    "thread_join": EventType.JOIN,
    "cond_wait": EventType.WAIT,
    "cond_signal": EventType.NOTIFY,
    "barrier_wait": EventType.BARRIER,
}


@takes_lines
def iter_tsan_events(
    lines: Iterable[str], registry: Optional[ThreadRegistry] = None
) -> Iterator[Event]:
    """Lazily parse TSan-like ``thread verb target [pc]`` lines into events."""
    intern = registry.intern if registry is not None else None
    index = 0
    for line_number, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) < 3 or len(parts) > 4:
            raise TraceParseError(
                "line %d: expected 'thread verb target [pc]', got %r"
                % (line_number, raw)
            )
        thread, verb, target = parts[0], parts[1].lower(), parts[2]
        etype = _TSAN_VERBS.get(verb)
        if etype is None:
            raise TraceParseError(
                "line %d: unknown tsan operation %r" % (line_number, parts[1])
            )
        loc = parts[3] if len(parts) == 4 else None
        yield Event(
            index, thread, etype, target, loc,
            tid=intern(thread) if intern is not None else None,
        )
        index += 1


#: format name -> streaming iterator, consumed by
#: :func:`repro.trace.parsers.event_iterator`.
ADAPTERS = {
    "mtrace": iter_mtrace_events,
    "tsan": iter_tsan_events,
}
