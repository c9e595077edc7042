"""The :class:`Trace` container.

A trace (Section 2.1) is a sequence of events satisfying two properties:

1. *lock semantics* -- critical sections over the same lock do not overlap:
   between two acquires of the same lock there is a release by the first
   acquiring thread;
2. *well nestedness* -- critical sections of a single thread are properly
   nested.

:class:`Trace` validates both properties on construction (validation can be
disabled for performance when the producer is trusted, e.g. the benchmark
generators).  Construction is one pass over the events that renumbers and
tid-stamps them, validates, and builds the indexes every consumer reads:

* per-thread event indices (``thread_events``/``thread_indices``),
* threads, locks, variables and barriers in order of first appearance,
* the per-event-type census.

The *lock structure* -- ``match`` of each acquire/release, the locks held
at each event (``e in l``), the enclosing acquire of each held lock -- is
read only by the definition-level closure oracles
(:mod:`repro.core.closure`, :mod:`repro.cp.closure`), never by the
vector-clock detectors, which keep their own lock state.  It is therefore
built on the first call to :meth:`Trace.match`, :meth:`Trace.held_locks`,
:meth:`Trace.enclosing_acquire` or :meth:`Trace.critical_section`, by
replaying the events through a fresh
:class:`~repro.trace.semantics.LockDiscipline`.  Section variable sets
(:meth:`Trace.section_accesses`) are computed per call.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.trace.event import Event
from repro.trace.semantics import (
    ACCESS_EVENTS,
    DISCIPLINE_EVENTS,
    REGISTRY,
    EventType,
    LockDiscipline,
    LockSemanticsError,
    TraceError,
    WellNestednessError,
)
from repro.vectorclock.registry import ThreadRegistry

# Re-exported for backward compatibility: the error classes are defined in
# :mod:`repro.trace.semantics` (next to the shared LockDiscipline state
# machine that raises them) but have always been importable from here.
__all__ = [
    "Trace", "TraceError", "LockSemanticsError", "WellNestednessError",
]

#: etype -> what its target names (``"lock"``/``"variable"``/``"thread"``/
#: ``"barrier"``/None), read once per event by the indexing pass.
_OPERAND_OF = {etype: sem.operand for etype, sem in REGISTRY.items()}


class Trace:
    """An immutable, validated sequence of :class:`~repro.trace.event.Event`.

    A trace is *complete*: the whole event sequence is materialised and may
    be iterated any number of times (``is_complete`` is the protocol flag
    detectors check before pre-scanning; the streaming engine's contexts
    set it to False).

    Parameters
    ----------
    events:
        The events in program (temporal) order.  Events are re-indexed so
        that ``trace[i].index == i``.
    validate:
        When True (default) check lock semantics and well nestedness and
        raise :class:`LockSemanticsError` / :class:`WellNestednessError` on
        violation.
    name:
        Optional human-readable name used in reports.
    registry:
        Optional :class:`~repro.vectorclock.registry.ThreadRegistry` to
        intern thread identifiers into (a fresh one is created otherwise).
        Every event is stamped with its interned ``tid`` during indexing;
        events that already carry a *conflicting* tid (stamped by a
        different registry) are replaced by fresh copies so the original
        producer's stamps stay intact.
    """

    #: A materialised trace can always be re-iterated / pre-scanned.
    is_complete = True

    def __init__(
        self,
        events: Iterable[Event],
        validate: bool = True,
        name: Optional[str] = None,
        registry: Optional[ThreadRegistry] = None,
    ) -> None:
        self.name = name or "trace"
        self.registry = registry if registry is not None else ThreadRegistry()
        # Materialise first (the producer's own errors, e.g. a parse error
        # late in a file, surface before any validation error).
        self._events: List[Event] = list(events)
        self._threads: List[str] = []
        self._locks: List[str] = []
        self._variables: List[str] = []
        self._barriers: List[str] = []
        self._by_thread: Dict[str, List[int]] = {}
        self._census: Dict[EventType, int] = {}
        self._lock_index: Optional[_LockIndex] = None

        self._index(validate)

    # ------------------------------------------------------------------ #
    # Indexing / validation
    # ------------------------------------------------------------------ #

    def _index(self, validate: bool) -> None:
        """Renumber, stamp, validate and index every event in one loop."""
        events = self._events
        intern = self.registry.intern
        tid_of: Dict[str, int] = {}
        by_thread = self._by_thread
        census = self._census
        seen_threads: Dict[str, None] = {}
        seen: Dict[str, Dict[str, None]] = {
            "thread": seen_threads, "lock": {}, "variable": {}, "barrier": {},
        }
        # etype -> the first-appearance dict its target joins (None: none).
        seen_of = {
            etype: seen.get(operand) for etype, operand in _OPERAND_OF.items()
        }
        # The shared lock-semantics / well-nestedness state machine; the
        # streaming OnlineValidator drives the identical machine, so both
        # paths raise the same exception class and message by construction.
        step = LockDiscipline().step
        checked = DISCIPLINE_EVENTS if validate else frozenset()

        for position, event in enumerate(events):
            thread = event.thread
            etype = event.etype
            indices = by_thread.get(thread)
            if indices is None:
                indices = by_thread[thread] = []
                tid_of[thread] = intern(thread)
                if thread not in seen_threads:
                    seen_threads[thread] = None
            indices.append(position)
            tid = tid_of[thread]
            if event.index != position or (
                event.tid is not None and event.tid != tid
            ):
                event = events[position] = Event(
                    position, thread, etype, event.target, event.loc, tid=tid,
                )
            else:
                event.tid = tid
            census[etype] = census.get(etype, 0) + 1
            targets = seen_of[etype]
            if targets is not None and event.target not in targets:
                targets[event.target] = None
            if etype in checked:
                step(etype, thread, event.target, position)

        self._threads = list(seen_threads)
        self._locks = list(seen["lock"])
        self._variables = list(seen["variable"])
        self._barriers = list(seen["barrier"])

    def _lock_structure(self) -> "_LockIndex":
        """The lock structure, built on first use (see the module docs)."""
        index = self._lock_index
        if index is None:
            index = self._lock_index = _LockIndex(self._events)
        return index

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self._events)

    def __getitem__(self, index: int) -> Event:
        return self._events[index]

    @property
    def events(self) -> Sequence[Event]:
        """The events in temporal order."""
        return self._events

    @property
    def threads(self) -> List[str]:
        """Thread identifiers in order of first appearance."""
        return list(self._threads)

    @property
    def locks(self) -> List[str]:
        """Lock identifiers in order of first appearance."""
        return list(self._locks)

    @property
    def variables(self) -> List[str]:
        """Variable identifiers in order of first appearance."""
        return list(self._variables)

    @property
    def barriers(self) -> List[str]:
        """Barrier identifiers in order of first appearance."""
        return list(self._barriers)

    def thread_events(self, thread: str) -> List[Event]:
        """Return the projection of the trace onto ``thread`` (sigma|t)."""
        return [self._events[i] for i in self._by_thread.get(thread, [])]

    def thread_indices(self, thread: str) -> List[int]:
        """Return the indices of events performed by ``thread``."""
        return list(self._by_thread.get(thread, []))

    # ------------------------------------------------------------------ #
    # Lock structure
    # ------------------------------------------------------------------ #

    def match(self, event: Event) -> Optional[Event]:
        """Return the matching release of an acquire (or vice versa).

        Returns None when the matching event does not exist in the trace
        (e.g. a lock held until the end of the recorded execution).
        """
        partner = self._lock_structure().match.get(event.index)
        if partner is None:
            return None
        return self._events[partner]

    def held_locks(self, event: Event) -> Tuple[str, ...]:
        """Return the locks whose critical sections contain ``event``.

        The acquire and release of a critical section are both considered
        contained in it (``e in l`` in the paper's notation).
        """
        return self._lock_structure().held[event.index]

    def enclosing_acquire(self, event: Event, lock: str) -> Optional[Event]:
        """Return the acquire of ``lock`` whose critical section contains ``event``."""
        acquire_index = self._lock_structure().acquire_of[event.index].get(lock)
        if acquire_index is None:
            return None
        return self._events[acquire_index]

    def critical_section(self, event: Event) -> List[Event]:
        """Return the events of the critical section started/ended at ``event``.

        ``event`` must open or close a critical section (acquire/release,
        including their rwlock and wait counterparts).  When the matching
        release is absent (the lock is never released), the critical section
        extends to the end of the thread.
        """
        semantics = REGISTRY[event.etype]
        if semantics.opens is None and semantics.closes is None:
            raise ValueError("critical_section expects an acquire or release event")
        if semantics.opens is not None:
            acquire = event
            release = self.match(event)
        else:
            release = event
            acquire = self.match(event)
            if acquire is None:
                raise TraceError(
                    "release at %d has no matching acquire" % event.index
                )
        thread_idx = self._by_thread[acquire.thread]
        start = acquire.index
        end = release.index if release is not None else self._events[-1].index
        return [
            self._events[i]
            for i in thread_idx
            if start <= i <= end
        ]

    def section_accesses(self, release: Event) -> Tuple[Set[str], Set[str]]:
        """Return (read variables, written variables) of ``release``'s critical section."""
        reads: Set[str] = set()
        writes: Set[str] = set()
        for section_event in self.critical_section(release):
            if section_event.is_read():
                reads.add(section_event.variable)
            elif section_event.is_write():
                writes.add(section_event.variable)
        return reads, writes

    # ------------------------------------------------------------------ #
    # Access structure
    # ------------------------------------------------------------------ #

    def accesses(self, variable: str) -> List[Event]:
        """Return all read/write events on ``variable`` in temporal order."""
        return [
            event for event in self._events
            if event.is_access() and event.variable == variable
        ]

    def last_write_before(self, event: Event) -> Optional[Event]:
        """Return the last write to ``event.variable`` strictly before ``event``."""
        if not event.is_access():
            raise ValueError("last_write_before expects a read/write event")
        variable = event.variable
        for i in range(event.index - 1, -1, -1):
            candidate = self._events[i]
            if candidate.is_write() and candidate.variable == variable:
                return candidate
        return None

    def conflicting_pairs(self) -> Iterator[Tuple[Event, Event]]:
        """Yield all conflicting pairs (e1, e2) with e1 earlier than e2.

        Quadratic in the number of accesses per variable; intended for small
        traces (tests, examples), not for the streaming detectors.
        """
        by_variable: Dict[str, List[Event]] = defaultdict(list)
        for event in self._events:
            if event.is_access():
                by_variable[event.variable].append(event)
        for events in by_variable.values():
            for i, first in enumerate(events):
                for second in events[i + 1:]:
                    if first.conflicts_with(second):
                        yield first, second

    # ------------------------------------------------------------------ #
    # Slicing / transformation
    # ------------------------------------------------------------------ #

    def window(self, start: int, size: int) -> "Trace":
        """Return the sub-trace of ``size`` events starting at ``start``.

        Windowed sub-traces may violate lock semantics at their boundaries
        (an acquire without its release, or vice versa); validation is
        therefore disabled, matching how windowed tools treat fragments.
        """
        chunk = self._events[start:start + size]
        return Trace(
            [Event(-1, e.thread, e.etype, e.target, e.loc) for e in chunk],
            validate=False,
            name="%s[%d:%d]" % (self.name, start, start + size),
        )

    def windows(self, size: int) -> Iterator["Trace"]:
        """Yield consecutive non-overlapping windows of ``size`` events."""
        for start in range(0, len(self._events), size):
            yield self.window(start, size)

    def stats(self) -> Dict[str, int]:
        """Return basic counts (events, threads, locks, variables, accesses)."""
        accesses = sum(
            count for etype, count in self._census.items()
            if etype in ACCESS_EVENTS
        )
        return {
            "events": len(self._events),
            "threads": len(self._threads),
            "locks": len(self._locks),
            "variables": len(self._variables),
            "accesses": accesses,
        }

    def census(self) -> Dict[str, int]:
        """Return the per-event-type census (canonical token -> count).

        Only event kinds that actually occur appear; computed during
        indexing, so this is O(1) per call.
        """
        return {etype.value: count for etype, count in self._census.items()}

    def __repr__(self) -> str:
        return "Trace(%r, events=%d, threads=%d, locks=%d)" % (
            self.name, len(self._events), len(self._threads), len(self._locks)
        )


class _LockIndex:
    """A trace's lock structure, built by :meth:`Trace._lock_structure`.

    ``match``
        acquire index <-> release index, both directions, for every
        matched critical section;
    ``held``
        per event, the locks whose exclusive sections contain it,
        innermost last (read-mode rwlock sections participate in
        nestedness but confer no mutual exclusion, so they are omitted);
    ``acquire_of``
        per event, lock -> index of the acquire opening that section.

    Built by replaying the events through a fresh, non-validating
    :class:`LockDiscipline` -- the machine ``Trace`` validated them with,
    so a validated trace replays identically, and an unvalidated one gets
    the same best-effort matching.  Events share the ``held``/
    ``acquire_of`` entries of their thread until its sections change.
    """

    __slots__ = ("match", "held", "acquire_of")

    def __init__(self, events: Sequence[Event]) -> None:
        discipline = LockDiscipline()
        step = discipline.step
        open_sections = discipline.open_sections
        self.match: Dict[int, int] = {}
        self.held: List[Tuple[str, ...]] = []
        self.acquire_of: List[Dict[str, int]] = []
        none_held: Tuple[Tuple[str, ...], Dict[str, int]] = ((), {})
        # thread -> (held, acquire_of) of its currently open sections.
        current: Dict[str, Tuple[Tuple[str, ...], Dict[str, int]]] = {}
        for event in events:
            thread = event.thread
            etype = event.etype
            state = current.get(thread, none_held)
            if etype in DISCIPLINE_EVENTS:
                result = step(etype, thread, event.target, event.index, False)
                sections = [
                    (lock, index) for lock, index, mode in open_sections(thread)
                    if mode != "read"
                ]
                after = current[thread] = (
                    tuple(lock for lock, _ in sections), dict(sections),
                )
                action = result[0]
                if action == "open":
                    # The acquire itself is inside its own critical section.
                    state = after
                elif action == "close":
                    # The release is still inside the section it closes, so
                    # it keeps the pre-step state.
                    self.match[result[1]] = event.index
                    self.match[event.index] = result[1]
            self.held.append(state[0])
            self.acquire_of.append(state[1])
