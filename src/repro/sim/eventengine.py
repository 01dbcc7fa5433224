"""Heap-ordered discrete-event core for the biochip simulator.

The engine is deliberately tiny and generic: a priority queue of
``(time, priority, seq)``-ordered callbacks with tag-keyed
cancellation, in the mold of the 6tisch simulator's
``DiscreteEventEngine`` (ordered event queue, uniqueTag replacement,
deterministic intra-slot ordering). The replay layer in
:mod:`repro.sim.engine` schedules droplet dispenses, module
dispatches, and fault injections on it; cost then scales with the
number of events, not with the schedule horizon.

Determinism contract (see DESIGN.md, "Event-driven simulation core"):

* events fire in ascending ``time``; *time* may be any totally ordered
  value (the replay uses ``(phase, seconds)`` pairs so every
  timeline-realization event precedes every replay event);
* events tied on time fire in ascending ``priority`` (any comparable
  value — the replay uses op ids, pinning same-instant dispatch order
  to the reference engine's sort);
* events tied on both fire in scheduling order (a monotone sequence
  number breaks the tie), so a fixed schedule gives one total order.

Scheduling an event under a live tag *replaces* the pending event with
that tag — exactly the 6tisch ``uniqueTag`` semantics — which is what
lets a fault handler slide an already-scheduled dispatch to its
post-fault start time. Cancellation is lazy: dead entries stay in the
heap and are skipped on pop, so ``cancel`` is O(1).
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Callable, Hashable

from repro.util.errors import SimulationError

__all__ = ["DiscreteEventEngine"]

# Entry layout: [time, priority, seq, callback, tag]; a cancelled entry
# has callback=None and is discarded when it surfaces at the heap top.
_TIME, _PRIORITY, _SEQ, _CALLBACK, _TAG = range(5)


class DiscreteEventEngine:
    """A deterministic, heap-ordered event queue."""

    def __init__(self) -> None:
        self._heap: list[list] = []
        self._seq = itertools.count()
        #: tag -> live heap entry (exactly one live event per tag).
        self._tagged: dict[Hashable, list] = {}
        #: Time of the event currently (or last) executed; ``None``
        #: before the first event fires.
        self.now = None
        self.processed = 0
        self.scheduled = 0
        self.cancelled = 0

    # -- scheduling -----------------------------------------------------------

    def schedule(
        self,
        time,
        callback: Callable[[], None],
        *,
        priority=0,
        tag: Hashable | None = None,
    ) -> None:
        """Enqueue *callback* at *time*.

        *time* and *priority* may be any values totally ordered within
        one run of the engine. Scheduling into the past (before the
        event currently executing) is an error — the past already
        happened. A non-``None`` *tag* replaces any pending event with
        the same tag.
        """
        if self.now is not None and time < self.now:
            raise SimulationError(
                f"cannot schedule an event at {time!r} before the current "
                f"instant {self.now!r}"
            )
        if tag is not None and tag in self._tagged:
            self.cancel(tag)
        entry = [time, priority, next(self._seq), callback, tag]
        heapq.heappush(self._heap, entry)
        if tag is not None:
            self._tagged[tag] = entry
        self.scheduled += 1

    def cancel(self, tag: Hashable) -> bool:
        """Cancel the pending event with *tag*; True if one was live."""
        entry = self._tagged.pop(tag, None)
        if entry is None or entry[_CALLBACK] is None:
            return False
        entry[_CALLBACK] = None
        self.cancelled += 1
        return True

    # -- inspection -----------------------------------------------------------

    @property
    def pending(self) -> int:
        """Number of live (not yet fired, not cancelled) events."""
        return sum(1 for e in self._heap if e[_CALLBACK] is not None)

    # -- execution ------------------------------------------------------------

    def run(self, until=None) -> int:
        """Fire events in order until the queue drains (or past *until*).

        With *until*, events at times ``<= until`` fire and the rest
        stay queued. Returns the number of events fired by this call.
        Callbacks may schedule further events (at or after the current
        instant); they fire within the same run.
        """
        fired = 0
        heap = self._heap
        while heap:
            entry = heap[0]
            if entry[_CALLBACK] is None:
                heapq.heappop(heap)
                continue
            if until is not None and entry[_TIME] > until:
                break
            heapq.heappop(heap)
            self.now = entry[_TIME]
            callback = entry[_CALLBACK]
            tag = entry[_TAG]
            if tag is not None and self._tagged.get(tag) is entry:
                del self._tagged[tag]
            callback()
            self.processed += 1
            fired += 1
        return fired
