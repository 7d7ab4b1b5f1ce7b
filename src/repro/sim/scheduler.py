"""The discrete-event scheduler at the heart of the simulator.

The design mirrors classic network simulators (NS2's ``Scheduler``): a binary
heap of pending events, a monotonically advancing clock, and lazy deletion of
cancelled events.  Determinism guarantees:

* events run in ``(time, priority, seq)`` order — equal timestamps run in
  (priority, insertion) order, ``seq`` being one insertion counter shared by
  every scheduling API;
* the clock never moves backwards — scheduling into the past raises.

Hot-path layout: the heap holds ``(time, priority, seq, payload)`` tuples,
so ``heapq`` sift comparisons resolve on the scalar prefix at C speed instead
of calling back into Python (``seq`` is unique; comparisons never reach the
payload).  The payload is either an :class:`Event` (cancellable, returned to
the caller) or a *run* (below).  ``run()`` drives the heap directly in one
tight loop rather than composing :meth:`peek_time` + :meth:`step`, and
retired event objects (fired, or cancelled and popped) go on a bounded
freelist so steady-state schedule→cancel→reschedule churn — the MAC backoff
pattern — allocates nothing.  See the recycling contract in
:mod:`repro.sim.event`.  The clock is the plain attribute :attr:`now`.

Runs (:meth:`schedule_batch`): one PHY frame fans out into ``2k+1``
fire-and-forget events whose seqs are consecutive.  Instead of ``2k+1`` heap
entries, the batch is sorted once by ``(time, 0, seq)`` into a *run* — a
list of ``(time, 0, seq, callback, args)`` items, descending so the head is
``run[-1]`` — and occupies **one** heap entry keyed by its head item.  The
firing rule: popping a run fires its head item, then keeps firing the next
item *in place* for as long as that item's key is below ``heap[0]`` (the
heap is re-read after every callback, so work a callback schedules is seen
at once); otherwise the remainder is pushed back, keyed by its new head.
``until``, ``max_events`` and :meth:`stop` are checked between items
exactly as between heap entries.  Because each item fires only when no
other pending entry has a smaller key, execution order is exactly the
``(time, priority, seq)`` order the items would have had as individual
heap entries; the run only saves the ``heappush``/``heappop`` per item.
"""

from __future__ import annotations

import sys
from heapq import heappop, heappush
from itertools import repeat
from typing import Any, Callable, Optional, Sequence

from .event import Event

#: Upper bound on recycled Event objects kept for reuse.  Peak live events in
#: a run is what matters for hit rate; beyond this the allocator is fine.
_FREELIST_MAX = 4096

_NO_HORIZON = float("inf")
_NO_BUDGET = sys.maxsize


class SchedulerError(RuntimeError):
    """Raised on scheduler misuse (e.g. scheduling into the past)."""


class EventScheduler:
    """A deterministic discrete-event scheduler.

    Usage::

        sched = EventScheduler()
        sched.schedule(1.5, callback, arg1, arg2)
        sched.run(until=10.0)
    """

    def __init__(self) -> None:
        #: Current simulation time in seconds.  A plain attribute, read on
        #: every hot path; only the scheduler itself advances it.
        self.now = 0.0
        self._heap: list = []
        self._free: list = []
        # Every scheduled item takes one seq, so the pending count is
        # derived: scheduled - executed - cancelled.
        self._seq = 0
        self._processed = 0
        self._cancelled = 0
        self._running = False
        self._stopped = False
        # The run whose items run() is firing in place (off the heap).
        self._inflight: Optional[list] = None

    # -- inspection ---------------------------------------------------------

    @property
    def pending_events(self) -> int:
        """Number of live (non-cancelled) events in the queue."""
        return self._seq - self._processed - self._cancelled

    @property
    def processed_events(self) -> int:
        """Total number of events executed so far."""
        return self._processed

    # -- scheduling ---------------------------------------------------------

    def schedule(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
        name: Optional[str] = None,
    ) -> Event:
        """Schedule ``callback(*args)`` at absolute simulation ``time``.

        Returns the :class:`Event`, whose ``cancel()`` removes it (lazily).
        The returned object may be a recycled instance; drop the reference
        once the event fires or is cancelled.
        """
        if time < self.now:
            raise SchedulerError(
                f"cannot schedule event at {time:.9f}, now is {self.now:.9f}"
            )
        self._seq = seq = self._seq + 1
        free = self._free
        if free:
            event = free.pop()
            event.time = time
            event.priority = priority
            event.seq = seq
            event.callback = callback
            event.args = args
            event.cancelled = False
            event.fired = False
            event.name = name
        else:
            event = Event(time, seq, callback, args, priority=priority, name=name)
        heappush(self._heap, (time, priority, seq, event))
        return event

    def schedule_after(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
        name: Optional[str] = None,
    ) -> Event:
        """Schedule ``callback(*args)`` ``delay`` seconds from now."""
        if delay < 0:
            raise SchedulerError(f"negative delay {delay}")
        return self.schedule(
            self.now + delay, callback, *args, priority=priority, name=name
        )

    def schedule_batch(
        self,
        times: Sequence[float],
        callbacks: Sequence[Callable[..., Any]],
        args: Sequence[tuple],
        presort: Optional[Callable[[list], Sequence[tuple]]] = None,
    ) -> int:
        """Schedule ``callbacks[i](*args[i])`` at ``times[i]`` as one run.

        The three sequences are parallel columns.  Execution is identical to
        calling ``schedule(times[i], callbacks[i], *args[i])`` once per
        ``i`` in order: seqs are assigned in column order (so equal
        timestamps fire in column order and interleave with surrounding
        :meth:`schedule` calls by insertion), and ``priority`` is 0.  The
        whole batch occupies one heap entry (see the module docs), which is
        what makes the PHY fan-out cheap.

        The trade for the speed is control: batch items return no handles
        and **cannot be cancelled**.  That fits the PHY fan-out exactly —
        signal arrivals/departures are never revoked (radio shutdown lets
        stale deliveries no-op).  Work that may need cancelling must use
        :meth:`schedule`.

        The batch is atomic: if any time lies in the past,
        :class:`SchedulerError` is raised and nothing is scheduled (no seq
        is consumed).  Returns the number of items scheduled.

        ``presort`` is a speed hint for callers that know the batch's shape:
        a callable taking the items in column order and returning the same
        items arranged close to *descending* key order (an
        ``operator.itemgetter`` over a precomputed permutation, say).  The
        sort then runs in near-linear time; its result is the same either
        way.
        """
        n = len(times)
        if len(callbacks) != n or len(args) != n:
            raise ValueError(
                f"schedule_batch columns differ in length: {n} times, "
                f"{len(callbacks)} callbacks, {len(args)} args"
            )
        if not n:
            return 0
        first = self._seq + 1
        run = list(zip(times, repeat(0), range(first, first + n), callbacks, args))
        if presort is not None:
            run = list(presort(run))
            if len(run) != n:
                raise ValueError("presort must return a permutation of the items")
        run.sort(reverse=True)
        head = run[-1]
        if head[0] < self.now:
            raise SchedulerError(
                f"cannot schedule event at {head[0]:.9f}, now is {self.now:.9f}"
            )
        self._seq += n
        heappush(self._heap, (head[0], 0, head[2], run))
        return n

    def cancel(self, event: Optional[Event]) -> None:
        """Cancel ``event`` if it is still pending.  ``None`` is a no-op.

        Cancelling an event that already fired (including the event whose
        callback is currently executing) is a no-op too — it left the
        pending set when it ran.
        """
        if event is not None and not event.cancelled and not event.fired:
            event.cancelled = True
            self._cancelled += 1

    def _recycle(self, event: Event) -> None:
        """Park a retired event for reuse, dropping its payload references.

        ``fired``/``cancelled``/``time``/``name`` are deliberately left in
        place so a holder that inspects a retired handle still sees its
        terminal state; everything is reset when the object is reissued.
        """
        event.callback = None  # type: ignore[assignment]
        event.args = ()
        if len(self._free) < _FREELIST_MAX:
            self._free.append(event)

    # -- execution ----------------------------------------------------------

    def step(self) -> bool:
        """Run the single next live event.  Returns False if queue is empty.

        Not callable from inside :meth:`run` (a run being fired in place is
        off the heap, so a nested step could overtake its items).
        """
        if self._running:
            raise SchedulerError("step() called from inside run()")
        heap = self._heap
        while heap:
            time, _, _, event = heappop(heap)
            if type(event) is list:
                time, _, _, callback, args = event.pop()
                if event:
                    head = event[-1]
                    heappush(heap, (head[0], 0, head[2], event))
                self.now = time
                self._processed += 1
                callback(*args)
                return True
            if event.cancelled:
                self._recycle(event)
                continue
            # Mark before invoking: a callback that cancels *itself* must be
            # a no-op, not a second count of the event.
            event.fired = True
            self.now = time
            self._processed += 1
            event.callback(*event.args)
            self._recycle(event)
            return True
        return False

    def peek_time(self) -> Optional[float]:
        """Timestamp of the next live event, or None if the queue is empty."""
        heap = self._heap
        next_time = None
        while heap:
            head = heap[0]
            event = head[3]
            if type(event) is list or not event.cancelled:
                next_time = head[0]
                break
            heappop(heap)
            self._recycle(event)
        run = self._inflight
        if run and (next_time is None or run[-1][0] < next_time):
            next_time = run[-1][0]
        return next_time

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run events until the queue drains, ``until`` is reached, or
        ``max_events`` have executed.

        ``until`` is inclusive of events scheduled exactly at that time; on
        return the clock is advanced to ``until`` if it was supplied — but
        only once every live event at or before ``until`` has executed, so a
        run truncated by ``max_events`` (or :meth:`stop`) never jumps the
        clock past work that is still queued.
        """
        if self._running:
            raise SchedulerError("scheduler is already running (re-entrant run())")
        self._running = True
        self._stopped = False
        heap = self._heap
        pop = heappop
        push = heappush
        horizon = _NO_HORIZON if until is None else until
        budget = _NO_BUDGET if max_events is None else max_events
        executed = 0
        try:
            while heap and not self._stopped and executed < budget:
                head = heap[0]
                event = head[3]
                if type(event) is list:
                    # A run: fire its items in place while each one is
                    # still the global minimum (see the module docs).
                    if head[0] > horizon:
                        break
                    pop(heap)
                    self._inflight = event
                    while True:
                        time, _, _, callback, args = event.pop()
                        self.now = time
                        self._processed += 1
                        callback(*args)
                        executed += 1
                        if not event:
                            break
                        nxt = event[-1]
                        if (
                            (heap and heap[0] < nxt)
                            or nxt[0] > horizon
                            or executed >= budget
                            or self._stopped
                        ):
                            self._inflight = None
                            push(heap, (nxt[0], 0, nxt[2], event))
                            break
                    continue
                if event.cancelled:
                    pop(heap)
                    self._recycle(event)
                    continue
                time = head[0]
                if time > horizon:
                    break
                pop(heap)
                event.fired = True
                self.now = time
                self._processed += 1
                event.callback(*event.args)
                self._recycle(event)
                executed += 1
            if until is not None and self.now < until and not self._stopped:
                next_time = self.peek_time()
                if next_time is None or next_time > until:
                    self.now = until
        finally:
            # A callback that raised mid-run leaves the run's remainder off
            # the heap; put it back so the queue stays whole.
            run = self._inflight
            self._inflight = None
            if run:
                push(heap, (run[-1][0], 0, run[-1][2], run))
            self._running = False

    def stop(self) -> None:
        """Stop a running :meth:`run` loop after the current event."""
        self._stopped = True
