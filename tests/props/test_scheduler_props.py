"""Property-based tests for the event scheduler."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import EventScheduler

delays = st.lists(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False),
    min_size=0,
    max_size=200,
)


@given(delays)
def test_events_execute_in_nondecreasing_time_order(times):
    sched = EventScheduler()
    executed = []
    for t in times:
        sched.schedule(t, lambda t=t: executed.append(sched.now))
    sched.run()
    assert executed == sorted(executed)
    assert len(executed) == len(times)


@given(delays)
def test_equal_times_preserve_insertion_order(times):
    sched = EventScheduler()
    executed = []
    for i, t in enumerate(times):
        sched.schedule(t, lambda i=i: executed.append(i))
    sched.run()
    # stable sort of indices by their times
    expected = [i for _, i in sorted((t, i) for i, t in enumerate(times))]
    assert executed == expected


@given(delays, st.sets(st.integers(min_value=0, max_value=199)))
def test_cancellation_removes_exactly_the_cancelled(times, to_cancel):
    sched = EventScheduler()
    executed = []
    events = []
    for i, t in enumerate(times):
        events.append(sched.schedule(t, lambda i=i: executed.append(i)))
    for idx in to_cancel:
        if idx < len(events):
            sched.cancel(events[idx])
    sched.run()
    surviving = {i for i in range(len(times))} - {
        i for i in to_cancel if i < len(times)
    }
    assert set(executed) == surviving


@given(delays, st.floats(min_value=0.0, max_value=1e6, allow_nan=False))
def test_run_until_is_a_clean_partition(times, boundary):
    sched = EventScheduler()
    executed = []
    for t in times:
        sched.schedule(t, lambda t=t: executed.append(t))
    sched.run(until=boundary)
    early = list(executed)
    assert all(t <= boundary for t in early)
    sched.run()
    assert sorted(executed) == sorted(times)


@given(st.lists(st.floats(min_value=1e-9, max_value=100.0), min_size=1, max_size=50))
def test_relative_scheduling_never_goes_backwards(deltas):
    sched = EventScheduler()
    observed = []

    def chain(remaining):
        observed.append(sched.now)
        if remaining:
            sched.schedule_after(remaining[0], chain, remaining[1:])

    sched.schedule_after(deltas[0], chain, deltas[1:])
    sched.run()
    assert observed == sorted(observed)
    assert len(observed) == len(deltas)


# -- runs: schedule_batch mixed with schedule/cancel/until -------------------


class ReferenceScheduler:
    """The execution-order contract, spelled out naively: every step fires
    the live entry with the smallest ``(time, priority, seq)`` key."""

    def __init__(self):
        self.now = 0.0
        self.live = []
        self.seq = 0
        self.processed_events = 0

    @property
    def pending_events(self):
        return len(self.live)

    def schedule(self, time, callback, *args, priority=0):
        self.seq += 1
        entry = (time, priority, self.seq, callback, args)
        self.live.append(entry)
        return entry

    def schedule_batch(self, times, callbacks, args, presort=None):
        for time, callback, arg in zip(times, callbacks, args):
            self.schedule(time, callback, *arg)

    def cancel(self, entry):
        if entry in self.live:
            self.live.remove(entry)

    def run(self, until=None, max_events=None):
        executed = 0
        while self.live and (max_events is None or executed < max_events):
            entry = min(self.live, key=lambda e: e[:3])
            if until is not None and entry[0] > until:
                break
            self.live.remove(entry)
            self.now = entry[0]
            self.processed_events += 1
            entry[3](*entry[4])
            executed += 1
        if until is not None and self.now < until:
            if not any(e[0] <= until for e in self.live):
                self.now = until


steps = st.sampled_from([0.0, 0.25, 0.5, 1.0])
spawn = st.one_of(st.none(), st.sampled_from([-1, 0, 1]))
operations = st.lists(
    st.one_of(
        st.tuples(st.just("at"), steps, st.sampled_from([-1, 0, 1]), spawn),
        st.tuples(
            st.just("batch"),
            st.lists(st.tuples(steps, spawn), min_size=1, max_size=8),
            st.sampled_from([None, "reverse", "rotate"]),
        ),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=50)),
        st.tuples(
            st.just("run"),
            st.one_of(st.none(), steps),
            st.one_of(st.none(), st.integers(min_value=1, max_value=6)),
        ),
    ),
    max_size=30,
)


#: Sort hints: any permutation of the items must give the same run.
PRESORTS = {
    None: None,
    "reverse": lambda items: items[::-1],
    "rotate": lambda items: items[1:] + items[:1],
}


def _replay(sched, ops):
    """Apply ``ops`` to ``sched``; returns the observable history."""
    trace = []
    # Live Event handles by label.  A handle is dropped once it fires or is
    # cancelled: the scheduler recycles retired Event objects.
    handles = {}
    labels = iter(range(10**6))

    def fire(label, child_priority):
        handles.pop(label, None)
        trace.append((label, sched.now))
        if child_priority is not None:
            # Schedule at the current instant: the child must fit in by its
            # own key even while a run is being fired in place.
            child = next(labels)
            handles[child] = sched.schedule(
                sched.now, fire, child, None, priority=child_priority,
            )

    for op in ops:
        kind = op[0]
        if kind == "at":
            _, step, priority, child_priority = op
            label = next(labels)
            handles[label] = sched.schedule(
                sched.now + step, fire, label, child_priority, priority=priority,
            )
        elif kind == "batch":
            sched.schedule_batch(
                [sched.now + step for step, _ in op[1]],
                [fire] * len(op[1]),
                [(next(labels), child_priority) for _, child_priority in op[1]],
                PRESORTS[op[2]],
            )
        elif kind == "cancel":
            if handles:
                label = sorted(handles)[op[1] % len(handles)]
                sched.cancel(handles.pop(label))
        else:
            _, step, max_events = op
            until = None if step is None else sched.now + step
            sched.run(until=until, max_events=max_events)
        trace.append((kind, sched.now, sched.pending_events, sched.processed_events))
    sched.run()
    trace.append(("end", sched.now, sched.pending_events, sched.processed_events))
    return trace


@settings(max_examples=300)
@given(operations)
def test_runs_execute_in_reference_key_order(ops):
    assert _replay(EventScheduler(), ops) == _replay(ReferenceScheduler(), ops)
