"""The :class:`Simulator`: scheduler + RNG registry + trace bus.

Every simulated entity holds a reference to one ``Simulator``; it is the
composition root for a run and the only object scenario code needs to create
before building topology and protocol stacks.
"""

from __future__ import annotations

import random
from typing import Any

from .rng import RngRegistry
from .scheduler import EventScheduler
from .trace import TraceBus, TraceRecord


class Simulator(EventScheduler):
    """A single deterministic simulation run.

    The simulator *is* its event scheduler, so ``sim.now`` is a plain
    attribute read and ``sim.schedule``/``run``/``cancel`` are the
    scheduler's own methods, with no forwarding layer on the hot paths.
    ``sim.scheduler`` is kept as an alias of ``sim`` for code that wants to
    name the scheduler role explicitly.  On top of the scheduler it carries
    the named RNG streams and the trace bus.
    """

    def __init__(self, seed: int = 1) -> None:
        super().__init__()
        self.scheduler = self
        self.rng = RngRegistry(seed)
        self.trace = TraceBus()
        self.seed = seed

    # -- scheduling shortcuts --------------------------------------------------

    #: ``sim.at(time, callback, *args)`` — schedule at an absolute time.
    at = EventScheduler.schedule
    #: ``sim.after(delay, callback, *args)`` — schedule ``delay`` from now.
    after = EventScheduler.schedule_after

    # -- randomness -------------------------------------------------------------

    def stream(self, name: str) -> random.Random:
        """Named independent RNG stream derived from the master seed."""
        return self.rng.stream(name)

    # -- tracing ------------------------------------------------------------------

    def emit(self, source: str, event: str, **fields: Any) -> None:
        """Publish a trace record if anyone is listening for ``event``."""
        if self.trace.wants(event):
            self.trace.emit(TraceRecord(self.now, source, event, fields))
