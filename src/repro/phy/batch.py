"""Vectorized PHY batch lane: lane selection + per-source fan-out kernels.

The channel's per-frame hot path fans one transmission out to every
carrier-sense neighbour: k arrival timestamps, k signal-end timestamps and
2k scheduler insertions per frame.  This module supplies the *batch lane*
for that work:

* :func:`resolve_lane` picks the execution lane (``auto``/``batch``/
  ``scalar``) at channel construction time, falling back to the scalar path
  when numpy is unavailable and honouring the ``REPRO_PHY_LANE`` environment
  override;
* :class:`BatchFanout` holds one source radio's fan-out as parallel arrays —
  propagation delays as a float64 vector, bound receive callbacks, the
  receivable mask and rx powers as plain per-neighbour tuples — and computes
  all of a frame's timestamps in one shot.

Determinism contract (carried from PR 2): event-order traces, figure CSVs
and campaign fingerprints must stay **byte-identical** across lanes.  The
timestamp kernel therefore reproduces the scalar code's float grouping
exactly — ``now + delay``, ``(now + delay) + duration`` and
``now + (delay + duration)`` — as elementwise float64 operations.  IEEE-754
double addition is what both CPython floats and numpy float64 execute, and
it is commutative and deterministic per element, so the batch results are
bit-equal to the scalar ones; ``ndarray.tolist()`` converts back to the very
same Python floats.  Lane choice can change *speed only*, never a single
event timestamp, sequence number or RNG draw.

Small fan-outs sidestep numpy: four kernel launches plus three ``tolist()``
conversions cost a couple of microseconds regardless of width, which a
handful of float additions undercuts.  Below :data:`NUMPY_MIN_FANOUT`
neighbours the same grouping is computed in a plain loop — still one
bulk-scheduled batch per frame, still bit-identical.
"""

from __future__ import annotations

import os
from operator import itemgetter
from typing import Callable, List, Optional, Sequence, Tuple

try:  # gated import: the scalar lane must work on a numpy-less interpreter
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI leg
    _np = None

#: Whether the batch lane is available in this interpreter.
HAVE_NUMPY = _np is not None

#: Valid ``phy_lane`` settings.
LANES = ("auto", "batch", "scalar")

#: Environment override consulted when the configured lane is ``auto`` —
#: lets CI (and bisection) force a lane fleet-wide without touching configs,
#: and without perturbing config digests (lanes are result-invariant).
ENV_VAR = "REPRO_PHY_LANE"

#: Fan-out width below which the batch lane computes timestamps in a plain
#: Python loop instead of numpy: measured on the 8-radio chain bench, the
#: fixed cost of 4 ufunc launches + 3 tolist() conversions (~2-3 us) only
#: amortizes once a frame reaches this many carrier-sense neighbours.
NUMPY_MIN_FANOUT = 16


def resolve_lane(requested: Optional[str] = None) -> str:
    """Resolve a requested lane to the concrete ``batch``/``scalar`` lane.

    ``auto`` (or None) consults the ``REPRO_PHY_LANE`` environment variable,
    then availability: numpy present selects ``batch``, otherwise
    ``scalar``.  Explicitly requesting ``batch`` without numpy raises — a
    config that *names* the vector lane should fail loudly rather than
    silently run 'slower but identical'.
    """
    lane = requested if requested is not None else "auto"
    if lane not in LANES:
        raise ValueError(f"unknown phy_lane {lane!r}; expected one of {LANES}")
    if lane == "auto":
        env = os.environ.get(ENV_VAR)
        if env:
            if env not in LANES:
                raise ValueError(
                    f"bad {ENV_VAR}={env!r}; expected one of {LANES}"
                )
            lane = env
    if lane == "auto":
        lane = "batch" if HAVE_NUMPY else "scalar"
    if lane == "batch" and not HAVE_NUMPY:
        raise ValueError(
            "phy_lane='batch' requires numpy (pip install 'repro[fast]'); "
            "use 'auto' to fall back to the scalar lane automatically"
        )
    return lane


#: One precomputed scalar fan-out entry, as built by the channel:
#: (signal_start, signal_end, receivable, prop_delay, rx_power).
_FanoutEntry = Tuple[
    Callable[..., None], Callable[..., None], bool, float, float
]


class BatchFanout:
    """One source radio's fan-out as parallel arrays + a timestamp kernel.

    ``neighbors`` keeps the per-neighbour invariants the per-frame loop
    needs — ``(signal_start, signal_end, receivable, rx_power)`` in exactly
    the scalar fan-out's iteration order (sequence numbers are assigned in
    fan-out order; reordering would reorder equal-timestamp events).  The
    propagation delays live separately as the vector input of
    :meth:`timestamps`.
    """

    __slots__ = (
        "neighbors", "delays", "width", "use_numpy",
        "numpy_calls", "loop_calls", "clean_callbacks", "lossy_callbacks",
        "presort",
        "_d", "_times", "_starts", "_departs", "_ends", "_sums",
    )

    def __init__(
        self,
        entries: Sequence[_FanoutEntry],
        tx_end: Callable[[], None],
        depart: Callable[..., None],
    ) -> None:
        self.neighbors: List[Tuple[Callable, Callable, bool, float]] = [
            (sig_start, sig_end, receivable, power)
            for sig_start, sig_end, receivable, _delay, power in entries
        ]
        self.delays: List[float] = [entry[3] for entry in entries]
        self.width = width = len(entries)
        #: The frame's callback column in scheduling order — the source's
        #: ``tx_end`` then ``signal_start``/end-of-signal per neighbour —
        #: for a perfect medium (every end goes straight to ``signal_end``)
        #: and a lossy one (decodable ends go through the ``depart``
        #: trampoline that consults the error model).  Static per source,
        #: so the per-frame path only builds the argument column.
        self.clean_callbacks: List[Callable] = [tx_end]
        self.lossy_callbacks: List[Callable] = [tx_end]
        for sig_start, sig_end, receivable, _power in self.neighbors:
            self.clean_callbacks += (sig_start, sig_end)
            self.lossy_callbacks += (sig_start, depart if receivable else sig_end)
        #: Sort hint for the frame's scheduler run (see
        #: ``EventScheduler.schedule_batch``): the frame's items in column
        #: order are ``tx_end, start_0, end_0, start_1, ...``; by time they
        #: usually run arrivals by delay, tx_end, departures by delay.  This
        #: getter arranges them in the reverse of that order.
        self.presort: Optional[Callable[[list], tuple]] = None
        if width:
            by_delay = sorted(range(width), key=self.delays.__getitem__)
            arrival = [1 + 2 * i for i in by_delay] + [0]
            arrival += [2 + 2 * i for i in by_delay]
            self.presort = itemgetter(*reversed(arrival))
        self.use_numpy = HAVE_NUMPY and width >= NUMPY_MIN_FANOUT
        #: Kernel-selection counters (frames computed per sub-lane); one
        #: int add per frame, harvested post-run by
        #: :meth:`repro.phy.channel.WirelessChannel.lane_counters`.
        self.numpy_calls = 0
        self.loop_calls = 0
        if self.use_numpy:
            self._d = _np.array(self.delays, dtype=_np.float64)
            # The time column, with strided views of its arrival and
            # departure slots, so the kernel writes it already interleaved.
            self._times = _np.empty(2 * width + 1, dtype=_np.float64)
            self._starts = self._times[1::2]
            self._departs = self._times[2::2]
            self._ends = _np.empty(width, dtype=_np.float64)
            self._sums = _np.empty(width, dtype=_np.float64)

    def timestamps(
        self, now: float, duration: float
    ) -> Tuple[List[float], List[float]]:
        """All of one frame's timestamps, grouped like the scalar path.

        Returns ``(times, ends)``.  ``times`` is the frame's time column in
        scheduling order (the layout of the callback columns): the tx-end,
        then per neighbour ``i`` with propagation delay ``d_i`` its arrival
        and its departure; ``ends`` holds each neighbour's
        ``Signal.end_time``::

            times[0]       = now + duration          # tx end
            times[1 + 2i]  = now + d_i               # arrival
            times[2 + 2i]  = now + (d_i + duration)  # signal_end event
            ends[i]        = (now + d_i) + duration  # Signal.end_time

        The last two intentionally group differently (float addition is not
        associative); both lanes preserve each grouping so the 1-ULP
        event-order contract holds bit-for-bit.
        """
        if self.use_numpy:
            self.numpy_calls += 1
            d = self._d
            starts = self._starts
            self._times[0] = now + duration
            _np.add(d, now, out=starts)
            _np.add(starts, duration, out=self._ends)
            _np.add(d, duration, out=self._sums)
            _np.add(self._sums, now, out=self._departs)
            return self._times.tolist(), self._ends.tolist()
        self.loop_calls += 1
        times = [now + duration]
        ends = []
        append_time = times.append
        append_end = ends.append
        for delay in self.delays:
            t_start = now + delay
            append_time(t_start)
            append_time(now + (delay + duration))
            append_end(t_start + duration)
        return times, ends
