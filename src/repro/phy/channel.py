"""The shared wireless channel.

The channel owns the geometry: which radios hear which transmissions and
whether they can decode them.  On each transmission it fans the signal out to
every radio inside carrier-sense range, with per-link propagation delay, and
consults the :class:`~repro.phy.error_models.ErrorModel` at reception time
for random loss.

Neighbour sets are cached; topologies in the paper are static, but the cache
is invalidated automatically when radios are added or moved.

Hot path: :meth:`transmit` is called once per MAC frame (RTS/CTS/DATA/ACK),
and fans out two scheduler events per carrier-sense neighbour.  The fan-out
list per source is precomputed — bound ``signal_start``/``signal_end``
methods, propagation delay and rx power per neighbour — so the per-frame
work is one :class:`Signal` object and two scheduler insertions per
neighbour, with the frame-size lookup hoisted out of the per-signal
departure path.  Sense-only neighbours (inside carrier-sense but outside
decode range) never consult the error model, and a ``NoError`` medium skips
the departure trampoline entirely.

Execution lanes: the channel runs one of two per-frame implementations,
chosen at construction (``phy_lane``) via :func:`repro.phy.batch.resolve_lane`:

* ``scalar`` — the PR-2 reference path: two ``scheduler.schedule`` calls
  per neighbour (always available, the fallback when numpy is missing);
* ``batch`` — the vectorized lane: all fan-out timestamps computed in one
  shot through :class:`repro.phy.batch.BatchFanout` (numpy float64 for wide
  fan-outs, a plain loop below the amortization threshold) and all 2k+1
  events handed to one :meth:`EventScheduler.schedule_batch` call, which
  sorts them into a single scheduler *run*: one heap entry per frame, its
  items fired in place while each is the earliest pending event.

Both lanes are **byte-identical** in behaviour: same timestamps (same float
grouping), same sequence-number assignment order, same RNG draw sequence —
lane choice may change speed only.  ``tests/props/test_lane_equivalence.py``
and the ``bench_kernel.py --check`` lane-identity gate enforce this.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from ..sim import units
from ..sim.simulator import Simulator
from .batch import BatchFanout, resolve_lane
from .error_models import ErrorModel, NoError
from .frame_timing import PhyParams
from .position import Position
from .propagation import DiskPropagation
from .radio import Radio, Signal

#: One precomputed fan-out entry:
#: (signal_start, signal_end, receivable, prop_delay, rx_power).
FanoutEntry = Tuple[
    Callable[[Signal], None], Callable[[Signal, bool], None], bool, float, float
]


class WirelessChannel:
    """Broadcast medium connecting all registered radios."""

    def __init__(
        self,
        sim: Simulator,
        propagation: Optional[DiskPropagation] = None,
        phy: Optional[PhyParams] = None,
        error_model: Optional[ErrorModel] = None,
        phy_lane: str = "auto",
    ) -> None:
        self.sim = sim
        self.propagation = propagation or DiskPropagation()
        self.phy = phy or PhyParams()
        self.error_model = error_model or NoError()
        #: Resolved execution lane ("batch" or "scalar"); see module docs.
        self.lane = resolve_lane(phy_lane)
        self._positions: Dict[Radio, Position] = {}
        # radio -> [(peer, receivable, prop_delay, rx_power)]
        self._neighbors: Optional[
            Dict[Radio, List[Tuple[Radio, bool, float, float]]]
        ] = None
        # Derived caches, invalidated together with ``_neighbors``.
        self._fanout: Optional[Dict[Radio, List[FanoutEntry]]] = None
        self._batch_fanout: Optional[Dict[Radio, BatchFanout]] = None
        self._rx_neighbors: Optional[Dict[Radio, List[Radio]]] = None
        self._error_rng = sim.stream("phy.error")
        if self.lane == "batch":
            # Per-instance dispatch: shadowing the bound method costs zero
            # per-frame (no lane branch on the hot path).  ``transmit``
            # itself stays the scalar reference implementation.
            self.transmit = self._transmit_batch  # type: ignore[method-assign]
        # Fault vetoes (node crashes / link blackouts).  They act as
        # topology filters inside the neighbour-cache build, so the per-frame
        # transmit hot path is untouched: fault transitions are rare events
        # that pay one cache rebuild each.
        self._down_nodes: Set[int] = set()
        self._blocked_links: Set[FrozenSet[int]] = set()
        #: Total number of frame transmissions started on this channel.
        self.transmissions = 0
        # Kernel-selection counts folded out of BatchFanout objects retired
        # by a topology invalidation, so lane_counters() survives mobility
        # and fault-driven cache rebuilds.
        self._retired_numpy_frames = 0
        self._retired_loop_frames = 0

    # -- topology ---------------------------------------------------------------

    def register(self, radio: Radio, position: Position) -> None:
        """Attach ``radio`` to the channel at ``position``."""
        self._positions[radio] = position
        self._invalidate()

    def move(self, radio: Radio, position: Position) -> None:
        """Relocate ``radio`` (invalidates the neighbour cache)."""
        if radio not in self._positions:
            raise KeyError(f"radio {radio.node_id} is not on this channel")
        self._positions[radio] = position
        self._invalidate()

    def _invalidate(self) -> None:
        self._neighbors = None
        self._fanout = None
        if self._batch_fanout is not None:
            for fan in self._batch_fanout.values():
                self._retired_numpy_frames += fan.numpy_calls
                self._retired_loop_frames += fan.loop_calls
        self._batch_fanout = None
        self._rx_neighbors = None

    def lane_counters(self) -> Dict[str, object]:
        """Engine-level lane/kernel counters for telemetry manifests.

        Environment facts, not results: lane choice never changes a single
        event, so these counters live in run manifests (and campaign span
        attributes) rather than the fingerprinted metrics snapshot — the
        same run on the scalar lane would report different numbers here
        while producing byte-identical results.
        """
        numpy_frames = self._retired_numpy_frames
        loop_frames = self._retired_loop_frames
        if self._batch_fanout is not None:
            for fan in self._batch_fanout.values():
                numpy_frames += fan.numpy_calls
                loop_frames += fan.loop_calls
        return {
            "lane": self.lane,
            "transmissions": self.transmissions,
            "numpy_fanout_frames": numpy_frames,
            "loop_fanout_frames": loop_frames,
        }

    def position_of(self, radio: Radio) -> Position:
        return self._positions[radio]

    # -- fault vetoes -----------------------------------------------------------

    def set_node_down(self, node_id: int, down: bool) -> None:
        """Mark a crashed (or restarted) node; a down node neither radiates
        to nor hears any neighbour."""
        if down:
            self._down_nodes.add(node_id)
        else:
            self._down_nodes.discard(node_id)
        self._invalidate()

    def block_link(self, a: int, b: int) -> None:
        """Veto the ``a``–``b`` pair in both directions (blackout/partition)."""
        self._blocked_links.add(frozenset((a, b)))
        self._invalidate()

    def unblock_link(self, a: int, b: int) -> None:
        """Lift a link veto (healing is a no-op for an unblocked pair)."""
        self._blocked_links.discard(frozenset((a, b)))
        self._invalidate()

    def _vetoed(self, src: Radio, dst: Radio) -> bool:
        if not self._down_nodes and not self._blocked_links:
            return False
        if src.node_id in self._down_nodes or dst.node_id in self._down_nodes:
            return True
        return frozenset((src.node_id, dst.node_id)) in self._blocked_links

    def _neighbor_map(self) -> Dict[Radio, List[Tuple[Radio, bool, float, float]]]:
        if self._neighbors is None:
            table: Dict[Radio, List[Tuple[Radio, bool, float, float]]] = {}
            radios = list(self._positions)
            for src in radios:
                src_pos = self._positions[src]
                entries: List[Tuple[Radio, bool, float, float]] = []
                for dst in radios:
                    if dst is src:
                        continue
                    if self._vetoed(src, dst):
                        continue
                    dst_pos = self._positions[dst]
                    if not self.propagation.can_sense(src_pos, dst_pos):
                        continue
                    distance = src_pos.distance_to(dst_pos)
                    receivable = self.propagation.can_receive(src_pos, dst_pos)
                    delay = units.propagation_delay(distance)
                    power = self.propagation.rx_power(distance)
                    entries.append((dst, receivable, delay, power))
                table[src] = entries
            self._neighbors = table
        return self._neighbors

    def _fanout_map(self) -> Dict[Radio, List[FanoutEntry]]:
        if self._fanout is None:
            self._fanout = {
                src: [
                    (dst.signal_start, dst.signal_end, receivable, delay, power)
                    for dst, receivable, delay, power in entries
                ]
                for src, entries in self._neighbor_map().items()
            }
        return self._fanout

    def _batch_map(self) -> Dict[Radio, BatchFanout]:
        """Per-source :class:`BatchFanout` kernels (batch lane only).

        Built from the scalar fan-out in the same neighbour order, so
        sequence numbers are assigned identically across lanes.
        """
        if self._batch_fanout is None:
            self._batch_fanout = {
                src: BatchFanout(entries, src.end_transmit, self._depart)
                for src, entries in self._fanout_map().items()
            }
        return self._batch_fanout

    def neighbors_of(self, radio: Radio) -> List[Radio]:
        """Radios within decode range of ``radio`` (static disk model).

        The list is cached per radio until the topology changes; treat it as
        read-only.
        """
        if self._rx_neighbors is None:
            self._rx_neighbors = {
                src: [dst for dst, receivable, _, _ in entries if receivable]
                for src, entries in self._neighbor_map().items()
            }
        return self._rx_neighbors[radio]

    # -- transmission -------------------------------------------------------------

    def transmit(self, src: Radio, frame: object, duration: float) -> None:
        """Put ``frame`` on the air from ``src`` for ``duration`` seconds.

        The caller (MAC) has already decided the medium is usable; the channel
        faithfully models the consequences if it was wrong (collisions).
        """
        self.transmissions += 1
        src.begin_transmit(duration)
        fanout = self._fanout_map()[src]
        sched = self.sim.scheduler
        schedule = sched.schedule
        now = sched.now
        schedule(now + duration, src.end_transmit, name="phy.tx_end")
        if self.sim.trace.wants("phy.tx"):
            self.sim.emit(
                "phy", "phy.tx", src=src.node_id, duration=duration,
                neighbors=len(fanout),
            )
        nbytes = getattr(frame, "size_bytes", 0)
        no_error = type(self.error_model) is NoError
        # Timestamp arithmetic must group exactly as the historical
        # per-neighbour code did — float addition is not associative, and a
        # 1-ULP shift here reorders events and breaks golden-trace replay:
        # arrival at now + delay, departure at now + (delay + duration),
        # signal end marker at (now + delay) + duration.
        for sig_start, sig_end, receivable, delay, power in fanout:
            t_start = now + delay
            signal = Signal(frame, receivable, t_start + duration, power=power)
            schedule(t_start, sig_start, signal, name="phy.sig_start")
            if receivable and not no_error:
                schedule(
                    now + (delay + duration), self._depart, sig_end, signal,
                    nbytes, name="phy.sig_end",
                )
            else:
                # Sense-only neighbours and a perfect medium never consult
                # the error model; deliver the end-of-signal directly.
                schedule(
                    now + (delay + duration), sig_end, signal, False,
                    name="phy.sig_end",
                )

    def _transmit_batch(self, src: Radio, frame: object, duration: float) -> None:
        """Batch-lane :meth:`transmit`: same events, one scheduler run.

        Mirrors the scalar path observable-for-observable — same counters,
        same trace emit, same scheduling *order* (tx_end first, then per
        neighbour arrival/departure pairs in fan-out order) so sequence
        numbers come out identical.  The timestamps arrive precomputed from
        the fan-out kernel with the scalar float grouping and the callback
        column is static per source, so the per-frame work is one
        :class:`Signal` and two argument tuples per neighbour, then one
        :meth:`EventScheduler.schedule_batch` call: the 2k+1 items become a
        single sorted run that fires mostly without touching the heap.  None
        of these events is ever cancelled; the scalar path discards their
        handles too.
        """
        self.transmissions += 1
        src.begin_transmit(duration)
        fan = self._batch_map()[src]
        sim = self.sim
        now = sim.now
        times, ends = fan.timestamps(now, duration)
        args: list = [()]
        append = args.append
        if type(self.error_model) is NoError:
            callbacks = fan.clean_callbacks
            for (_start, _end, receivable, power), t_end in zip(fan.neighbors, ends):
                signal = Signal(frame, receivable, t_end, power)
                append((signal,))
                append((signal, False))
        else:
            callbacks = fan.lossy_callbacks
            nbytes = getattr(frame, "size_bytes", 0)
            for (_start, sig_end, receivable, power), t_end in zip(fan.neighbors, ends):
                signal = Signal(frame, receivable, t_end, power)
                append((signal,))
                # Sense-only neighbours never consult the error model; their
                # end-of-signal is delivered directly.
                append((sig_end, signal, nbytes) if receivable else (signal, False))
        if sim.trace.wants("phy.tx"):
            # The scalar path assigns tx_end's seq before the trace emit and
            # the neighbour seqs after it; two runs keep even a trace sink
            # that schedules during the emit on identical seqs.
            sim.schedule_batch(times[:1], callbacks[:1], args[:1])
            sim.emit(
                "phy", "phy.tx", src=src.node_id, duration=duration,
                neighbors=fan.width,
            )
            sim.schedule_batch(times[1:], callbacks[1:], args[1:])
        else:
            sim.schedule_batch(times, callbacks, args, fan.presort)

    def _depart(
        self,
        sig_end: Callable[[Signal, bool], None],
        signal: Signal,
        nbytes: int,
    ) -> None:
        corrupted_by_medium = False
        if not signal.corrupted:
            corrupted_by_medium = self.error_model.frame_corrupted(
                self._error_rng, nbytes, self.sim.now
            )
        sig_end(signal, corrupted_by_medium)
