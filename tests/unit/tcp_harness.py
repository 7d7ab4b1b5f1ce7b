"""A lightweight harness for driving TCP senders without a network.

``FakeNode`` captures transmitted packets; tests feed ACK segments straight
into the sender and advance a real simulator clock for timer behaviour.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.net.packet import Packet
from repro.sim import Simulator
from repro.transport.segments import TcpSegment


class FakeNode:
    """Just enough of a Node for a TCP sender to live on."""

    def __init__(self, node_id: int = 0) -> None:
        self.node_id = node_id
        self.sent: List[Packet] = []
        self.port_handlers = {}

    def bind_port(self, port, handler):
        if port in self.port_handlers:
            raise ValueError(f"port {port} already bound")
        self.port_handlers[port] = handler

    def send(self, packet: Packet) -> None:
        self.sent.append(packet)


def make_sender(cls, sim: Optional[Simulator] = None, **kwargs):
    """Create a sender of class ``cls`` on a fresh FakeNode, started at 0."""
    sim = sim or Simulator(seed=1)
    node = FakeNode()
    defaults = dict(dst=9, sport=10, dport=20, window=32)
    defaults.update(kwargs)
    sender = cls(sim, node, **defaults)
    sender.start(at=0.0)
    sim.run(max_events=1)  # run the start event so the window fills
    return sim, node, sender


def ack(sender, ack_no: int, echo_mrai=None, sacks: Tuple = ()) -> None:
    """Deliver a cumulative ACK segment to ``sender``."""
    segment = TcpSegment(
        "ack",
        sport=sender.dport,
        dport=sender.sport,
        ack=ack_no,
        sack_blocks=tuple(sacks),
        echo_mrai=echo_mrai,
    )
    packet = Packet(
        src=sender.dst,
        dst=sender.node.node_id,
        protocol="tcp",
        size_bytes=segment.wire_bytes(),
        payload=segment,
    )
    sender.receive_packet(packet)


def sent_seqs(node: FakeNode) -> List[int]:
    """Sequence numbers of all data segments the node transmitted."""
    return [p.payload.seq for p in node.sent if p.payload.is_data]


def hop_clock(sim: Simulator, time: float) -> None:
    """Move the clock straight to ``time`` without running queued events.

    Test-only: it lets ACK-driven estimators see chosen inter-arrival times
    while the sender's retransmission timer stays armed and unfired.  The
    clock never moves backwards.
    """
    if time < sim.now:
        raise ValueError(f"clock hop backwards: {time} < {sim.now}")
    sim.now = time
