"""Integration tests for route failure and recovery (AODV + MAC feedback).

A diamond topology gives AODV an alternative path, so when one relay dies
mid-transfer the MAC's retry exhaustion must propagate up, invalidate the
route, and discovery must switch the flow to the surviving branch.
"""

import pytest

from repro.phy import Position
from repro.routing import install_aodv_routing
from repro.topology import make_network
from repro.traffic import start_ftp


def build_diamond(seed=1):
    """0 -(1|2)- 3: two parallel two-hop branches between the endpoints."""
    net = make_network(seed=seed)
    net.add_node(Position(0.0, 0.0))      # 0: source
    net.add_node(Position(240.0, 60.0))   # 1: upper relay
    net.add_node(Position(240.0, -60.0))  # 2: lower relay
    net.add_node(Position(480.0, 0.0))    # 3: destination
    return net


def test_diamond_connectivity():
    net = build_diamond()
    neighbors = {
        n.node_id: {p.node_id for p in net.channel.neighbors_of(n.radio)}
        for n in net.nodes
    }
    assert neighbors[0] == {1, 2}
    assert neighbors[3] == {1, 2}
    assert 3 not in neighbors[0]


def test_aodv_reroutes_around_dead_relay():
    net = build_diamond(seed=2)
    protocols = install_aodv_routing(net.nodes, net.sim)
    flow = start_ftp(net.sim, net.nodes[0], net.nodes[3], variant="newreno", window=4)

    # Let the flow establish, then yank whichever relay it uses out of range.
    net.sim.run(until=3.0)
    delivered_before = flow.sink.delivered_packets
    assert delivered_before > 10
    first_hop = protocols[0].next_hop(3)
    assert first_hop in (1, 2)
    net.channel.move(net.node(first_hop).radio, Position(10_000.0, 10_000.0))

    net.sim.run(until=15.0)
    delivered_after = flow.sink.delivered_packets
    assert delivered_after > delivered_before + 20, "flow never recovered"
    # the route now uses the surviving relay
    assert protocols[0].next_hop(3) not in (None, first_hop)
    assert protocols[0].counters.link_failures >= 1


def test_chain_break_with_no_alternative_stalls_then_fails_discovery():
    from repro.topology import build_chain

    net = build_chain(2, seed=3)
    protocols = install_aodv_routing(net.nodes, net.sim)
    flow = start_ftp(net.sim, net.nodes[0], net.nodes[2], variant="newreno", window=4)
    net.sim.run(until=2.0)
    assert flow.sink.delivered_packets > 0
    # remove the only relay: the destination becomes unreachable
    net.channel.move(net.nodes[1].radio, Position(10_000.0))
    net.sim.run(until=20.0)
    assert protocols[0].aodv.discovery_failures >= 1
    assert protocols[0].next_hop(2) is None


def test_next_hop_crash_mid_flight_emits_rerr_and_reroutes():
    """The active relay powers off (fault-injection ``crash()``) with frames
    in flight toward it.  The sender's MAC must run out of retries, AODV
    must confirm the loss, invalidate routes via the dead hop, and broadcast
    a RERR — and the dead node must never fire a stale timer or handle a
    stale event (any of those would raise and fail the run)."""
    net = build_diamond(seed=4)
    protocols = install_aodv_routing(net.nodes, net.sim)
    flow = start_ftp(net.sim, net.nodes[0], net.nodes[3], variant="newreno", window=4)

    net.sim.run(until=3.0)
    delivered_before = flow.sink.delivered_packets
    assert delivered_before > 10
    first_hop = protocols[0].next_hop(3)
    assert first_hop in (1, 2)
    victim = net.node(first_hop)
    victim.crash()  # mid-simulation, frames to it still in the air

    net.sim.run(until=15.0)
    # AODV saw the break and told the neighbours.  (Which endpoint detects
    # it depends on who had frames in flight — often the ACK-sending sink,
    # whose RERR-triggered rediscovery then refreshes the sender's route.)
    assert sum(p.counters.link_failures for p in protocols.values()) >= 1
    assert sum(p.aodv.rerr_tx for p in protocols.values()) >= 1
    # the dead relay held pending state at crash time and wiped it
    assert protocols[first_hop]._pending == {}
    assert len(protocols[first_hop].table) == 0
    # the flow rerouted over the surviving branch and kept delivering
    assert protocols[0].next_hop(3) not in (None, first_hop)
    assert flow.sink.delivered_packets > delivered_before + 20
    # nothing was transmitted by (or delivered to) the corpse after death
    assert victim.down and victim.counters.crashes == 1


@pytest.mark.xfail(
    strict=True,
    reason="known defect: Radio.shutdown drops in-progress signals without an "
    "idle edge, so a node that crashes mid-reception keeps its medium "
    "utilisation meter busy for the whole outage (the fix changes the "
    "committed benchmark digest, so it is deferred)",
)
def test_crash_mid_reception_does_not_count_the_outage_as_busy_medium():
    """A powered-off node hears nothing, so its DRAI utilisation meter must
    not accrue busy time while it is down — after a restart DRAI would
    read the outage as medium utilisation."""
    from repro.routing import install_static_routing
    from repro.topology import build_chain

    net = build_chain(3, seed=42)
    install_static_routing(net.nodes, net.channel)
    start_ftp(net.sim, net.nodes[0], net.nodes[3], variant="newreno", window=4)
    net.sim.run(until=0.5)
    victim = net.node(1)
    while not victim.radio.carrier_busy or victim.radio.transmitting:
        assert net.sim.step()  # advance to a moment it is receiving
    crashed_at = net.sim.now
    meter = victim.mac.meter
    busy_at_crash = meter.total_busy_time(crashed_at)
    victim.crash()
    net.sim.run(until=crashed_at + 1.0)
    outage_busy = meter.total_busy_time(net.sim.now) - busy_at_crash
    victim.restart()
    assert outage_busy == pytest.approx(0.0, abs=1e-9)
