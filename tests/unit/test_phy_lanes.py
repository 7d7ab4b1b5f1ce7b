"""Unit tests for PHY execution-lane selection and the fan-out kernel."""

import pytest

from repro.phy import batch as batch_mod
from repro.phy import (
    HAVE_NUMPY,
    LANES,
    NUMPY_MIN_FANOUT,
    BatchFanout,
    Position,
    Radio,
    WirelessChannel,
    resolve_lane,
)
from repro.sim.simulator import Simulator

needs_numpy = pytest.mark.skipif(
    not HAVE_NUMPY, reason="batch lane requires numpy"
)


# -- resolve_lane -----------------------------------------------------------


def test_resolve_lane_rejects_unknown_values():
    with pytest.raises(ValueError, match="unknown phy_lane"):
        resolve_lane("vectorised")


def test_resolve_lane_auto_follows_numpy_availability(monkeypatch):
    monkeypatch.delenv(batch_mod.ENV_VAR, raising=False)
    monkeypatch.setattr(batch_mod, "HAVE_NUMPY", True)
    assert resolve_lane("auto") == "batch"
    assert resolve_lane(None) == "batch"
    monkeypatch.setattr(batch_mod, "HAVE_NUMPY", False)
    assert resolve_lane("auto") == "scalar"


def test_resolve_lane_env_overrides_auto_only(monkeypatch):
    monkeypatch.setattr(batch_mod, "HAVE_NUMPY", True)
    monkeypatch.setenv(batch_mod.ENV_VAR, "scalar")
    assert resolve_lane("auto") == "scalar"
    # An explicit lane wins over the environment.
    assert resolve_lane("batch") == "batch"
    monkeypatch.setenv(batch_mod.ENV_VAR, "batch")
    assert resolve_lane("auto") == "batch"
    assert resolve_lane("scalar") == "scalar"


def test_resolve_lane_rejects_bad_env_value(monkeypatch):
    monkeypatch.setenv(batch_mod.ENV_VAR, "turbo")
    with pytest.raises(ValueError, match=batch_mod.ENV_VAR):
        resolve_lane("auto")


def test_resolve_lane_explicit_batch_requires_numpy(monkeypatch):
    monkeypatch.delenv(batch_mod.ENV_VAR, raising=False)
    monkeypatch.setattr(batch_mod, "HAVE_NUMPY", False)
    with pytest.raises(ValueError, match="requires numpy"):
        resolve_lane("batch")
    # ...including when the environment forces it on an auto config.
    monkeypatch.setenv(batch_mod.ENV_VAR, "batch")
    with pytest.raises(ValueError, match="requires numpy"):
        resolve_lane("auto")


def test_lane_tuple_is_the_cli_contract():
    assert LANES == ("auto", "batch", "scalar")


# -- BatchFanout ------------------------------------------------------------


def _never(*args):  # pragma: no cover - never invoked here
    raise AssertionError("fan-out callbacks must not fire in this test")


def _entries(delays):
    return [
        (_never, _never, i % 2 == 0, delay, 1.0 + i)
        for i, delay in enumerate(delays)
    ]


def _fan(entries):
    return BatchFanout(entries, _never, _never)


def _scalar_groupings(delays, now, duration):
    starts = [now + d for d in delays]
    ends = [(now + d) + duration for d in delays]
    departs = [now + (d + duration) for d in delays]
    return starts, ends, departs


@pytest.mark.parametrize("width", [0, 1, 3, NUMPY_MIN_FANOUT - 1])
def test_small_fanouts_use_the_plain_loop(width):
    fan = _fan(_entries([i * 7.3e-7 for i in range(width)]))
    assert fan.width == width
    assert not fan.use_numpy


def test_fanout_preserves_entry_order_and_fields():
    entries = _entries([3e-7, 1e-7, 2e-7])
    fan = _fan(entries)
    assert fan.delays == [3e-7, 1e-7, 2e-7]
    for (cb_s, cb_e, recv, _delay, power), (f_s, f_e, f_recv, f_power) in zip(
        entries, fan.neighbors
    ):
        assert (cb_s, cb_e, recv, power) == (f_s, f_e, f_recv, f_power)


@pytest.mark.parametrize("width", [1, 5, NUMPY_MIN_FANOUT, NUMPY_MIN_FANOUT + 9])
def test_timestamps_match_the_scalar_groupings_bitwise(width):
    # Awkward decimals on purpose: the scalar groupings differ by real ULPs
    # here, so an associativity slip in either path fails loudly.
    delays = [1e-7 + i * 3.1e-9 for i in range(width)]
    fan = _fan(_entries(delays))
    now, duration = 12.3456789, 0.00123456
    times, ends = fan.timestamps(now, duration)
    exp_starts, exp_ends, exp_departs = _scalar_groupings(delays, now, duration)
    assert len(times) == 2 * width + 1
    assert times[0].hex() == (now + duration).hex()
    assert [t.hex() for t in times[1::2]] == [t.hex() for t in exp_starts]
    assert [t.hex() for t in ends] == [t.hex() for t in exp_ends]
    assert [t.hex() for t in times[2::2]] == [t.hex() for t in exp_departs]
    assert all(isinstance(t, float) for t in times + ends)


def test_callback_columns_and_presort_follow_the_scheduling_order():
    """The static callback columns list tx_end then start/end per neighbour
    (lossy ends of decodable neighbours via the departure trampoline), and
    the presort hint lists the same items latest-first by delay."""

    def tx_end():  # pragma: no cover - never invoked here
        pass

    def depart():  # pragma: no cover - never invoked here
        pass

    starts = [object() for _ in range(3)]
    ends = [object() for _ in range(3)]
    delays = [3e-7, 1e-7, 2e-7]
    entries = [
        (starts[i], ends[i], i != 2, delays[i], 1.0) for i in range(3)
    ]
    fan = BatchFanout(entries, tx_end, depart)
    assert fan.clean_callbacks == [
        tx_end, starts[0], ends[0], starts[1], ends[1], starts[2], ends[2]
    ]
    assert fan.lossy_callbacks == [
        tx_end, starts[0], depart, starts[1], depart, starts[2], ends[2]
    ]
    # column positions: 0 tx_end, 1+2i start_i, 2+2i end_i; delay order 1, 2, 0
    assert fan.presort(list(range(7))) == (2, 6, 4, 0, 1, 5, 3)
    assert _fan([]).presort is None


@needs_numpy
def test_wide_fanouts_take_the_numpy_path():
    fan = _fan(_entries([i * 1e-8 for i in range(NUMPY_MIN_FANOUT)]))
    assert fan.use_numpy
    # Reusing the preallocated output arrays must not leak between frames.
    first = fan.timestamps(1.0, 0.5)
    second = fan.timestamps(2.0, 0.25)
    assert first[0] != second[0]
    assert second[0][1] == 2.0 + fan.delays[0]


# -- channel dispatch -------------------------------------------------------


def _channel(lane):
    sim = Simulator(seed=1)
    channel = WirelessChannel(sim, phy_lane=lane)
    for i in range(3):
        channel.register(Radio(sim, i), Position(i * 200.0, 0.0))
    return channel


@needs_numpy
def test_batch_channel_dispatches_to_the_batch_transmit():
    channel = _channel("batch")
    assert channel.lane == "batch"
    assert channel.transmit.__func__ is WirelessChannel._transmit_batch


def test_scalar_channel_keeps_the_reference_transmit():
    channel = _channel("scalar")
    assert channel.lane == "scalar"
    assert "transmit" not in vars(channel)  # class method, not shadowed


@needs_numpy
def test_batch_fanout_cache_invalidates_with_topology():
    channel = _channel("batch")
    radios = list(channel._positions)
    channel._batch_map()
    assert channel._batch_fanout is not None
    channel.move(radios[0], Position(50.0, 0.0))
    assert channel._batch_fanout is None


@pytest.mark.parametrize("lane", [
    "scalar", pytest.param("batch", marks=needs_numpy),
])
def test_traced_transmit_gives_a_sink_scheduled_event_the_scalar_seq(lane):
    """A ``phy.tx`` trace sink that schedules during the emit gets a seq
    after tx_end's and before the neighbours', on both lanes: an event it
    schedules at the tx-end instant fires right after tx_end."""
    channel = _channel(lane)
    sim = channel.sim
    src = next(iter(channel._positions))
    order = []

    class SourceListener:
        def phy_channel_busy(self):
            pass

        def phy_channel_idle(self):  # reported by tx_end
            order.append(("tx_end", sim.now))

    class Frame:
        size_bytes = 100

    duration = 1e-3
    src.listener = SourceListener()
    sim.trace.subscribe(
        "phy.tx",
        lambda record: sim.schedule(sim.now + duration, order.append, ("sink", duration)),
    )
    channel.transmit(src, Frame(), duration)
    sim.run()
    assert order == [("tx_end", duration), ("sink", duration)]
