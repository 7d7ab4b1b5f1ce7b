"""Microbenchmarks of the simulation substrate itself.

Not a paper figure — these track the cost of the hot paths so substrate
regressions are visible next to the figure campaigns.  The metrics:

* ``scheduler_events_per_sec`` — schedule-and-run cost of plain timer events;
* ``scheduler_churn_ops_per_sec`` — the MAC backoff pattern
  (schedule -> cancel -> reschedule), which exercises lazy deletion and the
  event freelist;
* ``channel_fanout_tx_per_sec`` — per-transmission fan-out cost on an 8-radio
  chain (Signal construction + 2 events per carrier-sense neighbour);
* ``phy_fanout_scalar_tx_per_sec`` / ``phy_fanout_batch_tx_per_sec`` —
  transmit-side fan-out cost proper (event execution excluded) on a dense
  24-radio cluster with an active error model, measured once per execution
  lane; their ratio is the vectorization speedup the ``--check`` lane gate
  enforces (batch >= --lane-ratio x scalar);
* ``full_chain_packets_per_sec`` — end-to-end packets/sec of the standard
  4-hop, 10 s Muzha run;
* ``mac_medium_edges_per_sec`` — carrier busy/idle edges into a contending
  ``DcfMac`` (countdown pause and restart per edge pair);
* ``fanout_run_items_per_sec`` — firing one width-20 frame's 41 scheduler
  items (one run on the batch lane), neighbour callbacks included.

The last two are report-only: they have no committed baseline entry, so
``--check`` gates nothing on them.

Two entry points:

* ``python benchmarks/bench_kernel.py`` — runs the suite, prints a table,
  writes ``results/BENCH_kernel.json`` (current numbers next to the committed
  before/after baseline), and with ``--check`` exits non-zero on a >30%
  events/sec regression against the committed post-overhaul baseline, a
  batch lane slower than ``--lane-ratio`` x scalar, or a lane-identity
  violation (the two lanes must produce byte-identical run digests);
* ``pytest benchmarks/bench_kernel.py`` — the same measurements as
  pytest-benchmark cases, marked ``perf`` and excluded from the tier-1 run.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Callable, Dict

import pytest

BASELINE_PATH = Path(__file__).resolve().parent / "baselines" / "bench_kernel_baseline.json"
DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "results" / "BENCH_kernel.json"

pytestmark = pytest.mark.perf


# -- measurement cores (shared by pytest and the standalone runner) ----------


def run_scheduler_throughput(n: int = 50_000) -> int:
    """Schedule-and-run ``n`` timer events; returns the fired count."""
    from repro.sim import EventScheduler

    sched = EventScheduler()
    counter = [0]

    def tick():
        counter[0] += 1

    for i in range(n):
        sched.schedule(i * 1e-5, tick)
    sched.run()
    return counter[0]


def run_scheduler_churn(n: int = 20_000) -> int:
    """The MAC backoff pattern: schedule -> cancel -> reschedule, n times.

    Returns the number of scheduler operations performed (3 per round).
    """
    from repro.sim import EventScheduler

    sched = EventScheduler()
    fired = [0]

    def tick():
        fired[0] += 1

    t = 0.0
    for _ in range(n):
        doomed = sched.schedule(t + 1.0, tick)
        sched.cancel(doomed)
        sched.schedule(t + 1e-5, tick)
        sched.run(max_events=1)
        t = sched.now
    assert fired[0] == n
    return 3 * n


def run_channel_fanout(n_tx: int = 2_000) -> int:
    """Fan ``n_tx`` frames out from the middle of an 8-radio chain."""
    from repro.phy import Position, WirelessChannel
    from repro.phy.radio import Radio
    from repro.sim import Simulator

    sim = Simulator(seed=1)
    channel = WirelessChannel(sim)
    radios = [Radio(sim, i) for i in range(8)]
    for i, radio in enumerate(radios):
        channel.register(radio, Position(200.0 * i, 0.0))

    class Frame:
        size_bytes = 1000

    frame = Frame()
    for _ in range(n_tx):
        channel.transmit(radios[3], frame, 1e-4)
        sim.run(until=sim.now + 1e-3)
    return n_tx


def _dense_cluster(lane: str):
    """48 radios at 10 m spacing on one execution lane, fan-out caches warm.

    Every radio sits inside every other's carrier-sense range (fan-out
    width 47, well past the batch lane's numpy threshold — comparable to
    the dense cross-topology centre) with a live ``UniformBitError``
    medium, so the departure trampoline is armed exactly as in lossy
    experiment runs.  Returns ``(sim, transmit_one)``.
    """
    from repro.phy import Position, UniformBitError, WirelessChannel
    from repro.phy.radio import Radio
    from repro.sim import Simulator

    sim = Simulator(seed=1)
    channel = WirelessChannel(
        sim, error_model=UniformBitError(1e-5), phy_lane=lane
    )
    radios = [Radio(sim, i) for i in range(48)]
    for i, radio in enumerate(radios):
        channel.register(radio, Position(10.0 * i, 0.0))

    class Frame:
        size_bytes = 1460

    frame = Frame()
    src = radios[24]
    transmit = channel.transmit

    def transmit_one():
        transmit(src, frame, 1e-4)

    # Warm the fan-out caches outside the timed sections.
    transmit_one()
    sim.run(until=sim.now + 1e-3)
    return sim, transmit_one


def run_phy_fanout_lanes(lanes=("scalar", "batch"), n_tx: int = 1_500,
                         chunk: int = 50) -> Dict[str, tuple]:
    """Transmit-side fan-out cost on a dense cluster, per execution lane.

    Only the ``transmit()`` calls are timed — the ~2/3 of wall time spent
    *executing* the fanned-out events would dilute the lane comparison to
    uselessness.

    Noise control: the lane *ratio* gates CI, and both lanes do fixed
    identical-shape work per transmit, so the honest clean-machine estimate
    is each lane's **fastest chunk** of ``chunk`` transmits rather than the
    run mean.  The lanes' timed chunks are interleaved in one loop (the
    lane that goes first alternates per round), so both lanes sample the
    same machine states; timing one lane after the other let a slow spell
    on a shared 2-vCPU runner land in one lane only and drop the ratio
    below the gate on unchanged code.  Returns ``{lane: (chunk,
    best_chunk_seconds)}``.
    """
    perf_counter = time.perf_counter
    clusters = {lane: _dense_cluster(lane) for lane in lanes}
    best = dict.fromkeys(lanes, float("inf"))
    order = list(lanes)
    done = 0
    while done < n_tx:
        for lane in order:
            sim, transmit_one = clusters[lane]
            total = 0.0
            for _ in range(chunk):
                t0 = perf_counter()
                transmit_one()
                total += perf_counter() - t0
                sim.run(until=sim.now + 1e-3)  # drain, untimed
            best[lane] = min(best[lane], total)
        order.reverse()
        done += chunk
    return {lane: (chunk, best[lane]) for lane in lanes}


def run_mac_medium_edges(n: int = 20_000):
    """Busy/idle carrier edge pairs into a ``DcfMac`` contending for the air.

    The MAC holds a packet in CONTEND with its backoff countdown armed, so
    every busy edge pauses the countdown (cancelling the access event) and
    every idle edge restarts it (scheduling a new one) — the per-frame
    medium-state work each neighbour's MAC does.  The simulator never runs:
    the cancelled access events stay queued and are dropped with the
    simulator.  Returns ``(edges, seconds)``.
    """
    from repro.mac import DcfMac, DcfState, QueuedPacket
    from repro.net.queues import DropTailQueue
    from repro.phy import Position, WirelessChannel
    from repro.phy.radio import Radio
    from repro.sim import Simulator

    sim = Simulator(seed=1)
    channel = WirelessChannel(sim)
    radio = Radio(sim, 0)
    channel.register(radio, Position(0.0, 0.0))
    mac = DcfMac(sim, channel, radio, 0)
    queue = DropTailQueue(4)
    mac.queue = queue
    queue.on_wakeup = mac.wakeup
    queue.enqueue(QueuedPacket(object(), next_hop=1, size_bytes=1000))
    assert mac.state is DcfState.CONTEND
    busy = mac.phy_channel_busy
    idle = mac.phy_channel_idle
    t0 = time.perf_counter()
    for _ in range(n):
        busy()
        idle()
    dt = time.perf_counter() - t0
    assert mac.state is DcfState.CONTEND
    return 2 * n, dt


def run_fanout_run_firing(n_frames: int = 2_000):
    """Execute one width-20 frame's 2k+1 = 41 scheduler items, n times.

    A source with 20 carrier-sense neighbours on the batch lane: each frame
    becomes one scheduler run, and only ``run()`` — firing its 41 items in
    place, neighbour radios' signal callbacks included — is timed.  Falls
    back to the scalar lane (41 heap entries) without numpy.  Returns
    ``(items, seconds)``.
    """
    from repro.phy import HAVE_NUMPY, Position, WirelessChannel
    from repro.phy.radio import Radio
    from repro.sim import Simulator

    sim = Simulator(seed=1)
    channel = WirelessChannel(sim, phy_lane="batch" if HAVE_NUMPY else "scalar")
    radios = [Radio(sim, i) for i in range(21)]
    for i, radio in enumerate(radios):
        channel.register(radio, Position(10.0 * i, 0.0))

    class Frame:
        size_bytes = 1000

    frame = Frame()
    src = radios[10]
    transmit = channel.transmit
    run = sim.run
    perf_counter = time.perf_counter
    items = 2 * (len(radios) - 1) + 1
    total = 0.0
    for _ in range(n_frames):
        transmit(src, frame, 1e-4)
        assert sim.pending_events == items
        t0 = perf_counter()
        run(until=sim.now + 1e-3)
        total += perf_counter() - t0
    return items * n_frames, total


def lane_identity_digests() -> Dict[str, str]:
    """Result digest of a short lossy full-stack run, per execution lane.

    The byte-identity contract reduced to one number per lane: equal
    digests mean equal event orders, RNG draw sequences and result bytes.
    """
    from repro.experiments import ScenarioConfig, run_chain
    from repro.experiments.config import stable_digest

    digests = {}
    for lane in ("scalar", "batch"):
        config = ScenarioConfig(
            sim_time=2.0, seed=7, window=4, packet_error_rate=0.05,
            phy_lane=lane,
        )
        result = run_chain(3, ["muzha"], config=config)
        digests[lane] = stable_digest(result.to_dict())
    return digests


def run_full_chain() -> int:
    """The standard 4-hop, 10 s Muzha experiment; returns delivered packets."""
    from repro.experiments import ScenarioConfig, run_chain

    result = run_chain(4, ["muzha"], config=ScenarioConfig(sim_time=10.0, seed=1))
    return result.flows[0].delivered_packets


def run_calibration(n: int = 200_000) -> int:
    """Machine-speed reference: pure-stdlib heap churn, independent of repro.

    The observability-overhead gate runs on whatever container CI lands on,
    and container throughput drifts >10% minute-to-minute under neighbour
    load.  This workload (heap push/pop + tuple allocation, the same shape
    as the scheduler hot path) tracks that drift, so ``--check-obs`` can
    compare metric/calibration *ratios* instead of absolute rates.
    """
    import heapq

    heap: list = []
    push = heapq.heappush
    pop = heapq.heappop
    acc = 0
    for i in range(n):
        push(heap, ((i * 2654435761) % 1000003, i))
        if i & 1:
            acc += pop(heap)[1]
    while heap:
        acc += pop(heap)[1]
    assert acc > 0
    return n


def _rate(work: Callable[[], int], reps: int) -> float:
    """Best observed ops/sec over ``reps`` repetitions."""
    best = 0.0
    for _ in range(reps):
        t0 = time.perf_counter()
        ops = work()
        dt = time.perf_counter() - t0
        best = max(best, ops / dt)
    return best


def _rate_self_timed(work: Callable[[], tuple], reps: int) -> float:
    """Best ops/sec for workloads that time their own hot section.

    ``work`` returns ``(ops, seconds)`` with ``seconds`` covering only the
    code under measurement (the lane benches exclude event execution).
    """
    best = 0.0
    for _ in range(reps):
        ops, dt = work()
        best = max(best, ops / dt)
    return best


def measure_all(fast: bool = False) -> Dict[str, float]:
    """Run the whole suite; returns metric-name -> ops/sec.

    Imports are pulled in and the GC permanent generation frozen before any
    timing starts: the allocation-heavy microbenches otherwise charge every
    collection pass for the size of the imported package, so growing the
    codebase would read as a (phantom) kernel regression.
    """
    import gc

    import repro.experiments  # noqa: F401 — warm the full import graph

    from repro.phy import HAVE_NUMPY

    reps = 2 if fast else 5
    lane_reps = 2 if fast else 3
    gc.freeze()
    try:
        metrics = {
            "calibration_ops_per_sec": _rate(run_calibration, reps),
            "scheduler_events_per_sec": _rate(run_scheduler_throughput, reps),
            "scheduler_churn_ops_per_sec": _rate(run_scheduler_churn, reps),
            "channel_fanout_tx_per_sec": _rate(run_channel_fanout, max(2, reps - 2)),
            "full_chain_packets_per_sec": _rate(run_full_chain, 1 if fast else 2),
        }
        metrics["mac_medium_edges_per_sec"] = _rate_self_timed(
            run_mac_medium_edges, reps)
        metrics["fanout_run_items_per_sec"] = _rate_self_timed(
            run_fanout_run_firing, reps)
        # The two lane benches are measured in one interleaved loop: their
        # *ratio* is a CI gate (see run_phy_fanout_lanes).
        lanes = ("scalar", "batch") if HAVE_NUMPY else ("scalar",)
        for _ in range(lane_reps):
            for lane, (ops, dt) in run_phy_fanout_lanes(lanes).items():
                name = f"phy_fanout_{lane}_tx_per_sec"
                metrics[name] = max(metrics.get(name, 0.0), ops / dt)
        return metrics
    finally:
        gc.unfreeze()


# -- pytest-benchmark cases --------------------------------------------------


def test_scheduler_event_throughput(benchmark):
    """Schedule-and-run cost of 50k timer events."""
    assert benchmark(run_scheduler_throughput) == 50_000


def test_scheduler_churn(benchmark):
    """Lazy-deletion + freelist cost of the MAC backoff pattern."""
    assert benchmark.pedantic(run_scheduler_churn, rounds=3, iterations=1) == 60_000


def test_channel_fanout(benchmark):
    """Per-transmission fan-out cost on an 8-radio chain."""
    assert benchmark.pedantic(run_channel_fanout, rounds=3, iterations=1) == 2_000


def test_mac_exchange_rate(benchmark):
    """Saturated one-hop 802.11 exchange rate (RTS/CTS/DATA/ACK each)."""
    from repro.routing import install_static_routing
    from repro.topology import build_chain
    from repro.traffic import start_ftp

    def campaign():
        net = build_chain(1, seed=1)
        install_static_routing(net.nodes, net.channel)
        flow = start_ftp(net.sim, net.nodes[0], net.nodes[1], variant="newreno", window=8)
        net.sim.run(until=5.0)
        return flow.sink.delivered_packets

    delivered = benchmark.pedantic(campaign, rounds=1, iterations=1)
    assert delivered > 200  # ~ >40 packets/s over one hop


def test_phy_fanout_scalar_lane(benchmark):
    """Transmit-side fan-out cost, scalar reference lane."""
    ops, _ = benchmark.pedantic(
        lambda: run_phy_fanout_lanes(("scalar",), n_tx=500)["scalar"],
        rounds=2, iterations=1,
    )
    assert ops == 50  # the rate is measured over the fastest 50-transmit chunk


def test_phy_fanout_batch_lane(benchmark):
    """Transmit-side fan-out cost, vectorized batch lane."""
    from repro.phy import HAVE_NUMPY

    if not HAVE_NUMPY:
        pytest.skip("batch lane requires numpy")
    ops, _ = benchmark.pedantic(
        lambda: run_phy_fanout_lanes(("batch",), n_tx=500)["batch"],
        rounds=2, iterations=1,
    )
    assert ops == 50  # the rate is measured over the fastest 50-transmit chunk


def test_mac_medium_edges(benchmark):
    """Carrier busy/idle edge pairs into a contending DcfMac."""
    edges, _ = benchmark.pedantic(run_mac_medium_edges, rounds=3, iterations=1)
    assert edges == 40_000


def test_fanout_run_firing(benchmark):
    """Firing width-20 frames' 41 scheduler items."""
    items, _ = benchmark.pedantic(run_fanout_run_firing, rounds=3, iterations=1)
    assert items == 41 * 2_000


def test_full_stack_chain_run(benchmark):
    """End-to-end cost of a standard 4-hop, 10 s Muzha experiment."""
    delivered = benchmark.pedantic(run_full_chain, rounds=1, iterations=1)
    assert delivered > 100


# -- standalone runner -------------------------------------------------------


def load_baseline() -> dict:
    with open(BASELINE_PATH) as handle:
        return json.load(handle)


def build_report(current: Dict[str, float], baseline: dict) -> dict:
    """Current numbers alongside the committed before/after baseline."""
    committed_metrics = baseline.get("metrics", {})

    # Machine-speed factor: how fast this box is running *right now* relative
    # to the box/moment the pre_obs column was captured on.  Dividing the
    # pre_obs ratios by it cancels container drift, which routinely exceeds
    # the 5% observability-overhead tolerance.
    speed_factor = None
    cal_committed = committed_metrics.get("calibration_ops_per_sec", {}).get("pre_obs")
    cal_current = current.get("calibration_ops_per_sec")
    if cal_committed and cal_current:
        speed_factor = cal_current / cal_committed

    metrics = {}
    for name, rate in current.items():
        entry = {"current": round(rate, 1)}
        committed = committed_metrics.get(name, {})
        if "pre" in committed and "post" in committed:
            entry["baseline_pre"] = committed["pre"]
            entry["baseline_post"] = committed["post"]
            entry["speedup_vs_pre"] = round(rate / committed["pre"], 2)
            entry["ratio_vs_post"] = round(rate / committed["post"], 2)
            if speed_factor:
                entry["ratio_vs_post_normalized"] = round(
                    rate / committed["post"] / speed_factor, 3)
        pre_obs = committed.get("pre_obs")
        if pre_obs:
            entry["baseline_pre_obs"] = pre_obs
            entry["ratio_vs_pre_obs"] = round(rate / pre_obs, 3)
            if speed_factor and name != "calibration_ops_per_sec":
                entry["ratio_vs_pre_obs_normalized"] = round(
                    rate / pre_obs / speed_factor, 3)
        metrics[name] = entry
    report = {
        "suite": "bench_kernel",
        "baseline_machine": baseline.get("machine", "unknown"),
        "metrics": metrics,
    }
    if speed_factor is not None:
        report["machine_speed_factor"] = round(speed_factor, 3)
    return report


def check_regression(report: dict, tolerance: float, against: str = "post") -> list:
    """Metric names whose events/sec dropped >``tolerance`` vs the committed
    ``post`` (cross-machine, generous tolerance) or ``pre_obs``
    (observability-overhead gate) baseline column.

    The pre_obs comparison uses the calibration-normalized ratio when one is
    available, so the tight 5% gate measures code overhead rather than how
    loaded the container happens to be.
    """
    failures = []
    for name, entry in report["metrics"].items():
        if name == "calibration_ops_per_sec":
            continue
        ratio = entry.get(f"ratio_vs_{against}_normalized",
                          entry.get(f"ratio_vs_{against}"))
        if ratio is not None and ratio < 1.0 - tolerance:
            failures.append(name)
    return failures


def check_lanes(report: dict, lane_ratio: float) -> list:
    """The vectorization gates: lane speedup and lane byte-identity.

    Returns a list of human-readable failure strings (empty = pass).  Both
    gates are skipped when numpy is absent — there is only one lane then.
    """
    from repro.phy import HAVE_NUMPY

    if not HAVE_NUMPY:
        return []
    failures = []
    metrics = report["metrics"]
    scalar = metrics.get("phy_fanout_scalar_tx_per_sec", {}).get("current")
    batch = metrics.get("phy_fanout_batch_tx_per_sec", {}).get("current")
    if scalar and batch:
        ratio = batch / scalar
        report["lane_speedup"] = round(ratio, 2)
        if ratio < lane_ratio:
            failures.append(
                f"batch lane only {ratio:.2f}x scalar on the fan-out bench "
                f"(gate: >= {lane_ratio:.2f}x)"
            )
    digests = lane_identity_digests()
    report["lane_identity"] = digests
    if digests["scalar"] != digests["batch"]:
        failures.append(
            "LANE IDENTITY VIOLATION: scalar and batch lanes produced "
            f"different run digests ({digests['scalar'][:12]}… vs "
            f"{digests['batch'][:12]}…)"
        )
    return failures


#: Metric -> (measurement fn, repetitions) for targeted re-measurement.
_BENCH_FNS = {
    "scheduler_events_per_sec": (run_scheduler_throughput, 5),
    "scheduler_churn_ops_per_sec": (run_scheduler_churn, 5),
    "channel_fanout_tx_per_sec": (run_channel_fanout, 3),
    "full_chain_packets_per_sec": (run_full_chain, 2),
}


def check_obs_with_retry(report: dict, baseline: dict, tolerance: float,
                         retries: int = 3) -> list:
    """The observability-overhead gate with noise-rejecting retries.

    Container throughput jumps several percent between back-to-back runs even
    after calibration normalization, so a failing metric is re-measured (with
    a fresh calibration anchor) up to ``retries`` times and passes if any
    attempt clears the tolerance.  Genuine overhead fails every attempt;
    scheduler noise does not.
    """
    import gc

    failures = check_regression(report, tolerance, against="pre_obs")
    committed = baseline.get("metrics", {})
    pre_obs_cal = committed.get("calibration_ops_per_sec", {}).get("pre_obs")
    for _ in range(retries):
        if not failures:
            break
        gc.freeze()
        try:
            speed = 1.0
            if pre_obs_cal:
                speed = _rate(run_calibration, 5) / pre_obs_cal
            still = []
            for name in failures:
                fn, reps = _BENCH_FNS[name]
                pre_obs = committed.get(name, {}).get("pre_obs")
                if not pre_obs:
                    continue
                ratio = _rate(fn, reps) / pre_obs / speed
                entry = report["metrics"][name]
                entry.setdefault("obs_retry_ratios", []).append(round(ratio, 3))
                if ratio < 1.0 - tolerance:
                    still.append(name)
            failures = still
        finally:
            gc.unfreeze()
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="kernel microbenchmark suite")
    parser.add_argument("--json", default=str(DEFAULT_OUTPUT), metavar="PATH",
                        help="where to write BENCH_kernel.json")
    parser.add_argument("--fast", action="store_true",
                        help="fewer repetitions (CI smoke)")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 on events/sec regression vs the baseline")
    parser.add_argument("--check-obs", action="store_true",
                        help="exit 1 if an untraced run is more than "
                             "--obs-tolerance below the committed pre-"
                             "observability (same-machine) baseline — the "
                             "<5%% observability-overhead gate")
    parser.add_argument("--tolerance", type=float, default=0.30,
                        help="allowed fractional regression with --check")
    parser.add_argument("--lane-ratio", type=float, default=1.5,
                        help="minimum batch/scalar fan-out speedup required "
                             "by --check (numpy installs only)")
    parser.add_argument("--obs-tolerance", type=float, default=0.05,
                        help="allowed fractional regression with --check-obs")
    args = parser.parse_args(argv)

    baseline = load_baseline()
    current = measure_all(fast=args.fast)
    report = build_report(current, baseline)

    width = max(len(name) for name in report["metrics"])
    for name, entry in report["metrics"].items():
        line = f"{name:<{width}}  {entry['current']:>12,.0f}/s"
        if "speedup_vs_pre" in entry:
            line += (f"  ({entry['speedup_vs_pre']:.2f}x vs pre-overhaul, "
                     f"{entry['ratio_vs_post']:.2f}x vs committed)")
        print(line)

    out = Path(args.json)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"\nreport written to {out}")

    if args.check:
        failures = check_regression(report, args.tolerance)
        if failures:
            print(f"PERF REGRESSION (> {args.tolerance:.0%} below committed "
                  f"baseline): {', '.join(failures)}", file=sys.stderr)
            return 1
        print(f"perf check ok (all metrics within {args.tolerance:.0%} "
              "of the committed baseline)")
        lane_failures = check_lanes(report, args.lane_ratio)
        with open(out, "w") as handle:  # include lane speedup + digests
            json.dump(report, handle, indent=2)
            handle.write("\n")
        if lane_failures:
            for failure in lane_failures:
                print(f"LANE CHECK FAILED: {failure}", file=sys.stderr)
            return 1
        if "lane_speedup" in report:
            print(f"lane check ok (batch {report['lane_speedup']:.2f}x "
                  f"scalar, identical run digests)")
        else:
            print("lane check skipped (numpy not installed; scalar lane only)")
    if args.check_obs:
        failures = check_obs_with_retry(report, baseline, args.obs_tolerance)
        with open(out, "w") as handle:  # include any retry ratios
            json.dump(report, handle, indent=2)
            handle.write("\n")
        if failures:
            print(f"OBSERVABILITY OVERHEAD (> {args.obs_tolerance:.0%} below "
                  f"the pre-observability baseline, calibration-normalized, "
                  f"after retries): {', '.join(failures)}",
                  file=sys.stderr)
            return 1
        print(f"observability-overhead check ok (all metrics within "
              f"{args.obs_tolerance:.0%} of the pre-observability baseline, "
              f"calibration-normalized)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
