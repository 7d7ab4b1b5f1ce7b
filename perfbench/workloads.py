"""The four benchmark workloads, each a closed loop driven by one client.

Every workload exposes the same lifecycle, which ``run.py`` drives:

``setup()``
    Untimed by the pass clock, timed as set-up: build what one pass needs
    (scenario networks, campaign grid, cache and journal, TCP worker
    agents).  Called before every pass.
``run(instrument=None)``
    One pass of the workload's job, the region ``wall_s`` times.  Returns a
    :class:`Pass` (units completed, TCP data packets delivered, output).
``check(output)``
    Raises :class:`CheckError` when the pass produced the wrong result:
    output differing from ``expected`` (the committed golden, else the
    first checked pass's), or failing a check that needs no golden.
``ledger(output, nets)``
    Per-layer counters of one pass (traced mode only).
``teardown()``
    Release what ``setup`` made (agents, cache and journal files).

The program under test only ever receives configs and specs generated here
from ``--seed``.  Output is compared with committed goldens on the default
seed, and with checks that need no golden on every seed.
"""

from __future__ import annotations

import os
import random
import shutil
import socket
import struct
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.drai import install_drai
from repro.experiments import (
    PAPER_VARIANTS,
    CampaignCache,
    CampaignJournal,
    ScenarioConfig,
    TcpTransport,
    chain_grid,
    read_multi_series_csv,
    run_campaign,
    run_chain,
    stable_digest,
)
from repro.faults import FaultPlan, RandomFaults, install_faults
from repro.obs.metrics import collect_network_metrics
from repro.phy.error_models import PacketErrorRate
from repro.routing import install_aodv_routing
from repro.topology import build_grid
from repro.traffic import start_ftp

import golden

ROOT = Path(__file__).resolve().parents[1]
#: Scratch space for campaign caches and journals, inside the checkout.
WORK_DIR = ROOT / ".perfbench_work"
#: The seed the committed goldens were produced with.
DEFAULT_SEED = 1
#: Campaign worker count: the 2 cores of the reference box.
JOBS = 2

#: Rollup counters a pass sums into the ledger: ledger name -> rollup key.
ROLLUP_COUNTERS = {
    "mac.retries": "mac.retries",
    "mac.backoff_slots": "mac.backoff_slots",
    "mac.drops_retry_limit": "mac.drops_retry_limit",
    "phy.collisions": "phy.collisions",
    "phy.medium_errors": "phy.medium_errors",
    "net.forwarded": "net.forwarded",
    "net.ifq_drops": "ifq.drops",
    "routing.control_tx": "routing.control_tx",
    "routing.link_failures": "routing.link_failures",
    "transport.data_sent": "tcp.data_sent",
    "transport.retransmits": "tcp.retransmits",
    "transport.timeouts": "tcp.timeouts",
    "transport.delivered": "tcp.delivered_packets",
    "core.drai_samples": "drai.state_samples",
}


class CheckError(AssertionError):
    """A pass produced output that does not match what it must be."""


@dataclass
class Pass:
    """One closed-loop iteration's outcome.

    ``times`` holds the wall time of each part of the pass (a scenario run,
    a replication, the campaign), keyed so that the same part of every
    pass has the same key.
    """

    units: int
    packets: int
    output: Any
    times: Dict[Any, float]
    failed: int = 0


def sub_seed(seed: int, label: str) -> int:
    """A 31-bit seed derived from the workload seed and a label."""
    return random.Random(f"{label}:{seed}").randrange(1, 2**31)


def fold_counters(rollups: Sequence[Dict[str, Any]],
                  engines: Sequence[Dict[str, Any]]) -> Dict[str, float]:
    """Sum metrics rollups and PHY lane counters over the runs of a pass."""
    out: Dict[str, float] = {name: 0 for name in ROLLUP_COUNTERS}
    for rollup in rollups:
        for name, key in ROLLUP_COUNTERS.items():
            out[name] += rollup.get(key, 0)
    out["phy.transmissions"] = sum(e.get("transmissions", 0) for e in engines)
    out["phy.numpy_frames"] = sum(e.get("numpy_fanout_frames", 0) for e in engines)
    out["phy.loop_frames"] = sum(e.get("loop_fanout_frames", 0) for e in engines)
    sent = out["transport.data_sent"]
    out["transport.useful_ratio"] = out["transport.delivered"] / sent if sent else 0.0
    return out


# ---------------------------------------------------------------------------
# chain-figs: Figs 5.2-5.7


class ChainFigs:
    """Regenerate the Figs 5.2-5.7 cwnd traces: 4/8/16 hops x 4 variants.

    A pass runs exactly what ``fig_cwnd_traces`` runs (one ``run_chain`` per
    variant, window 32, 10 s) but keeps each ``RunResult``, because the
    delivered-packet counts behind ``pkts_per_s`` are not in the traces.
    """

    name = "chain-figs"
    #: Point tolerance of ``tests/integration/test_golden_figures.py``.
    TOLERANCE = 2e-6

    def __init__(self, seed: int, tiny: bool = False) -> None:
        self.seed = seed
        self.hops: Tuple[int, ...] = (2,) if tiny else (4, 8, 16)
        self.variants: Tuple[str, ...] = PAPER_VARIANTS[:2] if tiny else PAPER_VARIANTS
        self.config = ScenarioConfig(sim_time=1.0 if tiny else 10.0,
                                     seed=seed, window=32)
        self.golden: Optional[Dict[int, Dict[str, List[Tuple[float, float]]]]] = None
        if seed == DEFAULT_SEED and not tiny:
            self.golden = {
                hops: read_multi_series_csv(
                    ROOT / "results" / "figures" / f"fig5_cwnd_traces_{hops}hop.csv")
                for hops in self.hops
            }

    def setup(self) -> None:
        """Nothing to build: ``run_chain`` builds its own scenarios."""

    def run(self, instrument: Optional[Callable] = None) -> Pass:
        results, times = {}, {}
        for hops in self.hops:
            for variant in self.variants:
                t0 = time.perf_counter()
                results[(hops, variant)] = run_chain(
                    hops, [variant], config=self.config, instrument=instrument)
                times[(hops, variant)] = time.perf_counter() - t0
        packets = sum(r.total_delivered_packets for r in results.values())
        return Pass(units=len(results), packets=packets, output=results,
                    times=times)

    def check(self, results) -> None:
        for (hops, variant), result in results.items():
            flow = result.flows[0]
            where = f"{self.name} {hops}-hop {variant}"
            if flow.delivered_packets <= 0:
                raise CheckError(f"{where}: delivered no packets")
            trace = flow.cwnd_trace
            if not trace or trace[0][1] != 1.0:
                raise CheckError(f"{where}: cwnd trace does not start at 1")
            if self.golden is None:
                continue
            want = self.golden[hops][variant]
            if len(trace) != len(want):
                raise CheckError(f"{where}: {len(trace)} cwnd points, "
                                 f"committed figure has {len(want)}")
            for (t, v), (t_ref, v_ref) in zip(trace, want):
                if abs(t - t_ref) > self.TOLERANCE or abs(v - v_ref) > self.TOLERANCE:
                    raise CheckError(f"{where}: cwnd point ({t}, {v}) differs "
                                     f"from committed ({t_ref}, {v_ref})")

    def ledger(self, results, nets) -> Dict[str, float]:
        out = fold_counters(
            [r.metrics["rollups"]["global"] for r in results.values()],
            [r.manifest["engine"] for r in results.values()])
        out["sim.events"] = sum(n.sim.scheduler.processed_events for n in nets)
        return out

    def teardown(self) -> None:
        pass


# ---------------------------------------------------------------------------
# dense-grid: wide fan-out, lossy medium, relay faults


def build_dense_grid(seed: int, rows: int, cols: int, sim_time: float):
    """A static grid at 200 m spacing with four crossing FTP flows.

    At 200 m an interior node senses 20 neighbours, above the PHY's numpy
    fan-out threshold.  Each paper variant gets one flow (two along rows,
    two along columns); relays suffer seeded crashes and link blackouts, and
    every frame is lost with probability 1%.
    """
    net = build_grid(rows, cols, seed=seed, spacing=200.0,
                     error_model=PacketErrorRate(0.01))
    install_aodv_routing(net.nodes, net.sim)
    install_drai(net.nodes, net.sim)
    last_r, last_c = rows - 1, cols - 1
    ends = [((1, 0), (1, last_c)), ((0, 1), (last_r, 1)),
            ((last_r - 1, 0), (last_r - 1, last_c)),
            ((0, last_c - 1), (last_r, last_c - 1))]
    endpoints = {r * cols + c for pair in ends for r, c in pair}
    relays = tuple(n.node_id for n in net.nodes if n.node_id not in endpoints)
    install_faults(net, FaultPlan(random=RandomFaults(
        crashes=2, blackouts=4, nodes=relays)), horizon=sim_time)
    flows = [
        start_ftp(net.sim, net.nodes[r0 * cols + c0], net.nodes[r1 * cols + c1],
                  variant=variant, window=32, sport=1000 + i, dport=2000 + i)
        for i, (variant, ((r0, c0), (r1, c1))) in enumerate(zip(PAPER_VARIANTS, ends))
    ]
    return net, flows


class DenseGrid:
    """6x6 grid with AODV, 1% frame error and relay faults; a pass runs
    eight 2 s replications whose seeds derive from the workload seed.

    Delivered packets and event counts vary a lot from one seed to the
    next in this grid; eight replications per pass keep that variation
    from dominating the comparison of runs with different seeds.

    Each replication runs in one-simulated-second steps, each timed on its
    own: small parts let the fastest-part estimate of ``run.py`` find the
    quiet moments of a noisy machine.
    """

    name = "dense-grid"
    REPLICATIONS = 8
    SIM_TIME = 2.0
    STEP = 1.0

    def __init__(self, seed: int, tiny: bool = False) -> None:
        self.seed = seed
        self.tiny = tiny
        self.rows = self.cols = 4 if tiny else 6
        self.sim_time = self.SIM_TIME
        reps = 2 if tiny else self.REPLICATIONS
        self.seeds = [sub_seed(seed, f"{self.name}:{k}") for k in range(reps)]
        self.scenarios: List[Tuple[Any, List[Any]]] = []
        #: Committed result digest of a pass (default seed, full size only).
        self.golden: Optional[str] = (
            golden.load().get(self.name) if seed == DEFAULT_SEED and not tiny else None)
        #: Digest every pass must reproduce: the golden, else the first
        #: checked pass's (every pass runs the same replication seeds).
        self.expected: Optional[str] = self.golden

    def setup(self) -> None:
        self.scenarios = [build_dense_grid(s, self.rows, self.cols, self.sim_time)
                          for s in self.seeds]

    def run(self, instrument: Optional[Callable] = None) -> Pass:
        outputs, times = [], {}
        for k, (net, flows) in enumerate(self.scenarios):
            if instrument is not None:
                instrument(net, flows)
            steps = round(self.sim_time / self.STEP)
            for step in range(1, steps + 1):
                t0 = time.perf_counter()
                net.sim.run(until=step * self.STEP)
                times[(k, step)] = time.perf_counter() - t0
            outputs.append({
                "flows": [{
                    "variant": f.variant,
                    "delivered": f.sink.delivered_packets,
                    "data_sent": f.sender.stats.data_sent,
                    "retransmits": f.sender.stats.retransmits,
                    "timeouts": f.sender.stats.timeouts,
                    "cwnd_trace": [[t, v] for t, v in f.sender.cwnd_trace],
                } for f in flows],
                "metrics": collect_network_metrics(net, flows).snapshot(),
                "engine": net.channel.lane_counters(),
                "events": net.sim.scheduler.processed_events,
            })
        self.scenarios = []
        packets = sum(f["delivered"] for o in outputs for f in o["flows"])
        return Pass(units=len(outputs), packets=packets, output=outputs,
                    times=times)

    @staticmethod
    def digest(outputs) -> str:
        """Content digest of a pass's results (engine facts excluded)."""
        return stable_digest([{"flows": o["flows"], "metrics": o["metrics"]}
                              for o in outputs])

    def check(self, outputs) -> None:
        # A single flow can legitimately starve for seconds in this grid
        # (a lost first segment behind contention waits out RTO backoff),
        # so each variant must deliver across the pass's replications.
        for i, variant in enumerate(PAPER_VARIANTS):
            if sum(out["flows"][i]["delivered"] for out in outputs) <= 0:
                raise CheckError(f"{self.name}: the {variant} flows delivered "
                                 f"no packets (seeds {self.seeds})")
        got = self.digest(outputs)
        if self.expected is None:
            self.expected = got
        elif got != self.expected:
            what = "committed" if self.golden is not None else "first pass's"
            raise CheckError(f"{self.name}: result digest {got} != {what} "
                             f"{self.expected}")

    def ledger(self, outputs, nets) -> Dict[str, float]:
        out = fold_counters([o["metrics"]["rollups"]["global"] for o in outputs],
                            [o["engine"] for o in outputs])
        out["sim.events"] = sum(o["events"] for o in outputs)
        return out

    def teardown(self) -> None:
        self.scenarios = []


# ---------------------------------------------------------------------------
# campaign-warm / campaign-cluster


def accept_backlog(listener: socket.socket) -> int:
    """Connections waiting in a listening socket's accept queue.

    Linux reports the accept-queue length of a listening socket in the
    ``tcpi_unacked`` field of ``TCP_INFO`` (byte offset 24); elsewhere this
    raises, and so does the run.
    """
    info = listener.getsockopt(socket.IPPROTO_TCP, socket.TCP_INFO, 104)
    return struct.unpack_from("I", info, 24)[0]


@dataclass
class CampaignSetup:
    """What one campaign pass runs against: fresh store, journal, agents."""

    root: Path
    cache: CampaignCache
    journal: CampaignJournal
    transport: Optional[TcpTransport] = None
    agents: List[subprocess.Popen] = field(default_factory=list)


class Campaign:
    """``run_campaign`` over chain_grid(4 variants, hops 2-4) x 8
    replications of 0.1 s units, with a fresh cache and journal per pass."""

    HOPS = (2, 3, 4)
    REPLICATIONS = 8
    UNIT_SIM_TIME = 0.1
    AGENT_JOIN_TIMEOUT = 60.0

    def __init__(self, seed: int, pool_mode: str, tiny: bool = False) -> None:
        self.name = f"campaign-{pool_mode}"
        self.pool_mode = pool_mode
        self.seed = seed
        self.tiny = tiny
        self.hops = (2,) if tiny else self.HOPS
        self.replications = 2 if tiny else self.REPLICATIONS
        self.grid = None
        self.state: Optional[CampaignSetup] = None
        self._serial = 0
        #: Committed fingerprint, shared by both backends (default seed,
        #: full size only).
        self.golden: Optional[str] = (
            golden.load().get("campaign") if seed == DEFAULT_SEED and not tiny else None)
        #: Fingerprint every pass must reproduce: the golden, else the
        #: first pass's, which the other backend must also reproduce.
        self.expected: Optional[str] = self.golden

    def setup(self) -> None:
        self.grid = chain_grid(
            PAPER_VARIANTS, self.hops,
            config=ScenarioConfig(sim_time=self.UNIT_SIM_TIME, window=4))
        self._serial += 1
        root = WORK_DIR / f"{self.name}-{os.getpid()}-{self._serial}"
        shutil.rmtree(root, ignore_errors=True)
        state = CampaignSetup(root=root, cache=CampaignCache(root / "cache"),
                              journal=CampaignJournal(root / "journal.ndjson"))
        self.state = state
        if self.pool_mode == "cluster":
            state.transport, state.agents = start_agents(JOBS)

    def run(self, telemetry=None) -> Pass:
        """One campaign; ``telemetry`` is a ``CampaignTelemetry`` (traced
        mode) or None."""
        state = self.state
        t0 = time.perf_counter()
        result = run_campaign(
            self.grid, replications=self.replications, base_seed=self.seed,
            jobs=JOBS, cache=state.cache, journal=state.journal,
            pool_mode=self.pool_mode, transport=state.transport,
            telemetry=telemetry,
        )
        wall = time.perf_counter() - t0
        packets = sum(r.metrics["flows"][0]["delivered_packets"]
                      for r in result.records)
        return Pass(units=result.planned, packets=packets, output=result,
                    times={"campaign": wall},
                    failed=len(result.failed) + result.remaining)

    def check(self, result) -> None:
        planned = len(self.grid) * self.replications
        if not result.complete or len(result.records) != planned:
            raise CheckError(f"{self.name}: {len(result.records)}/{planned} "
                             f"units completed, {len(result.failed)} failed")
        if result.executed != planned:
            raise CheckError(f"{self.name}: {result.cache_hits} cache hits in a "
                             "campaign that starts from an empty cache")
        got = result.fingerprint()
        if self.expected is None:
            self.expected = got
        elif got != self.expected:
            what = "committed" if self.golden is not None else "reference"
            raise CheckError(f"{self.name}: fingerprint {got} != {what} "
                             f"{self.expected}")

    def ledger(self, result, nets) -> Dict[str, float]:
        return fold_counters(
            [r.metrics["metrics"]["rollups"]["global"] for r in result.records],
            [r.manifest["engine"] for r in result.records])

    def teardown(self) -> None:
        state, self.state = self.state, None
        if state is None:
            return
        state.journal.close()
        if state.transport is not None:
            state.transport.close()
        stop_agents(state.agents)
        shutil.rmtree(state.root, ignore_errors=True)


def start_agents(count: int) -> Tuple[TcpTransport, List[subprocess.Popen]]:
    """Open a loopback TCP transport and start ``count`` worker agents.

    The agents are ``repro-muzha worker`` processes dialling in, as in the
    CLI's ``--agents 0`` mode.  Returns once every agent has connected and
    sits in the accept queue, so interpreter start-up is set-up time and the
    timed campaign starts with its workers at the door.
    """
    transport = TcpTransport(spawn_agents=False)
    transport.open()
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    agents = [
        subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "worker",
             "--connect", transport.endpoint, "--retry", "30"],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)
        for _ in range(count)
    ]
    listener = transport.waitables[0]
    deadline = time.monotonic() + Campaign.AGENT_JOIN_TIMEOUT
    try:
        while accept_backlog(listener) < count:
            if time.monotonic() > deadline or any(a.poll() is not None for a in agents):
                raise CheckError(f"worker agents did not connect to "
                                 f"{transport.endpoint}")
            time.sleep(0.005)
    except BaseException:
        transport.close()
        stop_agents(agents)
        raise
    return transport, agents


def stop_agents(agents: Sequence[subprocess.Popen]) -> None:
    """Wait for agents (they exit on the campaign's stop frame); kill
    any that linger."""
    for agent in agents:
        try:
            agent.wait(timeout=10.0)
        except subprocess.TimeoutExpired:
            agent.kill()
            agent.wait()


def make(name: str, seed: int, tiny: bool = False):
    """The workload called ``name``."""
    if name == "chain-figs":
        return ChainFigs(seed, tiny)
    if name == "dense-grid":
        return DenseGrid(seed, tiny)
    if name in ("campaign-warm", "campaign-cluster"):
        return Campaign(seed, name.split("-", 1)[1], tiny)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("chain-figs", "dense-grid", "campaign-warm", "campaign-cluster")
