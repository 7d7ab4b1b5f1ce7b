"""Per-layer ledger of one traced pass.

Simulator workloads run under ``cProfile``; its self time and call counts
are folded by ``repro.<package>`` (anything outside ``repro``, numpy and
``heapq`` included, folds into ``builtins``).  Campaign workloads wrap the
coordinator-side public calls (``plan_campaign``, ``CampaignCache.put``,
``CampaignJournal.write``, ``send_frame``/``recv_frame``) with timers and
read the ``CampaignTelemetry`` span log.  Counters come from the metrics
rollups and PHY lane counters the program already reports.

Nothing here feeds an end-to-end metric: the traced pass is separate from
the timed passes.
"""

from __future__ import annotations

import cProfile
import io
import json
import pstats
import resource
import statistics
import time
from contextlib import contextmanager
from pathlib import PurePath
from typing import Any, Callable, Dict, Iterator, List, Tuple

import repro.experiments.campaign as campaign_module
import repro.experiments.transport as transport_module
from repro.obs.engine import CampaignTelemetry
from repro.obs.spans import SpanWriter

from workloads import JOBS

#: Packages whose profile self time the ledger reports, plus ``builtins``.
PROFILED_LAYERS = ("sim", "mac", "phy", "net", "routing", "transport", "core",
                   "obs", "faults", "experiments", "builtins")
#: Layers whose call counts the ledger reports.
COUNTED_LAYERS = ("sim", "mac", "phy", "net", "routing", "transport", "core")

#: Every per-layer metric and its unit; the traced output carries all of
#: them on every workload (0 where a workload does not load the layer).
LEDGER_UNITS: Dict[str, str] = {
    **{f"{layer}.self_s": "s" for layer in PROFILED_LAYERS},
    **{f"{layer}.calls": "count" for layer in COUNTED_LAYERS},
    "simcore.self_share": "ratio",
    "sim.events": "count",
    "sim.events_per_pkt": "count",
    "mac.retries": "count",
    "mac.backoff_slots": "count",
    "mac.drops_retry_limit": "count",
    "phy.transmissions": "count",
    "phy.numpy_frames": "count",
    "phy.loop_frames": "count",
    "phy.collisions": "count",
    "phy.medium_errors": "count",
    "net.forwarded": "count",
    "net.ifq_drops": "count",
    "routing.control_tx": "count",
    "routing.link_failures": "count",
    "transport.data_sent": "count",
    "transport.retransmits": "count",
    "transport.timeouts": "count",
    "transport.useful_ratio": "ratio",
    "core.drai_samples": "count",
    "experiments.plan_s": "s",
    "experiments.dispatch_wait_s": "s",
    "experiments.exec_s": "s",
    "experiments.unit_overhead_ms": "ms",
    "experiments.unit_rtt_ms.p50": "ms",
    "experiments.unit_rtt_ms.p97": "ms",
    "experiments.retries": "count",
    "experiments.transport.frame_s": "s",
    "experiments.transport.frame_bytes": "bytes",
    "cache.put_s": "s",
    "cache.puts": "count",
    "journal.write_s": "s",
    "journal.records": "count",
    "workers.idle_ratio": "ratio",
    "coordinator.cpu_s": "s",
    "workers.cpu_s": "s",
    "trace.overhead_ratio": "ratio",
}


def layer_of(filename: str) -> str:
    """The ``repro`` package a profiled function lives in, or ``builtins``."""
    parts = PurePath(filename.replace("\\", "/")).parts
    if "repro" not in parts:
        return "builtins"
    rest = parts[len(parts) - 1 - parts[::-1].index("repro") + 1:]
    return rest[0] if len(rest) > 1 else "repro"


def fold_profile(profile: cProfile.Profile) -> Dict[str, float]:
    """Self time and primitive call counts folded by layer."""
    self_s: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    for (filename, _line, _func), (_cc, nc, tt, _ct, _callers) in \
            pstats.Stats(profile).stats.items():
        layer = layer_of(filename)
        self_s[layer] = self_s.get(layer, 0.0) + tt
        calls[layer] = calls.get(layer, 0) + nc
    total = sum(self_s.values())
    out: Dict[str, float] = {f"{layer}.self_s": self_s.get(layer, 0.0)
                             for layer in PROFILED_LAYERS}
    out.update({f"{layer}.calls": calls.get(layer, 0) for layer in COUNTED_LAYERS})
    core = sum(self_s.get(layer, 0.0) for layer in ("sim", "mac", "phy"))
    out["simcore.self_share"] = core / total if total else 0.0
    return out


def simulator_pass(workload) -> Tuple[float, Any, Dict[str, float]]:
    """Run one profiled pass of a simulator workload."""
    nets: List[Any] = []
    profile = cProfile.Profile()
    t0 = time.perf_counter()
    profile.enable()
    try:
        done = workload.run(lambda net, flows: nets.append(net))
    finally:
        profile.disable()
    wall = time.perf_counter() - t0
    out = fold_profile(profile)
    out.update(workload.ledger(done.output, nets))
    out["sim.events_per_pkt"] = out["sim.events"] / done.packets if done.packets else 0.0
    return wall, done, out


class _Timer:
    """Accumulated wall time and call count of one wrapped call site."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.calls = 0

    def wrap(self, fn: Callable) -> Callable:
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds += time.perf_counter() - t0
                self.calls += 1
        return timed


def _frame_bytes(message: Dict[str, Any]) -> int:
    """Wire size of one frame, as ``send_frame`` encodes it."""
    return 4 + len(json.dumps(message, sort_keys=True,
                              separators=(",", ":")).encode("utf-8"))


@contextmanager
def _patched(module: Any, name: str, replacement: Callable) -> Iterator[None]:
    original = getattr(module, name)
    setattr(module, name, replacement)
    try:
        yield
    finally:
        setattr(module, name, original)


def _cpu(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def campaign_pass(workload) -> Tuple[float, Any, Dict[str, float]]:
    """Run one instrumented pass of a campaign workload."""
    plan, put, journal_write, frame = _Timer(), _Timer(), _Timer(), _Timer()
    frame_bytes = 0
    timed_send = frame.wrap(transport_module.send_frame)
    timed_recv = frame.wrap(transport_module.recv_frame)

    def send(sock, message):
        nonlocal frame_bytes
        frame_bytes += _frame_bytes(message)
        return timed_send(sock, message)

    def recv(sock):
        nonlocal frame_bytes
        message = timed_recv(sock)
        frame_bytes += _frame_bytes(message)
        return message

    state = workload.state
    state.cache.put = put.wrap(state.cache.put)
    state.journal.write = journal_write.wrap(state.journal.write)
    spans = io.StringIO()
    telemetry = CampaignTelemetry(SpanWriter(spans), heartbeat_interval=3600.0)
    cpu_self, cpu_children = _cpu(resource.RUSAGE_SELF), _cpu(resource.RUSAGE_CHILDREN)
    with _patched(campaign_module, "plan_campaign", plan.wrap(campaign_module.plan_campaign)), \
            _patched(transport_module, "send_frame", send), \
            _patched(transport_module, "recv_frame", recv):
        t0 = time.perf_counter()
        done = workload.run(telemetry)
        wall = time.perf_counter() - t0
    coordinator_cpu = _cpu(resource.RUSAGE_SELF) - cpu_self
    # Agents are reaped at teardown, which is when their CPU time reaches
    # RUSAGE_CHILDREN (forked pipe workers are reaped inside the campaign).
    workload.teardown()
    workers_cpu = _cpu(resource.RUSAGE_CHILDREN) - cpu_children

    result = done.output
    out = workload.ledger(result, [])
    exec_by_index = {
        r.run.index: sum((r.manifest or {}).get("timings", {}).values())
        for r in result.records
    }
    exec_s = sum(exec_by_index.values())
    records = [json.loads(line) for line in spans.getvalue().splitlines()]
    opened = {r["id"]: r for r in records if r["kind"] == "span_open"}
    rtts, waits = [], []
    for record in records:
        if record["kind"] != "span_close":
            continue
        start = opened[record["id"]]
        if start["span"] != "unit-attempt":
            continue
        duration = record["t1"] - start["t0"]
        rtts.append(duration * 1000.0)
        waits.append(max(0.0, duration - exec_by_index.get(start["attrs"]["index"], 0.0)))
    busy = idle = 0.0
    last_beat: Dict[str, Dict[str, Any]] = {}
    for record in records:
        if record["kind"] == "heartbeat":
            last_beat[record["worker"]] = record["attrs"]
    for attrs in last_beat.values():
        busy += attrs.get("busy_s", 0.0)
        idle += attrs.get("idle_s", 0.0)
    cuts = statistics.quantiles(rtts, n=100, method="inclusive") if len(rtts) > 1 else rtts * 99
    out.update({
        "experiments.plan_s": plan.seconds,
        "experiments.exec_s": exec_s,
        "experiments.dispatch_wait_s": sum(waits),
        "experiments.unit_overhead_ms":
            (JOBS * wall - exec_s) / done.units * 1000.0,
        "experiments.unit_rtt_ms.p50": cuts[49],
        "experiments.unit_rtt_ms.p97": cuts[96],
        "experiments.retries": telemetry.counters.get("events.retry", 0),
        "experiments.transport.frame_s": frame.seconds,
        "experiments.transport.frame_bytes": frame_bytes,
        "cache.put_s": put.seconds,
        "cache.puts": put.calls,
        "journal.write_s": journal_write.seconds,
        "journal.records": journal_write.calls,
        "workers.idle_ratio": idle / (busy + idle) if busy + idle else 0.0,
        "coordinator.cpu_s": coordinator_cpu,
        "workers.cpu_s": workers_cpu,
    })
    return wall, done, out

