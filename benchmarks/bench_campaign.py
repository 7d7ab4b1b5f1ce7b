"""Campaign engine benchmarks: pool-mode throughput and warm-cache latency.

Not a paper figure — these measure the batch engine the figure campaigns
run on.  Three metrics:

* ``campaign_scenarios_per_sec`` — units/sec of the default ``warm``
  persistent-worker pool on a 48-unit uncached grid of deliberately short
  simulations.  Short units make the measurement engine-dominated: it
  tracks dispatch/IPC/fork overhead, which is what the campaign engine
  owns, rather than simulator speed (``bench_kernel`` owns that);
* ``full_run_packets_per_sec`` — delivered packets per wall-clock second
  of the standard 4-hop, 10 s Muzha run, the end-to-end anchor for the
  allocation-churn work (``__slots__`` packet/segment/frame types, interned
  control frames, memoized PHY timings);
* ``calibration_ops_per_sec`` — the machine-speed reference shared with
  ``bench_kernel``, so regression checks can compare calibration-normalized
  ratios instead of absolute rates on drifting CI containers.

Two entry points:

* ``python benchmarks/bench_campaign.py`` — runs the suite, prints a
  table, writes ``results/BENCH_campaign.json``, and with ``--check``
  exits non-zero on a >30% (calibration-normalized) regression against the
  committed baseline;
* ``pytest benchmarks/bench_campaign.py`` — the same claims as
  pytest-benchmark cases, marked ``perf`` and excluded from tier-1.

The warm pool's fingerprint is also checked byte-for-byte against the
``inproc`` backend's: a faster backend that changed the numbers would be a
bug, not a win.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import Callable, Dict, Tuple

import pytest

from repro.experiments import (
    CampaignCache,
    ScenarioConfig,
    chain_grid,
    run_campaign,
    run_chain,
)
from repro.experiments.config import full_scale

BASELINE_PATH = Path(__file__).resolve().parent / "baselines" / "bench_campaign_baseline.json"
DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "results" / "BENCH_campaign.json"

pytestmark = pytest.mark.perf

#: >= 8 scenarios so a 4-way pool always has work for every worker.
GRID_HOPS = (2, 3, 4, 5)
GRID_VARIANTS = ("muzha", "newreno")
SIM_TIME = 8.0 if full_scale() else 3.0

#: The engine-overhead grid: 6 scenarios x 8 replications = 48 units of
#: 0.1 s simulations.  Units this short put the campaign engine itself on
#: the critical path, which is the point — fork/dispatch/IPC amortization
#: is invisible behind multi-second simulations.
ENGINE_HOPS = (2, 3, 4)
ENGINE_REPLICATIONS = 8
ENGINE_SIM_TIME = 0.1
#: Forced worker count: the engine comparison is about per-unit overhead,
#: not hardware parallelism, so it does not scale with ``os.cpu_count()``.
ENGINE_JOBS = 4


def _grid():
    return chain_grid(
        GRID_VARIANTS, GRID_HOPS,
        config=ScenarioConfig(sim_time=SIM_TIME, window=4),
    )


def _engine_grid():
    return chain_grid(
        GRID_VARIANTS, ENGINE_HOPS,
        config=ScenarioConfig(sim_time=ENGINE_SIM_TIME, window=4),
    )


# -- measurement cores (shared by pytest and the standalone runner) ----------


def run_engine_campaign(pool_mode: str) -> Tuple[int, str]:
    """One uncached 48-unit campaign; returns (units, fingerprint)."""
    grid = _engine_grid()
    result = run_campaign(
        grid, replications=ENGINE_REPLICATIONS, jobs=ENGINE_JOBS,
        pool_mode=pool_mode,
    )
    assert result.complete
    return len(grid) * ENGINE_REPLICATIONS, result.fingerprint()


def run_full_run() -> int:
    """The standard 4-hop, 10 s Muzha run; returns delivered packets."""
    result = run_chain(4, ["muzha"], config=ScenarioConfig(sim_time=10.0, seed=1))
    return result.total_delivered_packets


def _rate(work: Callable[[], int], reps: int) -> float:
    """Best observed ops/sec over ``reps`` repetitions."""
    best = 0.0
    for _ in range(reps):
        t0 = time.perf_counter()
        ops = work()
        dt = time.perf_counter() - t0
        best = max(best, ops / dt)
    return best


def _engine_rate(pool_mode: str, reps: int) -> Tuple[float, str]:
    """Best units/sec plus the (mode-invariant) campaign fingerprint."""
    best, fingerprint = 0.0, None
    for _ in range(reps):
        t0 = time.perf_counter()
        units, fingerprint = run_engine_campaign(pool_mode)
        dt = time.perf_counter() - t0
        best = max(best, units / dt)
    return best, fingerprint


def measure_all(fast: bool = False) -> Dict[str, float]:
    """Run the whole suite; returns metric-name -> ops/sec.

    GC-frozen like ``bench_kernel.measure_all`` so import-graph growth
    cannot masquerade as an engine regression.
    """
    import gc

    from bench_kernel import run_calibration

    reps = 2 if fast else 3
    gc.freeze()
    try:
        calibration = _rate(run_calibration, 2 if fast else 5)
        warm, warm_fp = _engine_rate("warm", reps)
        _, inproc_fp = run_engine_campaign("inproc")
        if warm_fp != inproc_fp:
            raise AssertionError(
                f"pool mode changed the campaign metrics: warm fingerprint "
                f"{warm_fp} != inproc {inproc_fp}"
            )
        return {
            "calibration_ops_per_sec": calibration,
            "campaign_scenarios_per_sec": warm,
            "full_run_packets_per_sec": _rate(run_full_run, 1 if fast else 2),
        }
    finally:
        gc.unfreeze()


# -- pytest-benchmark cases --------------------------------------------------

# Imported lazily in measure_all for the standalone path; pytest collection
# imports conftest helpers the usual way.
from conftest import banner, run_once  # noqa: E402


def test_campaign_parallel_speedup(benchmark):
    """Serial vs 4-worker wall clock on an 8-scenario grid."""
    grid = _grid()

    serial_start = time.perf_counter()
    serial = run_campaign(grid, jobs=1)
    serial_elapsed = time.perf_counter() - serial_start

    parallel_start = time.perf_counter()
    parallel = run_once(benchmark, lambda: run_campaign(grid, jobs=4))
    parallel_elapsed = time.perf_counter() - parallel_start

    speedup = serial_elapsed / max(parallel_elapsed, 1e-9)
    banner("campaign engine — serial vs 4 workers")
    print(f"grid           : {len(grid)} scenarios x {SIM_TIME:g}s")
    print(f"serial (jobs=1): {serial_elapsed:6.2f}s")
    print(f"pool  (jobs=4) : {parallel_elapsed:6.2f}s")
    print(f"speedup        : {speedup:5.2f}x on {os.cpu_count()} cores")

    assert parallel.fingerprint() == serial.fingerprint(), (
        "worker count changed the campaign's metrics"
    )
    if (os.cpu_count() or 1) >= 4:
        assert speedup >= 2.0, f"expected >=2x on >=4 cores, got {speedup:.2f}x"
    elif (os.cpu_count() or 1) < 2:
        pytest.skip(f"speedup not measurable on {os.cpu_count()} core(s)")


def test_campaign_warm_cache_executes_nothing(benchmark, tmp_path):
    """A warm cache must answer the grid with zero simulations, fast."""
    grid = _grid()
    cache = CampaignCache(tmp_path / "cache")
    cold = run_campaign(grid, jobs=1, cache=cache)
    assert cold.executed == len(grid)

    warm_start = time.perf_counter()
    warm = run_once(benchmark, lambda: run_campaign(grid, jobs=1, cache=cache))
    warm_elapsed = time.perf_counter() - warm_start

    banner("campaign engine — warm cache")
    print(f"cold: {cold.executed} simulated; warm: {warm.executed} simulated "
          f"in {warm_elapsed * 1e3:.1f} ms")
    assert warm.executed == 0
    assert warm.cache_hits == len(grid)
    assert warm.fingerprint() == cold.fingerprint()


# -- standalone runner -------------------------------------------------------


def load_baseline() -> dict:
    with open(BASELINE_PATH) as handle:
        return json.load(handle)


def build_report(current: Dict[str, float], baseline: dict) -> dict:
    """Current numbers alongside the committed baseline, drift-normalized."""
    committed = baseline.get("metrics", {})

    speed_factor = None
    cal_committed = committed.get("calibration_ops_per_sec")
    cal_current = current.get("calibration_ops_per_sec")
    if cal_committed and cal_current:
        speed_factor = cal_current / cal_committed

    metrics = {}
    for name, rate in current.items():
        entry = {"current": round(rate, 1)}
        if name in committed:
            entry["baseline"] = committed[name]
            entry["ratio_vs_baseline"] = round(rate / committed[name], 3)
            if speed_factor and name != "calibration_ops_per_sec":
                entry["ratio_vs_baseline_normalized"] = round(
                    rate / committed[name] / speed_factor, 3)
        metrics[name] = entry

    report = {
        "suite": "bench_campaign",
        "baseline_machine": baseline.get("machine", "unknown"),
        "grid": f"48 units ({len(GRID_VARIANTS) * len(ENGINE_HOPS)} scenarios "
                f"x {ENGINE_REPLICATIONS} replications x "
                f"{ENGINE_SIM_TIME:g}s), workers={ENGINE_JOBS}, uncached",
        "metrics": metrics,
    }
    if speed_factor is not None:
        report["machine_speed_factor"] = round(speed_factor, 3)
    return report


def check_regression(report: dict, tolerance: float) -> list:
    """Metric names whose (calibration-normalized) rate dropped more than
    ``tolerance`` below the committed baseline."""
    failures = []
    for name, entry in report["metrics"].items():
        if name == "calibration_ops_per_sec":
            continue
        ratio = entry.get("ratio_vs_baseline_normalized",
                          entry.get("ratio_vs_baseline"))
        if ratio is not None and ratio < 1.0 - tolerance:
            failures.append(name)
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="campaign engine benchmark suite")
    parser.add_argument("--json", default=str(DEFAULT_OUTPUT), metavar="PATH",
                        help="where to write BENCH_campaign.json")
    parser.add_argument("--fast", action="store_true",
                        help="fewer repetitions (CI smoke)")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 on a units/sec regression vs the baseline")
    parser.add_argument("--tolerance", type=float, default=0.30,
                        help="allowed fractional regression with --check")
    args = parser.parse_args(argv)

    baseline = load_baseline()
    current = measure_all(fast=args.fast)
    report = build_report(current, baseline)

    width = max(len(name) for name in report["metrics"])
    for name, entry in report["metrics"].items():
        line = f"{name:<{width}}  {entry['current']:>12,.1f}/s"
        if "ratio_vs_baseline" in entry:
            line += f"  ({entry['ratio_vs_baseline']:.2f}x vs committed)"
        print(line)

    out = Path(args.json)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"report written to {out}")

    if args.check:
        failures = check_regression(report, args.tolerance)
        if failures:
            print(f"PERF REGRESSION (> {args.tolerance:.0%} below committed "
                  f"baseline): {', '.join(failures)}", file=sys.stderr)
            return 1
        print(f"perf check ok (all metrics within {args.tolerance:.0%} "
              "of the committed baseline)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
