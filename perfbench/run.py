"""The repository benchmark: one command, four closed-loop workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload dense-grid --seed 1 --seconds 55 --trace 0

``--trace 0`` runs timed passes of the workload for about ``--seconds``
seconds (at least three), checks every pass's output, and prints the
end-to-end metrics.  ``--trace 1`` runs one untimed pass and one traced
pass and prints the per-layer ledger instead (see ``ledger.py``).  The last
line of standard output is one JSON object::

    {"correct": true, "attempted": 36, "failed": 0, "metrics": {...}}

A pass whose output is wrong ends the run with ``"correct": false`` and exit
code 1.  Without the program's sources next to the benchmark the command
exits with code 2 and prints no result.  Workloads, their layers and the
measured noise are described in ``WORKLOADS.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
#: Timed passes per run, whatever ``--seconds`` allows.
MIN_PASSES = 3
#: Run in a fresh interpreter before every pass; ``setup_s`` includes the
#: fastest import time it reports.
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import repro.experiments; "
    "print(time.perf_counter() - t)"
)
#: Starts one probe interpreter per line it reads and echoes its output.
PROBE_LAUNCHER = (
    "import subprocess, sys\n"
    "for _ in sys.stdin:\n"
    f"    done = subprocess.run([sys.executable, '-c', {IMPORT_PROBE!r}],\n"
    "                          capture_output=True, text=True, check=True)\n"
    "    print(done.stdout.split()[-1], flush=True)\n"
)

#: End-to-end metrics and their units.
END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "pkts_per_s": "1/s",
    "units_per_s": "1/s",
    "peak_rss_mb": "MB",
}


class LayoutError(RuntimeError):
    """The checkout does not hold the program the benchmark measures."""


def use_checkout_sources() -> None:
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise LayoutError(f"no program sources at {SRC}")
    sys.path.insert(0, str(SRC))


class ImportProbe:
    """Times ``import repro.experiments`` in fresh interpreters.

    The interpreters are started by a small launcher process, itself
    started once before the first pass.  An interpreter started straight
    from this process, once it has grown, would report this process's pages
    as its own peak RSS (the kernel records the image it replaced) and
    inflate ``peak_rss_mb``.
    """

    def __enter__(self) -> "ImportProbe":
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
        self.launcher = subprocess.Popen(
            [sys.executable, "-c", PROBE_LAUNCHER], cwd=ROOT, env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        return self

    def seconds(self) -> float:
        """Import time in one fresh interpreter."""
        self.launcher.stdin.write("\n")
        self.launcher.stdin.flush()
        line = self.launcher.stdout.readline()
        if not line:
            raise RuntimeError("the import probe failed")
        return float(line)

    def __exit__(self, *exc) -> None:
        self.launcher.stdin.close()
        self.launcher.wait()
        self.launcher.stdout.close()


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def cross_check(workloads, workload, seed: int, tiny: bool) -> int:
    """Run the cluster campaign once more on the warm pipe pool; the two
    fingerprints must match, on every seed.

    Returns the units the reference campaign attempted.
    """
    other = workloads.make("campaign-warm", seed, tiny)
    other.expected = workload.expected
    other.setup()
    try:
        done = other.run()
        other.check(done.output)
    finally:
        other.teardown()
    return done.units


def timed_run(workloads, name: str, seed: int, seconds: float,
              tiny: bool = False) -> Dict[str, Any]:
    """Timed passes for about ``seconds``; the end-to-end metrics.

    Every pass does the same work, so each part of a pass (a scenario run,
    a replication, a campaign) is timed in every pass and its fastest time
    kept: load from other tenants of a shared machine only ever adds time.
    ``wall_s`` is the sum of those fastest times; ``setup_s`` likewise adds
    the fastest import probe to the fastest set-up.  ``tiny`` shrinks every
    workload (self-check only; no goldens apply).
    """
    workload = workloads.make(name, seed, tiny)
    imports: List[float] = []
    setups: List[float] = []
    fastest: Dict[Any, float] = {}
    passes = attempted = failed = 0
    start = time.perf_counter()
    with ImportProbe() as probe:
        while True:
            imports.append(probe.seconds())
            gc.collect()
            t0 = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - t0)
            try:
                done = workload.run()
                attempted += done.units
                failed += done.failed
                workload.check(done.output)
            finally:
                workload.teardown()
            passes += 1
            for part, seconds_taken in done.times.items():
                fastest[part] = min(seconds_taken, fastest.get(part, seconds_taken))
            elapsed = time.perf_counter() - start
            if passes >= MIN_PASSES and elapsed * (passes + 1) / passes > seconds:
                break
    wall = sum(fastest.values())
    print(f"perfbench: {name}: {passes} passes, fastest pass parts sum to "
          f"{wall:.3f} s", file=sys.stderr)
    if name == "campaign-cluster":
        attempted += cross_check(workloads, workload, seed, tiny)
    metrics = {
        "wall_s": wall,
        "setup_s": min(imports) + min(setups),
        "pkts_per_s": done.packets / wall,
        "units_per_s": done.units / wall,
        "peak_rss_mb": peak_rss_mb(),
    }
    return {"attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                        for k, v in metrics.items()}}


def traced_run(workloads, ledger, name: str, seed: int,
               tiny: bool = False) -> Dict[str, Any]:
    """One plain and one traced pass; the per-layer ledger."""
    workload = workloads.make(name, seed, tiny)
    workload.setup()
    try:
        t0 = time.perf_counter()
        done = workload.run()
        untraced = time.perf_counter() - t0
        workload.check(done.output)
    finally:
        workload.teardown()
    traced_pass = (ledger.campaign_pass if name.startswith("campaign-")
                   else ledger.simulator_pass)
    gc.collect()
    workload.setup()
    try:
        traced, done_traced, layers = traced_pass(workload)
        workload.check(done_traced.output)
    finally:
        workload.teardown()
    layers["trace.overhead_ratio"] = traced / untraced
    values = {key: layers.get(key, 0) for key in ledger.LEDGER_UNITS}
    return {"attempted": done.units + done_traced.units,
            "failed": done.failed + done_traced.failed,
            "metrics": {k: {"value": v, "unit": ledger.LEDGER_UNITS[k]}
                        for k, v in values.items()}}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("chain-figs", "dense-grid", "campaign-warm",
                                 "campaign-cluster"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        use_checkout_sources()
    except LayoutError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import ledger
    import workloads

    try:
        if args.trace:
            report = traced_run(workloads, ledger, args.workload, args.seed)
        else:
            report = timed_run(workloads, args.workload, args.seed, args.seconds)
    except Exception:
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    print(json.dumps({"correct": True, **report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
