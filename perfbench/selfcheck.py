"""Fast self-check of the benchmark's own code, at tiny workload sizes.

    python3 perfbench/selfcheck.py

Asserts that:

* ``BENCHMARK.json`` names exactly the metrics ``run.py`` emits, with the
  same units, and every workload it lists exists;
* every workload emits every end-to-end metric (``--trace 0``) and every
  per-layer metric (``--trace 1``), each a finite number with its unit;
* a corrupted golden (a flipped digest or fingerprint character, a moved
  cwnd point) fails the output check, and so does a corrupted first-pass
  digest on a seed without goldens;
* without the program's sources next to it, ``run.py`` exits non-zero and
  prints no result.

Takes well under a minute; exits 0 when every assertion holds.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import run

run.use_checkout_sources()
import ledger  # noqa: E402  (needs the checkout's sources on sys.path)
import workloads  # noqa: E402

ROOT = run.ROOT


def flip(digest: str) -> str:
    return ("0" if digest[0] != "0" else "1") + digest[1:]


def check_metrics(report, units, where: str) -> None:
    metrics = report["metrics"]
    assert set(metrics) == set(units), (
        f"{where}: emitted {sorted(metrics)}, expected {sorted(units)}")
    for name, entry in metrics.items():
        assert entry["unit"] == units[name], f"{where}: {name} unit {entry['unit']}"
        value = entry["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), (
            f"{where}: {name} = {value!r}")
    assert report["attempted"] >= 1 and report["failed"] == 0, where


def expect_check_failure(workload, output, where: str) -> None:
    try:
        workload.check(output)
    except workloads.CheckError:
        return
    raise AssertionError(f"{where}: a corrupted golden passed the output check")


def check_goldens() -> None:
    """Each check accepts its golden and rejects a corrupted one."""
    chain = workloads.make("chain-figs", 1, tiny=True)
    done = chain.run()
    chain.golden = {hops: {variant: list(done.output[(hops, variant)].flows[0].cwnd_trace)
                           for variant in chain.variants} for hops in chain.hops}
    chain.check(done.output)
    hops, variant = chain.hops[0], chain.variants[0]
    t, v = chain.golden[hops][variant][-1]
    chain.golden[hops][variant][-1] = (t, v + 1e-3)
    expect_check_failure(chain, done.output, "chain-figs")

    grid = workloads.make("dense-grid", 1, tiny=True)
    grid.setup()
    done = grid.run()
    grid.golden = grid.expected = grid.digest(done.output)
    grid.check(done.output)
    grid.expected = flip(grid.expected)
    expect_check_failure(grid, done.output, "dense-grid")

    # No golden on other seeds: the first pass's digest binds later passes.
    grid = workloads.make("dense-grid", 7, tiny=True)
    for _ in range(2):
        grid.setup()
        done = grid.run()
        grid.check(done.output)
    grid.expected = flip(grid.expected)
    expect_check_failure(grid, done.output, "dense-grid seed 7")

    for name in ("campaign-warm", "campaign-cluster"):
        campaign = workloads.make(name, 1, tiny=True)
        campaign.setup()
        try:
            done = campaign.run()
        finally:
            campaign.teardown()
        campaign.check(done.output)
        campaign.expected = flip(campaign.expected)
        expect_check_failure(campaign, done.output, name)


def check_layout_guard() -> None:
    """In a directory with only the benchmark, run.py must refuse."""
    bare = workloads.WORK_DIR / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "chain-figs",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0, "run.py succeeded without program sources"
    assert "correct" not in done.stdout, "run.py printed a result without sources"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == ledger.LEDGER_UNITS
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)

    for name in workloads.WORKLOADS:
        report = run.timed_run(workloads, name, 7, seconds=0.0, tiny=True)
        check_metrics(report, run.END_TO_END_UNITS, f"{name} --trace 0")
        report = run.traced_run(workloads, ledger, name, 7, tiny=True)
        check_metrics(report, ledger.LEDGER_UNITS, f"{name} --trace 1")
        print(f"selfcheck: {name}: every metric emitted with its unit")
    check_goldens()
    print("selfcheck: corrupted goldens fail the output checks")
    check_layout_guard()
    print("selfcheck: run.py refuses a directory without program sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
