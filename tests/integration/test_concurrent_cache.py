"""Two campaigns sharing one cache directory must not corrupt it.

The cache hardening (advisory ``flock`` on a sidecar, durable atomic
writes, lock-free reads) is exercised the way it fails in the field: two
coordinators racing to fill the same content-addressed cache with the
same units.  Both must land on the identical fingerprint, neither may
observe a corrupt envelope (no :class:`CacheCorruptionWarning`, zero
evictions), and no write-in-progress tmp debris may survive.

Covered at two levels: threads inside one process (the ``flock`` is
advisory per-fd, so in-process races lean on the atomic rename + durable
put), and two separately spawned CLI processes (true cross-process
``flock`` contention).
"""

import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import repro
from repro.experiments import (
    CacheCorruptionWarning,
    CampaignCache,
    ScenarioConfig,
    chain_grid,
    run_campaign,
)

SRC = str(Path(repro.__file__).resolve().parents[1])


def tiny_grid():
    config = ScenarioConfig(sim_time=0.5, window=4)
    return chain_grid(["newreno", "muzha"], [2], config=config)


def test_two_threads_sharing_a_cache_agree_and_corrupt_nothing(tmp_path):
    root = tmp_path / "cache"
    results = {}
    errors = []

    def campaign(name):
        try:
            results[name] = run_campaign(
                tiny_grid(), replications=2, base_seed=7, jobs=1,
                cache=CampaignCache(root), pool_mode="inproc",
            )
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    with warnings.catch_warnings():
        # Any cache-corruption eviction in either thread becomes a failure.
        warnings.simplefilter("error", CacheCorruptionWarning)
        threads = [threading.Thread(target=campaign, args=(n,))
                   for n in ("a", "b")]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
    assert errors == []
    assert {t.is_alive() for t in threads} == {False}

    a, b = results["a"], results["b"]
    assert a.complete and b.complete
    assert a.fingerprint() == b.fingerprint()
    assert a.cache_evictions == 0 and b.cache_evictions == 0
    # Between them every unit was either simulated once or served from the
    # other campaign's put — never lost.
    assert a.executed + a.cache_hits == len(a.records)
    assert not list(root.glob("*/*.tmp")), "tmp debris left behind"
    assert (root / CampaignCache.LOCK_NAME).exists()


def test_two_processes_sharing_a_cache_agree_and_corrupt_nothing(tmp_path):
    root = tmp_path / "cache"
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    cmd = [
        sys.executable, "-m", "repro.cli", "campaign",
        "--variants", "newreno", "muzha", "--hops", "2",
        "--replications", "2", "--time", "0.5", "--window", "4",
        "--seed", "7", "--jobs", "2", "--pool-mode", "warm",
        "--cache-dir", str(root), "--quiet",
    ]
    procs = [subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True)
             for _ in range(2)]
    outputs = [p.communicate(timeout=300) for p in procs]

    fingerprints = []
    for proc, (stdout, stderr) in zip(procs, outputs):
        assert proc.returncode == 0, f"stdout:\n{stdout}\nstderr:\n{stderr}"
        assert "CacheCorruptionWarning" not in stderr
        line = [l for l in stdout.splitlines()
                if l.startswith("campaign fingerprint: ")]
        assert line, f"no fingerprint in output:\n{stdout}"
        fingerprints.append(line[0].split(": ", 1)[1])
    assert fingerprints[0] == fingerprints[1]
    assert not list(root.glob("*/*.tmp")), "tmp debris left behind"
