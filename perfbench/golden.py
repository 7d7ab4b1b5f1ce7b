"""Committed default-seed goldens of the benchmark's outputs.

``golden.json`` holds the ``dense-grid`` result digest and the campaign
fingerprint that ``campaign-warm`` and ``campaign-cluster`` must both
reproduce on the default seed.  (``chain-figs`` is checked against the
committed figure CSVs under ``results/figures`` instead.)

Regenerate after a change that is meant to alter results::

    python3 perfbench/golden.py
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"


def load() -> Dict[str, str]:
    """The committed goldens ({} before the first :func:`regenerate`)."""
    if not GOLDEN_PATH.exists():
        return {}
    with GOLDEN_PATH.open(encoding="utf-8") as handle:
        return json.load(handle)


def regenerate() -> Dict[str, str]:
    """Recompute every golden on the default seed and write the file."""
    import workloads

    values: Dict[str, str] = {}
    fingerprints = {}
    for name in ("dense-grid", "campaign-warm", "campaign-cluster"):
        workload = workloads.make(name, workloads.DEFAULT_SEED)
        workload.golden = workload.expected = None
        workload.setup()
        try:
            done = workload.run()
            workload.check(done.output)
        finally:
            workload.teardown()
        if name == "dense-grid":
            values[name] = workload.digest(done.output)
        else:
            fingerprints[name] = done.output.fingerprint()
    if len(set(fingerprints.values())) != 1:
        raise SystemExit(f"backends disagree: {fingerprints}")
    values["campaign"] = fingerprints["campaign-warm"]
    GOLDEN_PATH.write_text(json.dumps(values, indent=2, sort_keys=True) + "\n",
                           encoding="utf-8")
    return values


if __name__ == "__main__":
    import run  # puts the checkout's src/ on sys.path

    run.use_checkout_sources()
    print(json.dumps(regenerate(), indent=2, sort_keys=True))
