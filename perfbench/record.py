"""Record the behaviour references in references.json.

For each workload, at its default seed, the held-out seed and (for
workloads that use them) every companion seed, one run on the default
datapath and one on the interpreted reference datapath must agree; their
fingerprint and delivered-packet count are recorded.
Run from the repository root::

    python3 perfbench/record.py

Re-record only when a change is meant to alter simulated behaviour.
"""

from __future__ import annotations

import json
import sys
import time

import catalog
from run import REFERENCES, run_child


def main() -> int:
    references = {}
    for name, workload in catalog.WORKLOADS.items():
        references[name] = {}
        seeds = [workload.default_seed, catalog.HELD_OUT_SEED]
        if workload.seeds_per_run > 1:
            seeds += catalog.COMPANION_SEEDS
        for seed in seeds:
            deadline = time.monotonic() + 600
            runs = [run_child(name, seed, "timed", ref, deadline) for ref in (False, True)]
            for run in runs:
                if "error" in run:
                    print(f"{name} seed={seed}: {run['error']}", file=sys.stderr)
                    return 1
            default, reference = runs
            if default["fingerprint"] != reference["fingerprint"] or (
                default["counters"]["pkts.delivered"]
                != reference["counters"]["pkts.delivered"]
            ):
                print(f"{name} seed={seed}: datapaths disagree", file=sys.stderr)
                return 1
            references[name][str(seed)] = {
                "fingerprint": default["fingerprint"],
                "delivered": default["counters"]["pkts.delivered"],
            }
            print(f"{name} seed={seed}: {references[name][str(seed)]}")
    with open(REFERENCES, "w") as handle:
        json.dump(references, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
