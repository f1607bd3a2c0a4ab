#!/usr/bin/env python3
"""Record the SHA-256 of every workload's pass output for seeds 0-31.

    python3 perfbench/record.py

Writes ``perfbench/digests.json``, which run.py checks every pass against.
Run it again, in the same change, only when a change alters the sweep's
output bytes on purpose.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import check  # noqa: E402
import workloads  # noqa: E402
from worker import OUT_DIR, run_pass  # noqa: E402

SEEDS = range(32)


def main():
    os.makedirs(OUT_DIR, exist_ok=True)
    digests = {}
    for name in workloads.NAMES:
        digests[name] = {}
        for seed in SEEDS:
            chunks, ontology, round_trip_ok = workloads.build_inputs(name, seed, OUT_DIR)
            _, texts, _ = run_pass(chunks, ontology)
            problems = check.check_pass(texts, chunks[0][1].snr_points)
            if problems or not round_trip_ok:
                print(f"error: {name} seed {seed}: {problems or 'round trip changed corpus'}",
                      file=sys.stderr)
                return 1
            digests[name][str(seed)] = check.sha256("".join(texts))
            print(f"{name} {seed} {digests[name][str(seed)]}", flush=True)
    with open(check.DIGESTS_PATH, "w", encoding="utf-8") as fh:
        json.dump(dict(sorted(digests.items())), fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
