"""Record the round-0 output digests that run.py checks shipped seeds against.

    python3 bench/digests.py --seeds 0-9 [--workload NAME ...]

Runs round 0 of each workload for each seed in a fresh process and merges
the digests into ``expected_digests.json``.  Rerun it only when a change
is meant to alter the program's exact outputs, and say so in the change.
"""

from __future__ import annotations

import argparse
import json
import time

from run import BENCH, WORKLOADS, job_for, spawn


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True,
                        help="inclusive range such as 0-9")
    parser.add_argument("--workload", action="append",
                        choices=sorted(WORKLOADS))
    args = parser.parse_args()
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    path = BENCH / "expected_digests.json"
    with open(path, encoding="utf-8") as fh:
        table = json.load(fh)
    for workload in args.workload or sorted(WORKLOADS):
        for seed in seeds:
            job = job_for(argparse.Namespace(workload=workload, seed=seed),
                          max_rounds=1)
            _, result = spawn(job, time.monotonic())
            if result["failed"]:
                raise SystemExit(f"{workload} seed {seed} failed its checks: "
                                 f"{result['failures']}")
            table.setdefault(workload, {})[str(seed)] = \
                result["rounds"][0]["digest"]
            print(workload, seed, result["rounds"][0]["digest"], flush=True)
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(table, fh, indent=1, sort_keys=True)
                fh.write("\n")


if __name__ == "__main__":
    main()
