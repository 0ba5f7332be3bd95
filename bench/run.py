"""The diamondlab benchmark.

    python3 bench/run.py --workload {stage,transport,game} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from ``src/``.
Workloads are defined in ``workloads.py`` and described in
``BENCHMARK.json`` and ``record.json``.

Untraced (``--trace 0``): ``PROCESSES`` fresh interpreters run one after
the other.  Each imports the package and sets the workload up (its
``setup_s`` sample), then runs its rounds; ``plan`` sizes the rounds from
``--seconds``.  Workloads whose rounds must start cold run at most one
round per process.  The end-to-end metrics are ``setup_s`` (median over
processes), ``wall_s`` (median round time) and ``peak_rss_mb`` (largest
process).  Operation latency quantiles are printed with their sample
count but are not metrics: a stage round has 38 distinct steps, so its
quantiles are single timings of particular steps.

Traced (``--trace 1``): one untraced and one traced process each set up
and run round 0; their output digests must agree.  The per-layer metrics
come from the traced process, set-up included; ``trace.overhead_s`` is
the traced round time minus the untraced one.

Every operation checks its outputs; a failed check, or a round-0 digest
that differs from ``expected_digests.json`` for a shipped seed, counts in
``failed``.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS  # noqa: E402  (stdlib only, no diamondlab)

PROCESSES = 3            # set-up samples per run
PROCESS_TIMEOUT_S = 170  # for all processes of a run together


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update({"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"})
    env.pop("PYTHONPATH", None)
    return env


def spawn(job: dict, run_start: float) -> tuple[float, dict]:
    """Run one child process; return its spawn time and parsed result."""
    timeout = max(1.0, PROCESS_TIMEOUT_S - (time.monotonic() - run_start))
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), json.dumps(job)],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"benchmark process timed out after {timeout:.0f}s"
                         ) from exc
    if proc.returncode != 0:
        raise BenchError(f"benchmark process exited with {proc.returncode}:"
                         f"\n{proc.stderr.strip()}")
    if job.get("import_only"):
        return spawned, {}
    return spawned, json.loads(proc.stdout.strip().splitlines()[-1])


def job_for(args, **fields) -> dict:
    job = {"workload": args.workload, "seed": args.seed, "trace": 0,
           "plant": -1, "first_round": 0, "max_rounds": 0}
    job.update(fields)
    return job


def plan(args) -> list[int]:
    """Rounds for each process of an untraced run.

    ``--seconds`` sizes the work through the workload's nominal round
    time, so every run with the same ``--seconds`` does the same work,
    whatever the machine's speed at that moment and on either commit.
    """
    workload = WORKLOADS[args.workload]
    total = max(1, round(args.seconds / workload.nominal_round_s))
    if workload.cold_rounds:
        return [1] * total + [0] * (PROCESSES - total)
    return [max(1, round(total / PROCESSES))] * PROCESSES


def timed_pass(args, run_start: float) -> tuple[list[dict], list[float]]:
    results, setups = [], []
    first_round = 0
    for rounds in plan(args):
        job = job_for(args, first_round=first_round, max_rounds=rounds,
                      plant=args.plant_fault if not results else -1)
        spawned, res = spawn(job, run_start)
        setups.append(res["ready_at"] - spawned)
        results.append(res)
        first_round += rounds
    return results, setups


def check_digest(args, rounds: list[dict], failures: list[str]) -> int:
    """Compare round 0 with the stored digest; return the failures added."""
    with open(BENCH / "expected_digests.json", encoding="utf-8") as fh:
        expected = json.load(fh).get(args.workload, {}).get(str(args.seed))
    first = next(r for r in rounds if r["round"] == 0)
    if expected is None:
        print(f"round-0 digest {first['digest']} (no stored digest for "
              f"seed {args.seed})")
        return 0
    if first["digest"] != expected:
        failures.append(f"round-0 digest {first['digest']} differs from the "
                        f"stored {expected}")
        return 1
    print(f"round-0 digest matches the stored one for seed {args.seed}")
    return 0


def declared_metrics(key: str) -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[key]}


def run_untraced(args, run_start: float) -> tuple[dict, int, int, list]:
    results, setups = timed_pass(args, run_start)
    rounds = [r for res in results for r in res["rounds"]]
    latencies = [x for res in results for x in res["latencies_ms"]]
    failures = [f for res in results for f in res["failures"]]
    failed = (sum(res["failed"] for res in results)
              + check_digest(args, rounds, failures))
    p50 = statistics.median(latencies)
    p90 = statistics.quantiles(latencies, n=10, method="inclusive")[8]
    beyond = sum(1 for x in latencies if x > p90)
    print(f"{args.workload}: {len(results)} processes, {len(rounds)} rounds, "
          f"norm solves {sum(r['solves'] for r in results)}; operation "
          f"latency p50 {p50:.3f} ms, p90 {p90:.3f} ms over "
          f"{len(latencies)} operations ({beyond} beyond p90)")
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(r["wall_s"] for r in rounds),
        "peak_rss_mb": max(r["rss_kb"] for r in results) / 1024,
    }
    return metrics, sum(res["ops"] for res in results), failed, failures


def run_traced(args, run_start: float) -> tuple[dict, int, int, list]:
    _, plain = spawn(job_for(args, max_rounds=1), run_start)
    _, traced = spawn(job_for(args, max_rounds=1, trace=1), run_start)
    failures = plain["failures"] + traced["failures"]
    failed = plain["failed"] + traced["failed"]
    if plain["rounds"][0]["digest"] != traced["rounds"][0]["digest"]:
        failures.append("the traced round-0 digest differs from the "
                        "untraced one")
        failed += 1
    failed += check_digest(args, plain["rounds"], failures)
    for group, rows in traced["baselines"].items():
        if rows:
            print(f"{group}: " + ", ".join(
                f"{k}: {v['median']:.4f} (n={v['n']})"
                for k, v in rows.items()))
    metrics = dict(traced["layers"])
    metrics["trace.overhead_s"] = (traced["rounds"][0]["wall_s"]
                                   - plain["rounds"][0]["wall_s"])
    return metrics, plain["ops"] + traced["ops"], failed, failures


def main(argv=None) -> int:
    # A terminated run raises SystemExit, and subprocess.run then kills
    # and reaps the running benchmark process.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--plant-fault", type=int, default=-1,
                        help="corrupt the N-th output value of the first "
                             "process (used by selftest.py)")
    args = parser.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be positive and --seed nonnegative")

    run_start = time.monotonic()
    try:
        declared = declared_metrics("per_layer" if args.trace else "end_to_end")
        # Compile the package and the benchmark modules once, so no
        # sample pays for byte-compilation.
        spawn({"import_only": True}, run_start)
        runner = run_traced if args.trace else run_untraced
        metrics, ops, failed, failures = runner(args, run_start)
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if set(metrics) != set(declared):
        print(f"metrics {sorted(set(metrics) ^ set(declared))} do not match "
              f"BENCHMARK.json", file=sys.stderr)
        return 1
    for message in failures:
        print(f"FAILED {message}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": ops,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": declared[name]}
                    for name in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
