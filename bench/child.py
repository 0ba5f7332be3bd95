"""One benchmark process: import, set up one workload, run rounds, report.

``run.py`` starts this script in a fresh interpreter for every sample, so
library caches start cold.  Its only argument is a JSON job:

    workload, seed      which inputs to generate
    first_round         index of the first round to run
    max_rounds          rounds to run (0: set-up only)
    trace               1 to record spans around the library calls
    plant               index of one output value to corrupt, or -1
    import_only         only import the modules (compiles them once)

The last line of standard output is the JSON result.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
TRACE_DIR = BENCH / "_traces"


def main() -> int:
    job = json.loads(sys.argv[1])
    sys.path.insert(0, str(ROOT / "src"))
    import diamondlab as dl
    from diamondlab import io as dio
    if Path(dl.__file__).resolve().parent != ROOT / "src" / "diamondlab":
        print(f"diamondlab was imported from {dl.__file__}, not from this "
              f"checkout", file=sys.stderr)
        return 2
    from tracer import Tracer, layer_metrics, baselines
    from workloads import WORKLOADS, Recorder
    if job.get("import_only"):
        return 0

    workload = WORKLOADS[job["workload"]]
    tracer = Tracer() if job["trace"] else None
    if tracer is not None:
        tracer.install()
    stats_before = dl.norm_statistics()
    workdir = BENCH / "_work" / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        ctx = workload.setup(dl, dio, str(workdir))
        ready_at = time.monotonic()
        rec = Recorder(job["plant"])
        rounds = []
        for round_no in range(job["first_round"],
                              job["first_round"] + job["max_rounds"]):
            inputs = workload.inputs(job["seed"], round_no)
            start = time.perf_counter()
            workload.run_round(ctx, inputs, rec)
            rounds.append({"round": round_no,
                           "wall_s": time.perf_counter() - start,
                           "digest": rec.take_digest()})
    finally:
        if tracer is not None:
            tracer.restore()
        shutil.rmtree(workdir, ignore_errors=True)
        if workdir.parent.exists() and not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()

    stats_after = dl.norm_statistics()
    result = {
        "ready_at": ready_at,
        "rounds": rounds,
        "ops": rec.ops,
        "failed": rec.failed,
        "failures": rec.failures,
        "latencies_ms": rec.latencies_ms,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "solves": stats_after["norms"] - stats_before["norms"],
        "gap_checks": stats_after["gap_checks"] - stats_before["gap_checks"],
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, result, rec)
        result["baselines"] = baselines(tracer)
        TRACE_DIR.mkdir(exist_ok=True)
        out = TRACE_DIR / f"{job['workload']}-seed{job['seed']}.json"
        with open(out, "w", encoding="utf-8") as fh:
            json.dump({"job": job, "spans": tracer.spans}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
