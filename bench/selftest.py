"""Show that the benchmark's output checks can fail.

    python3 bench/selftest.py

For each workload, runs ``run.py`` once with one output value corrupted
(``--plant-fault``) on a seed whose round-0 digest is stored, and
requires the run to report ``failed > 0`` and ``correct: false``.  A
corrupted value is caught by its operation's own check or, for values
only the digest covers, by the stored round-0 digest.  Exits 1 if any
planted fault goes unnoticed.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent

# (workload, index of the corrupted output value): index 0 is checked by
# the operation itself; the others are caught by the digest.
PLANTS = (("stage", 0), ("transport", 0), ("transport", 7), ("game", 1))
SEED = 1


def main() -> int:
    unnoticed = 0
    for workload, index in PLANTS:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload,
             "--seed", str(SEED), "--seconds", "1", "--trace", "0",
             "--plant-fault", str(index)],
            cwd=BENCH.parent, capture_output=True, text=True, timeout=300)
        if proc.returncode != 0:
            print(f"ERROR {workload}: run.py exited {proc.returncode}\n"
                  f"{proc.stderr}")
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        caught = result["failed"] > 0 and result["correct"] is False
        unnoticed += not caught
        print(f"{'ok' if caught else 'UNNOTICED'} {workload} value {index}: "
              f"failed={result['failed']} of {result['attempted']}")
    return 1 if unnoticed else 0


if __name__ == "__main__":
    sys.exit(main())
