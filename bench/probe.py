"""Set-up probe: in a fresh interpreter, import evebounds, run a workload's
first call and print the system-wide monotonic clock.  `run.py` starts it
and takes the difference from its own clock reading at the start.

    python3 bench/probe.py <workload> <seed> <workdir>
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402

if __name__ == "__main__":
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    workloads.make(name, seed, workdir).call(0)
    print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)), flush=True)
