"""Print the seconds a fresh process needs to import chernpatch and build a
workload's objects for its first pass.

    python3 perfbench/setup_probe.py descent 1

run.py starts several of these and reports the median as setup_s.
"""

import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main():
    name, seed = sys.argv[1], int(sys.argv[2])
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import chernpatch  # noqa: F401
    import workloads
    workload = workloads.WORKLOADS[name]
    workload.build(workloads.pass_seeds(seed, 0), workload.sizes,
                   lambda fn: fn)
    print(time.perf_counter() - t0)


if __name__ == "__main__":
    main()
