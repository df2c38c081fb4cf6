"""Set-up probe: a fresh interpreter imports ``dskg.cli`` and runs a workload's
first operation, then prints the seconds that took.

Usage (from the repository root): python3 perfbench/probe.py WORKLOAD SEED
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import dskg.cli  # noqa: F401  (the import is part of what is timed)
    import workloads

    workloads.run_op(workloads.make_pass(sys.argv[1], int(sys.argv[2]))[0])
    print(repr(time.perf_counter() - T0))
    return 0


if __name__ == "__main__":
    sys.exit(main())
