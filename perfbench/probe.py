"""Set-up probe: in a fresh process, import revsle.cli and finish one
smallest-size call of everything a workload's pass uses.

    python3 perfbench/probe.py <workload> <seed> <out-dir>

Prints the elapsed seconds, timed from before the first revsle import.  Exits
1 if a call returned a code other than 0 or 1 (1 is a statistical verdict).
"""

import time

T0 = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import revsle.cli  # noqa: E402,F401
from workloads import WORKLOADS, Api  # noqa: E402


def main() -> int:
    name, seed, out = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    with contextlib.redirect_stdout(io.StringIO()):
        codes = WORKLOADS[name](seed).run_smallest(Api(), out)
    print(repr(time.perf_counter() - T0))
    return 0 if all(c in (0, 1) for c in codes) else 1


if __name__ == "__main__":
    sys.exit(main())
