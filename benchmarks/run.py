"""Benchmark entry point: python3 benchmarks/run.py --workload W --seed N --seconds S --trace 0|1.

Pins BLAS to one thread before numpy loads and notes the start time, so a
``--setup-probe`` process can report how long importing spinaxes and warming
up took from a cold start. Everything else lives in harness.py, which imports
only the standard library at module level.
"""

import os
import sys
from time import perf_counter

STARTED = perf_counter()

if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import harness

    for var in harness.BLAS_ENV:
        os.environ[var] = "1"
    sys.exit(harness.main(sys.argv[1:], STARTED))
