"""Benchmark harness configuration.

Each bench regenerates one of the paper's tables/figures at full
experiment resolution, prints the rows/series the paper reports (run
with ``-s`` to see them), asserts the paper's qualitative claims, and
times the run with pytest-benchmark.
"""

import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
)
