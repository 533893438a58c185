"""Make the benchmark's modules and the simulator importable from these tests.

Run with ``python -m pytest benchmarks/e2e/tests -q`` from the
repository root (tier-1 collects only ``tests/``).
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (HERE.parents[2] / "src", HERE.parent):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
