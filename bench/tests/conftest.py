"""Tests of the benchmark itself.  Not collected by tier-1 (whose ``testpaths``
is ``tests``); run with ``python -m pytest bench/tests``."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for entry in (ROOT / "src", ROOT):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))
