"""Make the checkout's sources importable when the benchmark's tests run alone.

Run them with ``python -m pytest -W error::ResourceWarning perfbench``.
"""

import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)
