"""Puts the benchmark's modules on the import path for its tests.

Run with ``python3 -m pytest bench/tests``.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
