"""Make the benchmark's own tests import logsurf from the checkout's sources."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
