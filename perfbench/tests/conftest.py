"""Make the benchmark's modules importable as top-level modules, as
``python3 perfbench/run.py`` does."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
