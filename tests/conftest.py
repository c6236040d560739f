"""Point subprocesses started by the tests (python -m newsmarket) at the
in-tree sources, as pyproject's pythonpath does for the test process."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
