"""The CLI tests run ``python -m bosegas.cli`` in subprocesses; those import
the package from this checkout's src/, as the in-process tests do."""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
