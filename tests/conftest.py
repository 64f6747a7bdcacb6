"""The CLI tests run ``python -m bosegas.cli`` in subprocesses; those import
the package from this checkout's src/, as the in-process tests do."""

import os
from pathlib import Path

import pytest

import bosegas.canonical
import bosegas.cli

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)


@pytest.fixture
def table_batches(monkeypatch):
    """Records each in-process build_partition_tables call, in bosegas.canonical
    and bosegas.cli, as its list of ((system, state), returned table) pairs."""
    batches = []
    original = bosegas.canonical.build_partition_tables

    def recording(lanes):
        tables = original(lanes)
        batches.append(list(zip(lanes, tables)))
        return tables

    for module in (bosegas.canonical, bosegas.cli):
        monkeypatch.setattr(module, "build_partition_tables", recording)
    return batches
