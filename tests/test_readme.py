"""The README's examples run as written, its command lines parse, and they
write the recorded bytes."""

import hashlib
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from bosegas.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
COMMANDS = runpy.run_path(str(ROOT / "scripts" / "readme_cli.py"))["readme_commands"](README)


def library_tour():
    section = README.read_text(encoding="utf-8").split("## Library tour", 1)[1]
    return section.split("```python", 1)[1].split("```", 1)[0]


def test_library_tour_runs():
    exec(compile(library_tour(), "<README library tour>", "exec"), {})


def test_library_tour_builds_each_table_once(table_batches, capsys):
    # the spectrum at the T(N_0/N) root reads the root's table, not a rebuild
    exec(compile(library_tour(), "<README library tour>", "exec"), {})
    built = [
        (table.system, table.n_atoms, table.temperature)
        for batch in table_batches for _, table in batch
    ]
    assert built and len(built) == len(set(built))


@pytest.mark.parametrize(
    "argv", COMMANDS, ids=[f"{i:02d}_{argv[0]}" for i, argv in enumerate(COMMANDS, 1)]
)
def test_command_line_parses(argv):
    # parsing only: a renamed or removed flag fails here, not in the docs
    args = build_parser().parse_args(argv)
    assert args.command == argv[0]


# SHA-256 of the CSVs that scripts/readme_cli.py writes, one per README command
COMMAND_LINE_DIGESTS = {
    "01_occupations.csv": "70ba0d8b177eed35b3bc5f72573454500226aa425f71e4d244253b58b4e203d5",
    "02_sticking.csv": "e66c45d704507024c8d0e1fa259e391419b887555ebada1ba802d264a298b0dd",
    "03_sticking.csv": "e48a593d4458952c61d21ecaf084f47b76b661229f02dd5da7caf65df5c0a13b",
    "04_tph.csv": "2dc3a44baf8016a4fabffffd7312f90ff0efa105bfe41c7e05fab67ac4f4b85b",
    "05_aspect.csv": "7b581b843fd6e2a3a34a7ea8abb4f737792f74ccd4dac49bc2bfc3469a7a143e",
    "06_g1.csv": "de37201433eb87a83655ca0aedfdbf1465795ac625ba9f3bde37a5c09dffcd39",
}


@pytest.mark.slow
def test_command_line_bytes(tmp_path):
    """Every README command writes the same bytes as when the digests were
    recorded (numpy 2.4.6, the one runtime dependency); other numpy versions
    may move last digits."""
    script = ROOT / "scripts" / "readme_cli.py"
    proc = subprocess.run(
        [sys.executable, str(script), str(tmp_path)], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(tmp_path.glob("*.csv"))
    }
    assert digests == COMMAND_LINE_DIGESTS
