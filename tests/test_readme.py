"""The README's examples run as written, and its command lines parse."""

import runpy
from pathlib import Path

import pytest

from bosegas.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
COMMANDS = runpy.run_path(str(ROOT / "scripts" / "readme_cli.py"))["readme_commands"](README)


def test_library_tour_runs():
    section = README.read_text(encoding="utf-8").split("## Library tour", 1)[1]
    code = section.split("```python", 1)[1].split("```", 1)[0]
    exec(compile(code, "<README library tour>", "exec"), {})


@pytest.mark.parametrize(
    "argv", COMMANDS, ids=[f"{i:02d}_{argv[0]}" for i, argv in enumerate(COMMANDS, 1)]
)
def test_command_line_parses(argv):
    # parsing only: a renamed or removed flag fails here, not in the docs
    args = build_parser().parse_args(argv)
    assert args.command == argv[0]
