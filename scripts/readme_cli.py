"""Run every `bosegas ...` line of the README "Command line" block.

Usage: python scripts/readme_cli.py OUTDIR

Each command runs as `python -m bosegas.cli` on the src/ tree of the checkout
that holds this script.  `--out FILE` is dropped and the CSV goes to
OUTDIR/NN_<subcommand>.csv without its `# version` line, so the output of two
checkouts can be compared with `diff -r`.
"""

from __future__ import annotations

import os
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def readme_commands(readme: Path) -> list[list[str]]:
    section = readme.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = section.split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("bosegas ")]


def without_out(args: list[str]) -> list[str]:
    if "--out" not in args:
        return args
    i = args.index("--out")
    return args[:i] + args[i + 2 :]


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python scripts/readme_cli.py OUTDIR", file=sys.stderr)
        return 2
    outdir = Path(argv[0])
    outdir.mkdir(parents=True, exist_ok=True)
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    for i, args in enumerate(readme_commands(ROOT / "README.md"), 1):
        args = without_out(args)
        proc = subprocess.run(
            [sys.executable, "-m", "bosegas.cli", *args], capture_output=True, env=env
        )
        if proc.returncode != 0:
            sys.stderr.buffer.write(proc.stderr)
            print(f"bosegas {shlex.join(args)}: exit {proc.returncode}", file=sys.stderr)
            return 1
        lines = proc.stdout.splitlines(keepends=True)
        target = outdir / f"{i:02d}_{args[0]}.csv"
        target.write_bytes(b"".join(x for x in lines if not x.startswith(b"# version = ")))
        print(target)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
