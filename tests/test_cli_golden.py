"""The CLI's bytes, pinned: stdout, stderr and exit code of each command below.

``tests/golden_cli.json`` holds what every command in COMMANDS printed when
the file was generated, and the sha256 of each file a command wrote. The
commands run in-process through ``entcert.cli.main``. ``{data}`` stands for
the shipped ``data/`` directory and ``{tmp}`` for a scratch directory, in the
commands and in their output alike.

Regenerate the file with

    PYTHONPATH=src python tests/test_cli_golden.py

only when a change means to alter what the CLI prints, and name the entries
that changed, and why, in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from entcert.cli import main

TESTS = Path(__file__).resolve().parent
DATA = TESTS.parent / "data"
GOLDEN = TESTS / "golden_cli.json"

# A 2x2 state that is off Hermitian by 1e-3 in one entry.
NON_HERMITIAN = """dm v1
dims 2 2
0.25,0.0 0.001,0.0 0.0,0.0 0.0,0.0
0.0,0.0 0.25,0.0 0.0,0.0 0.0,0.0
0.0,0.0 0.0,0.0 0.25,0.0 0.0,0.0
0.0,0.0 0.0,0.0 0.0,0.0 0.25,0.0
"""

DM_FILES = sorted(p.name for p in DATA.glob("*.dm"))
COMMANDS = [
    *(
        f"{cmd} {{data}}/{name}{opts}"
        for name in DM_FILES
        for cmd, opts in (
            ("detect", ""),
            ("detect", " --json"),
            ("ppt", ""),
            ("detect", " --optimize --json --seed 0"),
        )
    ),
    "detect {data}/horodecki33_3.5.dm --pair 2 1",
    "detect {data}/horodecki33_3.5.dm --pair 0 1",
    "detect {data}/horodecki33_3.5.dm --pair 1 7",
    "detect {data}/horodecki33_3.5.dm --optimize --pair 1 7",
    "detect {data}/werner_1.0.dm --optimize --restarts 0",
    "detect {tmp}/non_hermitian.dm",
    "scan werner --pair 2 1 --out {tmp}/bad.csv",
    "make-state werner --a 1.5 --out {tmp}/bad.dm",
    "make-state iso23 --a -0.1 --out {tmp}/bad.dm",
    "make-state horodecki33 --alpha 1.5 --out {tmp}/bad.dm",
    # Refusals on each side of the read: an argument refused before the
    # input file is opened is a usage error (3) even when the file is
    # missing; from the read on, an input error (4).
    "detect {data}/werner_1.0.dm --seed -1",
    "detect {tmp}/missing.dm --restarts 0",
    "make-state werner --a nan --out {tmp}/bad.dm",
    "scan werner --param-min nan --out {tmp}/bad.csv",
    "ppt {tmp}/missing.dm",
    "basis --dim 1 --out {tmp}/b.txt",
    *(f"scan {family} --out {{tmp}}/{family}.csv" for family in ("werner", "iso23", "horodecki33")),
    # Grids whose parameter count falls on, just past or short of a chunk
    # edge of the scan's contraction, and a single-parameter grid.
    "scan horodecki33 --pair 1 3 --param-steps 37 --p-steps 53 --out {tmp}/h37.csv",
    "scan iso23 --param-steps 17 --p-steps 2 --out {tmp}/i17.csv",
    "scan werner --param-steps 1 --out {tmp}/w1.csv",
    "scan werner --param-steps 16 --p-steps 11 --out {tmp}/w16.csv",
]


def run_commands(tmp: Path) -> dict:
    """Each command's exit code, stdout and stderr, plus the sha256 of the
    file its ``--out`` names (None when none was written)."""
    (tmp / "non_hermitian.dm").write_text(NON_HERMITIAN, encoding="ascii")
    results = {}
    for command in COMMANDS:
        argv = [arg.format(data=DATA, tmp=tmp) for arg in command.split()]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        record = {
            "exit": code,
            "stdout": out.getvalue().replace(str(tmp), "{tmp}"),
            "stderr": err.getvalue().replace(str(tmp), "{tmp}"),
        }
        if "--out" in argv:
            path = Path(argv[argv.index("--out") + 1])
            record["out_sha256"] = (
                hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None
            )
            path.unlink(missing_ok=True)
        results[command] = record
    return results


def test_cli_output_matches_golden(tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert run_commands(tmp_path) == golden


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        results = run_commands(Path(tmp))
    GOLDEN.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(results)} commands to {GOLDEN}", file=sys.stderr)
