"""README's library example runs as written, and its exit table matches
the CLI's, so neither can go stale."""

import re
from pathlib import Path

from entcert.cli import _EXIT, EXIT_INPUT, EXIT_USAGE

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_block_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], f"{README}:python", "exec"), {"__name__": "readme"})
    assert "entangled_certified" in capsys.readouterr().out


def test_readme_exit_table_matches_the_cli():
    # Each row's first word names what the code means: a verdict _EXIT maps,
    # "usage" or "input".
    section = README.read_text(encoding="utf-8").split("### Exit codes\n", 1)[1]
    rows = re.findall(r"^\| (\d+) \| (\w+)", section.split("\n## ", 1)[0], re.M)
    kinds = {**_EXIT, "usage": EXIT_USAGE, "input": EXIT_INPUT}
    assert [int(code) for code, _ in rows] == sorted({*kinds.values()})
    for code, word in rows:
        assert kinds[word] == int(code), word
