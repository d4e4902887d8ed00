"""README's library example runs as written, so its API names cannot go stale."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_block_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], f"{README}:python", "exec"), {"__name__": "readme"})
    assert "entangled_certified" in capsys.readouterr().out
