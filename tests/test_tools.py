import importlib.util
from pathlib import Path

CODE_LINES = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"


SAMPLE = '''"""Module docstring,
two lines."""

import os  # a trailing comment keeps its line


# a comment-only line
class A:
    """Class docstring."""

    x = (1,
         2)

    def f(self):
        """Function
        docstring."""
        return """not a
docstring"""
'''


def test_code_lines_counts_code_not_docstrings(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("code_lines", CODE_LINES)
    code_lines = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(code_lines)
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE)
    # import, class, x's two lines, def, and the return's two lines
    assert code_lines.code_lines(path) == 7
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "b.py").write_text("y = 1\n")
    assert code_lines.main([str(path), str(tmp_path / "pkg")]) == 0
    assert capsys.readouterr().out.split("\n")[-2].split() == ["8", "total"]
