import importlib.util
import json
from pathlib import Path

import numpy as np

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


REPORT_SWEEP = CODE_LINES.parent / "report_sweep.py"


def _report(verdict="entangled_certified", best_f=0.5, theta_a=(0.0, 0.0, 0.0), evaluations=10):
    return {"verdict": verdict, "best_f": best_f, "best_pair": [1, 2],
            "best_params": {"theta_a": list(theta_a), "theta_b": [0.0, 0.0, 0.0]},
            "y_values": {"y1": 0.0, "y2": 0.0, "y3": 0.0, "f": best_f},
            "ppt_min": -0.1, "ppt_verdict": "entangled", "evaluations": evaluations}


def test_report_sweep_compare(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("report_sweep", REPORT_SWEEP)
    report_sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(report_sweep)
    base = {"2x2/s0/search0": _report(), "2x2/s0/identity": _report(evaluations=1)}
    new = {"2x2/s0/search0": _report(best_f=0.5 + 2**-20, theta_a=(0.0, 0.25, 0.0), evaluations=13),
           "2x2/s0/identity": _report(evaluations=1)}
    paths = {}
    for name, reports in (("base", base), ("new", new)):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(reports))
    assert report_sweep.main(["compare", str(paths["base"]), str(paths["new"])]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "moved: 1 of 2 reports",
        "  2x2/s0/search0",
        "verdict changes: 0",
        "evaluation changes: 1 (total 11 -> 14)",
        "  2x2/s0/search0: 10 -> 13",
        "max |d theta|: 0.25",
        "max |d best_f|: 9.54e-07",
    ]

    new["2x2/s0/identity"] = _report(verdict="inconclusive", evaluations=1)
    paths["new"].write_text(json.dumps(new))
    assert report_sweep.main(["compare", str(paths["base"]), str(paths["new"])]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "moved: 2 of 2 reports"
    assert "  2x2/s0/identity: entangled_certified -> inconclusive" in out
    assert report_sweep.main(["compare", str(paths["base"])]) == 2


FORMAT_SWEEP = CODE_LINES.parent / "format_sweep.py"


def test_format_sweep_counts_mismatches(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("format_sweep", FORMAT_SWEEP)
    format_sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(format_sweep)
    assert format_sweep.main(["20000", "3"]) == 0
    assert capsys.readouterr().out.startswith("20000 values (seed 3): 0 mismatches in ")

    from entcert import dmfile

    kernel = dmfile._format_e16

    def off_by_one_digit(values, out):  # the last mantissa digit of 1.5 goes wrong
        kernel(values, out)
        out[values == 1.5, 19] += 1

    monkeypatch.setattr(dmfile, "_format_e16", off_by_one_digit)
    values = format_sweep.draw(np.random.default_rng(3), 20000)
    values[[5, 17]] = 1.5
    monkeypatch.setattr(format_sweep, "draw", lambda rng, n: values[:n])
    assert format_sweep.main(["20000", "3"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[:2] == ["mismatch: 1.5: kernel '1.5000000000000001e+00', % '1.5000000000000000e+00'"] * 2
    assert out[2].startswith("20000 values (seed 3): 2 mismatches in ")
