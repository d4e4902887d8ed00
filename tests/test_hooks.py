"""The names the benchmark's tracer hooks by must stay bound.

``perfbench/spans.py`` wraps entcert functions where the calling module
looks them up, with a bare ``getattr``; a module that stops binding one of
those names makes every traced benchmark run fail. The file is only read
here, never executed.
"""

import ast
import importlib
from pathlib import Path

import pytest

from entcert import BipartiteShape, SearchConfig, horodecki33, maximize_violation

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _hooks():
    for node in ast.parse(SPANS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["HOOKS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/spans.py defines no HOOKS")


@pytest.mark.skipif(not SPANS.exists(), reason="perfbench/spans.py is not present")
def test_tracer_hook_names_resolve():
    hooks = _hooks()
    assert hooks
    missing = [
        f"{mod}.{attr}"
        for mod, attr, _span in hooks
        if not hasattr(importlib.import_module(mod), attr)
    ]
    assert not missing, f"hooked names no longer bound: {missing}"

    search = importlib.import_module("entcert.search")
    assert callable(search.minimize)
    assert isinstance(search.SCAN_FAMILIES, dict)
    for name, entry in search.SCAN_FAMILIES.items():
        assert isinstance(name, str)
        fn, shape = entry
        assert callable(fn)
        assert isinstance(shape, BipartiteShape)


def test_search_calls_minimize_through_the_module(monkeypatch):
    # The tracer counts starts and objective calls by replacing
    # search.minimize; a search that reaches the optimizer another way
    # escapes it. Two restart counts give two different start counts.
    search = importlib.import_module("entcert.search")
    rho = horodecki33(5.0)
    few = SearchConfig(seed=0, restarts=2)
    more = SearchConfig(seed=0, restarts=5)
    plain = {cfg: maximize_violation(rho, cfg) for cfg in (few, more)}

    starts, calls = [], []
    real = search.minimize

    def counting_minimize(fun, x0, *args, **kwargs):
        def counted(x, *a):
            calls.append(1)
            return fun(x, *a)

        starts.append(1)
        return real(counted, x0, *args, **kwargs)

    monkeypatch.setattr(search, "minimize", counting_minimize)
    for cfg, expected_starts in ((few, 3), (more, 6)):
        starts.clear()
        calls.clear()
        traced = maximize_violation(rho, cfg)
        assert len(starts) == expected_starts
        assert len(calls) == traced.evaluations
        assert traced == plain[cfg]
