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

from entcert import BipartiteShape, SearchConfig, horodecki33, maximize_violation, werner
from conftest import noisy_random_state

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


def _count_minimize(monkeypatch):
    """Replace search.minimize with a counting pass-through, as the tracer
    does; returns the lists it appends to per start and per objective call."""
    search = importlib.import_module("entcert.search")
    starts, calls = [], []
    real = search.minimize

    def counting_minimize(fun, x0, *args, **kwargs):
        def counted(x, *a):
            calls.append(1)
            return fun(x, *a)

        starts.append(1)
        return real(counted, x0, *args, **kwargs)

    monkeypatch.setattr(search, "minimize", counting_minimize)
    return starts, calls


def test_search_calls_minimize_through_the_module(monkeypatch):
    # The tracer counts starts and objective calls by replacing
    # search.minimize; a search that reaches the optimizer another way
    # escapes it. Starts per restart count (2 and 5), for two NPT states:
    cases = {
        # no start reaches the spectral bound, so the zero start, the
        # eigenvector start and every seeded start run;
        "noisy 3x3 #0": (noisy_random_state(3, 3, 0), {2: 4, 5: 7}),
        # the eigenvector start reaches it, whatever the restart count.
        "horodecki33(5)": (horodecki33(5.0), {2: 2, 5: 2}),
    }
    plain = {
        (name, restarts): maximize_violation(rho, SearchConfig(seed=0, restarts=restarts))
        for name, (rho, expected) in cases.items()
        for restarts in expected
    }

    starts, calls = _count_minimize(monkeypatch)
    for name, (rho, expected) in cases.items():
        for restarts, expected_starts in expected.items():
            starts.clear()
            calls.clear()
            traced = maximize_violation(rho, SearchConfig(seed=0, restarts=restarts))
            assert len(starts) == expected_starts, (name, restarts)
            assert len(calls) == traced.evaluations
            assert traced == plain[name, restarts]


def test_search_stopped_after_its_first_start_still_calls_minimize(monkeypatch):
    # werner(1)'s identity columns already reach the spectral bound, so its
    # search ends after the zero start. perfbench/run.py reads the tracer's
    # minimize span with no default, so even that search must pass through
    # search.minimize, and the tracer must count every objective call.
    rho = werner(1.0)
    cfg = SearchConfig(seed=0)
    plain = maximize_violation(rho, cfg)

    starts, calls = _count_minimize(monkeypatch)
    traced = maximize_violation(rho, cfg)
    assert len(starts) == 1
    assert len(calls) == traced.evaluations >= 1
    assert traced == plain


def test_gated_search_still_calls_minimize_through_the_module(monkeypatch):
    # A state whose partial transpose is proven positive runs the zero start
    # alone, whatever the restart count, and that start still goes through
    # search.minimize: the tracer sees one start and every objective call.
    rho = horodecki33(3.5)
    cfgs = (SearchConfig(seed=0, restarts=2), SearchConfig(seed=0, restarts=5))
    plain = {cfg: maximize_violation(rho, cfg) for cfg in cfgs}

    starts, calls = _count_minimize(monkeypatch)
    for cfg in cfgs:
        starts.clear()
        calls.clear()
        traced = maximize_violation(rho, cfg)
        assert len(starts) == 1
        assert len(calls) == traced.evaluations >= 1
        assert traced == plain[cfg]


def test_scan_and_make_state_reach_constructors_through_scan_families(monkeypatch, tmp_path):
    # The tracer times family constructors by swapping the entries of
    # search.SCAN_FAMILIES; scan_1d and make-state must look them up there.
    search = importlib.import_module("entcert.search")
    cli = importlib.import_module("entcert.cli")
    fn, shape = search.SCAN_FAMILIES["werner"]
    calls = []

    def counting(a):
        calls.append(a)
        return fn(a)

    monkeypatch.setitem(search.SCAN_FAMILIES, "werner", (counting, shape))
    search.scan_1d("werner", [0.25, 0.75], [0.0, 1.0])
    assert calls == [0.25, 0.75]
    calls.clear()
    out = tmp_path / "w.dm"
    assert cli.main(["make-state", "werner", "--a", "0.5", "--out", str(out)]) == 0
    assert calls == [0.5]
    assert out.exists()
