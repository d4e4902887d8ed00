import numpy as np
import pytest

import entcert as ec
from entcert import (
    BipartiteShape,
    SearchConfig,
    UnitaryParams,
    Verdict,
    build_unitaries,
    evaluate_at_identity,
    maximize_violation,
    objective,
    scan_1d,
)


def test_objective_at_zero_matches_identity_evaluation():
    rho = ec.werner(1.0)
    params = UnitaryParams.zero(rho.shape)
    assert abs(objective(rho, (1, 2), params) - 1.0) < 1e-12
    assert abs(objective(ec.werner(0.0), (1, 2), params) - (-0.25)) < 1e-12


def test_objective_rejects_invalid_pair():
    rho = ec.werner(0.5)
    with pytest.raises(ValueError):
        objective(rho, (1, 3), UnitaryParams.zero(rho.shape))


def test_build_unitaries():
    sh = BipartiteShape(2, 3)
    uv = build_unitaries(UnitaryParams.zero(sh), sh)
    assert np.abs(uv.u - np.eye(2)).max() < 1e-15
    assert np.abs(uv.v - np.eye(3)).max() < 1e-15
    rng = np.random.default_rng(1)
    params = UnitaryParams(tuple(rng.uniform(-np.pi, np.pi, 3)), tuple(rng.uniform(-np.pi, np.pi, 8)))
    uv = build_unitaries(params, sh)
    assert np.abs(uv.u @ uv.u.conj().T - np.eye(2)).max() < 1e-9
    assert np.abs(uv.v @ uv.v.conj().T - np.eye(3)).max() < 1e-9
    with pytest.raises(ValueError, match="parameter lengths"):
        build_unitaries(UnitaryParams((0.0,), (0.0,) * 8), sh)


def test_unitary_params_validation():
    with pytest.raises(ValueError):
        UnitaryParams((float("nan"), 0.0, 0.0), (0.0,) * 3)


def test_search_config_validation():
    for bad in ({"restarts": 0}, {"seed": -1}, {"max_iters": 0}, {"step_tol": 0.0},
                {"step_tol": float("nan")}):
        with pytest.raises(ValueError):
            SearchConfig(**bad)


def test_evaluate_at_identity_reports():
    # iso23(1) is undetected by identity unitaries but NPT for the oracle
    rep = evaluate_at_identity(ec.iso23(1.0))
    assert rep.verdict is Verdict.INCONCLUSIVE
    assert abs(rep.best_f - (-1.0)) < 1e-12
    assert rep.ppt_verdict.value == "entangled"
    assert rep.evaluations == 1

    rep = evaluate_at_identity(ec.werner(0.5))
    assert rep.verdict is Verdict.ENTANGLED_CERTIFIED
    assert abs(rep.best_f - 0.1875) < 1e-12

    rep = evaluate_at_identity(ec.iso23(0.0))
    assert rep.verdict is Verdict.SEPARABLE
    assert rep.ppt_verdict.value == "separable"


def test_evaluate_at_identity_picks_best_pair():
    # a singlet-type state on levels (2, 3) is only seen by that pair
    sh = BipartiteShape(3, 3)
    vec = np.zeros(9, dtype=complex)
    vec[sh.index(2, 3)] = 1 / np.sqrt(2)
    vec[sh.index(3, 2)] = -1 / np.sqrt(2)
    rep = evaluate_at_identity(ec.DensityMatrix(sh, np.outer(vec, vec.conj())))
    assert rep.best_pair == (2, 3)
    assert abs(rep.best_f - 1.0) < 1e-12
    assert rep.evaluations == 3


def test_maximize_finds_rotation_for_iso23():
    rep = maximize_violation(ec.iso23(1.0), SearchConfig(restarts=8, seed=0))
    assert rep.best_f >= 0.9
    assert rep.verdict is Verdict.ENTANGLED_CERTIFIED
    # certificate must be independently checkable
    assert abs(objective(ec.iso23(1.0), rep.best_pair, rep.best_params) - rep.best_f) < 1e-10


def test_maximize_determinism():
    cfg = SearchConfig(restarts=3, seed=7)
    r1 = maximize_violation(ec.iso23(1.0), cfg)
    r2 = maximize_violation(ec.iso23(1.0), cfg)
    assert r1.to_dict() == r2.to_dict()


def test_maximize_never_below_identity_start():
    rho = ec.werner(0.5)
    cfg = SearchConfig(restarts=1, seed=0)
    rep = maximize_violation(rho, cfg)
    assert rep.best_f >= objective(rho, (1, 2), UnitaryParams.zero(rho.shape)) - 1e-12


def test_maximize_separable_stays_bounded():
    rho, _ = ec.random_separable(BipartiteShape(2, 3), terms=6, seed=12)
    rep = maximize_violation(rho, SearchConfig(restarts=4, seed=2))
    assert rep.best_f <= 1e-9
    assert rep.verdict is Verdict.SEPARABLE  # PPT oracle closes 2x3
    assert rep.evaluations > 0


def test_reported_best_is_stream_maximum(monkeypatch):
    """Merged result equals the best objective value ever evaluated."""
    import entcert.search as search_mod
    from entcert.witness import evaluate_pair as real_kernel

    seen = []

    def recording(rho, levels, uv):
        y = real_kernel(rho, levels, uv)
        seen.append(y.f)
        return y

    monkeypatch.setattr(search_mod, "evaluate_pair", recording)
    rep = search_mod.maximize_violation(ec.werner(0.8), SearchConfig(restarts=2, seed=5))
    assert seen
    assert rep.best_f == max(seen)
    assert rep.evaluations <= len(seen)


def test_single_product_term_never_violates():
    rho, _ = ec.random_separable(BipartiteShape(2, 3), terms=1, seed=3)
    rng = np.random.default_rng(0)
    for _ in range(10):
        params = UnitaryParams(
            tuple(rng.uniform(-np.pi, np.pi, 3)), tuple(rng.uniform(-np.pi, np.pi, 8))
        )
        assert objective(rho, (1, 2), params) <= 1e-12


def test_maximize_respects_pair_restriction():
    cfg = SearchConfig(restarts=2, seed=0, pairs=((1, 3),))
    rep = maximize_violation(ec.horodecki33(5.0), cfg)
    assert rep.best_pair == (1, 3)
    with pytest.raises(ValueError):
        maximize_violation(ec.werner(1.0), SearchConfig(pairs=((1, 3),)))


def test_scan_rows_and_values():
    a_grid = [0.0, 0.5, 1.0]
    p_grid = [0.0, np.pi / 2, np.pi]
    rows = scan_1d("iso23", a_grid, p_grid)
    assert len(rows) == 9
    # family parameter is the outer loop
    assert [r[0] for r in rows] == [0.0, 0.0, 0.0, 0.5, 0.5, 0.5, 1.0, 1.0, 1.0]
    by_point = {(a, p): f for a, p, f in rows}
    assert abs(by_point[(1.0, np.pi / 2)] - 1.0) < 1e-9
    for a, p, f in rows:
        ref = (1 + 2 * a) * (6 * a * np.sin(p) ** 2 - 2 * a - 1) / 9
        assert abs(f - ref) < 1e-9


def test_scan_werner_identity_column():
    rows = scan_1d("werner", [0.0, 1 / 3, 0.6, 1.0], [0.0, 1.0])
    for a, p, f in rows:
        if p == 0.0:
            assert abs(f - (1 + a) * (3 * a - 1) / 4) < 1e-9


def test_scan_horodecki_zero_crossing():
    rows = scan_1d("horodecki33", [4.0], [np.pi / 2])
    assert abs(rows[0][2]) < 1e-12


def test_scan_unknown_family():
    with pytest.raises(ValueError, match="unknown family"):
        scan_1d("bogus", [0.1], [0.1])
