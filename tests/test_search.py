import numpy as np
import pytest

import entcert as ec
from entcert import (
    BipartiteShape,
    LocalUnitaryPair,
    SearchConfig,
    UnitaryParams,
    Verdict,
    build_unitaries,
    evaluate_at_identity,
    maximize_violation,
    objective,
    rotation_u,
    scan_1d,
    unitary_exp,
    valid_pairs,
)
from entcert.search import (
    FAMILY_PARAMS,
    MAX_LINE_EVALS,
    SCAN_FAMILIES,
    WOLFE_C1,
    WOLFE_C2,
    MinimizeResult,
    MinimizeStatus,
    _generator_stack,
    _generator_sum,
    _lbfgs_direction,
    _wolfe_step,
    minimize,
)
from entcert.witness import evaluate_pair


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


def test_zero_params_build_exact_identity():
    # evaluate_at_identity reports with LocalUnitaryPair.identity in place of
    # build_unitaries(UnitaryParams.zero); that is only sound if exp(0) is I
    # to the bit, signs of zero included.
    for n in range(2, 7):
        assert unitary_exp(np.zeros((n, n), dtype=complex)).tobytes() == np.eye(n, dtype=complex).tobytes()
        sh = BipartiteShape(n, 8 - n)
        built = build_unitaries(UnitaryParams.zero(sh), sh)
        eye = LocalUnitaryPair.identity(sh)
        assert built.u.tobytes() == eye.u.tobytes() and built.v.tobytes() == eye.v.tobytes()


def test_unitary_params_validation():
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="unitary parameters must be finite"):
            UnitaryParams((0.0, bad, 0.0), (0.0,) * 3)
        with pytest.raises(ValueError, match="unitary parameters must be finite"):
            UnitaryParams((0.0,) * 3, (0.0, 0.0, bad))
    UnitaryParams((0.0, 1e308, -1e308), (np.float64(0.5), -0.0, 5e-324))


def test_generator_sum_is_the_tensordot_product():
    # build_unitaries and the search's hot loop both sum the generators
    # through _generator_sum; it must round exactly as tensordot does.
    rng = np.random.default_rng(3)
    for n in range(2, 6):
        stack = _generator_stack(n)
        x = rng.uniform(-np.pi, np.pi, 2 * len(stack))
        for theta in (x[: len(stack)], x[len(stack) :], np.zeros(len(stack))):
            got = _generator_sum(theta, stack)
            assert got.tobytes() == np.tensordot(theta, stack, axes=1).tobytes()


def test_search_config_validation():
    for bad in ({"restarts": 0}, {"seed": -1}, {"max_iters": 0}, {"pair": (2, 1)},
                {"pair": (0, 1)}, {"pair": (1, 1)}):
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


def _singlet_on_levels_2_3():
    sh = BipartiteShape(3, 3)
    vec = np.zeros(9, dtype=complex)
    vec[sh.index(2, 3)] = 1 / np.sqrt(2)
    vec[sh.index(3, 2)] = -1 / np.sqrt(2)
    return ec.DensityMatrix(sh, np.outer(vec, vec.conj()))


def test_evaluate_at_identity_picks_best_pair():
    # a singlet-type state on levels (2, 3) is only seen by that pair
    rep = evaluate_at_identity(_singlet_on_levels_2_3())
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
    from entcert.witness import evaluate_pair_grad as real_kernel

    seen = []

    def recording(rho, levels, uv):
        y, gu, gv = real_kernel(rho, levels, uv)
        seen.append(y.f)
        return y, gu, gv

    monkeypatch.setattr(search_mod, "evaluate_pair_grad", recording)
    rep = search_mod.maximize_violation(ec.werner(0.8), SearchConfig(restarts=2, seed=5))
    assert seen
    assert rep.best_f == max(seen)
    assert rep.evaluations <= len(seen)


@pytest.mark.parametrize("alpha, optimum", [(5.0, 16 / 441), (4.5, 1 / 63)])
def test_maximize_reaches_known_optimum(alpha, optimum):
    for seed in range(4):
        rep = maximize_violation(ec.horodecki33(alpha), SearchConfig(seed=seed))
        assert abs(rep.best_f - optimum) < 1e-9, seed


def _rosenbrock(x):
    return float(np.sum(100 * (x[1:] - x[:-1] ** 2) ** 2 + (1 - x[:-1]) ** 2))


def _rosenbrock_grad(x):
    g = np.zeros_like(x)
    g[:-1] = -400 * x[:-1] * (x[1:] - x[:-1] ** 2) - 2 * (1 - x[:-1])
    g[1:] += 200 * (x[1:] - x[:-1] ** 2)
    return g


def _quadratic(n):
    rng = np.random.default_rng(n)
    q = np.linalg.qr(rng.normal(size=(n, n)))[0]
    a = q @ np.diag(np.linspace(1, 10, n)) @ q.T
    b = rng.normal(size=n)
    return (lambda x: float(0.5 * x @ a @ x - b @ x)), (lambda x: a @ x - b), np.linalg.solve(a, b)


def test_minimize_reaches_gtol():
    # gtol loose enough that the gradient test, not the relative drop in f,
    # ends each run.
    cases = [(*_quadratic(n), np.zeros(n), 1e-5, 1e-5) for n in (2, 5, 10)]
    cases += [
        (_rosenbrock, _rosenbrock_grad, np.ones(2), np.array([-1.2, 1.0]), 1e-5, 1e-6),
        (_rosenbrock, _rosenbrock_grad, np.ones(4), np.array([-1.2, 1.0, -1.2, 1.0]), 1e-4, 1e-4),
    ]
    for fun, jac, x_min, x0, gtol, x_tol in cases:
        start = x0.copy()
        res = minimize(fun, x0, jac=jac, options={"maxiter": 400, "gtol": gtol})
        assert x0.tobytes() == start.tobytes()  # the start is not written to
        assert isinstance(res, MinimizeResult)
        assert res.status is MinimizeStatus.CONVERGED
        assert 0 < res.nit < 400
        assert np.abs(jac(res.x)).max() <= gtol
        assert res.fun == fun(res.x)
        assert np.abs(res.x - x_min).max() < x_tol


def test_lbfgs_direction_matches_two_loop_recursion():
    # _lbfgs_direction reorders the textbook recursion's arithmetic, so it
    # agrees to rounding, not to the bit.
    def two_loop(g, steps, changes):
        q, alphas = g.copy(), []
        for s, y in zip(steps[::-1], changes[::-1]):
            alphas.append((s @ q) / (s @ y))
            q -= alphas[-1] * y
        q *= (steps[-1] @ changes[-1]) / (changes[-1] @ changes[-1])
        for s, y, a in zip(steps, changes, alphas[::-1]):
            q += (a - (y @ q) / (s @ y)) * s
        return -q

    rng = np.random.default_rng(8)
    g = rng.normal(size=16)
    assert _lbfgs_direction(g, np.empty((0, 16)), np.empty((0, 16))).tolist() == (-g).tolist()
    for k in (1, 2, 5, 10):
        steps = rng.normal(size=(k, 16))
        changes = steps + 0.3 * rng.normal(size=(k, 16))  # s.y > 0
        ref = two_loop(g, steps, changes)
        got = _lbfgs_direction(g, steps, changes)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max(), k


def test_line_search_meets_strong_wolfe():
    # From a step far too short (extrapolation), about right, and far too
    # long (zoom), along -gradient and along a poorly scaled descent direction.
    x = np.array([-1.2, 1.0, 0.3])
    f0, g0 = _rosenbrock(x), _rosenbrock_grad(x)
    for d in (-g0, -g0 * np.array([1.0, 30.0, 0.1])):
        slope0 = float(g0 @ d)
        for step in (1e-6, 1.0 / np.linalg.norm(d), 1e3):
            x_new, f, g = _wolfe_step(_rosenbrock, _rosenbrock_grad, x, f0, d, slope0, step)
            t = (x_new - x) @ d / (d @ d)
            assert np.allclose(x_new, x + t * d, rtol=0, atol=1e-12)
            assert f == _rosenbrock(x_new) <= f0 + WOLFE_C1 * t * slope0
            assert abs(g @ d) <= -WOLFE_C2 * slope0


def test_minimize_iteration_cap():
    # A fractional cap stops at the first whole count past it.
    x0 = np.array([-1.2, 1.0])
    for maxiter in (3, 2.5):
        opts = {"maxiter": maxiter, "gtol": 1e-7}
        res = minimize(_rosenbrock, x0, jac=_rosenbrock_grad, options=opts)
        assert res.nit == 3, maxiter
        assert res.status == 1 and res.status is MinimizeStatus.ITERATION_CAP
        assert res.fun == _rosenbrock(res.x) < _rosenbrock(x0)


def test_minimize_gives_up_on_nan():
    x0 = np.array([-1.2, 1.0])
    calls = []

    def nan_after_first(x):
        calls.append(1)
        return _rosenbrock(x) if len(calls) == 1 else float("nan")

    opts = {"maxiter": 400, "gtol": 1e-7}
    res = minimize(nan_after_first, x0, jac=_rosenbrock_grad, options=opts)
    assert res.status == 2 and res.status is MinimizeStatus.LINE_SEARCH_FAILED
    assert res.nit == 0
    assert res.x.tolist() == x0.tolist() and res.fun == _rosenbrock(x0)
    assert len(calls) == 1 + MAX_LINE_EVALS


def test_minimize_is_deterministic():
    x0 = np.array([-1.2, 1.0, -1.2, 1.0, 0.5])
    opts = {"maxiter": 400, "gtol": 1e-7}
    r1, r2 = (minimize(_rosenbrock, x0, jac=_rosenbrock_grad, options=opts) for _ in range(2))
    assert r1.x.tobytes() == r2.x.tobytes()
    assert (r1.fun, r1.nit, r1.status) == (r2.fun, r2.nit, r2.status)


def test_search_draws_each_start_just_before_its_ascent(monkeypatch):
    # A stand-in optimizer that stops at its start: memory must not grow
    # with the number of restarts, and the starts are the seeded draws.
    import tracemalloc

    import entcert.search as search_mod

    seen = []

    def stand_in(fun, x0, jac, options):
        return MinimizeResult(x0, 0.0, 0, MinimizeStatus.CONVERGED)

    def recording(fun, x0, jac, options):
        seen.append(x0)
        return stand_in(fun, x0, jac, options)

    monkeypatch.setattr(search_mod, "minimize", recording)
    rho = ec.horodecki33(5.0)
    maximize_violation(rho, SearchConfig(restarts=3, seed=11))
    n = 2 * 8  # generator coefficients on 3x3: 8 per side
    seqs = [np.random.SeedSequence(11, spawn_key=(0, r)) for r in (1, 2, 3)]
    draws = [np.random.default_rng(seq).uniform(-np.pi, np.pi, n) for seq in seqs]
    assert [x.tobytes() for x in seen] == [x.tobytes() for x in [np.zeros(n), *draws]]

    monkeypatch.setattr(search_mod, "minimize", stand_in)
    tracemalloc.start()
    try:
        maximize_violation(rho, SearchConfig(restarts=20000))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def _signed_permutation(n, j, k):
    """Column order and signs of P in SU(n) with P e_1 = e_j, P e_2 = e_k."""
    order = [j - 1, k - 1] + [i for i in range(n) if i not in (j - 1, k - 1)]
    signs = np.ones(n)
    if round(np.linalg.det(np.eye(n)[:, order])) == -1:
        signs[-1] = -1.0  # a column outside the first two; n >= 3 when (j, k) != (1, 2)
    return order, signs


@pytest.mark.parametrize("m, n", [(3, 3), (3, 4), (4, 3), (4, 4), (5, 4)])
def test_every_pair_is_pair_one_two_after_a_signed_permutation(m, n):
    # Why the default search runs (1, 2) only: (j, k) at (u, v) and (1, 2)
    # at (uP_M, vP_N) read the same four vectors, so they agree to the bit.
    sh = BipartiteShape(m, n)
    rng = np.random.default_rng(100 * m + n)
    for seed in range(2):
        rho = ec.random_density(sh, seed=seed)
        # exp(i sum theta g) with traceless g: u in SU(M), v in SU(N)
        params = UnitaryParams(
            tuple(rng.uniform(-np.pi, np.pi, m * m - 1)),
            tuple(rng.uniform(-np.pi, np.pi, n * n - 1)),
        )
        u, v = build_unitaries(params, sh)
        assert abs(np.linalg.det(u) - 1) < 1e-12 and abs(np.linalg.det(v) - 1) < 1e-12
        for j, k in valid_pairs(sh):
            permuted = []
            for w, dim in ((u, m), (v, n)):
                order, signs = _signed_permutation(dim, j, k)
                p = np.eye(dim)[:, order] * signs
                assert abs(np.linalg.det(p) - 1) < 1e-12
                assert np.array_equal(p[:, :2], np.eye(dim)[:, [j - 1, k - 1]])
                selected = w[:, order] * signs  # w @ p, as an exact selection
                assert np.allclose(selected, w @ p, rtol=0, atol=1e-15)
                permuted.append(selected)
            y = evaluate_pair(rho, (j, k), LocalUnitaryPair(u, v))
            y12 = evaluate_pair(rho, (1, 2), LocalUnitaryPair(*permuted))
            for name in ("y1", "y2", "y3"):
                a, b = getattr(y, name), getattr(y12, name)
                assert np.float64(a).tobytes() == np.float64(b).tobytes(), (j, k, name)


def test_default_search_reaches_other_pairs_through_one_two(monkeypatch):
    # The singlet on levels (2, 3): at the identity only pair (2, 3) sees
    # it, and the default search finds it through pair (1, 2).
    import entcert.search as search_mod
    from entcert.witness import evaluate_pair_grad as real_kernel

    rho = _singlet_on_levels_2_3()
    searched = set()

    def recording(rho, levels, uv):
        searched.add(levels)
        return real_kernel(rho, levels, uv)

    monkeypatch.setattr(search_mod, "evaluate_pair_grad", recording)
    for seed in range(4):
        rep = maximize_violation(rho, SearchConfig(seed=seed))
        assert rep.best_pair == (1, 2)
        assert rep.best_f >= 1 - 1e-8, seed
        assert rep.verdict is Verdict.ENTANGLED_CERTIFIED
    assert searched == {(1, 2)}


@pytest.mark.parametrize("m, n", [(2, 2), (2, 3), (3, 2), (3, 3), (3, 4), (4, 4)])
def test_search_gradient_matches_central_differences(m, n):
    from entcert.search import _generator_stack, _value_and_grad

    sh = BipartiteShape(m, n)
    stack_a, stack_b = _generator_stack(m), _generator_stack(n)
    na, nb = len(stack_a), len(stack_b)
    rng = np.random.default_rng(10 * m + n)
    eps = 1e-6
    for seed in range(2):
        rho = ec.random_density(sh, seed=seed)
        for pair in ec.valid_pairs(sh):
            zero = np.zeros(na + nb)
            # one diagonal generator per side: degenerate spectra for n >= 3
            diag = zero.copy()
            diag[na - 1], diag[-1] = 0.7, -0.4
            for x in (zero, diag, rng.uniform(-np.pi, np.pi, na + nb)):
                f, grad = _value_and_grad(rho, pair, x, stack_a, stack_b)
                assert f == objective(
                    rho, pair, UnitaryParams(tuple(x[:na]), tuple(x[na:]))
                )
                fd = np.empty_like(grad)
                for i in range(na + nb):
                    step = np.zeros(na + nb)
                    step[i] = eps
                    fd[i] = (
                        _value_and_grad(rho, pair, x + step, stack_a, stack_b)[0]
                        - _value_and_grad(rho, pair, x - step, stack_a, stack_b)[0]
                    ) / (2 * eps)
                assert np.linalg.norm(fd - grad) <= 1e-6 * np.linalg.norm(grad)


def test_single_product_term_never_violates():
    rho, _ = ec.random_separable(BipartiteShape(2, 3), terms=1, seed=3)
    rng = np.random.default_rng(0)
    for _ in range(10):
        params = UnitaryParams(
            tuple(rng.uniform(-np.pi, np.pi, 3)), tuple(rng.uniform(-np.pi, np.pi, 8))
        )
        assert objective(rho, (1, 2), params) <= 1e-12


def test_maximize_respects_pair_restriction():
    cfg = SearchConfig(restarts=2, seed=0, pair=(1, 3))
    rep = maximize_violation(ec.horodecki33(5.0), cfg)
    assert rep.best_pair == (1, 3)
    with pytest.raises(ValueError):
        maximize_violation(ec.werner(1.0), SearchConfig(pair=(1, 3)))


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


def test_scan_rows_match_per_point_reference():
    """One kernel call per family parameter gives the rows of a per-point loop, bit for bit."""
    rng = np.random.default_rng(5)
    p_grid = np.concatenate(([0.0, np.pi, -np.pi / 3, 4.0, 2 * np.pi + 0.1], rng.uniform(-10, 10, 6)))
    for family, (fn, shape) in SCAN_FAMILIES.items():
        lo, hi = FAMILY_PARAMS[family].domain
        a_grid = [lo, (lo + hi) / 2, hi]
        eye = np.eye(shape.dim_b, dtype=complex)
        for pair in valid_pairs(shape):
            rows = scan_1d(family, a_grid, p_grid, pair)
            ref = [
                (a, p, evaluate_pair(fn(a), pair, LocalUnitaryPair(rotation_u(p, shape.dim_a), eye)).f)
                for a in a_grid
                for p in p_grid.tolist()
            ]
            assert all(type(x) is float for row in rows for x in row)
            assert np.array(rows).tobytes() == np.array(ref).tobytes(), (family, pair)
        assert scan_1d(family, [], p_grid) == []
        assert scan_1d(family, a_grid, []) == []


def test_family_table_matches_constructors():
    assert list(FAMILY_PARAMS) == list(SCAN_FAMILIES)
    for family, (fn, shape) in SCAN_FAMILIES.items():
        lo, hi = FAMILY_PARAMS[family].domain
        assert fn(lo).shape == fn(hi).shape == shape
        for outside in (lo - 1e-6, hi + 1e-6):
            with pytest.raises(ValueError):
                fn(outside)
