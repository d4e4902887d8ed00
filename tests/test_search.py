import hashlib
import itertools
import json
import math
from pathlib import Path

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
    ARMIJO_C1,
    BOUND_TOL,
    MAX_LINE_EVALS,
    SCAN_FAMILIES,
    MinimizeResult,
    MinimizeStatus,
    _backtrack,
    _column_objective,
    _columns,
    _eigenvector_start,
    _gram_schmidt,
    _lbfgs_direction,
    _pack,
    _theta,
    minimize,
)
from entcert.dmfile import read_density
from entcert.states import FAMILY_PARAMS
from entcert.witness import (
    PPT_TOL,
    VIOLATION_TOL,
    PptVerdict,
    evaluate_identity_pairs,
    evaluate_pair,
    evaluate_pair_columns,
    ppt_eigen,
    ppt_min_eigenvalue,
)
from conftest import noisy_random_state, random_hermitian, werner_dd

DATA = Path(__file__).resolve().parent.parent / "data"


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


def test_search_config_validation():
    for bad in ({"restarts": 0}, {"seed": -1}, {"max_iters": 0}, {"pair": (2, 1)},
                {"pair": (0, 1)}, {"pair": (1, 1)}, {"pair": (1.7, 3)}, {"pair": (1, 2.9)},
                {"pair": 3}, {"pair": (1, 2, 3)}, {"restarts": 2.5}, {"seed": 1.5},
                {"max_iters": float("nan")}, {"max_iters": "400"}, {"max_iters": None},
                {"max_iters": 2.5}, {"restarts": True}, {"seed": False}, {"max_iters": True},
                {"pair": (True, 2)}):
        with pytest.raises(ValueError):
            SearchConfig(**bad)
    # numpy integers are integers, bools are not
    SearchConfig(restarts=np.int64(2), seed=np.int64(1), max_iters=np.int64(3))
    # the pair is stored as check_pair returns it: a hashable tuple of Python ints
    for pair in ([1, 2], (np.int64(1), np.int64(2))):
        cfg = SearchConfig(pair=pair)
        assert cfg.pair == (1, 2) and type(cfg.pair) is tuple
        assert all(type(x) is int for x in cfg.pair)
        assert hash(cfg) == hash(SearchConfig(pair=(1, 2)))


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

    # a non-integer pair is an error, not truncated to (1, 3)
    with pytest.raises(ValueError, match="two integers"):
        evaluate_at_identity(ec.horodecki33(5.0), (1.7, 3))


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


def test_evaluate_at_identity_is_one_stacked_call(monkeypatch):
    """Every pair's identity y values come from one contraction, each with
    the bits of its own evaluate_pair; the best f wins, the earliest pair
    on ties (the maximally mixed state ties every pair)."""
    import entcert.witness as witness_mod

    def bits(y):
        return np.array([y.y1, y.y2, y.y3, y.f]).tobytes()

    states = [ec.random_density(BipartiteShape(m, n), seed=10 * m + n)
              for m in range(2, 6) for n in range(2, 6)]
    states += [_singlet_on_levels_2_3(),
               ec.DensityMatrix(BipartiteShape(4, 3), np.eye(12, dtype=complex) / 12)]
    want = {}
    for t, rho in enumerate(states):
        eye = LocalUnitaryPair.identity(rho.shape)
        ys = [(p, evaluate_pair(rho, p, eye)) for p in valid_pairs(rho.shape)]
        want[t] = [max(ys, key=lambda py: py[1].f)] + ys
    calls = []
    real = witness_mod._contract

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(witness_mod, "_contract", counting)
    for t, rho in enumerate(states):
        (best, y), *each = want[t]
        calls.clear()
        rep = evaluate_at_identity(rho)
        assert len(calls) == 1
        assert rep.best_pair == best and bits(rep.y_values) == bits(y)
        assert rep.evaluations == len(each)
        for pair, y in each:
            rep = evaluate_at_identity(rho, pair)
            assert rep.best_pair == pair and bits(rep.y_values) == bits(y)
    assert evaluate_at_identity(states[-1]).best_pair == (1, 2)
    with pytest.raises(ValueError, match="not valid"):
        evaluate_identity_pairs(ec.werner(0.5), ((1, 3),))


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
    from entcert.witness import evaluate_pair_columns as real_kernel

    seen = []

    def recording(rho, u2, v2):
        y, lw = real_kernel(rho, u2, v2)
        seen.append(y.f)
        return y, lw

    monkeypatch.setattr(search_mod, "evaluate_pair_columns", recording)
    rep = search_mod.maximize_violation(ec.werner(0.8), SearchConfig(restarts=2, seed=5))
    assert seen
    # The certificate is re-evaluated at the unitaries rebuilt from the
    # reported theta, which hold the best columns up to rounding.
    assert abs(rep.best_f - max(seen)) <= 1e-12
    assert rep.evaluations <= len(seen)


@pytest.mark.parametrize("alpha, optimum", [(5.0, 16 / 441), (4.5, 1 / 63)])
def test_maximize_reaches_known_optimum(alpha, optimum):
    for seed in range(4):
        rep = maximize_violation(ec.horodecki33(alpha), SearchConfig(seed=seed))
        assert abs(rep.best_f - optimum) < 1e-9, seed


# The d x d Werner state (I - beta F) / N, N = d^2 - d beta, has
# rho^Gamma = (I - beta d P) / N, P the projector on the maximally entangled
# vector: NPT for beta > 1/d. A vector of Schmidt rank <= 2 has <P> <= 2/d,
# so rho^Gamma is negative on one only for beta > 1/2. Over product vectors
# <P> <= 1/d, so a, b >= (1 - beta) / N and |c| <= beta / N, and the
# identity's columns reach both: f <= 4(2 beta - 1) / N^2 everywhere.
WERNER_DD_BETAS = (0.3, 0.45, 0.6, 1.0)


@pytest.mark.parametrize("d", (2, 3, 4))
def test_search_reaches_werner_dd_optimum(d):
    for beta in WERNER_DD_BETAS:
        rep = maximize_violation(werner_dd(d, beta))
        optimum = 4 * (2 * beta - 1) / (d * d - d * beta) ** 2
        assert abs(rep.best_f - optimum) <= 1e-9 * abs(optimum), beta


@pytest.mark.parametrize("d", (3, 4))
def test_npt_werner_dd_below_one_half_is_inconclusive(d):
    # NPT, yet positive on every vector of Schmidt rank <= 2: the inequality
    # cannot see it, at the search's answer or at random unitaries, and the
    # PPT oracle can.
    betas = [beta for beta in WERNER_DD_BETAS if 1 / d < beta <= 0.5]
    assert betas
    rng = np.random.default_rng(d)
    for beta in betas:
        rho = werner_dd(d, beta)
        rep = maximize_violation(rho)
        assert rep.verdict is Verdict.INCONCLUSIVE, beta
        assert rep.ppt_verdict is PptVerdict.ENTANGLED, beta
        for _ in range(20):
            u, v = (unitary_exp(random_hermitian(rng, d)) for _ in range(2))
            uv = LocalUnitaryPair(u, v)
            for pair in valid_pairs(rho.shape):
                assert evaluate_pair(rho, pair, uv).f <= 1e-12, (beta, pair)


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


def _logged_minimize(fun, jac, x0, options):
    """minimize's result and its ("fun" or "jac", x) calls in order."""
    calls = []

    def logged(kind, fn):
        def call(x):
            calls.append((kind, x))
            return fn(x)

        return call

    return minimize(logged("fun", fun), x0, logged("jac", jac), options), calls


def test_minimize_stops_at_f_stop_before_the_gradient():
    fun, jac, _ = _quadratic(5)
    x0 = np.full(5, 3.0)
    opts = {"maxiter": 400, "gtol": 1e-5}
    full, full_calls = _logged_minimize(fun, jac, x0, opts)
    # f at x0 already at the stop value, or equal to it: one call of fun,
    # no gradient, no iteration
    for f_stop in (fun(x0) + 1.0, fun(x0)):
        res, calls = _logged_minimize(fun, jac, x0, {**opts, "f_stop": f_stop})
        assert [kind for kind, _ in calls] == ["fun"]
        assert res.status is MinimizeStatus.REACHED_F_STOP and res.nit == 0
        assert res.x.tobytes() == x0.tobytes() and res.fun == fun(x0)
    # reached at an accepted point: the run is the full run's up to that
    # point's f, and ends there with no gradient
    accepted = [x for (_, x), (kind, after) in zip(full_calls, full_calls[1:]) if kind == "jac" and after is x]
    assert len(accepted) > 3
    target = accepted[3]
    res, calls = _logged_minimize(fun, jac, x0, {**opts, "f_stop": fun(target)})
    assert res.status is MinimizeStatus.REACHED_F_STOP and res.nit == 3
    assert res.x.tobytes() == target.tobytes() and res.fun == fun(target)
    assert [(kind, x.tobytes()) for kind, x in calls] == [
        (kind, x.tobytes()) for kind, x in full_calls[: len(calls)]
    ]
    assert calls[-1][0] == "fun" and calls[-1][1] is res.x
    assert full_calls[len(calls)][0] == "jac" and full_calls[len(calls)][1] is target
    # a stop value never reached, or NaN, leaves the call sequence alone
    for f_stop in (-np.inf, fun(full.x) - 1.0, float("nan")):
        res, calls = _logged_minimize(fun, jac, x0, {**opts, "f_stop": f_stop})
        assert [(kind, x.tobytes()) for kind, x in calls] == [(kind, x.tobytes()) for kind, x in full_calls]
        assert res.status is MinimizeStatus.CONVERGED and res.x.tobytes() == full.x.tobytes()


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


def test_line_search_backtracks_to_sufficient_decrease():
    # From a step far too short, about right, and far too long, along
    # -gradient and along a poorly scaled descent direction. Trial i is
    # x + step 2^-i d; every trial before the accepted one failed
    # sufficient decrease, and the line search asks for no gradient at
    # all: minimize asks for one once, at the accepted point (checked
    # below). Along the poorly scaled direction, 1e3 halved
    # MAX_LINE_EVALS - 1 times is still too far, so that line search fails.
    x = np.array([-1.2, 1.0, 0.3])
    f0, g0 = _rosenbrock(x), _rosenbrock_grad(x)
    for d in (-g0, -g0 * np.array([1.0, 30.0, 0.1])):
        slope0 = float(g0 @ d)
        for step in (1e-6, 1.0 / np.linalg.norm(d), 1e3):
            trials = []

            def fun(x_trial):
                trials.append(x_trial)
                return _rosenbrock(x_trial)

            found = _backtrack(fun, x, f0, d, slope0, step)
            ts = [step * 2.0**-i for i in range(len(trials))]
            assert [p.tobytes() for p in trials] == [(x + t * d).tobytes() for t in ts]
            decrease = [_rosenbrock(p) <= f0 + ARMIJO_C1 * t * slope0 for p, t in zip(trials, ts)]
            if found is None:
                assert len(trials) == MAX_LINE_EVALS and not any(decrease)
                continue
            x_new, f = found
            assert decrease == [False] * (len(trials) - 1) + [True]
            assert x_new.tobytes() == trials[-1].tobytes() and f == _rosenbrock(x_new)
    # minimize's first iteration from x is this line search along -gradient
    # from the step 1 / |gradient|; jac then runs once, at the accepted
    # point, which minimize returns once maxiter = 1 stops it there.
    res, calls = _logged_minimize(_rosenbrock, _rosenbrock_grad, x, {"maxiter": 1, "gtol": 1e-7})
    trials = []
    x_new, _ = _backtrack(lambda p: trials.append(p) or _rosenbrock(p), x, f0, -g0, float(g0 @ -g0),
                          1.0 / np.sqrt(g0 @ g0))
    assert [kind for kind, _ in calls] == ["fun", "jac"] + ["fun"] * len(trials) + ["jac"]
    assert [p.tobytes() for _, p in calls[2:-1]] == [p.tobytes() for p in trials]
    assert calls[-1][1] is calls[-2][1] is res.x and res.x.tobytes() == x_new.tobytes()
    assert res.nit == 1 and res.status is MinimizeStatus.ITERATION_CAP


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


def test_minimize_restart_after_lost_descent_stops_at_last_accepted_point():
    # The exact L-BFGS step on x.x lands on 0, where jac turns NaN: the
    # direction loses descent, the history is dropped, and the one line
    # search along the NaN -gradient fails, so the run ends at the accepted
    # point, 0, never at a non-finite x.
    funs, jacs = [], []

    def fun(x):
        funs.append(x.copy())
        return float(x @ x)

    def jac(x):
        jacs.append(x.copy())
        return 2 * x if len(jacs) <= 2 else np.full_like(x, np.nan)

    res = minimize(fun, np.array([1.0, 1.0]), jac, {"maxiter": 400, "gtol": 1e-7})
    assert res.status is MinimizeStatus.LINE_SEARCH_FAILED
    assert res.x.tolist() == [0.0, 0.0] and res.fun == 0.0 and res.nit == 2
    assert len(jacs) == 3 and jacs[-1].tolist() == [0.0, 0.0]
    # x0, the two accepted points, then one failed line search, not two
    assert len(funs) == 3 + MAX_LINE_EVALS


def test_minimize_is_deterministic():
    x0 = np.array([-1.2, 1.0, -1.2, 1.0, 0.5])
    opts = {"maxiter": 400, "gtol": 1e-7}
    r1, r2 = (minimize(_rosenbrock, x0, jac=_rosenbrock_grad, options=opts) for _ in range(2))
    assert r1.x.tobytes() == r2.x.tobytes()
    assert (r1.fun, r1.nit, r1.status) == (r2.fun, r2.nit, r2.status)


def _record_calls(monkeypatch):
    """Wrap search.minimize, where the benchmark's tracer wraps it, so that
    every ``fun`` and ``jac`` argument is logged in call order as
    ("fun" or "jac", x's bytes), and each run's result as ("res", result)
    once it returns."""
    import entcert.search as search_mod

    log = []
    real_minimize = search_mod.minimize

    def logged(kind, fn):
        def call(x):
            log.append((kind, x.tobytes()))
            return fn(x)

        return call

    def recording(fun, x0, jac, options):
        res = real_minimize(logged("fun", fun), x0, logged("jac", jac), options)
        log.append(("res", res))
        return res

    monkeypatch.setattr(search_mod, "minimize", recording)
    return search_mod.minimize, log


@pytest.mark.parametrize("a, ppt_min, starts", [
    (0.3333333334, -5.0e-11, 18),
    (0.3333333333, 2.5e-11, 18),
    (0.333333333, 2.5e-10, 1),
])
def test_ppt_gate_keeps_every_start_inside_the_tolerance_band(monkeypatch, a, ppt_min, starts):
    # Werner states inside (-PPT_TOL, PPT_TOL] run the zero start, the
    # eigenvector start and every restart at the default config; one just
    # above the band is proven PPT and runs the zero start alone. Only the
    # start counts are pinned here, not the verdicts.
    rho = ec.werner(a)
    assert ppt_min_eigenvalue(rho) == pytest.approx(ppt_min, rel=1e-3)
    _, log = _record_calls(monkeypatch)
    maximize_violation(rho, SearchConfig())
    assert sum(kind == "res" for kind, _ in log) == starts


def _locally_rotated(rho, eps, seed):
    """rho conjugated by a seeded local unitary exp(i eps h_a) (x) exp(i eps h_b)."""
    rng = np.random.default_rng(seed)
    u, v = (unitary_exp(eps * random_hermitian(rng, n)) for n in (rho.shape.dim_a, rho.shape.dim_b))
    w = np.kron(u, v)
    return ec.DensityMatrix(rho.shape, w @ rho.mat @ w.conj().T)


CALL_ORDER_SEARCHES = {
    "werner(1)": lambda: ec.werner(1.0),
    # the zero start reaches the spectral bound at an accepted step
    "werner(1), rotated": lambda: _locally_rotated(ec.werner(1.0), 0.1, 1),
    "horodecki33(4.0)": lambda: ec.horodecki33(4.0),
    "random_density(3x3, seed=0)": lambda: ec.random_density(BipartiteShape(3, 3), seed=0),
}


def test_jac_runs_only_at_the_point_fun_just_ran(monkeypatch):
    # The search's jac reads what its fun kept at the same point, so it is
    # right only if minimize asks for each gradient at the point whose f it
    # asked for just before. Backtracking asks for f at points it then
    # rejects; their gradients must never be asked for, nor computed: the
    # gradient's tail runs once per start and once per accepted step,
    # except at the point where a start reaches the spectral bound, which
    # ends that start with no gradient there.
    import entcert.search as search_mod

    wrapped_minimize, log = _record_calls(monkeypatch)
    tails = []
    real_tail = search_mod.pair_columns_grad

    def counting_tail(*args):
        tails.append(1)
        return real_tail(*args)

    monkeypatch.setattr(search_mod, "pair_columns_grad", counting_tail)
    x0 = np.array([-1.2, 1.0, -1.2, 1.0])
    wrapped_minimize(_rosenbrock, x0, _rosenbrock_grad, {"maxiter": 400, "gtol": 1e-7})
    runs = {"rosenbrock": list(log)}
    for name, make in CALL_ORDER_SEARCHES.items():
        log.clear()
        tails.clear()
        maximize_violation(make())
        runs[name] = list(log)
        results = [res for kind, res in log if kind == "res"]
        stopped = [res.status is MinimizeStatus.REACHED_F_STOP for res in results]
        assert len(tails) == sum(res.nit + 1 for res in results) - sum(stopped), name
    stopped_at = {}
    for name, run in runs.items():
        # each run of minimize: fun at x0, then jac there unless f there
        # reached the stop value. A run that stopped ends at fun at the
        # point it returns; any other asked for its last gradient there.
        # Every jac follows fun at the same point.
        starts, calls = [], []
        for kind, x in run:
            if kind == "res":
                starts.append((x, calls))
                calls = []
            else:
                calls.append((kind, x))
        for res, calls in starts:
            kinds = [kind for kind, _ in calls]
            stopped = res.status is MinimizeStatus.REACHED_F_STOP
            assert kinds[:2] == (["fun"] if stopped and not res.nit else ["fun", "jac"]), name
            if stopped:
                assert calls[-1] == ("fun", res.x.tobytes()), name
            else:
                assert [x for kind, x in calls if kind == "jac"][-1] == res.x.tobytes(), name
            for before, (kind, x) in zip(calls, calls[1:]):
                if kind == "jac":
                    assert before == ("fun", x), name
            if stopped:
                stopped_at[name] = res.nit
    # werner(1)'s one start stops at x0 and logs fun alone; the rotated
    # one stops at an accepted step
    assert [kind for kind, _ in runs["werner(1)"]] == ["fun", "res"]
    assert stopped_at["werner(1)"] == 0 and stopped_at["werner(1), rotated"] > 0
    # the rule was tested where backtracking rejected points
    for name in ("rosenbrock", "horodecki33(4.0)", "random_density(3x3, seed=0)"):
        kinds = [kind for kind, _ in runs[name]]
        assert kinds.count("fun") > kinds.count("jac"), name


def test_search_draws_each_start_just_before_its_ascent(monkeypatch):
    # A stand-in optimizer that stops at its start: memory must not grow
    # with the number of restarts, and the starts are the zero start, the
    # eigenvector start and then the seeded draws. The stand-in never
    # reports REACHED_F_STOP, so no start ends the search early. It
    # evaluates the zero start's x0, as minimize evaluates every x0 first,
    # so the search has a best point; the others it leaves unevaluated.
    import tracemalloc

    import entcert.search as search_mod

    seen = []
    runs = itertools.count()

    def stand_in(fun, x0, jac, options):
        f = fun(x0) if next(runs) == 0 else 0.0
        return MinimizeResult(x0, f, 0, MinimizeStatus.CONVERGED)

    def recording(fun, x0, jac, options):
        seen.append(x0)
        return stand_in(fun, x0, jac, options)

    monkeypatch.setattr(search_mod, "minimize", recording)
    rho = ec.horodecki33(5.0)
    maximize_violation(rho, SearchConfig(restarts=3, seed=11))
    # Each random start is a standard normal draw of 24 reals from its
    # substream: the real and imaginary parts of A's column 1 (3 entries),
    # then B's, then their columns 2, Gram-Schmidt'd per side.
    seqs = [np.random.SeedSequence(11, spawn_key=(0, r)) for r in (1, 2, 3)]
    draws = [np.random.default_rng(seq).standard_normal(24) for seq in seqs]
    starts = [_identity_start(rho.shape), _eigenvector_start(rho, ppt_eigen(rho)[1][:, 0])]
    for x in draws:
        z = x.view(complex).reshape(2, 6)
        qa, qb = _gram_schmidt(z[:, :3])[0], _gram_schmidt(z[:, 3:])[0]
        starts.append(np.concatenate((qa, qb), axis=1).view(float).ravel())
    assert [x.tobytes() for x in seen] == [x.tobytes() for x in starts]
    # the zero start is exactly the identity columns
    e1, e2 = [1.0, 0.0, 0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0, 0.0, 0.0]
    assert seen[0].tolist() == e1 + e1 + e2 + e2
    # every random start begins at orthonormal columns on both sides
    for x in seen[2:]:
        z = x.view(complex).reshape(2, 6)
        for q in (z[:, :3], z[:, 3:]):
            assert np.abs(q.conj() @ q.T - np.eye(2)).max() <= 1e-14

    monkeypatch.setattr(search_mod, "minimize", stand_in)
    runs = itertools.count()
    tracemalloc.start()
    try:
        maximize_violation(rho, SearchConfig(restarts=20000))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


# Searches whose winning start is of each kind (the zero start, the
# eigenvector start or a random start) and ends each way: the state, the
# config, whether GTOL and F_RTOL are zeroed, and the winner's status.
# Zeroing both tolerances keeps each start ascending until its line search
# fails, so backtracking evaluates rejected points after the point it returns.
COLUMN_HAND_OFF = {
    "zero start, converged":
        (lambda: ec.random_density(BipartiteShape(3, 3), seed=2), SearchConfig(), False, MinimizeStatus.CONVERGED),
    "zero start, stopped at an accepted step":
        (lambda: _locally_rotated(ec.werner(1.0), 0.1, 1), SearchConfig(), False, MinimizeStatus.REACHED_F_STOP),
    "eigenvector start, stopped at x0":
        (lambda: ec.iso23(1.0), SearchConfig(), False, MinimizeStatus.REACHED_F_STOP),
    "eigenvector start, iteration cap":
        (lambda: ec.random_density(BipartiteShape(3, 3), seed=0), SearchConfig(max_iters=3), False,
         MinimizeStatus.ITERATION_CAP),
    "random start, converged":
        (lambda: ec.random_density(BipartiteShape(3, 3), seed=0), SearchConfig(), False, MinimizeStatus.CONVERGED),
    "random start, line search failed":
        (lambda: ec.random_density(BipartiteShape(3, 3), seed=0), SearchConfig(), True,
         MinimizeStatus.LINE_SEARCH_FAILED),
}


@pytest.mark.parametrize("name", COLUMN_HAND_OFF)
def test_theta_reads_the_columns_of_the_point_minimize_returned(monkeypatch, name):
    # On each of these searches the best point evaluated is the point the
    # winning start returned, so theta is read off the bits _columns gives
    # there, once, whichever start won and however it ended.
    import entcert.search as search_mod

    make, cfg, no_tolerances, status = COLUMN_HAND_OFF[name]
    results, read = [], []
    real_minimize, real_theta = search_mod.minimize, search_mod._theta

    def recording(fun, x0, jac, options):
        results.append(real_minimize(fun, x0, jac, options))
        return results[-1]

    def theta(u2, v2, levels):
        read.append((u2, v2))
        return real_theta(u2, v2, levels)

    monkeypatch.setattr(search_mod, "minimize", recording)
    monkeypatch.setattr(search_mod, "_theta", theta)
    if no_tolerances:
        monkeypatch.setattr(search_mod, "GTOL", 0.0)
        monkeypatch.setattr(search_mod, "F_RTOL", 0.0)
    rho = make()
    rep = maximize_violation(rho, cfg)
    fs = [-res.fun for res in results]
    best = fs.index(max(fs))  # the merge keeps the earliest of equal values
    won = results[best]
    assert name.startswith(("zero start", "eigenvector start")[best] if best < 2 else "random start")
    assert won.status is status
    assert (won.nit == 0) == name.endswith("at x0")
    assert len(read) == 1
    (qa, _), (qb, _) = _columns(won.x, rho.shape.dim_a)
    for got, want in zip(read[0], (qa.T, qb.T)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert rep.best_f == objective(rho, rep.best_pair, rep.best_params)


def test_theta_reads_the_first_best_evaluated_point(monkeypatch):
    # The objective keeps the best point it has evaluated, the earliest on
    # ties: theta is read off the very columns f was computed from there,
    # uncopied, or is exactly 0, with no read-off, when that point is
    # evaluation 1, the zero start's x0. Over every COLUMN_HAND_OFF search
    # and werner(1), whose zero start reaches the spectral bound at x0.
    import entcert.search as search_mod

    cases = {**COLUMN_HAND_OFF,
             "zero start, stopped at x0": (lambda: ec.werner(1.0), SearchConfig(), False)}
    real_kernel, real_theta = search_mod.evaluate_pair_columns, search_mod._theta
    for name, (make, cfg, no_tolerances, *_) in cases.items():
        evaluated, read = [], []

        def kernel(rho, u2, v2):
            y, lw = real_kernel(rho, u2, v2)
            evaluated.append((y.f, u2.base, v2.base, u2.tobytes(), v2.tobytes()))
            return y, lw

        def theta(u2, v2, levels):
            read.append((u2, v2))
            return real_theta(u2, v2, levels)

        with monkeypatch.context() as mp:
            mp.setattr(search_mod, "evaluate_pair_columns", kernel)
            mp.setattr(search_mod, "_theta", theta)
            if no_tolerances:
                mp.setattr(search_mod, "GTOL", 0.0)
                mp.setattr(search_mod, "F_RTOL", 0.0)
            rho = make()
            rep = maximize_violation(rho, cfg)
        fs = [f for f, *_ in evaluated]
        first_best = fs.index(max(fs))
        assert rep.evaluations == len(evaluated), name
        if first_best == 0:
            assert read == [] and name.endswith("at x0"), name
            assert set(rep.best_params.theta_a) == set(rep.best_params.theta_b) == {0.0}
            assert rep.y_values == evaluate_pair(rho, rep.best_pair, LocalUnitaryPair.identity(rho.shape))
            continue
        _, qa, qb, qa_bits, qb_bits = evaluated[first_best]
        assert len(read) == 1, name
        (u2, v2), = read
        assert u2.base is qa and v2.base is qb, name
        assert u2.tobytes() == qa_bits and v2.tobytes() == qb_bits, name
        assert rep.best_f == objective(rho, rep.best_pair, rep.best_params)


def test_search_evaluates_the_kernel_once_per_evaluation_and_once_more_off_zero(monkeypatch):
    # A search whose best point is evaluation 1, the zero start's x0, reports
    # the y values the objective computed there: x0 is the identity's
    # columns, so they are evaluate_pair's bits at the identity, and theta
    # is +0.0 throughout. Any other best point costs one more contraction,
    # the certificate at the unitaries rebuilt from theta.
    import entcert.witness as witness_mod

    def bits(y):
        return np.array([y.y1, y.y2, y.y3]).tobytes()

    at_x0 = {
        "werner(1)": ec.werner(1.0),
        "horodecki33(3.5)": ec.horodecki33(3.5),
        **{name: read_density(DATA / name) for name in
           ("werner_1.0.dm", "werner_0.5.dm", "iso23_0.0.dm", "horodecki33_3.5.dm")},
    }
    # iso23(1), horodecki33(5) and iso23_0.26.dm stop at the eigenvector
    # start's x0; the random separable states are proven PPT, so only the
    # zero start runs, but it ascends.
    off_zero = {
        "iso23(1)": ec.iso23(1.0),
        "horodecki33(5)": ec.horodecki33(5.0),
        "iso23_0.26.dm": read_density(DATA / "iso23_0.26.dm"),
        **{f"random_separable({m}x{n}, seed={seed})":
           ec.random_separable(BipartiteShape(m, n), terms=20, seed=seed)[0]
           for seed, (m, n) in enumerate(((2, 2), (2, 3), (3, 3), (3, 4)))},
    }
    calls = []
    real = witness_mod._contract

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(witness_mod, "_contract", counting)
    for name, rho in {**at_x0, **off_zero}.items():
        calls.clear()
        rep = maximize_violation(rho)
        theta = np.array(rep.best_params.theta_a + rep.best_params.theta_b)
        if name in at_x0:
            assert rep.evaluations == 1 and len(calls) == 1, name
            assert theta.tobytes() == np.zeros_like(theta).tobytes(), name
            eye = LocalUnitaryPair.identity(rho.shape)
            assert bits(rep.y_values) == bits(evaluate_pair(rho, rep.best_pair, eye)), name
        else:
            assert rep.evaluations > 1 and len(calls) == rep.evaluations + 1, name
            assert theta.any(), name
            assert rep.best_f == objective(rho, rep.best_pair, rep.best_params), name


def test_cached_starts_are_read_only_and_searches_repeat():
    # The zero start's x0 is built once per shape and pair and shared by
    # every search, so nothing may write into it: a search that did would
    # change the next one's start. Two searches in a row on one state
    # report the same.
    import entcert.search as search_mod

    for m, n in ((2, 2), (2, 3), (3, 3), (4, 5)):
        sh = BipartiteShape(m, n)
        for pair in valid_pairs(sh):
            x0 = search_mod._zero_start(sh, pair)
            assert x0 is search_mod._zero_start(sh, pair)
            eye, cols = LocalUnitaryPair.identity(sh), [pair[0] - 1, pair[1] - 1]
            assert x0.tobytes() == _pack(eye.u[:, cols], eye.v[:, cols]).tobytes()
            with pytest.raises(ValueError):
                x0[0] = 2.0
    states = [ec.werner(1.0), ec.iso23(1.0), ec.horodecki33(5.0), ec.horodecki33(3.5), read_density(DATA / "iso23_0.26.dm")]
    for rho in states:
        first, second = maximize_violation(rho), maximize_violation(rho)
        assert first == second
        assert json.dumps(first.to_dict()) == json.dumps(second.to_dict())
        assert evaluate_at_identity(rho) == evaluate_at_identity(rho)


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


def _counted_search(monkeypatch, rho, cfg):
    """maximize_violation with search.minimize wrapped, as the benchmark's
    tracer wraps it: the report, each start's x0 and the objective calls."""
    import entcert.search as search_mod

    starts, calls = [], []
    real_minimize = search_mod.minimize

    def counting(fun, x0, jac, options):
        def counted(x):
            calls.append(1)
            return fun(x)

        starts.append(x0)
        return real_minimize(counted, x0, jac, options)

    monkeypatch.setattr(search_mod, "minimize", counting)
    rep = maximize_violation(rho, cfg)
    monkeypatch.undo()
    return rep, starts, len(calls)


def _identity_start(shape):
    eye = LocalUnitaryPair.identity(shape)
    return _pack(eye.u[:, :2], eye.v[:, :2])


def test_default_search_reaches_other_pairs_through_one_two(monkeypatch):
    # The singlet on levels (2, 3): at the identity only pair (2, 3) sees
    # it, and the default search finds it through pair (1, 2).
    rho = _singlet_on_levels_2_3()
    for seed in range(4):
        rep, starts, _ = _counted_search(monkeypatch, rho, SearchConfig(seed=seed))
        assert rep.best_pair == (1, 2)
        assert rep.best_f >= 1 - 1e-8, seed
        assert rep.verdict is Verdict.ENTANGLED_CERTIFIED
        # the identity's columns 1, 2 see nothing; the eigenvector start
        # reaches the spectral bound 1, and the search stops there
        assert len(starts) == 2
        assert starts[0].tobytes() == _identity_start(rho.shape).tobytes()
        assert starts[1].tobytes() == _eigenvector_start(rho, ppt_eigen(rho)[1][:, 0]).tobytes()


PROVEN_PPT = {
    "horodecki33(2.5)": lambda: ec.horodecki33(2.5),
    "horodecki33(3.0)": lambda: ec.horodecki33(3.0),
    "horodecki33(3.5)": lambda: ec.horodecki33(3.5),
    "iso23(0.1)": lambda: ec.iso23(0.1),
    "werner(0.2)": lambda: ec.werner(0.2),
    # full rank: more product terms than twice the order
    "random_separable(3x3, terms=18)": lambda: ec.random_separable(BipartiteShape(3, 3), terms=18, seed=0)[0],
}
# Computed ppt_min within PPT_TOL of 0 (about +-5e-17): inside the band, so
# the gate cannot prove rho^Gamma >= 0 and every start runs.
IN_BAND = {
    "werner(1/3)": lambda: ec.werner(1 / 3),
    "iso23(0.25)": lambda: ec.iso23(0.25),
    "horodecki33(4.0)": lambda: ec.horodecki33(4.0),
    # rank deficient: 6 product terms in order 9
    "random_separable(3x3, terms=6)": lambda: ec.random_separable(BipartiteShape(3, 3), terms=6, seed=0)[0],
}
# Named NPT states and the starts their searches run: each certifies at the
# spectral bound 4 max(0, -lambda_min) lambda_max, werner(1) already at the
# identity's columns and the others at the eigenvector start.
NPT = {
    "werner(1)": (lambda: ec.werner(1.0), 1),
    "iso23(1)": (lambda: ec.iso23(1.0), 2),
    "horodecki33(5)": (lambda: ec.horodecki33(5.0), 2),
}


@pytest.mark.parametrize("name", PROVEN_PPT)
def test_proven_ppt_state_runs_the_zero_start_alone(monkeypatch, name):
    # rho^Gamma >= 0 bounds f <= 0 everywhere, so the search runs one start,
    # from the identity's columns, through search.minimize; it counts the
    # objective calls the benchmark's tracer counts.
    rho = PROVEN_PPT[name]()
    ppt_min = ppt_min_eigenvalue(rho)
    assert ppt_min > PPT_TOL
    for cfg in (SearchConfig(), SearchConfig(restarts=3, seed=5)):
        rep, starts, calls = _counted_search(monkeypatch, rho, cfg)
        assert len(starts) == 1
        assert starts[0].tobytes() == _identity_start(rho.shape).tobytes()
        assert calls == rep.evaluations >= 1
        assert rep.ppt_min == ppt_min
        assert rep.verdict is not Verdict.ENTANGLED_CERTIFIED
        assert rep.best_f <= 1e-12
        assert rep == maximize_violation(rho, cfg)


@pytest.mark.parametrize("name", [*IN_BAND, *NPT])
def test_unproven_state_runs_every_start(monkeypatch, name):
    # In the band no start can certify, so the zero start, the eigenvector
    # start and every seeded start run; a named NPT state stops at the
    # first start that certifies and reaches the spectral bound.
    cfg = SearchConfig(restarts=3, seed=5)
    if name in IN_BAND:
        rho, expected_starts = IN_BAND[name](), cfg.restarts + 2
    else:
        make, expected_starts = NPT[name]
        rho = make()
    ppt_min = ppt_min_eigenvalue(rho)
    if name in IN_BAND:
        assert abs(ppt_min) <= PPT_TOL
    else:
        assert ppt_min < -PPT_TOL
    rep, starts, calls = _counted_search(monkeypatch, rho, cfg)
    assert len(starts) == expected_starts
    assert starts[0].tobytes() == _identity_start(rho.shape).tobytes()
    if expected_starts > 1:
        assert starts[1].tobytes() == _eigenvector_start(rho, ppt_eigen(rho)[1][:, 0]).tobytes()
    assert calls == rep.evaluations
    assert rep.ppt_min == ppt_min


STOP_RULE_STATES = {
    "horodecki33(3.5)": PROVEN_PPT["horodecki33(3.5)"],
    "werner(1/3)": IN_BAND["werner(1/3)"],
    "horodecki33(4.0)": IN_BAND["horodecki33(4.0)"],
    **{name: make for name, (make, _) in NPT.items()},
    "random_density(3x3, seed=0)": lambda: ec.random_density(BipartiteShape(3, 3), seed=0),
}


@pytest.mark.parametrize("name", STOP_RULE_STATES)
def test_search_stops_only_through_f_stop(monkeypatch, name):
    # The spectral-bound stop has one home, minimize's f_stop: every ascent
    # gets f_stop = -max(B - BOUND_TOL, nextafter(VIOLATION_TOL)), whatever
    # the state, and the search ends after a start exactly when that start
    # returned REACHED_F_STOP. Otherwise every start runs: the zero start
    # alone on a proven-PPT state, all restarts + 2 on any other.
    import entcert.search as search_mod

    cfg = SearchConfig(restarts=3, seed=5)
    rho = STOP_RULE_STATES[name]()
    vals = ppt_eigen(rho)[0]
    bound = 4 * max(0.0, -float(vals[0])) * float(vals[-1])
    f_stop = -max(bound - BOUND_TOL, math.nextafter(VIOLATION_TOL, math.inf))
    calls = []
    real_minimize = search_mod.minimize

    def recording(fun, x0, jac, options):
        res = real_minimize(fun, x0, jac, options)
        calls.append((dict(options), res))
        return res

    monkeypatch.setattr(search_mod, "minimize", recording)
    maximize_violation(rho, cfg)
    assert [options for options, _ in calls] == [
        {"maxiter": cfg.max_iters, "gtol": search_mod.GTOL, "f_stop": f_stop}
    ] * len(calls)
    stopped = [res.status is MinimizeStatus.REACHED_F_STOP for _, res in calls]
    assert not any(stopped[:-1])
    # the named NPT states certify at the bound; no other state here does
    assert stopped[-1] == (name in NPT), name
    if not stopped[-1]:
        assert len(calls) == (1 if float(vals[0]) > PPT_TOL else cfg.restarts + 2), name


SHAPES = [(m, n) for m in range(2, 6) for n in range(2, 6)]


@pytest.mark.parametrize("m, n", SHAPES)
def test_search_gradient_matches_central_differences(m, n):
    # The search's variables, A (M x 2) and B (N x 2) as _pack lays them
    # out: at each pair's identity columns, at its columns of random
    # unitaries and at free matrices whose columns are neither normalised
    # nor orthogonal. The objective gives minimize -f and its gradient.
    sh = BipartiteShape(m, n)
    rng = np.random.default_rng(10 * m + n)
    eps = 1e-6
    rho = ec.random_density(sh, seed=10 * m + n)
    neg_f, neg_grad, _ = _column_objective(rho)
    for pair in valid_pairs(sh):
        cols = [pair[0] - 1, pair[1] - 1]
        eye = LocalUnitaryPair.identity(sh)
        params = UnitaryParams(
            tuple(rng.uniform(-np.pi, np.pi, m * m - 1)), tuple(rng.uniform(-np.pi, np.pi, n * n - 1))
        )
        uv = build_unitaries(params, sh)
        x_eye = _pack(eye.u[:, cols], eye.v[:, cols])
        x_rand = _pack(uv.u[:, cols], uv.v[:, cols])
        # identity columns pass Gram-Schmidt unchanged
        assert -neg_f(x_eye) == evaluate_pair(rho, pair, eye).f
        assert abs(-neg_f(x_rand) - evaluate_pair(rho, pair, uv).f) <= 1e-14
        for x in (x_eye, x_rand, rng.normal(size=4 * (m + n))):
            neg_f(x)
            g = neg_grad(x)
            assert g.dtype == np.float64 and g.flags.c_contiguous and g.shape == x.shape
            fd = np.empty_like(g)
            for i in range(x.size):
                step = np.zeros(x.size)
                step[i] = eps
                fd[i] = (neg_f(x + step) - neg_f(x - step)) / (2 * eps)
            assert np.linalg.norm(fd - g) <= 1e-6 * np.linalg.norm(g), (pair, x)


@pytest.mark.parametrize("m, n", [(2, 4), (3, 3), (3, 4), (4, 4)])
def test_eigenvector_start_holds_the_top_schmidt_terms(m, n):
    # The eigenvector start: x = u_1 (x) conj(v_1) and y = u_2 (x) conj(v_2)
    # are the top two Schmidt terms of rho^Gamma's lowest eigenvector z, and
    # u_1's phase is turned so that c = <u_1 v_2|rho|u_2 v_1> is real and
    # positive, where f = 4((Re c)^2 - ab) is largest over that phase. The
    # states are complex, so c is complex before the turn.
    for seed in range(4):
        rho = noisy_random_state(m, n, seed)
        z = ppt_eigen(rho)[1][:, 0]
        schmidt = np.linalg.svd(z.reshape(m, n), compute_uv=False)
        x0 = _eigenvector_start(rho, z)
        cols = x0.view(complex).reshape(2, -1)
        u2, v2 = cols[:, :m].T, cols[:, m:].T
        assert np.allclose(u2.conj().T @ u2, np.eye(2), rtol=0, atol=1e-14)
        assert np.allclose(v2.conj().T @ v2, np.eye(2), rtol=0, atol=1e-14)
        for s in (0, 1):
            overlap = np.vdot(np.kron(u2[:, s], v2[:, s].conj()), z)
            assert abs(abs(overlap) - schmidt[s]) <= 1e-14, (seed, s)
        c = np.kron(u2[:, 0], v2[:, 1]).conj() @ rho.mat @ np.kron(u2[:, 1], v2[:, 0])
        assert c.real > 0 and abs(c.imag) <= 1e-16, (seed, c)
        f = -_column_objective(rho)[0](x0)
        for phase in np.exp(1j * np.linspace(0.5, 6.0, 6)):
            turned = u2.copy()
            turned[:, 0] *= phase
            assert evaluate_pair_columns(rho, turned, v2)[0].f <= f + 1e-15, (seed, phase)


def test_gram_schmidt_columns_are_orthonormal():
    rng = np.random.default_rng(21)
    for n in range(2, 6):
        eye = np.eye(n, dtype=complex)
        assert _gram_schmidt(eye[:2])[0].tobytes() == eye[:2].tobytes()
        cases = [
            scale * (rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2)))
            for scale in (1e-3, 1.0, 1e3)
            for _ in range(20)
        ]
        # nearly parallel columns, as the optimizer's trial points can have
        for gap in (1e-3, 1e-6, 1e-10):
            for _ in range(20):
                a1, d = rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))
                cases.append(np.stack((a1, (0.3 + 0.8j) * a1 + gap * d), axis=1))
        for a in cases:
            q, (r1, c, r2) = _gram_schmidt(a.T)  # the columns, as rows
            q = q.T
            assert np.abs(q.conj().T @ q - np.eye(2)).max() <= 1e-14
            # the columns span a's: a = q r with r upper triangular
            assert r1 > 0 and r2 > 0
            r = np.array([[r1, c], [0.0, r2]])
            assert np.abs(q @ r - a).max() <= 1e-14 * np.abs(a).max()


def _column_cases(n, pair, rng):
    """Orthonormal column pairs for levels ``pair`` on dimension n: the
    identity's, diagonal phases (equal ones too), columns of unitaries
    whose spectra are degenerate, Gram-Schmidt of a random matrix, the
    pair's own columns swapped, and, for n >= 3, identity columns of a
    level outside the pair, so that some of the identity's other columns
    lie in span(q) (at pair (1, 2): (e_1, -e_3) and (e_3, e_1))."""
    cols = [pair[0] - 1, pair[1] - 1]
    eye = np.eye(n, dtype=complex)
    # exp(i pi/2 P) for a random rank-2 projector P: eigenvalues i, i, 1, ...
    p = _gram_schmidt(rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n)))[0].T
    degenerate = eye + (1j - 1) * (p @ p.conj().T)
    # exp(i pi P) = I - 2P: eigenvalues -1, -1, 1, ..., which rounding can
    # put on either side of the log's branch cut
    reflection = eye - 2 * (p @ p.conj().T)
    cases = [
        eye[:, cols],
        eye[:, cols] * np.exp(1j * np.array([0.7, -0.4])),
        eye[:, cols] * np.exp(0.5j),
        -eye[:, cols],
        degenerate[:, cols],
        reflection[:, cols],
        _gram_schmidt(rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n)))[0].T,
        eye[:, cols[::-1]],
    ]
    other = [i for i in range(n) if i not in cols]
    if other:
        j, l = cols[0], other[0]
        cases += [np.stack((eye[:, j], -eye[:, l]), axis=1), eye[:, [l, j]]]
    return cases


@pytest.mark.parametrize("m, n", SHAPES)
def test_theta_read_off_round_trip(m, n):
    # The reported theta rebuilds, through build_unitaries, the best columns
    # up to one global phase per side, so f moves only by rounding. Both
    # sides are read off together, so every case of A meets every case of
    # B: a read-off that let the sides' eigenvectors mix would show where
    # both have a repeated eigenvalue.
    sh = BipartiteShape(m, n)
    rng = np.random.default_rng(100 + 10 * m + n)
    rho = ec.random_density(sh, seed=10 * m + n)
    for pair in valid_pairs(sh):
        cols = [pair[0] - 1, pair[1] - 1]
        cases_a, cases_b = _column_cases(m, pair, rng), _column_cases(n, pair, rng)
        for u2, v2 in itertools.product(cases_a, cases_b):
            params = _theta(u2, v2, pair)
            assert all(type(t) is float for t in params.theta_a + params.theta_b)
            # the identity's columns (each side's first case) read off as
            # theta = 0 on their side, whatever the other side holds
            assert u2 is not cases_a[0] or not any(params.theta_a), pair
            assert v2 is not cases_b[0] or not any(params.theta_b), pair
            uv = build_unitaries(params, sh)
            for q, w in ((u2, uv.u[:, cols]), (v2, uv.v[:, cols])):
                phase = np.vdot(q, w) / 2
                assert abs(abs(phase) - 1) <= 1e-12
                assert np.abs(w - phase * q).max() <= 1e-12, (pair, q)
            f = evaluate_pair_columns(rho, u2, v2)[0].f
            assert abs(evaluate_pair(rho, pair, uv).f - f) <= 1e-12, pair


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
    # numpy integers search the same pair and come back as Python ints,
    # which JSON needs
    rep_np = maximize_violation(
        ec.horodecki33(5.0), SearchConfig(restarts=2, seed=0, pair=(np.int64(1), np.int64(3)))
    )
    assert rep_np == rep
    assert all(type(x) is int for x in rep_np.best_pair)


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
    with pytest.raises(ValueError, match="two integers"):
        scan_1d("horodecki33", [4.0], [0.1], (1.7, 3))


def test_scan_rejects_non_vector_grids():
    # a string is one scalar, not a sequence of characters to scan
    for bad in ([[0.1, 0.2], [0.3, 0.4]], 0.5, "1", "0.5"):
        with pytest.raises(ValueError, match="family_params must be one-dimensional"):
            scan_1d("werner", bad, [0.0, 1.0])
        with pytest.raises(ValueError, match="p_values must be one-dimensional"):
            scan_1d("werner", [0.5], bad)
    assert scan_1d("werner", np.array([0.5]), ["0.25"]) == scan_1d("werner", [0.5], [0.25])


def test_scan_rejects_non_finite_grids():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="p_values has non-finite entries"):
            scan_1d("werner", [1.0], [0.0, bad])
        with pytest.raises(ValueError, match="family_params has non-finite entries"):
            scan_1d("werner", [0.5, bad], [0.0])


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


# Verdicts, not bits: what maximize_violation concluded at seeds 0..3 on each
# shipped file, and which of the noisy random states below it certified,
# when the search still ran over generator coefficients through the exp map.
SHIPPED_VERDICTS = {
    "horodecki33_3.5.dm": Verdict.INCONCLUSIVE,
    "iso23_0.0.dm": Verdict.SEPARABLE,
    "iso23_0.26.dm": Verdict.ENTANGLED_CERTIFIED,
    "werner_0.5.dm": Verdict.ENTANGLED_CERTIFIED,
    "werner_1.0.dm": Verdict.ENTANGLED_CERTIFIED,
}
NOISY_STATES = [(m, n, seed) for m, n in ((2, 4), (2, 5), (3, 3), (3, 4), (4, 4)) for seed in range(6)]
NOISY_CERTIFIED = {
    (2, 4, 0), (2, 4, 1), (2, 4, 4),
    (2, 5, 0), (2, 5, 1), (2, 5, 4), (2, 5, 5),
    (3, 3, 0), (3, 3, 1), (3, 3, 4), (3, 3, 5),
    (3, 4, 0), (3, 4, 1), (3, 4, 4), (3, 4, 5),
    (4, 4, 0), (4, 4, 1), (4, 4, 4), (4, 4, 5),
}


def _check_not_below_identity_start(rho, rep):
    # The zero start ascends from the identity's f, and the certificate
    # rebuilt from theta holds the best columns up to rounding.
    identity_f = evaluate_pair(rho, (1, 2), LocalUnitaryPair.identity(rho.shape)).f
    assert rep.best_f >= identity_f - 1e-12


def test_search_verdicts_pinned():
    data = Path(__file__).resolve().parent.parent / "data"
    assert sorted(p.name for p in data.glob("*.dm")) == sorted(SHIPPED_VERDICTS)
    for name, verdict in SHIPPED_VERDICTS.items():
        rho = read_density(data / name)
        for seed in range(4):
            rep = maximize_violation(rho, SearchConfig(seed=seed))
            assert rep.verdict is verdict, (name, seed)
            _check_not_below_identity_start(rho, rep)
    certified = set()
    for key in NOISY_STATES:
        rho = noisy_random_state(*key)
        rep = maximize_violation(rho)
        _check_not_below_identity_start(rho, rep)
        if rep.verdict is Verdict.ENTANGLED_CERTIFIED:
            certified.add(key)
    assert certified == NOISY_CERTIFIED


# Summed evaluations of the default search over seeds 0..3 on the states of
# perfbench's optimize workload: 5415 with the strong-Wolfe line search,
# 5458 with backtracking, 3577 once a proven-PPT state (horodecki33_3.5,
# 1885 of those 5458) runs the zero start alone, one evaluation per seed,
# and 24 once a search stops at the first start that certifies and reaches
# the spectral bound: werner(1) at the zero start (1 evaluation per seed),
# iso23(1) and horodecki33(5) at the eigenvector start (2 per seed).
# The ceiling sits 10 % above 24, so a slower optimizer, a gate that stops
# skipping or a stop that stops firing fails here even when the digests
# below are regenerated.
EVALUATION_CEILING = 26


def test_search_evaluation_budget():
    states = [ec.werner(1.0), ec.iso23(1.0), ec.horodecki33(5.0), read_density(DATA / "horodecki33_3.5.dm")]
    total = sum(maximize_violation(rho, SearchConfig(seed=s)).evaluations for rho in states for s in range(4))
    assert total <= EVALUATION_CEILING, total


# Summed evaluations of the default search on random_density 3x3, 3x4 and
# 4x4 at seeds 0..2, states whose searches run their random starts: 7813
# with theta-drawn starts exponentiated into columns, 7459 with
# Gram-Schmidt'd Gaussian columns. The ceiling sits 10 % above 7459, so a
# worse start or a slower optimizer on the random-start path fails here.
RANDOM_START_EVALUATION_CEILING = 8204


def test_random_start_evaluation_budget():
    shapes = [BipartiteShape(3, 3), BipartiteShape(3, 4), BipartiteShape(4, 4)]
    total = sum(maximize_violation(ec.random_density(sh, seed=s)).evaluations for sh in shapes for s in range(3))
    assert total <= RANDOM_START_EVALUATION_CEILING, total


# Each state and the unitaries its search exponentiates.
EXPONENTIALS = {
    # every start runs, yet only the certificate's two unitaries are built
    "horodecki33(4.0)": (lambda: ec.horodecki33(4.0), 2),  # in the PPT band
    "random_density(3x3, seed=0)": (lambda: ec.random_density(BipartiteShape(3, 3), seed=0), 2),
    # the zero start wins without moving, so the certificate is the identity
    "werner(1)": (lambda: ec.werner(1.0), 0),  # at the spectral bound
    "horodecki33(3.5)": (lambda: ec.horodecki33(3.5), 0),  # proven PPT
}


@pytest.mark.parametrize("name", EXPONENTIALS)
def test_search_exponentiates_only_for_the_certificate(monkeypatch, name):
    import entcert.search as search_mod

    calls = []
    real_exp = search_mod.unitary_exp

    def counting(h):
        calls.append(h)
        return real_exp(h)

    monkeypatch.setattr(search_mod, "unitary_exp", counting)
    make, expected = EXPONENTIALS[name]
    rho = make()
    rep = maximize_violation(rho)
    assert len(calls) == expected
    if not expected:
        assert rep.best_params == UnitaryParams.zero(rho.shape)
        assert rep.y_values == evaluate_pair(rho, (1, 2), LocalUnitaryPair.identity(rho.shape))


# sha256 of json.dumps([maximize_violation(rho, SearchConfig(seed=s)).to_dict()
# for s in range(4)]) for each shipped state: the two PPT files' entries as
# recorded when proven-PPT states began to skip the random starts, the three
# NPT files' as recorded when the search began to stop at the spectral
# bound. A kernel change that
# moves one bit of one report shows here. Print both tables afresh with
#     PYTHONPATH=src python tests/test_search.py
REPORT_DIGESTS = {
    "horodecki33_3.5.dm": "a8aa9d00d56fd25ed240adb739f8d63d4c21538a20a6001656ed0daec4977039",
    "iso23_0.0.dm": "4836cbe8a92551661d355b5468857c7b14852c595c4a49c4f97603349091321f",
    "iso23_0.26.dm": "4574395ce9871d79e511b4ee93eafdcdb79a428d7f3430c63279a3b53a1381ed",
    "werner_0.5.dm": "9e5a2aa10e0cb2e91f9e16d068f0b153b6df32bc0613b1b9eb35091126f9177e",
    "werner_1.0.dm": "492c31cb5cf71f6fad7e7458192d23be3bc135da91158b8265e8ead13eddad7e",
}


def _digest(reports) -> str:
    return hashlib.sha256(json.dumps(reports).encode()).hexdigest()


def shipped_report_digests() -> dict:
    return {
        path.name: _digest([maximize_violation(read_density(path), SearchConfig(seed=s)).to_dict() for s in range(4)])
        for path in sorted(DATA.glob("*.dm"))
    }


def test_search_reports_pinned_on_shipped_states():
    assert shipped_report_digests() == REPORT_DIGESTS


# The same for random_density(BipartiteShape(m, n), seed=0) and search seeds
# 0 and 1, on shapes no shipped file has: either side larger, and a square
# shape beyond 3x3. Recorded when the completion in the theta read-off
# became pivoted Gram-Schmidt, which completes 4- and 5-level columns to
# other unitaries than QR did, so their theta differ; the searches, their
# evaluations, verdicts and best_f (to 2e-16) are those recorded when the
# random starts became Gram-Schmidt'd Gaussian columns. 3x4 and 4x3 were
# recorded again when theta came to be read off each side with the
# generator stack that build_unitaries uses: the per-side sums round the
# last bit of theta differently (|d theta| <= 1.2e-16, |d best_f| <= 7e-18
# here), and no evaluation count or verdict moved. 2x5 was recorded again
# when DensityMatrix came to store the Hermitian part of its input: this
# random_density is Hermitian only to rounding, so the kernel reads other
# last bits (search seed 1 took 1086 evaluations, not 1085); no verdict
# moved (tools/report_sweep.py compare).
RANDOM_REPORT_DIGESTS = {
    "2x5": "b48b2f710a25fc8ae698fe0baa76960ae540fa8235002ec02236f18082786748",
    "3x4": "26e7193f037037dbdd57e7e558c99c86cb5f6c10f1ce81579e9eceeca6617314",
    "4x3": "30fbb2a140ecfb0e1e7f68d45b7e9c47ff4c9d382603a23b1c4e7867303a8360",
    "4x4": "a79e2b598c334a26edad0791524e97eeb2eb5984f95e02c3e67075d7d761bd95",
}


def random_report_digests() -> dict:
    digests = {}
    for key in RANDOM_REPORT_DIGESTS:
        rho = ec.random_density(BipartiteShape(*map(int, key.split("x"))), seed=0)
        digests[key] = _digest([maximize_violation(rho, SearchConfig(seed=s)).to_dict() for s in range(2)])
    return digests


def test_search_reports_pinned_on_random_states():
    assert random_report_digests() == RANDOM_REPORT_DIGESTS


if __name__ == "__main__":
    for name, digests in (("REPORT_DIGESTS", shipped_report_digests()),
                          ("RANDOM_REPORT_DIGESTS", random_report_digests())):
        print(f"{name} = {{")
        for key, digest in digests.items():
            print(f'    "{key}": "{digest}",')
        print("}")
