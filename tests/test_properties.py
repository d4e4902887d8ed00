"""Property tests of invariants that follow from the theory."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from entcert import (
    BipartiteShape,
    DensityMatrix,
    SearchConfig,
    UnitaryParams,
    build_unitaries,
    evaluate_at_identity,
    evaluate_pair,
    horodecki33,
    iso23,
    maximize_violation,
    ppt_min_eigenvalue,
    random_density,
    tensor,
    unitary_exp,
    valid_pairs,
    werner,
)
from entcert.search import F_RTOL, _column_objective, _eigenvector_start
from entcert.witness import PPT_TOL, VIOLATION_TOL, Verdict, ppt_eigen
from conftest import noisy_random_state, random_hermitian

_unit = st.floats(-1.0, 1.0, allow_nan=False)
_angle = st.floats(-np.pi, np.pi, allow_nan=False)


@st.composite
def state_and_point(draw, max_b=4):
    m, n = draw(st.integers(2, 4)), draw(st.integers(2, max_b))
    sh = BipartiteShape(m, n)
    rank = draw(st.integers(1, sh.order))
    re = np.array(draw(st.lists(_unit, min_size=sh.order * rank, max_size=sh.order * rank)))
    im = np.array(draw(st.lists(_unit, min_size=sh.order * rank, max_size=sh.order * rank)))
    g = (re + 1j * im).reshape(sh.order, rank)
    gram = g @ g.conj().T
    norm = np.trace(gram).real
    if norm < 1e-3:  # too close to the zero matrix to normalize
        gram, norm = np.eye(sh.order, dtype=complex), float(sh.order)
    rho = DensityMatrix(sh, gram / norm)
    params = UnitaryParams(
        tuple(draw(st.lists(_angle, min_size=m * m - 1, max_size=m * m - 1))),
        tuple(draw(st.lists(_angle, min_size=n * n - 1, max_size=n * n - 1))),
    )
    pair = draw(st.sampled_from(valid_pairs(sh)))
    return rho, pair, params


@settings(max_examples=300, deadline=None)
@given(state_and_point())
def test_violation_implies_npt(case):
    """a, b and c are entries of the partially transposed state between two
    orthonormal product vectors, so the 2x2 block [[a, c], [c*, b]] bounds its
    least eigenvalue from above: every PPT state obeys the inequality."""
    rho, pair, params = case
    y = evaluate_pair(rho, pair, build_unitaries(params, rho.shape))
    ppt_min = ppt_min_eigenvalue(rho)
    assert ppt_min <= (y.y3 - np.hypot(y.y1, y.y2)) / 2 + 1e-12
    if y.f > VIOLATION_TOL:
        assert ppt_min < 0


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 4), st.integers(2, 4), st.integers(0, 2**32 - 1), st.data())
def test_proven_ppt_state_never_violates(m, n, seed, data):
    """The search skips its random starts when ppt_min > PPT_TOL. That is
    sound because such a computed minimum proves rho^Gamma >= 0, and then
    f = 4((Re c)^2 - ab) <= 0 at every point: a, b and c are entries of
    rho^Gamma between two product vectors (Cauchy-Schwarz). The noise-mixed
    random states are complex and PPT for some seeds, NPT for others."""
    rho = noisy_random_state(m, n, seed)
    assume(ppt_min_eigenvalue(rho) > PPT_TOL)
    params = UnitaryParams(
        tuple(data.draw(st.lists(_angle, min_size=m * m - 1, max_size=m * m - 1))),
        tuple(data.draw(st.lists(_angle, min_size=n * n - 1, max_size=n * n - 1))),
    )
    uv = build_unitaries(params, rho.shape)
    for pair in valid_pairs(rho.shape):
        assert evaluate_pair(rho, pair, uv).f <= 1e-12, pair
    rep = maximize_violation(rho, SearchConfig(restarts=2, seed=seed))
    assert rep.verdict is not Verdict.ENTANGLED_CERTIFIED
    assert rep.best_f <= 1e-12


@settings(max_examples=100, deadline=None)
@given(state_and_point())
def test_identity_report_invariant_under_swapping_subsystems(case):
    """Swapping A and B (rho -> S rho S on shape (N, M)) exchanges |jk> and
    |kj>, so a and b stay and c becomes its conjugate: f is unchanged. At
    the identity every product with a column of w is exact, so the identity
    reports agree exactly."""
    rho, _, _ = case
    m, n = rho.shape.dim_a, rho.shape.dim_b
    swapped = rho.mat.reshape(m, n, m, n).transpose(1, 0, 3, 2).reshape(m * n, m * n)
    rep = evaluate_at_identity(rho)
    rep_swapped = evaluate_at_identity(DensityMatrix(BipartiteShape(n, m), swapped))
    assert rep_swapped.best_f == rep.best_f
    assert rep_swapped.best_pair == rep.best_pair


_LU_STATES = {
    "werner(1)": lambda: werner(1.0),
    "werner(0.5)": lambda: werner(0.5),
    "werner(0.2)": lambda: werner(0.2),
    "iso23(1)": lambda: iso23(1.0),
    "iso23(0.26)": lambda: iso23(0.26),
    "horodecki33(5)": lambda: horodecki33(5.0),
    **{f"random 2x3 #{s}": (lambda s=s: random_density(BipartiteShape(2, 3), s)) for s in range(3)},
}


@pytest.mark.parametrize("seed, name", enumerate(_LU_STATES))
def test_search_invariant_under_local_unitaries(seed, name):
    """rho' = (U x V) rho (U x V)^dag at (u, v) gives the y values of rho at
    (U^dag u, V^dag v), so both searches maximize one function over
    SU(M) x SU(N), from different starts, and must agree on the verdict.
    Each start stops once an iteration gains less than F_RTOL * max(|f|, 1);
    near a maximum L-BFGS converges superlinearly, so the last gain bounds
    how far short of the maximum a search stops. Ten times that bound, for
    either search, is the tolerance on best_f."""
    rho = _LU_STATES[name]()
    rng = np.random.default_rng(seed)
    m, n = rho.shape.dim_a, rho.shape.dim_b
    w = tensor(unitary_exp(random_hermitian(rng, m)), unitary_exp(random_hermitian(rng, n)))
    moved = DensityMatrix(rho.shape, w @ rho.mat @ w.conj().T)
    rep, rep_moved = maximize_violation(rho), maximize_violation(moved)
    assert rep_moved.verdict == rep.verdict
    tol = 10 * F_RTOL * max(abs(rep.best_f), 1.0)
    assert abs(rep_moved.best_f - rep.best_f) <= tol, (rep.best_f, rep_moved.best_f)


def _eigenvector_start_f(rho):
    """f at the search's eigenvector start, and ppt_eigen's eigenvalues."""
    vals, vecs = ppt_eigen(rho)
    return -_column_objective(rho)[0](_eigenvector_start(rho, vecs[:, 0])), vals


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 5), st.integers(0, 2**32 - 1))
def test_eigenvector_start_certifies_every_npt_2xd_state(n, seed):
    """In 2 x d the lowest eigenvector z of rho^Gamma has Schmidt rank <= 2,
    so the eigenvector start holds all of it, and there f >= 4 lambda_min^2
    (up to rounding; Werner's singlet gives equality). With
    lambda_min < -1e-4 that is above VIOLATION_TOL, so the search certifies
    whatever its random starts do. The states are complex: a start that put
    f_1, f_2 in v's columns instead of their conjugates fails here, though
    it passes on the real named states."""
    rho = noisy_random_state(2, n, seed)
    f, vals = _eigenvector_start_f(rho)
    lam = float(vals[0])
    assume(lam < -1e-4)
    assert f >= 4 * lam * lam - 1e-12, (f, lam)
    rep = maximize_violation(rho, SearchConfig(restarts=1, seed=seed))
    assert rep.verdict is Verdict.ENTANGLED_CERTIFIED


@settings(max_examples=60, deadline=None)
@given(state_and_point(max_b=5))
def test_violation_never_exceeds_the_spectral_bound(case):
    """[[a, c], [c*, b]] is a compression of rho^Gamma, so its eigenvalues
    lie in [lambda_min, lambda_max] and f = 4((Re c)^2 - ab) <= B =
    4 max(0, -lambda_min) lambda_max at every point: the search's stop at B
    gives up nothing. The search also never ends below its eigenvector
    start, which it runs whenever rho^Gamma is not proven positive."""
    rho, pair, params = case
    start_f, vals = _eigenvector_start_f(rho)
    bound = 4 * max(0.0, -float(vals[0])) * float(vals[-1])
    uv = build_unitaries(params, rho.shape)
    assert evaluate_pair(rho, pair, uv).f <= bound + 1e-12
    rep = maximize_violation(rho, SearchConfig(restarts=2, seed=0))
    assert rep.best_f <= bound + 1e-12
    if vals[0] <= PPT_TOL:
        assert rep.best_f >= start_f - 1e-12


@settings(max_examples=60, deadline=None)
@given(state_and_point(), st.integers(0, 2**32 - 1))
def test_eigenvector_start_invariant_under_swap_and_local_unitaries(case, seed):
    """Swapping A and B turns rho^Gamma into S (rho^Gamma)^T S, and
    (U x V) rho (U x V)^dag turns it into (U x conj(V)) rho^Gamma (...)^dag:
    the lowest eigenvector and its Schmidt terms move along, and the start's
    f stays. A degenerate lowest eigenvalue, or a tie among the top three
    Schmidt coefficients, leaves the start a choice that can move f (the
    singlet-like pure states of 2 x 2 do), so only states with clear gaps
    are kept."""
    rho, _, _ = case
    m, n = rho.shape.dim_a, rho.shape.dim_b
    vals, vecs = ppt_eigen(rho)
    schmidt = np.linalg.svd(vecs[:, 0].reshape(m, n), compute_uv=False)
    assume(vals[1] - vals[0] > 1e-3)
    assume((np.diff(schmidt[:3]) < -1e-3).all())
    f, _ = _eigenvector_start_f(rho)

    swapped = rho.mat.reshape(m, n, m, n).transpose(1, 0, 3, 2).reshape(m * n, m * n)
    f_swapped, _ = _eigenvector_start_f(DensityMatrix(BipartiteShape(n, m), swapped))
    assert abs(f_swapped - f) <= 1e-9, (f, f_swapped)

    rng = np.random.default_rng(seed)
    w = tensor(unitary_exp(random_hermitian(rng, m)), unitary_exp(random_hermitian(rng, n)))
    f_moved, _ = _eigenvector_start_f(DensityMatrix(rho.shape, w @ rho.mat @ w.conj().T))
    assert abs(f_moved - f) <= 1e-9, (f, f_moved)
