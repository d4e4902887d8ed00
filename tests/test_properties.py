"""Property tests of invariants that follow from the theory."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from entcert import (
    BipartiteShape,
    DensityMatrix,
    UnitaryParams,
    build_unitaries,
    evaluate_at_identity,
    evaluate_pair,
    ppt_min_eigenvalue,
    valid_pairs,
)
from entcert.witness import VIOLATION_TOL

_unit = st.floats(-1.0, 1.0, allow_nan=False)
_angle = st.floats(-np.pi, np.pi, allow_nan=False)


@st.composite
def state_and_point(draw):
    m, n = draw(st.integers(2, 4)), draw(st.integers(2, 4))
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
