import numpy as np
import pytest

import entcert as ec
from entcert import (
    BipartiteShape,
    DensityMatrix,
    LocalUnitaryPair,
    Verdict,
    PptVerdict,
    YValues,
    build_triple_2xd,
    build_triple_mxn,
    check_inequality,
    classify_ppt,
    evaluate,
    evaluate_pair,
    ketbra_triple,
    partial_transpose_b,
    ppt_min_eigenvalue,
    rotate_triple,
    valid_pairs,
    werner,
)
from entcert.witness import (
    STATE_CHUNK,
    check_pair,
    evaluate_identity_pairs,
    evaluate_pair_columns,
    evaluate_pair_states,
    pair_columns_grad,
)
from conftest import cached_basis

I3 = np.eye(3, dtype=complex)


def triples_close(ta, tb, tol):
    return max(
        np.abs(ta.y1 - tb.y1).max(),
        np.abs(ta.y2 - tb.y2).max(),
        np.abs(ta.y3 - tb.y3).max(),
    ) <= tol


def random_unitary_pair(shape, rng):
    from entcert import unitary_exp

    ha = rng.standard_normal((shape.dim_a, shape.dim_a))
    hb = rng.standard_normal((shape.dim_b, shape.dim_b))
    ha = ha + 1j * rng.standard_normal(ha.shape)
    hb = hb + 1j * rng.standard_normal(hb.shape)
    return LocalUnitaryPair(unitary_exp((ha + ha.conj().T) / 2), unitary_exp((hb + hb.conj().T) / 2))


def test_valid_pairs():
    assert valid_pairs(BipartiteShape(2, 2)) == ((1, 2),)
    assert valid_pairs(BipartiteShape(2, 5)) == ((1, 2),)
    assert valid_pairs(BipartiteShape(3, 4)) == ((1, 2), (1, 3), (2, 3))
    # check_pair accepts exactly the valid pairs, and without a shape every 1 <= j < k
    sh = BipartiteShape(3, 4)
    grid = [(j, k) for j in range(-1, 6) for k in range(-1, 6)]
    assert [p for p in grid if _accepts(p, sh)] == list(valid_pairs(sh))
    assert [p for p in grid if _accepts(p)] == [(j, k) for j, k in grid if 1 <= j < k]
    # numpy integers pass and come back as Python ints
    for pair in ((np.int64(2), np.int64(3)), np.array([2, 3])):
        got = check_pair(pair, sh)
        assert got == (2, 3) and all(type(x) is int for x in got)
    for bad in ((1.5, 3), (1, 3.0), 3, (1,), (1, 2, 3), "12", None, (True, 2), (np.True_, 2)):
        with pytest.raises(ValueError, match="two integers"):
            check_pair(bad)
    # the two wordings the CLI prints
    with pytest.raises(ValueError, match=r"^level pair \(2, 1\) must have 1 <= j < k$"):
        check_pair((2, 1))
    with pytest.raises(ValueError, match=r"^level pair \(2, 1\) is not valid for shape "):
        check_pair((2, 1), sh)


def test_triple_2x2_frozen_diagonals():
    t = build_triple_2xd(2, cached_basis(2), cached_basis(2))
    assert np.abs(t.y2 - np.diag([1.0, 0, 0, -1.0])).max() < 1e-12
    assert np.abs(t.y3 - np.diag([1.0, 0, 0, 1.0])).max() < 1e-12


def test_triple_2x3_offdiagonal_positions():
    t = build_triple_2xd(3, cached_basis(2), cached_basis(3))
    sh = BipartiteShape(2, 3)
    nz = np.argwhere(np.abs(t.y1) > 1e-12)
    assert sorted(map(tuple, nz)) == sorted(
        [(sh.index(1, 2), sh.index(2, 1)), (sh.index(2, 1), sh.index(1, 2))]
    )
    assert abs(t.y1[sh.index(1, 2), sh.index(2, 1)] - 1.0) < 1e-12


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_triple_2xd_trace_and_ketbra_form(d):
    t = build_triple_2xd(d, cached_basis(2), cached_basis(d))
    assert abs(np.trace(t.y3) - 2.0) < 1e-12
    assert triples_close(t, ketbra_triple(BipartiteShape(2, d), 1, 2), 1e-12)
    t_gen = build_triple_mxn(BipartiteShape(2, d), 1, 2, cached_basis(2), cached_basis(d))
    assert triples_close(t, t_gen, 1e-12)


def test_triple_mxn_33_examples():
    sh = BipartiteShape(3, 3)
    b3 = cached_basis(3)
    t12 = build_triple_mxn(sh, 1, 2, b3, b3)
    expected = np.zeros((9, 9), dtype=complex)
    expected[sh.index(1, 1), sh.index(1, 1)] = 1.0
    expected[sh.index(2, 2), sh.index(2, 2)] = -1.0
    assert np.abs(t12.y2 - expected).max() < 1e-12
    t23 = build_triple_mxn(sh, 2, 3, b3, b3)
    nz = np.argwhere(np.abs(t23.y1) > 1e-12)
    assert sorted(map(tuple, nz)) == sorted(
        [(sh.index(2, 3), sh.index(3, 2)), (sh.index(3, 2), sh.index(2, 3))]
    )


def test_triple_hermitian_and_projector_structure():
    for (m, n), (j, k) in (((3, 4), (1, 3)), ((4, 4), (2, 4)), ((2, 5), (1, 2))):
        sh = BipartiteShape(m, n)
        t = build_triple_mxn(sh, j, k, cached_basis(m), cached_basis(n))
        for y in (t.y1, t.y2, t.y3):
            assert np.abs(y - y.conj().T).max() == 0.0
        # y3 and y3 +- y2 are projectors onto product basis vectors
        for p in (t.y3, t.y3 + t.y2, t.y3 - t.y2):
            assert np.linalg.eigvalsh(p)[0] > -1e-12
        proj = (t.y3 + t.y2) / 2
        assert np.abs(proj @ proj - proj).max() < 1e-12


def _accepts(pair, shape=None) -> bool:
    try:
        check_pair(pair, shape)
    except ValueError:
        return False
    return True


def test_triple_level_errors():
    sh = BipartiteShape(3, 4)
    b3, b4 = cached_basis(3), cached_basis(4)
    with pytest.raises(ValueError):
        build_triple_mxn(sh, 2, 2, b3, b4)
    with pytest.raises(ValueError):
        build_triple_mxn(sh, 1, 4, b3, b4)  # k capped by min(M, N)
    with pytest.raises(ValueError):
        build_triple_2xd(1, cached_basis(2), cached_basis(2))


def test_rotate_identity_and_spectrum():
    sh = BipartiteShape(2, 3)
    t = build_triple_mxn(sh, 1, 2, cached_basis(2), cached_basis(3))
    uv = LocalUnitaryPair.identity(sh)
    rt = rotate_triple(t, uv)
    assert triples_close(t, rt, 0.0)
    rng = np.random.default_rng(2)
    uv = random_unitary_pair(sh, rng)
    rt = rotate_triple(t, uv)
    for y, ry in ((t.y1, rt.y1), (t.y2, rt.y2), (t.y3, rt.y3)):
        assert np.abs(np.linalg.eigvalsh(y) - np.linalg.eigvalsh(ry)).max() < 1e-10


def test_rotate_hand_case():
    # u = |1><2| - |2><1| sends y1 to -(|22><11| + |11><22|)
    sh = BipartiteShape(2, 2)
    t = build_triple_mxn(sh, 1, 2, cached_basis(2), cached_basis(2))
    u = np.array([[0, 1], [-1, 0]], dtype=complex)
    rt = rotate_triple(t, LocalUnitaryPair(u, np.eye(2, dtype=complex)))
    expected = np.zeros((4, 4), dtype=complex)
    expected[sh.index(2, 2), sh.index(1, 1)] = -1.0
    expected[sh.index(1, 1), sh.index(2, 2)] = -1.0
    assert np.abs(rt.y1 - expected).max() < 1e-12


def test_rotate_dimension_mismatch():
    t = build_triple_mxn(BipartiteShape(2, 2), 1, 2, cached_basis(2), cached_basis(2))
    with pytest.raises(ValueError):
        rotate_triple(t, LocalUnitaryPair(np.eye(3, dtype=complex), np.eye(2, dtype=complex)))
    # factors swapped but same total order must still be rejected
    t23 = build_triple_mxn(BipartiteShape(2, 3), 1, 2, cached_basis(2), cached_basis(3))
    swapped = LocalUnitaryPair(np.eye(3, dtype=complex), np.eye(2, dtype=complex))
    with pytest.raises(ValueError):
        rotate_triple(t23, swapped)
    with pytest.raises(ValueError):
        evaluate(werner(0.5), t, swapped)


def test_evaluate_reference_states():
    sh = BipartiteShape(2, 2)
    b2 = cached_basis(2)
    t = build_triple_mxn(sh, 1, 2, b2, b2)
    uv = LocalUnitaryPair.identity(sh)
    y = evaluate(werner(1.0), t, uv)
    assert abs(y.y1 - (-1.0)) < 1e-12 and abs(y.y2) < 1e-12 and abs(y.y3) < 1e-12
    assert abs(y.f - 1.0) < 1e-12

    mat = np.zeros((4, 4), dtype=complex)
    mat[0, 0] = 1.0
    y = evaluate(DensityMatrix(sh, mat), t, uv)
    assert abs(y.y1) < 1e-12 and abs(y.y2 - 1.0) < 1e-12 and abs(y.y3 - 1.0) < 1e-12
    assert abs(y.f) < 1e-12

    y = evaluate(werner(0.0), t, uv)
    assert abs(y.f - (-0.25)) < 1e-12


def test_evaluate_state_observable_duality():
    """Conjugating the state with (u x v)^dag equals rotating the triple."""
    rng = np.random.default_rng(17)
    sh = BipartiteShape(3, 3)
    b3 = cached_basis(3)
    t = build_triple_mxn(sh, 1, 3, b3, b3)
    rho = ec.random_density(sh, seed=8)
    uv = random_unitary_pair(sh, rng)
    w = ec.tensor(uv.u, uv.v)
    rho_back = DensityMatrix(sh, w.conj().T @ rho.mat @ w)
    y_direct = evaluate(rho, t, uv)
    y_moved = evaluate(rho_back, t, LocalUnitaryPair.identity(sh))
    assert abs(y_direct.y1 - y_moved.y1) < 1e-10
    assert abs(y_direct.y2 - y_moved.y2) < 1e-10
    assert abs(y_direct.y3 - y_moved.y3) < 1e-10


def test_evaluate_errors():
    sh22 = BipartiteShape(2, 2)
    t = build_triple_mxn(sh22, 1, 2, cached_basis(2), cached_basis(2))
    with pytest.raises(ValueError):
        evaluate(ec.iso23(0.5), t, LocalUnitaryPair.identity(BipartiteShape(2, 3)))
    with pytest.raises(ValueError, match="do not match"):
        evaluate_pair(ec.iso23(0.5), (1, 2), LocalUnitaryPair.identity(sh22))
    # corrupted state smuggled past validation must trip the residual check
    bad = object.__new__(DensityMatrix)
    object.__setattr__(bad, "shape", sh22)
    mat = np.eye(4, dtype=complex) / 4
    mat[0, 0] = 0.25 + 0.1j
    object.__setattr__(bad, "mat", mat)
    with pytest.raises(ValueError, match="imaginary residual"):
        evaluate(bad, t, LocalUnitaryPair.identity(sh22))
    with pytest.raises(ValueError, match="imaginary residual"):
        evaluate_pair(bad, (1, 2), LocalUnitaryPair.identity(sh22))
    with pytest.raises(ValueError):
        evaluate_pair(werner(0.5), (1, 3), LocalUnitaryPair.identity(sh22))
    with pytest.raises(ValueError, match="two integers"):
        evaluate_pair(werner(0.5), (1.7, 3), LocalUnitaryPair.identity(sh22))
    # the error names the largest residual: y2 picks up 0.1 - (-0.3)
    mat[3, 3] = 0.25 - 0.3j
    with pytest.raises(ValueError, match="imaginary residual 4.000e-01"):
        evaluate_pair(bad, (1, 2), LocalUnitaryPair.identity(sh22))
    # Over a stack the check covers every slice. Swapping levels 1 and 2 on A
    # moves |11> and |22> out of the diagonal reads, so only the identity
    # slice sees the corrupted entries.
    swap = np.array([[0, 1], [1, 0]], dtype=complex)
    eye = np.eye(2, dtype=complex)
    assert evaluate_pair(bad, (1, 2), LocalUnitaryPair(np.stack([swap, swap]), eye)).y1.shape == (2,)
    with pytest.raises(ValueError, match="imaginary residual 4.000e-01"):
        evaluate_pair(bad, (1, 2), LocalUnitaryPair(np.stack([swap, eye, swap]), eye))
    # A single pair reads its three scalars directly, a stack goes through
    # one array: the same error text, sign included, and np.float64 values
    # either way (the CLI prints their repr).
    stack = LocalUnitaryPair(np.stack([swap, eye]), eye)
    for a, d in ((0.1, 0.3), (-0.1, -0.3)):  # y2, y3 pick up a - d, a + d
        mat[0, 0], mat[3, 3] = complex(0.25, a), complex(0.25, d)
        errors = []
        for uv in (LocalUnitaryPair.identity(sh22), stack):
            with pytest.raises(ValueError) as err:
                evaluate_pair(bad, (1, 2), uv)
            errors.append(str(err.value))
        with pytest.raises(ValueError) as err:
            evaluate(bad, t, LocalUnitaryPair.identity(sh22))
        errors.append(str(err.value))
        assert len(set(errors)) == 1, errors
        assert errors[0].startswith(f"expectation value has imaginary residual {a + d:.3e};")
    good = evaluate_pair(werner(0.5), (1, 2), LocalUnitaryPair.identity(sh22))
    assert all(type(getattr(good, name)) is np.float64 for name in ("y1", "y2", "y3"))
    good = evaluate(werner(0.5), t, LocalUnitaryPair.identity(sh22))
    assert all(type(getattr(good, name)) is np.float64 for name in ("y1", "y2", "y3"))
    good = evaluate_pair(werner(0.5), (1, 2), stack)
    assert all(getattr(good, name).dtype == np.float64 for name in ("y1", "y2", "y3"))
    # numpy's max propagates a NaN residual, so neither route raises on one,
    # even beside a residual above IMAG_TOL
    mat[1, 2] = complex(0.0, np.nan)
    for uv in (LocalUnitaryPair.identity(sh22), stack):
        assert np.isnan(evaluate_pair(bad, (1, 2), uv).y1).all()
    with pytest.raises(ValueError, match="do not match"):
        evaluate_pair(werner(0.5), (1, 2), LocalUnitaryPair(np.zeros((3, 3, 3)), eye))
    # A stack of columns is refused before any product is formed: stacks of
    # 3 and 2 slices would not even broadcast against each other.
    for u2, v2 in ((np.stack([eye, eye]), eye), (eye, np.stack([eye, eye])),
                   (np.stack([eye] * 3), np.stack([eye] * 2))):
        with pytest.raises(ValueError, match="not a stack"):
            evaluate_pair_columns(werner(0.5), u2, v2)
    # so are columns of the wrong order, or more than two of them
    for u2, v2 in ((np.eye(3, 2), eye), (eye, np.eye(2, 3))):
        with pytest.raises(ValueError, match="one 2x2 and one 2x2 pair of columns"):
            evaluate_pair_columns(werner(0.5), u2, v2)


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def test_evaluate_pair_stack_matches_single_evaluations():
    """A stack of unitaries gives, slice by slice, the bits of the scalar kernel.

    Stacks of 3 and 150 slices on 2..5 x 2..5: the kernel multiplies every
    slice's rows of w^dag by rho in one 2-D product.
    """
    rng = np.random.default_rng(7)
    for size in (3, 150):
        for m in range(2, 6):
            for n in range(2, 6):
                sh = BipartiteShape(m, n)
                rho = ec.random_density(sh, seed=10 * m + n)
                us = [random_unitary_pair(sh, rng) for _ in range(size)]
                u_stack = np.stack([uv.u for uv in us])
                v_stack = np.stack([uv.v for uv in us])
                u0, v0 = us[0]
                for pair in valid_pairs(sh):
                    cases = {
                        "u only": (LocalUnitaryPair(u_stack, v0), [(u, v0) for u in u_stack]),
                        "v only": (LocalUnitaryPair(u0, v_stack), [(u0, v) for v in v_stack]),
                        "both": (LocalUnitaryPair(u_stack, v_stack), list(zip(u_stack, v_stack))),
                    }
                    if size == 3:
                        # a (3, 1) stack on u against a (3,) stack on v broadcasts to (3, 3)
                        cases["broadcast"] = (
                            LocalUnitaryPair(u_stack[:, None], v_stack),
                            [(u, v) for u in u_stack for v in v_stack],
                        )
                    for name, (stacked, singles) in cases.items():
                        y = evaluate_pair(rho, pair, stacked)
                        ref = [evaluate_pair(rho, pair, LocalUnitaryPair(u, v)) for u, v in singles]
                        for field in ("y1", "y2", "y3", "f"):
                            got = np.ravel(getattr(y, field))
                            want = [getattr(r, field) for r in ref]
                            assert _bits(got) == _bits(want), (size, sh, pair, name, field)
                    for stacked in (
                        LocalUnitaryPair(u_stack[:0], v0),
                        LocalUnitaryPair(u0, v_stack[:0]),
                        LocalUnitaryPair(u_stack[:0], v_stack[:0]),
                    ):
                        empty = evaluate_pair(rho, pair, stacked)
                        assert empty.y1.shape == empty.y2.shape == empty.y3.shape == (0,)


def test_pair_grad_values_match_evaluate_pair():
    """evaluate_pair_columns, given columns j, k of u and of v, gives the y
    values evaluate_pair gives for u and v at the pair (j, k), bit for bit,
    on 2..5 x 2..5."""
    rng = np.random.default_rng(17)
    for m in range(2, 6):
        for n in range(2, 6):
            sh = BipartiteShape(m, n)
            rho = ec.random_density(sh, seed=10 * m + n)
            for uv in (LocalUnitaryPair.identity(sh), random_unitary_pair(sh, rng)):
                for pair in valid_pairs(sh):
                    cols = [pair[0] - 1, pair[1] - 1]
                    y, _ = evaluate_pair_columns(rho, uv.u[:, cols], uv.v[:, cols])
                    ref = evaluate_pair(rho, pair, uv)
                    assert _bits([y.y1, y.y2, y.y3]) == _bits([ref.y1, ref.y2, ref.y3]), (sh, pair)


def test_one_pair_kernel_serves_every_entry_point(monkeypatch):
    """evaluate_pair, evaluate_pair_columns (with pair_columns_grad after
    it), evaluate_identity_pairs and evaluate_pair_states all run the one
    column step and the one contraction: counting pass-throughs see one
    call of each per evaluation (the identity's column step when its cache
    is cold), and, over a sequence of states, one column step and one
    contraction per chunk of STATE_CHUNK states; the results keep their
    bits."""
    import entcert.witness as witness_mod

    rng = np.random.default_rng(15)
    sh = BipartiteShape(3, 3)
    states = [ec.random_density(sh, seed=1500 + t) for t in range(STATE_CHUNK + 3)]
    uv, pair = random_unitary_pair(sh, rng), (1, 3)
    u2, v2 = uv.u[:, [0, 2]], uv.v[:, [0, 2]]

    def columns_and_grad():
        y, lw = evaluate_pair_columns(states[0], u2, v2)
        return [y, lw, *pair_columns_grad(y, lw, u2, v2)]

    def identity_pairs():
        witness_mod._identity_columns.cache_clear()
        return [evaluate_identity_pairs(states[0], valid_pairs(sh))]

    runs = (  # name, entry point, contractions it should run
        ("pair", lambda: [evaluate_pair(states[0], pair, uv)], 1),
        ("columns", columns_and_grad, 1),
        ("identity", identity_pairs, 1),
        ("states", lambda: [evaluate_pair_states(sh, pair, uv, states)], 2),
    )

    def bits(results):
        return [
            _bits([r.y1, r.y2, r.y3]) if isinstance(r, YValues) else np.asarray(r).tobytes()
            for r in results
        ]

    before = {name: bits(run()) for name, run, _ in runs}
    calls = {"_pair_columns": 0, "_contract": 0}

    def counting(name):
        real = getattr(witness_mod, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(witness_mod, name, counting(name))
    for name, run, contractions in runs:
        calls.update(_pair_columns=0, _contract=0)
        assert bits(run()) == before[name], name
        assert calls == {"_pair_columns": 1, "_contract": contractions}, name


def test_pair_states_match_evaluate_pair():
    """Columns built once and contracted per state give each state's own
    evaluate_pair bits, for single and stacked unitaries on 2..4 x 2..4."""
    rng = np.random.default_rng(13)
    for m in range(2, 5):
        for n in range(2, 5):
            sh = BipartiteShape(m, n)
            states = [ec.random_density(sh, seed=1000 + 10 * m + n + t) for t in range(3)]
            us = [random_unitary_pair(sh, rng) for _ in range(4)]
            u0, v0 = us[0]
            for uv in (
                us[1],
                LocalUnitaryPair(np.stack([u.u for u in us]), v0),
                LocalUnitaryPair(u0, np.stack([u.v for u in us])),
                LocalUnitaryPair(np.stack([u.u for u in us]), np.stack([u.v for u in us])),
            ):
                for pair in valid_pairs(sh):
                    got = evaluate_pair_states(sh, pair, uv, states)
                    want = [evaluate_pair(rho, pair, uv) for rho in states]
                    for field in ("y1", "y2", "y3", "f"):
                        ys = getattr(got, field)  # the states axis first
                        assert ys.shape == (len(states), *np.shape(getattr(want[0], field)))
                        for y, w in zip(ys, want):
                            assert _bits(y) == _bits(getattr(w, field)), (sh, pair)


def test_pair_states_checks():
    sh22 = BipartiteShape(2, 2)
    eye = LocalUnitaryPair.identity(sh22)
    # the pair and the unitaries are checked when the columns are built,
    # before any state is read
    for pair, uv, match in (
        ((1, 3), eye, "not valid"),
        ((1.7, 3), eye, "two integers"),
        ((1, 2), LocalUnitaryPair.identity(BipartiteShape(2, 3)), "do not match"),
    ):
        with pytest.raises(ValueError, match=match):
            evaluate_pair_states(sh22, pair, uv, [werner(0.5)])
    with pytest.raises(ValueError, match="state shape"):
        evaluate_pair_states(sh22, (1, 2), eye, [werner(0.5), ec.iso23(0.5)])
    # no states, no values
    assert evaluate_pair_states(sh22, (1, 2), eye, []).y1.shape == (0,)


def test_pair_states_memory_is_bounded_by_the_chunk():
    """The products are one chunk's: over 1,000 states the peak, less the
    stacked states and the y values, which grow with the states, is no
    higher than over 100, within a small slack."""
    import tracemalloc

    sh = BipartiteShape(3, 3)
    p = np.linspace(0.0, np.pi, 101)
    uv = LocalUnitaryPair(ec.rotation_u(p, 3), np.eye(3, dtype=complex))

    def peak_beyond_input_and_output(count):
        states = [ec.horodecki33(a) for a in np.linspace(2.0, 5.0, count)]
        tracemalloc.start()
        try:
            y = evaluate_pair_states(sh, (1, 2), uv, states)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        stacked = count * states[0].mat.nbytes
        return peak - stacked - sum(v.nbytes for v in (y.y1, y.y2, y.y3))

    small, large = peak_beyond_input_and_output(100), peak_beyond_input_and_output(1000)
    assert large <= small + 16 * 1024, (small, large)


def test_evaluate_pair_matches_reference_triples():
    """The four-column kernel against the full-matrix evaluation of every
    reference construction, at random states and random local unitaries."""
    rng = np.random.default_rng(41)

    def agree(rho, levels, t, uv):
        y, ref = evaluate_pair(rho, levels, uv), evaluate(rho, t, uv)
        assert max(abs(y.y1 - ref.y1), abs(y.y2 - ref.y2), abs(y.y3 - ref.y3)) <= 1e-12

    for m in range(2, 5):
        for n in range(2, 5):
            sh = BipartiteShape(m, n)
            for trial in range(3):
                rho = ec.random_density(sh, seed=100 * m + 10 * n + trial)
                uv = random_unitary_pair(sh, rng)
                for j, k in valid_pairs(sh):
                    agree(rho, (j, k), ketbra_triple(sh, j, k), uv)
                    t = build_triple_mxn(sh, j, k, cached_basis(m), cached_basis(n))
                    agree(rho, (j, k), t, uv)
    for d in range(2, 7):
        sh = BipartiteShape(2, d)
        t = build_triple_2xd(d, cached_basis(2), cached_basis(d))
        for trial in range(3):
            agree(ec.random_density(sh, seed=d + 10 * trial), (1, 2), t,
                  random_unitary_pair(sh, rng))


def test_check_inequality():
    assert check_inequality(YValues(1.0, 0.0, 0.0)) is Verdict.ENTANGLED_CERTIFIED
    assert check_inequality(YValues(0.0, 1.0, 1.0)) is Verdict.INCONCLUSIVE
    sh = BipartiteShape(2, 2)
    b2 = cached_basis(2)
    t = build_triple_mxn(sh, 1, 2, b2, b2)
    y = evaluate(werner(0.4), t, LocalUnitaryPair.identity(sh))
    assert abs(y.f - 0.07) < 1e-12
    assert check_inequality(y) is Verdict.ENTANGLED_CERTIFIED


@pytest.mark.parametrize("d", [2, 3, 4])
def test_schmidt_partial_transpose_identity(d):
    """PT of the two-term Schmidt projector decomposes over the triple:
    (|phi><phi|)^T_B = (y1 sin 2t - y2 cos 2t + y3) / 2."""
    sh = BipartiteShape(2, d)
    t = build_triple_2xd(d, cached_basis(2), cached_basis(d))
    for theta in (0.0, np.pi / 7, np.pi / 4, 1.1):
        rho = ec.schmidt_pure(theta, sh)
        pt = partial_transpose_b(rho.mat, sh)
        combo = 0.5 * (np.sin(2 * theta) * t.y1 - np.cos(2 * theta) * t.y2 + t.y3)
        assert np.abs(pt - combo).max() < 1e-12


def test_product_state_identity():
    """For product vectors, y3^2 - y1^2 - y2^2 equals
    4 (|a_j a_k b_j b_k|^2 - Re^2(a_j a_k* b_j* b_k)) and is non-negative."""
    rng = np.random.default_rng(33)
    for m, n in ((2, 3), (3, 3), (3, 4), (4, 4)):
        sh = BipartiteShape(m, n)
        uv = LocalUnitaryPair.identity(sh)
        bm, bn = cached_basis(m), cached_basis(n)
        for _ in range(25):
            a = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            a /= np.linalg.norm(a)
            b /= np.linalg.norm(b)
            vec = np.kron(a, b)
            rho = DensityMatrix(sh, np.outer(vec, vec.conj()))
            for j, k in valid_pairs(sh):
                y = evaluate(rho, build_triple_mxn(sh, j, k, bm, bn), uv)
                gap = y.y3**2 - y.y1**2 - y.y2**2
                cross = a[j - 1] * np.conj(a[k - 1]) * np.conj(b[j - 1]) * b[k - 1]
                ref = 4 * (abs(cross) ** 2 - cross.real**2)
                assert abs(gap - ref) < 1e-10
                assert gap >= -1e-12


def test_separable_mixtures_obey_inequality():
    rng = np.random.default_rng(5)
    for m, n in ((2, 3), (3, 3), (3, 4)):
        sh = BipartiteShape(m, n)
        bm, bn = cached_basis(m), cached_basis(n)
        triples = [build_triple_mxn(sh, j, k, bm, bn) for j, k in valid_pairs(sh)]
        for trial in range(10):
            terms = int(rng.integers(1, 11))
            rho, _ = ec.random_separable(sh, terms, seed=1000 + trial)
            for _ in range(3):
                uv = random_unitary_pair(sh, rng)
                for t in triples:
                    y = evaluate(rho, t, uv)
                    assert y.f <= 1e-9
                    assert y.y2 + y.y3 >= -1e-10


def test_ppt_oracle_values():
    for a in (0.0, 0.2, 1 / 3, 0.5, 1.0):
        assert abs(ppt_min_eigenvalue(werner(a)) - (1 - 3 * a) / 4) < 1e-10
    assert abs(ppt_min_eigenvalue(ec.iso23(0.0)) - 1 / 6) < 1e-12
    # PPT yet entangled: bound entanglement is invisible to the oracle
    assert ppt_min_eigenvalue(ec.horodecki33(3.5)) >= -1e-10


def test_classify_ppt():
    small, large = BipartiteShape(2, 3), BipartiteShape(3, 3)
    assert classify_ppt(-0.1, small) is PptVerdict.ENTANGLED
    assert classify_ppt(0.05, small) is PptVerdict.SEPARABLE
    assert classify_ppt(0.05, large) is PptVerdict.INCONCLUSIVE
    assert classify_ppt(-1e-12, small) is PptVerdict.SEPARABLE  # within tolerance of 0
    # a NaN eigenvalue proves nothing, on any shape
    assert classify_ppt(float("nan"), small) is PptVerdict.INCONCLUSIVE
    assert classify_ppt(float("nan"), large) is PptVerdict.INCONCLUSIVE
