import numpy as np
import pytest

from entcert import (
    BipartiteShape,
    hermitian_eigen,
    partial_transpose_b,
    tensor,
    unitary_exp,
    werner,
)
from conftest import random_hermitian

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


def test_shape_validation():
    with pytest.raises(ValueError):
        BipartiteShape(1, 3)
    with pytest.raises(ValueError):
        BipartiteShape(2, 0)
    sh = BipartiteShape(2, 3)
    assert sh.order == 6
    assert sh.index(1, 1) == 0
    assert sh.index(2, 3) == 5
    with pytest.raises(ValueError):
        sh.index(3, 1)
    for dims in ((2.5, 3), (2.0, 2.0), (2, "3"), (None, 2)):
        with pytest.raises(ValueError, match="must be integers"):
            BipartiteShape(*dims)
    sh = BipartiteShape(np.int64(3), np.int32(3))
    assert type(sh.dim_a) is int and type(sh.dim_b) is int
    assert sh == BipartiteShape(3, 3)
    assert repr(sh) == "BipartiteShape(dim_a=3, dim_b=3)"


def test_tensor_identity_and_diagonal():
    assert np.array_equal(tensor(np.eye(2), np.eye(2)), np.eye(4))
    assert np.array_equal(tensor(SZ, np.eye(2)), np.diag([1, 1, -1, -1]).astype(complex))


def test_tensor_ketbra_placement():
    # |1><2| (x) |2><1| has its single 1 at (row |12>, col |21>)
    a = np.zeros((2, 2), dtype=complex)
    a[0, 1] = 1
    b = np.zeros((2, 2), dtype=complex)
    b[1, 0] = 1
    out = tensor(a, b)
    sh = BipartiteShape(2, 2)
    expected = np.zeros((4, 4), dtype=complex)
    expected[sh.index(1, 2), sh.index(2, 1)] = 1
    assert np.array_equal(out, expected)


def test_tensor_against_index_arithmetic():
    """Brute-force oracle: out[(i,l),(i',l')] = a[i,i'] * b[l,l']."""
    rng = np.random.default_rng(7)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    out = tensor(a, b)
    for i in range(2):
        for ip in range(2):
            for l in range(3):
                for lp in range(3):
                    assert abs(out[i * 3 + l, ip * 3 + lp] - a[i, ip] * b[l, lp]) < 1e-14


def test_tensor_associativity_and_trace():
    # integer-valued entries make the float products exact, so associativity
    # reduces to the index bookkeeping being right
    rng = np.random.default_rng(3)
    mats = [
        (rng.integers(-4, 5, (n, n)) + 1j * rng.integers(-4, 5, (n, n))).astype(complex)
        for n in (2, 3, 2)
    ]
    a, b, c = mats
    assert np.array_equal(tensor(tensor(a, b), c), tensor(a, tensor(b, c)))
    assert np.trace(tensor(a, b)) == np.trace(a) * np.trace(b)


def test_partial_transpose_identity():
    sh = BipartiteShape(2, 2)
    assert np.array_equal(partial_transpose_b(np.eye(4, dtype=complex), sh), np.eye(4))


def test_partial_transpose_involution_exact():
    rng = np.random.default_rng(11)
    sh = BipartiteShape(2, 3)
    h = random_hermitian(rng, 6)
    assert np.array_equal(partial_transpose_b(partial_transpose_b(h, sh), sh), h)


def test_partial_transpose_against_entry_remap():
    """Brute-force oracle: ((i,l),(i',l')) -> ((i,l'),(i',l))."""
    rng = np.random.default_rng(4)
    m, n = 2, 3
    sh = BipartiteShape(m, n)
    rho = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    out = partial_transpose_b(rho, sh)
    for i in range(m):
        for ip in range(m):
            for l in range(n):
                for lp in range(n):
                    assert out[i * n + l, ip * n + lp] == rho[i * n + lp, ip * n + l]


def test_partial_transpose_preserves_trace_and_hermiticity():
    rng = np.random.default_rng(5)
    sh = BipartiteShape(2, 3)
    h = random_hermitian(rng, 6)
    pt = partial_transpose_b(h, sh)
    assert np.trace(pt) == np.trace(h)
    assert np.abs(pt - pt.conj().T).max() == 0.0


def test_partial_transpose_singlet_min_eigenvalue():
    # (|12> - |21>)/sqrt(2): partially transposed projector has spectrum
    # {1/2, 1/2, 1/2, -1/2}
    rho = werner(1.0)
    pt = partial_transpose_b(rho.mat, rho.shape)
    vals, _ = hermitian_eigen(pt)
    assert abs(vals[0] - (-0.5)) < 1e-12


def test_partial_transpose_shape_mismatch():
    with pytest.raises(ValueError):
        partial_transpose_b(np.eye(4, dtype=complex), BipartiteShape(2, 3))


def test_hermitian_eigen_diagonal_and_pauli():
    vals, _ = hermitian_eigen(np.diag([3.0, 1.0, 2.0]).astype(complex))
    assert np.allclose(vals, [1, 2, 3], atol=1e-14)
    vals, _ = hermitian_eigen(SX)
    assert np.allclose(vals, [-1, 1], atol=1e-14)


def test_hermitian_eigen_reconstruction_and_unitarity():
    rng = np.random.default_rng(9)
    for n in (2, 3, 4, 6):
        h = random_hermitian(rng, n)
        vals, vecs = hermitian_eigen(h)
        norm = np.abs(h).max()
        assert np.abs((vecs * vals) @ vecs.conj().T - h).max() < 1e-9 * max(norm, 1.0)
        assert np.abs(vecs @ vecs.conj().T - np.eye(n)).max() < 1e-9
        assert np.all(np.diff(vals) >= 0)


def test_hermitian_eigen_rejects_non_hermitian():
    bad = np.array([[0, 1], [0, 0]], dtype=complex)
    with pytest.raises(ValueError, match="Hermitian"):
        hermitian_eigen(bad)


def test_hermitian_eigen_werner_ppt_closed_form():
    # min eigenvalue of the partially transposed Werner state is (1 - 3a)/4
    for a in (0.0, 0.2, 1 / 3, 0.5, 1.0):
        rho = werner(a)
        vals, _ = hermitian_eigen(partial_transpose_b(rho.mat, rho.shape))
        assert abs(vals[0] - (1 - 3 * a) / 4) < 1e-10


def test_unitary_exp_zero_and_diagonal():
    assert np.allclose(unitary_exp(np.zeros((3, 3))), np.eye(3), atol=1e-15)
    u = unitary_exp(np.pi * SZ)
    assert np.abs(u - (-np.eye(2))).max() < 1e-12


def test_unitary_exp_sigma_y_closed_form():
    # exp(i t sigma_y) = cos(t) I + i sin(t) sigma_y
    for t in (np.pi / 2, 0.3, 1.7):
        u = unitary_exp(t * SY)
        assert np.abs(u - (np.cos(t) * np.eye(2) + 1j * np.sin(t) * SY)).max() < 1e-12
    assert abs(unitary_exp((np.pi / 2) * SY)[0, 0]) < 1e-12


def test_unitary_exp_unitarity_random():
    rng = np.random.default_rng(13)
    for n in (2, 3, 4, 5, 6):
        u = unitary_exp(random_hermitian(rng, n))
        assert np.abs(u @ u.conj().T - np.eye(n)).max() < 1e-9


def test_unitary_exp_rejects_non_hermitian():
    with pytest.raises(ValueError):
        unitary_exp(np.array([[0, 1], [0, 0]], dtype=complex))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_validated_entry_points_reject_non_finite_input(bad):
    # Checked before the Hermiticity deviation, so inf - inf never warns
    # (warnings are errors in this suite).
    for fn in (hermitian_eigen, unitary_exp):
        for h in (np.full((2, 2), bad), np.diag([0.0, bad])):
            with pytest.raises(ValueError, match="non-finite entries"):
                fn(h)
