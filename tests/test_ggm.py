import numpy as np
import pytest

from entcert import build_basis, ketbra_in_ggm
from conftest import cached_basis, random_hermitian


def elementary(j, k, n):
    m = np.zeros((n, n), dtype=complex)
    m[j - 1, k - 1] = 1.0
    return m


def test_counts():
    for n in range(2, 9):
        b = cached_basis(n)
        assert len(b.symmetric) == n * (n - 1) // 2
        assert len(b.antisymmetric) == n * (n - 1) // 2
        assert len(b.diagonal) == n - 1
        assert sum(1 for _ in b.labeled()) == n * n - 1


def test_rejects_dim_below_two():
    with pytest.raises(ValueError):
        build_basis(1)


def test_n2_is_pauli_set():
    b = cached_basis(2)
    assert np.array_equal(b.sym(1, 2), np.array([[0, 1], [1, 0]], dtype=complex))
    assert np.array_equal(b.asym(1, 2), np.array([[0, -1j], [1j, 0]], dtype=complex))
    assert np.array_equal(b.diag(1), np.diag([1.0, -1.0]).astype(complex))


def test_n3_diagonal_generator():
    b = cached_basis(3)
    assert np.abs(b.diag(2) - np.sqrt(1 / 3) * np.diag([1, 1, -2])).max() < 1e-15


def test_hermitian_and_traceless():
    for n in range(2, 9):
        for label, g in cached_basis(n).labeled():
            assert np.abs(g - g.conj().T).max() == 0.0, label
            tol = 1e-14 if label.startswith("d") else 0.0
            assert abs(np.trace(g)) <= tol, label


def test_orthogonality_gram_n4():
    """Exhaustive 15x15 Gram matrix: Tr(g_a g_b) = 2 delta_ab."""
    stack = cached_basis(4).stack()
    gram = np.einsum("aij,bji->ab", stack, stack)
    assert np.abs(gram - 2 * np.eye(15)).max() < 1e-12
    assert np.abs(gram.imag).max() < 1e-14


def test_enumeration_order():
    b = cached_basis(3)
    labels = [label for label, _ in b.labeled()]
    assert labels == ["s:1,2", "s:1,3", "s:2,3", "a:1,2", "a:1,3", "a:2,3", "d:1", "d:2"]
    assert b.pair_index(1, 2) == 0 and b.pair_index(2, 3) == 2


def test_ketbra_qubit_raising():
    b = cached_basis(2)
    assert np.array_equal(ketbra_in_ggm(1, 2, b), np.array([[0, 1], [0, 0]], dtype=complex))
    assert np.array_equal(ketbra_in_ggm(2, 1, b), np.array([[0, 0], [1, 0]], dtype=complex))


def test_ketbra_level1_projector():
    for d in (2, 3, 5, 7):
        b = cached_basis(d)
        assert np.abs(ketbra_in_ggm(1, 1, b) - elementary(1, 1, d)).max() < 1e-14


def test_ketbra_all_pairs_n5():
    b = cached_basis(5)
    for j in range(1, 6):
        for k in range(1, 6):
            dev = np.abs(ketbra_in_ggm(j, k, b) - elementary(j, k, 5)).max()
            assert dev < 1e-12, (j, k, dev)


def test_ketbra_index_errors():
    b = cached_basis(3)
    for j, k in ((0, 1), (1, 4), (4, 4)):
        with pytest.raises(ValueError):
            ketbra_in_ggm(j, k, b)
    for lookup, args, message in ((b.sym, (2, 1), "need 1 <= j < k <= 3, got (2,1)"),
                                  (b.asym, (1, 4), "need 1 <= j < k <= 3, got (1,4)"),
                                  (b.diag, (0,), "need 1 <= l <= 2, got 0")):
        with pytest.raises(ValueError) as exc_info:
            lookup(*args)
        assert str(exc_info.value) == message


def test_completeness_traceless_expansion():
    """Any traceless Hermitian H equals sum_a Tr(g_a H)/2 * g_a."""
    rng = np.random.default_rng(21)
    for n in (2, 3, 4, 5):
        stack = cached_basis(n).stack()
        for _ in range(5):
            h = random_hermitian(rng, n)
            h -= np.trace(h) / n * np.eye(n)
            coeffs = np.einsum("aij,ji->a", stack, h) / 2
            recon = np.tensordot(coeffs, stack, axes=1)
            assert np.abs(recon - h).max() < 1e-10
