import numpy as np
import pytest

from entcert import (
    BipartiteShape,
    DensityMatrix,
    SeparableEnsemble,
    horodecki33,
    iso23,
    ppt_min_eigenvalue,
    random_density,
    random_separable,
    rotation_u,
    schmidt_pure,
    werner,
)
from entcert.states import FAMILY_PARAMS, _family_constants


def test_density_matrix_validation():
    sh = BipartiteShape(2, 2)
    with pytest.raises(ValueError, match="Hermitian"):
        DensityMatrix(sh, np.eye(4) + 1e-6 * np.array([[0, 1j, 0, 0]] + [[0] * 4] * 3))
    with pytest.raises(ValueError, match="trace"):
        DensityMatrix(sh, np.eye(4, dtype=complex) / 2)
    with pytest.raises(ValueError, match="negative eigenvalue"):
        DensityMatrix(sh, np.diag([0.75, 0.75, -0.25, -0.25]).astype(complex))
    with pytest.raises(ValueError, match="order"):
        DensityMatrix(BipartiteShape(2, 3), np.eye(4, dtype=complex) / 4)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="^density matrix has non-finite entries$"):
            DensityMatrix(sh, np.diag([bad, 0.5, 0.25, 0.25]).astype(complex))
    dm = DensityMatrix(sh, np.eye(4, dtype=complex) / 4)
    assert not dm.mat.flags.writeable


def test_werner_limits():
    assert np.abs(werner(0.0).mat - np.eye(4) / 4).max() < 1e-15
    sh = BipartiteShape(2, 2)
    psi = np.zeros(4, dtype=complex)
    psi[sh.index(1, 2)] = 1 / np.sqrt(2)
    psi[sh.index(2, 1)] = -1 / np.sqrt(2)
    assert np.abs(werner(1.0).mat - np.outer(psi, psi.conj())).max() < 1e-15
    for bad in (-0.1, 1.1):
        with pytest.raises(ValueError):
            werner(bad)


def test_werner_npt_boundary():
    assert abs(ppt_min_eigenvalue(werner(1 / 3))) < 1e-10
    assert ppt_min_eigenvalue(werner(0.3)) > 0
    assert ppt_min_eigenvalue(werner(0.4)) < 0


def test_iso23_limits_and_boundary():
    assert np.abs(iso23(0.0).mat - np.eye(6) / 6).max() < 1e-15
    rho = iso23(1.0)
    assert abs(rho.mat.trace() - 1) < 1e-12
    # NPT exactly above the a = 1/4 threshold
    assert ppt_min_eigenvalue(iso23(0.24)) > 0
    assert ppt_min_eigenvalue(iso23(0.26)) < 0
    assert abs(ppt_min_eigenvalue(iso23(0.25))) < 1e-10
    with pytest.raises(ValueError):
        iso23(1.2)


def test_horodecki_regions():
    for alpha in (2.0, 3.0, 3.5, 4.0):
        assert ppt_min_eigenvalue(horodecki33(alpha)) >= -1e-10, alpha
    assert ppt_min_eigenvalue(horodecki33(4.5)) < -1e-4
    for bad in (1.9, 5.1):
        with pytest.raises(ValueError):
            horodecki33(bad)


def test_horodecki_structure():
    rho = horodecki33(3.0)
    sh = rho.shape
    assert abs(rho.mat[sh.index(1, 1), sh.index(2, 2)] - 2 / 21) < 1e-15
    assert abs(rho.mat[sh.index(1, 2), sh.index(1, 2)] - 3 / 21) < 1e-15
    assert abs(rho.mat[sh.index(2, 1), sh.index(2, 1)] - 2 / 21) < 1e-15


def _written_out(family: str, x: float) -> np.ndarray:
    """A family's matrix from its definition, every constant built afresh."""
    if family == "horodecki33":
        sh = BipartiteShape(3, 3)
        psi = np.zeros(9, dtype=complex)
        plus = np.zeros((9, 9), dtype=complex)
        minus = np.zeros((9, 9), dtype=complex)
        for i, l in ((1, 2), (2, 3), (3, 1)):
            psi[sh.index(i, i)] = 1 / np.sqrt(3.0)
            plus[sh.index(i, l), sh.index(i, l)] = 1 / 3
            minus[sh.index(l, i), sh.index(l, i)] = 1 / 3
        return 2 / 7 * np.outer(psi, psi.conj()) + x / 7 * plus + (5 - x) / 7 * minus
    sh = BipartiteShape(2, 2) if family == "werner" else BipartiteShape(2, 3)
    psi = np.zeros(sh.order, dtype=complex)
    if family == "werner":
        psi[sh.index(1, 2)], psi[sh.index(2, 1)] = 1 / np.sqrt(2.0), -1 / np.sqrt(2.0)
    else:
        psi[sh.index(1, 1)] = psi[sh.index(2, 2)] = 1 / np.sqrt(2.0)
    return x * np.outer(psi, psi.conj()) + (1 - x) / sh.order * np.eye(sh.order)


def test_family_constants_cached_read_only_and_unshared():
    fns = {"werner": werner, "iso23": iso23, "horodecki33": horodecki33}
    for family, fn in fns.items():
        lo, hi = FAMILY_PARAMS[family].domain
        for x in (lo, (lo + hi) / 2, hi):
            assert fn(x).mat.tobytes() == _written_out(family, x).tobytes(), (family, x)
        consts = _family_constants(family)
        assert consts is _family_constants(family)
        for m in consts:
            with pytest.raises(ValueError, match="read-only"):
                m[0, 0] = 1.0
        first, second = fn(lo).mat, fn(lo).mat
        assert not np.shares_memory(first, second)
        assert not any(np.shares_memory(first, m) for m in consts)
    with pytest.raises(ValueError, match="unknown family"):
        _family_constants("bogus")


def test_schmidt_pure():
    sh = BipartiteShape(2, 2)
    rho = schmidt_pure(0.0, sh)
    expected = np.zeros((4, 4), dtype=complex)
    expected[sh.index(2, 2), sh.index(2, 2)] = 1.0
    assert np.abs(rho.mat - expected).max() < 1e-15
    rho = schmidt_pure(np.pi / 4, BipartiteShape(3, 4))
    assert abs(rho.mat.trace() - 1) < 1e-12
    assert abs(rho.mat[0, 0] - 0.5) < 1e-15


def test_rotation_u():
    assert np.array_equal(rotation_u(0.0, 3), np.eye(3))
    u = rotation_u(np.pi / 2, 2)
    assert np.abs(u - np.array([[0, 1], [-1, 0]], dtype=complex)).max() < 1e-15
    u3 = rotation_u(np.pi / 4, 3)
    assert u3[2, 2] == 1.0 and u3[0, 2] == 0.0 and u3[2, 0] == 0.0
    assert np.abs(u3 @ u3.conj().T - np.eye(3)).max() < 1e-15
    with pytest.raises(ValueError):
        rotation_u(0.1, 1)
    # an array of angles stacks the per-angle rotations along its axes
    angles = np.array([[0.0, np.pi, -0.7], [4.0, -np.pi / 2, 9.3]])
    for n in (2, 3, 5):
        stack = rotation_u(angles, n)
        assert stack.shape == (2, 3, n, n)
        for idx in np.ndindex(angles.shape):
            assert stack[idx].tobytes() == rotation_u(float(angles[idx]), n).tobytes()
        assert rotation_u(np.zeros(0), n).shape == (0, n, n)


def test_random_density_contract():
    sh = BipartiteShape(2, 3)
    rho = random_density(sh, seed=42)
    assert abs(rho.mat.trace() - 1) < 1e-12
    assert np.linalg.eigvalsh(rho.mat)[0] > -1e-12
    again = random_density(sh, seed=42)
    assert np.array_equal(rho.mat, again.mat)
    other = random_density(sh, seed=43)
    assert np.abs(rho.mat - other.mat).max() > 1e-3


def test_random_separable_contract():
    sh = BipartiteShape(3, 3)
    rho, ens = random_separable(sh, terms=10, seed=0)
    assert abs(sum(ens.weights) - 1) < 1e-12
    assert len(ens.factors) == 10
    for va, vb in ens.factors:
        assert abs(np.linalg.norm(va) - 1) < 1e-12
        assert abs(np.linalg.norm(vb) - 1) < 1e-12
    assert np.abs(ens.assemble().mat - rho.mat).max() < 1e-12
    rho2, _ = random_separable(sh, terms=10, seed=0)
    assert np.array_equal(rho.mat, rho2.mat)
    with pytest.raises(ValueError):
        random_separable(sh, terms=0, seed=0)


def test_separable_ensemble_validation():
    sh = BipartiteShape(2, 2)
    e0 = np.array([1, 0], dtype=complex)
    with pytest.raises(ValueError, match="sum"):
        SeparableEnsemble(sh, (0.5, 0.4), ((e0, e0), (e0, e0)))
    with pytest.raises(ValueError, match="unit norm"):
        SeparableEnsemble(sh, (1.0,), ((2 * e0, e0),))
    with pytest.raises(ValueError, match="^one factor pair per weight required$"):
        SeparableEnsemble(sh, (0.5, 0.5), ((e0, e0),))
    with pytest.raises(ValueError, match="^factor vector dimensions do not match shape$"):
        SeparableEnsemble(sh, (1.0,), ((np.array([1, 0, 0], dtype=complex), e0),))
    # NaN fails every comparison, so the checks are written to reject it
    nan_vec = np.array([np.nan, 0], dtype=complex)
    for weights in ((np.nan,), (1.0, np.nan)):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            SeparableEnsemble(sh, weights, ((e0, e0),) * len(weights))
    for factors in (((nan_vec, e0),), ((e0, nan_vec),)):
        with pytest.raises(ValueError, match="unit norm"):
            SeparableEnsemble(sh, (1.0,), factors)
