import importlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entcert import (
    BipartiteShape,
    DensityMatrix,
    SeparableEnsemble,
    evaluate_at_identity,
    horodecki33,
    iso23,
    maximize_violation,
    partial_transpose_b,
    ppt_min_eigenvalue,
    random_density,
    random_separable,
    rotation_u,
    schmidt_pure,
    werner,
)
from entcert.dmfile import read_density
from entcert.linalg import HERMITICITY_TOL
from entcert.search import scan_1d
from entcert.states import FAMILY_PARAMS, TRACE_TOL, _family_constants
from entcert.witness import ppt_eigen


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


def test_density_matrices_compare_by_shape_and_entries(data_dir):
    # the generated dataclass __eq__ compared the matrices with ==, which raised
    assert (werner(0.5) == werner(0.5)) is True
    assert (werner(0.5) != werner(0.5)) is False
    assert werner(0.5) != werner(0.25)
    assert werner(0.5) != "werner(0.5)"
    assert len({werner(0.5), werner(0.5), werner(1.0)}) == 2
    assert read_density(data_dir / "werner_0.5.dm") == werner(0.5)
    # the same entries on a 2x3 and on a 3x2 system are different states
    flat = DensityMatrix(BipartiteShape(2, 3), np.eye(6, dtype=complex) / 6)
    assert flat != DensityMatrix(BipartiteShape(3, 2), flat.mat)
    # -0.0 == 0.0 entrywise, so equal states must hash alike
    neg = DensityMatrix(BipartiteShape(2, 2), np.diag([0.5, 0.5, -0.0, 0.0]).astype(complex))
    assert neg == DensityMatrix(BipartiteShape(2, 2), np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex))
    assert hash(neg) == hash(werner(0.5))


def test_negative_eigenvalue_floor_is_minus_1e_minus_9():
    # Unit-trace diagonal states on each side of MIN_EIG_FLOOR: the band is
    # rounding, not a negative weight.
    sh = BipartiteShape(2, 2)
    with pytest.raises(ValueError, match="negative eigenvalue -1.500e-09"):
        DensityMatrix(sh, np.diag([0.5, 0.5 + 1.5e-9, -1.5e-9, 0.0]).astype(complex))
    rho = DensityMatrix(sh, np.diag([0.5, 0.5 + 0.5e-9, -0.5e-9, 0.0]).astype(complex))
    assert np.linalg.eigvalsh(rho.mat)[0] == -0.5e-9


def _gram_state(rng, order):
    g = rng.standard_normal((order, order)) + 1j * rng.standard_normal((order, order))
    mat = g @ g.conj().T
    return mat / mat.trace().real


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5), st.integers(2, 5), st.integers(0, 2**32 - 1), st.floats(0.0, 0.45))
def test_state_is_the_hermitian_part_of_its_input(m, n, seed, scale):
    """A DensityMatrix holds one matrix, the Hermitian part of its input:
    the kernel and the PPT solve read it, and the PPT solve gets the
    eigenpairs the symmetrised partial transpose of the raw input has."""
    sh = BipartiteShape(m, n)
    rng = np.random.default_rng(seed)
    # anti-Hermitian noise with |raw - raw^dag| below HERMITICITY_TOL and a
    # zero diagonal, so the trace is the Gram state's
    x = rng.standard_normal((sh.order,) * 2) + 1j * rng.standard_normal((sh.order,) * 2)
    noise = (x - x.conj().T) / 2
    np.fill_diagonal(noise, 0)
    raw = _gram_state(rng, sh.order) + scale * HERMITICITY_TOL * noise / np.abs(noise).max()
    rho = DensityMatrix(sh, raw)
    assert rho.mat.tobytes() == ((raw + raw.conj().T) / 2).tobytes()
    assert np.array_equal(rho.mat, rho.mat.conj().T)
    assert not rho.mat.flags.writeable
    assert not np.shares_memory(rho.mat, raw)

    pt = partial_transpose_b(raw, sh)
    want_vals, want_vecs = np.linalg.eigh((pt + pt.conj().T) / 2)
    vals, vecs = ppt_eigen(rho)
    assert vals.tobytes() == want_vals.tobytes()
    assert vecs.tobytes() == want_vecs.tobytes()

    # Imaginary diagonal parts whose sum lands on either side of TRACE_TOL:
    # the trace is read off the input, so they decide as they did when the
    # raw input was stored (the Hermitian part's trace is real).
    tilted = raw + 1j * np.diag(np.full(sh.order, (0.5 + 2 * scale) * TRACE_TOL / sh.order))
    if abs(tilted.trace() - 1.0) > TRACE_TOL:
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(sh, tilted)
    else:
        assert DensityMatrix(sh, tilted).mat.tobytes() == ((tilted + tilted.conj().T) / 2).tobytes()


def test_hermiticity_is_checked_once_per_state(monkeypatch):
    """Each DensityMatrix checks its input once; the PPT solve and the
    identity report read the checked matrix without a second check, and a
    search checks only the generators of its certificate's two unitary_exp."""
    rhos = [random_density(BipartiteShape(3, 4), seed=0), horodecki33(4.5), iso23(1.0)]
    calls = []
    for mod in ("entcert.linalg", "entcert.states"):
        module = importlib.import_module(mod)
        real = module._require_hermitian

        def counting(*args, _real=real, **kwargs):
            calls.append(1)
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, "_require_hermitian", counting)

    DensityMatrix(rhos[0].shape, rhos[0].mat)
    assert len(calls) == 1
    for rho in rhos:
        calls.clear()
        ppt_eigen(rho)
        evaluate_at_identity(rho)
        assert len(calls) == 0
    maximize_violation(rhos[2])
    assert len(calls) == 2


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


FAMILIES = {"werner": werner, "iso23": iso23, "horodecki33": horodecki33}


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
    for family, fn in FAMILIES.items():
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


def _spectrum(family: str, x: float) -> list[float]:
    """A family's exact spectrum at x, ascending: the premise of the proof
    that lets the constructors skip validation (see states._family_state)."""
    if family == "werner":
        vals = [(1 + 3 * x) / 4] + [(1 - x) / 4] * 3
    elif family == "iso23":
        vals = [(1 + 5 * x) / 6] + [(1 - x) / 6] * 5
    else:
        vals = [2 / 7] + [x / 21] * 3 + [(5 - x) / 21] * 3 + [0.0] * 2
    return sorted(vals)


def _check_family_state(family: str, x: float) -> None:
    rho = FAMILIES[family](x)
    checked = DensityMatrix(rho.shape, _written_out(family, x))  # full validation
    assert rho.mat.tobytes() == checked.mat.tobytes(), (family, x)
    assert not rho.mat.flags.writeable
    assert np.abs(np.linalg.eigvalsh(rho.mat) - _spectrum(family, x)).max() <= 1e-14, (family, x)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_family_states_pass_full_validation_at_grid_points(family):
    lo, hi = FAMILY_PARAMS[family].domain
    for n in (2, 6, 11, 101):
        for x in np.linspace(lo, hi, n).tolist():
            _check_family_state(family, x)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_family_states_pass_full_validation_across_the_domain(data):
    family = data.draw(st.sampled_from(sorted(FAMILIES)))
    lo, hi = FAMILY_PARAMS[family].domain
    _check_family_state(family, data.draw(st.floats(lo, hi)))


def test_family_parameter_must_be_a_real_number_in_the_domain():
    # The constructors skip the DensityMatrix check, so each refusal it made
    # is made by the parameter check: a complex parameter passes numpy's
    # ordered domain test, and an array of one element would build a stack.
    for fn in FAMILIES.values():
        lo, hi = FAMILY_PARAMS[fn.__name__].domain
        mid = (lo + hi) / 2
        for bad in (np.nan, np.inf, -np.inf, lo - 0.1, hi + 0.1):
            with pytest.raises(ValueError, match=r"parameter must be in \["):
                fn(bad)
        for bad in (np.complex128(mid + 1j), np.array([[[mid]]])):
            with pytest.raises(ValueError, match="parameter must be a real number"):
                fn(bad)
        with pytest.raises(TypeError):
            fn(str(mid))
    # Refused: a parameter is one real number, not an array, nor a complex
    # number even with a zero imaginary part.
    for bad in (np.array([0.5]), np.array(0.5), np.complex128(0.5 + 0j)):
        with pytest.raises(ValueError, match="^werner parameter must be a real number, got "):
            werner(bad)
    # Accepted: any other real type builds the state of its float64 value,
    # bit for bit; float32 is widened exactly before any arithmetic.
    same = [(np.float32(0.3), float(np.float32(0.3))), (np.int64(1), 1.0), (True, 1.0)]
    for odd, x in same:
        assert werner(odd).mat.tobytes() == werner(x).mat.tobytes()
    for fn in FAMILIES.values():
        x32 = np.float32(FAMILY_PARAMS[fn.__name__].domain[0] + 0.3)
        assert fn(x32).mat.tobytes() == fn(float(x32)).mat.tobytes()
    assert werner(np.float32(0.3)).mat.tobytes() == DensityMatrix(
        BipartiteShape(2, 2), _written_out("werner", float(np.float32(0.3)))
    ).mat.tobytes()


def _count_validation(monkeypatch) -> list[str]:
    calls = []
    real_post_init, real_eigvalsh = DensityMatrix.__post_init__, np.linalg.eigvalsh

    def post_init(self):
        calls.append("validate")
        real_post_init(self)

    def eigvalsh(*args, **kwargs):
        calls.append("eigvalsh")
        return real_eigvalsh(*args, **kwargs)

    monkeypatch.setattr(DensityMatrix, "__post_init__", post_init)
    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    return calls


def test_scan_builds_family_states_without_validation_and_files_still_validate(monkeypatch):
    calls = _count_validation(monkeypatch)
    p_values = np.linspace(0.0, np.pi, 101)
    for family, row in FAMILY_PARAMS.items():
        assert len(scan_1d(family, np.linspace(*row.domain, 101), p_values)) == 101 * 101
        assert calls == [], family
    paths = sorted((Path(__file__).resolve().parent.parent / "data").glob("*.dm"))
    assert paths
    for path in paths:
        calls.clear()
        read_density(path)
        assert calls == ["validate", "eigvalsh"], path


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
