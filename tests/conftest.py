from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from entcert import BipartiteShape, DensityMatrix, build_basis, random_density


@lru_cache(maxsize=None)
def cached_basis(n):
    return build_basis(n)


def random_hermitian(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2


def noisy_random_state(m, n, seed):
    """random_density mixed with white noise at a seeded weight in [0.3, 1):
    complex, full rank, and NPT or PPT by turns."""
    sh = BipartiteShape(m, n)
    q = np.random.default_rng(seed).uniform(0.3, 1.0)
    mat = q * random_density(sh, seed=seed).mat + (1 - q) * np.eye(sh.order) / sh.order
    return DensityMatrix(sh, mat)


@pytest.fixture(scope="session")
def data_dir():
    return Path(__file__).resolve().parent.parent / "data"
