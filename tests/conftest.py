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


def werner_dd(d, beta):
    """The d x d Werner state (I - beta F) / (d^2 - d beta), F the swap:
    a state for -1 <= beta <= 1, NPT exactly when beta > 1/d. Test-only;
    ``states.werner`` is the 2 x 2 family the CLI names."""
    swap = np.eye(d * d).reshape(d, d, d, d).transpose(0, 1, 3, 2).reshape(d * d, d * d)
    return DensityMatrix(BipartiteShape(d, d), (np.eye(d * d) - beta * swap) / (d * d - d * beta))


@pytest.fixture(scope="session")
def data_dir():
    return Path(__file__).resolve().parent.parent / "data"
