"""Bipartite systems beyond 5 levels on a side: the search, the PPT oracle,
the generator table and the dm file at up to 2 x 20 and 10 x 10.

Evaluation counts are not pinned here; only verdicts, bounds and bytes.
"""

import numpy as np
import pytest

from entcert import (
    BipartiteShape,
    PptVerdict,
    Verdict,
    build_basis,
    maximize_violation,
    random_density,
    random_separable,
)
from entcert.dmfile import format_density, read_density, write_density
from entcert.search import BOUND_TOL
from entcert.witness import PPT_TOL, ppt_eigen
from conftest import werner_dd


# (I - beta F) / (d^2 - d beta) is NPT for beta > 1/d, but negative on a
# vector of Schmidt rank <= 2 only for beta > 1/2 (see test_search), so the
# inequality certifies at 0.6 and not at 0.4 or 0.45.
@pytest.mark.parametrize("d", (3, 4, 5, 6))
def test_werner_dd_verdicts_up_to_six_levels(d):
    for beta in (0.4, 0.45):
        rep = maximize_violation(werner_dd(d, beta))
        assert rep.verdict is Verdict.INCONCLUSIVE, beta
        assert rep.ppt_verdict is PptVerdict.ENTANGLED, beta
    rep = maximize_violation(werner_dd(d, 0.6))
    assert rep.verdict is Verdict.ENTANGLED_CERTIFIED
    assert rep.ppt_verdict is PptVerdict.ENTANGLED


@pytest.mark.parametrize("m, n", [(6, 6), (8, 8), (2, 20), (3, 12)])
def test_random_density_certified_within_the_spectral_bound(m, n):
    rho = random_density(BipartiteShape(m, n), seed=0)
    rep = maximize_violation(rho)
    assert rep.verdict is Verdict.ENTANGLED_CERTIFIED
    assert rep.ppt_verdict is PptVerdict.ENTANGLED
    assert len(rep.best_params.theta_a) == m * m - 1
    assert len(rep.best_params.theta_b) == n * n - 1
    vals = ppt_eigen(rho)[0]
    bound = 4 * max(0.0, -vals[0]) * vals[-1]
    assert rep.ppt_min == vals[0]
    assert 0 < rep.best_f <= bound + BOUND_TOL


@pytest.mark.parametrize("m, n", [(6, 6), (3, 10)])
def test_random_separable_is_never_certified(m, n):
    rho, _ = random_separable(BipartiteShape(m, n), terms=80, seed=0)
    rep = maximize_violation(rho)
    assert rep.ppt_min > PPT_TOL
    assert rep.best_f <= 0.0
    assert rep.verdict is Verdict.INCONCLUSIVE


@pytest.mark.parametrize("n", (10, 20))
def test_large_generator_tables(n):
    table = build_basis(n).stack()
    assert table.shape == (n * n - 1, n, n)
    assert np.array_equal(table, table.conj().transpose(0, 2, 1))
    assert np.abs(np.trace(table, axis1=1, axis2=2)).max() <= 1e-14
    gram = np.einsum("aij,bji->ab", table, table)
    assert np.abs(gram - 2 * np.eye(n * n - 1)).max() <= 1e-12


def test_order_100_dm_file_round_trips(tmp_path):
    rho = random_density(BipartiteShape(10, 10), seed=0)
    path = tmp_path / "r.dm"
    write_density(rho, path)
    text = path.read_text(encoding="ascii")
    back = read_density(path)
    assert back.shape == rho.shape
    assert np.array_equal(back.mat, rho.mat)
    assert format_density(back) == text
