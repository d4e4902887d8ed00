"""Entanglement certification for bipartite density matrices.

Builds the generalized Gell-Mann generator basis of SU(n), assembles the
witness observable triples it induces on M x N systems, and certifies
entanglement by evaluating (and numerically maximizing over level pairs and
local unitaries) the violation of the separability inequality
y3^2 >= y1^2 + y2^2. A partial-transpose oracle cross-checks every verdict.
"""

from .ggm import GellMannBasis, build_basis, ketbra_in_ggm
from .linalg import (
    BipartiteShape,
    hermitian_eigen,
    partial_transpose_b,
    tensor,
    unitary_exp,
)
from .search import (
    DetectionReport,
    SearchConfig,
    UnitaryParams,
    build_unitaries,
    evaluate_at_identity,
    maximize_violation,
    objective,
    scan_1d,
)
from .states import (
    DensityMatrix,
    SeparableEnsemble,
    horodecki33,
    iso23,
    random_density,
    random_separable,
    rotation_u,
    schmidt_pure,
    werner,
)
from .witness import (
    LocalUnitaryPair,
    PptVerdict,
    Verdict,
    WitnessTriple,
    YValues,
    build_triple_2xd,
    build_triple_mxn,
    check_inequality,
    classify_ppt,
    evaluate,
    evaluate_pair,
    ketbra_triple,
    ppt_min_eigenvalue,
    rotate_triple,
    valid_pairs,
)

__version__ = "0.1.0"

__all__ = [
    "BipartiteShape",
    "DensityMatrix",
    "DetectionReport",
    "GellMannBasis",
    "LocalUnitaryPair",
    "PptVerdict",
    "SearchConfig",
    "SeparableEnsemble",
    "UnitaryParams",
    "Verdict",
    "WitnessTriple",
    "YValues",
    "build_basis",
    "build_triple_2xd",
    "build_triple_mxn",
    "build_unitaries",
    "check_inequality",
    "classify_ppt",
    "evaluate",
    "evaluate_at_identity",
    "evaluate_pair",
    "hermitian_eigen",
    "horodecki33",
    "iso23",
    "ketbra_in_ggm",
    "ketbra_triple",
    "maximize_violation",
    "objective",
    "partial_transpose_b",
    "ppt_min_eigenvalue",
    "random_density",
    "random_separable",
    "rotate_triple",
    "rotation_u",
    "scan_1d",
    "schmidt_pure",
    "tensor",
    "unitary_exp",
    "valid_pairs",
    "werner",
]
