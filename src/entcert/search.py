"""Violation maximization over level pairs and parameterized local unitaries.

Local unitaries are parameterized through the generator exponential map:
u = exp(i sum_a theta_a g_a) with g_a running over the SU(M) basis in its
enumeration order (and likewise on B), so the search space covers all of
SU(M) x SU(N); global phases drop out of the conjugation. Maximization is
multi-start Nelder-Mead per level pair: one deterministic start at zero
(identity unitaries) plus seeded random starts, merged by best violation
with ties broken toward the earliest (pair, restart).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .ggm import build_basis
from .linalg import BipartiteShape, unitary_exp
from .states import DensityMatrix, horodecki33, iso23, rotation_u, werner
from .witness import (
    VIOLATION_TOL,
    LocalUnitaryPair,
    PptVerdict,
    Verdict,
    YValues,
    check_inequality,
    classify_ppt,
    evaluate_pair,
    ppt_min_eigenvalue,
    valid_pairs,
)
from .witness import build_triple_mxn, evaluate  # noqa: F401  hooked by name: perfbench/spans.py

NM_FATOL = 1e-12


@dataclass(frozen=True)
class UnitaryParams:
    """Generator coefficients for one local-unitary pair.

    theta_a has M^2 - 1 entries, theta_b has N^2 - 1, both indexing the
    basis enumeration order of :meth:`GellMannBasis.stack`.
    """

    theta_a: tuple[float, ...]
    theta_b: tuple[float, ...]

    def __post_init__(self):
        for theta in (self.theta_a, self.theta_b):
            if not all(np.isfinite(x) for x in theta):
                raise ValueError("unitary parameters must be finite")

    @classmethod
    def zero(cls, shape: BipartiteShape) -> "UnitaryParams":
        return cls(
            (0.0,) * (shape.dim_a**2 - 1),
            (0.0,) * (shape.dim_b**2 - 1),
        )


@dataclass(frozen=True)
class SearchConfig:
    """Budget and determinism knobs for the violation search."""

    restarts: int = 16
    max_iters: int = 400
    step_tol: float = 1e-7
    seed: int = 0
    pairs: tuple[tuple[int, int], ...] | None = None

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if not self.step_tol > 0:
            raise ValueError(f"step_tol must be > 0, got {self.step_tol}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class DetectionReport:
    """Verdict plus a re-checkable certificate and the oracle comparison."""

    verdict: Verdict
    best_f: float
    best_pair: tuple[int, int]
    best_params: UnitaryParams
    y_values: YValues
    ppt_min: float
    ppt_verdict: PptVerdict
    evaluations: int

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict.value,
            "best_f": self.best_f,
            "best_pair": list(self.best_pair),
            "best_params": {
                "theta_a": list(self.best_params.theta_a),
                "theta_b": list(self.best_params.theta_b),
            },
            "y_values": {
                "y1": self.y_values.y1,
                "y2": self.y_values.y2,
                "y3": self.y_values.y3,
                "f": self.y_values.f,
            },
            "ppt_min": self.ppt_min,
            "ppt_verdict": self.ppt_verdict.value,
            "evaluations": self.evaluations,
        }


def build_unitaries(params: UnitaryParams, shape: BipartiteShape) -> LocalUnitaryPair:
    """Exponentiate parameter vectors into a local unitary pair."""
    stack_a = build_basis(shape.dim_a).stack()
    stack_b = build_basis(shape.dim_b).stack()
    return _unitaries_from_theta(
        np.asarray(params.theta_a), np.asarray(params.theta_b), stack_a, stack_b
    )


def _unitaries_from_theta(theta_a, theta_b, stack_a, stack_b) -> LocalUnitaryPair:
    if theta_a.shape != (stack_a.shape[0],) or theta_b.shape != (stack_b.shape[0],):
        raise ValueError(
            f"parameter lengths ({theta_a.size}, {theta_b.size}) do not match "
            f"generator counts ({stack_a.shape[0]}, {stack_b.shape[0]})"
        )
    u = unitary_exp(np.tensordot(theta_a, stack_a, axes=1))
    v = unitary_exp(np.tensordot(theta_b, stack_b, axes=1))
    return LocalUnitaryPair(u, v)


def objective(rho: DensityMatrix, pair: tuple[int, int], params: UnitaryParams) -> float:
    """Violation f for one level pair and one parameter point. Deterministic."""
    return evaluate_pair(rho, pair, build_unitaries(params, rho.shape)).f


def _final_verdict(ineq: Verdict, ppt: PptVerdict) -> Verdict:
    if ineq is Verdict.ENTANGLED_CERTIFIED:
        return ineq
    if ppt is PptVerdict.SEPARABLE:
        return Verdict.SEPARABLE
    return Verdict.INCONCLUSIVE


def _report(
    rho: DensityMatrix,
    pair: tuple[int, int],
    params: UnitaryParams,
    evaluations: int,
    tol: float,
) -> DetectionReport:
    """Assemble a report by re-evaluating the certificate from scratch."""
    y = evaluate_pair(rho, pair, build_unitaries(params, rho.shape))
    ppt_min = ppt_min_eigenvalue(rho)
    ppt = classify_ppt(ppt_min, rho.shape)
    verdict = _final_verdict(check_inequality(y, tol), ppt)
    return DetectionReport(verdict, y.f, pair, params, y, ppt_min, ppt, evaluations)


def _resolve_pairs(shape: BipartiteShape, pairs) -> tuple[tuple[int, int], ...]:
    if pairs is None:
        return valid_pairs(shape)
    allowed = set(valid_pairs(shape))
    out = tuple((int(j), int(k)) for j, k in pairs)
    for p in out:
        if p not in allowed:
            raise ValueError(f"level pair {p} is not valid for shape {shape}")
    if not out:
        raise ValueError("at least one level pair required")
    return out


def evaluate_at_identity(
    rho: DensityMatrix,
    pairs: tuple[tuple[int, int], ...] | None = None,
    tol: float = VIOLATION_TOL,
) -> DetectionReport:
    """Report for identity unitaries only, taking the best pair."""
    use_pairs = _resolve_pairs(rho.shape, pairs)
    uv = LocalUnitaryPair.identity(rho.shape)
    # max() keeps the earliest of equal values, as the search merge does.
    best_pair = max(use_pairs, key=lambda pair: evaluate_pair(rho, pair, uv).f)
    return _report(rho, best_pair, UnitaryParams.zero(rho.shape), len(use_pairs), tol)


def maximize_violation(
    rho: DensityMatrix, cfg: SearchConfig | None = None
) -> DetectionReport:
    """Maximize the violation over level pairs and local unitaries.

    Per pair: Nelder-Mead ascents from the zero start and from cfg.restarts
    random starts (entries uniform in [-pi, pi], substream seeded by
    (pair index, restart index)), each capped at cfg.max_iters iterations
    with simplex tolerance cfg.step_tol. The best point over all runs is
    re-evaluated to form the certificate, so the reported violation never
    depends on trusting the optimizer's bookkeeping.
    """
    cfg = SearchConfig() if cfg is None else cfg
    shape = rho.shape
    pairs = _resolve_pairs(shape, cfg.pairs)
    stack_a = build_basis(shape.dim_a).stack()
    stack_b = build_basis(shape.dim_b).stack()
    na, nb = len(stack_a), len(stack_b)
    evaluations = 0
    best = None  # (f, pair, x)

    for pidx, pair in enumerate(pairs):
        def neg_f(x, _pair=pair):
            nonlocal evaluations
            evaluations += 1
            uv = _unitaries_from_theta(x[:na], x[na:], stack_a, stack_b)
            return -evaluate_pair(rho, _pair, uv).f

        starts = [np.zeros(na + nb)]
        for r in range(1, cfg.restarts + 1):
            seq = np.random.SeedSequence(cfg.seed, spawn_key=(pidx, r))
            rng = np.random.default_rng(seq)
            starts.append(rng.uniform(-np.pi, np.pi, na + nb))
        for x0 in starts:
            res = minimize(
                neg_f,
                x0,
                method="Nelder-Mead",
                options={
                    "maxiter": cfg.max_iters,
                    "xatol": cfg.step_tol,
                    "fatol": NM_FATOL,
                    "adaptive": True,
                },
            )
            cand = -float(res.fun)
            if best is None or cand > best[0]:
                best = (cand, pair, np.array(res.x))

    _, best_pair, x = best
    params = UnitaryParams(tuple(float(t) for t in x[:na]), tuple(float(t) for t in x[na:]))
    return _report(rho, best_pair, params, evaluations, VIOLATION_TOL)


SCAN_FAMILIES = {
    "werner": (werner, BipartiteShape(2, 2)),
    "iso23": (iso23, BipartiteShape(2, 3)),
    "horodecki33": (horodecki33, BipartiteShape(3, 3)),
}


def scan_1d(
    family: str,
    family_params,
    p_values,
    pair: tuple[int, int] = (1, 2),
) -> list[tuple[float, float, float]]:
    """Violation grid with u = rotation_u(p) on A and v = I on B.

    Rows are (family_param, p, f) with the family parameter as the outer
    loop. Pure arithmetic, no randomness: identical inputs give identical
    tables.
    """
    if family not in SCAN_FAMILIES:
        raise ValueError(
            f"unknown family {family!r}; choose from {sorted(SCAN_FAMILIES)}"
        )
    fn, shape = SCAN_FAMILIES[family]
    (pair,) = _resolve_pairs(shape, (pair,))
    v_eye = np.eye(shape.dim_b, dtype=complex)
    rows = []
    for a in family_params:
        rho = fn(float(a))
        for p in p_values:
            uv = LocalUnitaryPair(rotation_u(float(p), shape.dim_a), v_eye)
            rows.append((float(a), float(p), evaluate_pair(rho, pair, uv).f))
    return rows
