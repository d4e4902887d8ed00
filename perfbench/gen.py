"""Seeded input generator: writes the ``dm v1`` files and one pass of ops.

The same seed gives the same files and the same op list. Every list has a
fixed composition (which kinds of op, how many of each); the seed only picks
parameters, random states and the order inside a pass, so runs with
different seeds do the same amount of each kind of work.

Nothing here calls entcert: the states are built with numpy from their
definitions (``checks.family_matrix`` for the named families) and written by
a small writer of its own, so a change to the library's generators or number
formatting cannot change the data a before/after comparison runs on.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from checks import FAMILY_DOMAIN, FAMILY_PPT_UPTO, FAMILY_SHAPE, family_matrix

SCAN_STEPS = 101          # the CLI's default grid, both axes
TRIAGE_PER_SHAPE = 12     # 6 random_density + 6 random_separable per shape
TRIAGE_PER_FAMILY = 32
BOUNDARY_GAP = 0.02       # family parameters stay this far from a class change
SAMPLED_ROWS = 16         # scan rows recomputed by the reference per op

# B-side unitary |1> -> -|2>, |2> -> |1> that brings iso23(1) and horodecki33(5)
# into the frame where identity unitaries reach their known optimum (werner(1)
# is already there).
FRAME_B = np.array([[0, 1, 0], [-1, 0, 0], [0, 0, 1]], dtype=complex)
REFERENCES = (("werner_1", "werner", 1.0), ("iso23_1", "iso23", 1.0), ("horodecki33_5", "horodecki33", 5.0))


def _write(mat, m: int, n: int, path: Path) -> str:
    """Write ``mat`` as a ``dm v1`` file: round-trip float repr, "re,im" pairs."""
    rows = [" ".join(f"{float(z.real)!r},{float(z.imag)!r}" for z in row) for row in mat]
    path.write_text("\n".join(["dm v1", f"dims {m} {n}", *rows]) + "\n", encoding="ascii")
    return str(path)


def _family(family: str, x: float) -> tuple[np.ndarray, int, int]:
    return np.asarray(family_matrix(family, x), dtype=complex), *FAMILY_SHAPE[family]


def _random_density(order: int, seed: int) -> np.ndarray:
    """Full-rank G G^dag / Tr(G G^dag), G standard complex Gaussian."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((order, order)) + 1j * rng.standard_normal((order, order))
    mat = g @ g.conj().T
    return mat / mat.trace().real


def _random_unit(rng, n: int) -> np.ndarray:
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def _random_separable(m: int, n: int, terms: int, seed: int) -> np.ndarray:
    """Mixture of ``terms`` random product pure states with uniform-draw weights."""
    rng = np.random.default_rng(seed)
    raw = rng.random(terms)
    weights = raw / raw.sum()
    factors = [(_random_unit(rng, m), _random_unit(rng, n)) for _ in range(terms)]
    mat = np.zeros((m * n, m * n), dtype=complex)
    for p, (va, vb) in zip(weights, factors):
        vec = np.kron(va, vb)
        mat += float(p) * np.outer(vec, vec.conj())
    return mat


def _family_param(rng, family: str) -> float:
    """Uniform over the family's domain, away from its class boundaries."""
    lo, hi = FAMILY_DOMAIN[family]
    edges = [FAMILY_PPT_UPTO[family]] + ([3.0] if family == "horodecki33" else [])
    while True:
        x = float(rng.uniform(lo, hi))
        if all(abs(x - e) > BOUNDARY_GAP for e in edges):
            return x


def _family_truth(family: str, x: float) -> str:
    if x > FAMILY_PPT_UPTO[family]:
        return "npt"
    return "ppt" if family == "horodecki33" and x > 3.0 else "separable"


def _frame_refs(work: Path) -> list[dict]:
    """The three reference states, rotated so identity is optimal."""
    ops = []
    for label, family, x in REFERENCES:
        mat, m, n = _family(family, x)
        if family != "werner":
            w = np.kron(np.eye(m), FRAME_B)
            mat = w @ mat @ w.conj().T
        path = _write(mat, m, n, work / f"frame_{label}.dm")
        ops.append({"path": path, "label": label, "truth": "npt"})
    return ops


def optimize_plan(seed: int, work: Path, root: Path) -> dict:
    ops = []
    for label, family, x in REFERENCES:
        path = _write(*_family(family, x), work / f"{label}.dm")
        ops.append({"path": path, "label": label, "truth": "npt", "seed": seed})
    ops.append({"path": str(root / "data" / "horodecki33_3.5.dm"), "label": "horodecki33_3.5",
                "truth": "ppt", "seed": seed})
    return {"warmup": dict(ops[0], restarts=1), "ops": ops}


def scan_plan(seed: int, work: Path, root: Path) -> dict:
    rng = np.random.default_rng(seed)
    npts = SCAN_STEPS * SCAN_STEPS
    labels = {family: label for label, family, _ in REFERENCES}
    ops = []
    for family in rng.permutation(sorted(FAMILY_DOMAIN)):
        family = str(family)
        lo, hi = FAMILY_DOMAIN[family]
        sample = sorted(int(i) for i in rng.choice(npts, SAMPLED_ROWS, replace=False))
        ops.append({"family": family, "label": labels[family], "lo": lo, "hi": hi,
                    "param_steps": SCAN_STEPS, "p_steps": SCAN_STEPS,
                    "sample": sample + [npts - 1], "out": str(work / f"scan_{family}.csv")})
    warmup = dict(ops[0], param_steps=11, p_steps=11, sample=[0, 120], out=str(work / "warmup.csv"))
    return {"warmup": warmup, "ops": ops}


def triage_plan(seed: int, work: Path, root: Path) -> dict:
    rng = np.random.default_rng(seed)
    ops = []
    for m in range(2, 6):
        for n in range(2, 6):
            for i in range(TRIAGE_PER_SHAPE):
                sub = int(rng.integers(2**31))
                if i % 2 == 0:
                    mat, truth = _random_density(m * n, sub), "unknown"
                else:
                    terms = int(rng.integers(1, 2 * m * n + 1))
                    mat, truth = _random_separable(m, n, terms, sub), "separable"
                path = _write(mat, m, n, work / f"t{m}{n}_{i:02d}.dm")
                ops.append({"path": path, "truth": truth, "label": f"{m}x{n}"})
    for family in sorted(FAMILY_DOMAIN):
        for i in range(TRIAGE_PER_FAMILY):
            x = _family_param(rng, family)
            path = _write(*_family(family, x), work / f"{family}_{i:02d}.dm")
            ops.append({"path": path, "truth": _family_truth(family, x), "label": family})
    ops += _frame_refs(work)
    ops = [ops[i] for i in rng.permutation(len(ops))]
    return {"warmup": ops[0], "ops": ops}


def cli_plan(seed: int, work: Path, root: Path) -> dict:
    rng = np.random.default_rng(seed)
    ops = []
    for path in sorted((root / "data").glob("*.dm")):
        family, x = path.stem.rsplit("_", 1)  # shipped files are <family>_<param>.dm
        truth = _family_truth(family, float(x))
        for kind, extra in (("ppt", []), ("detect", []), ("detect_json", ["--json"])):
            cmd = "ppt" if kind == "ppt" else "detect"
            ops.append({"kind": kind, "argv": [cmd, str(path)] + extra, "path": str(path), "truth": truth})
    for ref in _frame_refs(work):
        ops.append(dict(ref, kind="detect_json", argv=["detect", ref["path"], "--json"]))
    family = str(rng.choice(sorted(FAMILY_DOMAIN)))
    x = _family_param(rng, family)
    flag = "--alpha" if family == "horodecki33" else "--a"
    out = str(work / "made.dm")
    ops.append({"kind": "make_state", "family": family, "param": x, "out": out,
                "argv": ["make-state", family, flag, repr(x), "--out", out]})
    dim = int(rng.integers(2, 6))
    out = str(work / "basis.txt")
    ops.append({"kind": "basis", "dim": dim, "out": out,
                "argv": ["basis", "--dim", str(dim), "--out", out]})
    family = str(rng.choice(sorted(FAMILY_DOMAIN)))
    lo, hi = FAMILY_DOMAIN[family]
    out = str(work / "scan.csv")
    ops.append({"kind": "scan", "family": family, "lo": lo, "hi": hi, "param_steps": 6,
                "p_steps": 9, "sample": list(range(54)), "out": out,
                "argv": ["scan", family, "--param-steps", "6", "--p-steps", "9", "--out", out]})
    ops = [ops[i] for i in rng.permutation(len(ops))]
    return {"warmup": next(op for op in ops if op["kind"] == "ppt"), "ops": ops}


PLANS = {"optimize": optimize_plan, "scan": scan_plan, "triage": triage_plan, "cli": cli_plan}


def make(workload: str, seed: int, work: Path, root: Path) -> dict:
    plan = PLANS[workload](seed, work, root)
    plan.update(workload=workload, seed=seed)
    return plan

