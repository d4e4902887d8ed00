"""Independent reference checks for every benchmark op.

Nothing here goes through the library's hot path. States are rebuilt from
their defining formulas or parsed with a separate reader, unitaries come
from ``scipy.linalg.expm`` over a separately built generator basis, and
violations are recomputed the slow way: ``ketbra_triple`` + ``rotate_triple``
+ trace. Each ``check_*`` returns a list of problems; empty means the op
passed. A check never raises for a wrong output, so a bad op is counted and
the run goes on.
"""

from __future__ import annotations

import functools
import json
import math

import numpy as np

from entcert.linalg import BipartiteShape
from entcert.witness import LocalUnitaryPair, ketbra_triple, rotate_triple

VIOLATION_TOL = 1e-9   # the library's certification threshold
PPT_TOL = 1e-10        # the library's PPT threshold
F_TOL = 1e-9           # reference vs library violation / expectation values
EIG_TOL = 1e-10        # reference vs library PPT eigenvalue
MARGIN = 1e-7          # values this close to a threshold are not judged

# Known optima of the violation, reached by the reference states.
OPTIMA = {"werner_1": 1.0, "iso23_1": 1.0, "horodecki33_5": 16.0 / 441.0}
FAMILY_DOMAIN = {"werner": (0.0, 1.0), "iso23": (0.0, 1.0), "horodecki33": (2.0, 5.0)}
FAMILY_SHAPE = {"werner": (2, 2), "iso23": (2, 3), "horodecki33": (3, 3)}
# Largest family parameter at which the state is separable or PPT.
FAMILY_PPT_UPTO = {"werner": 1.0 / 3.0, "iso23": 0.25, "horodecki33": 4.0}
VERDICT_EXIT = {"entangled_certified": 0, "inconclusive": 1, "separable": 2}
PPT_EXIT = {"entangled": 0, "inconclusive": 1, "separable": 2}


# ---------------------------------------------------------------- reference math

def parse_dm(text: str) -> tuple[int, int, np.ndarray]:
    """Minimal ``dm v1`` reader, separate from ``entcert.dmfile``."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if lines[0].strip() != "dm v1":
        raise ValueError("not a dm v1 file")
    _, m, n = lines[1].split()
    m, n = int(m), int(n)
    rows = [[complex(*map(float, tok.split(","))) for tok in ln.split()] for ln in lines[2:]]
    return m, n, np.array(rows, dtype=complex)


def family_matrix(family: str, x: float) -> np.ndarray:
    """The named family states, written out from their definitions."""
    if family == "werner":
        psi = np.array([0, 1, -1, 0]) / math.sqrt(2)
        return x * np.outer(psi, psi) + (1 - x) / 4 * np.eye(4)
    if family == "iso23":
        psi = np.zeros(6)
        psi[0] = psi[4] = 1 / math.sqrt(2)          # |11>, |22>
        return x * np.outer(psi, psi) + (1 - x) / 6 * np.eye(6)
    if family == "horodecki33":
        psi = np.zeros(9)
        psi[[0, 4, 8]] = 1 / math.sqrt(3)           # |11>, |22>, |33>
        plus = np.diag([0, 1, 0, 0, 0, 1, 1, 0, 0]) / 3.0   # |12>, |23>, |31>
        minus = np.diag([0, 0, 1, 1, 0, 0, 0, 1, 0]) / 3.0  # |21>, |32>, |13>
        return 2 / 7 * np.outer(psi, psi) + x / 7 * plus + (5 - x) / 7 * minus
    raise ValueError(f"unknown family {family!r}")


def ggm_stack(n: int) -> np.ndarray:
    """SU(n) generators in the library's enumeration order (sym, asym, diag)."""
    pairs = [(j, k) for j in range(n) for k in range(j + 1, n)]
    out = []
    for j, k in pairs:
        g = np.zeros((n, n), dtype=complex)
        g[j, k] = g[k, j] = 1
        out.append(g)
    for j, k in pairs:
        g = np.zeros((n, n), dtype=complex)
        g[j, k], g[k, j] = -1j, 1j
        out.append(g)
    for l in range(1, n):
        d = np.zeros(n)
        d[:l] = 1
        d[l] = -l
        out.append(np.diag(d * math.sqrt(2 / (l * (l + 1)))).astype(complex))
    return np.array(out)


def unitary(theta, n: int) -> np.ndarray:
    import scipy.linalg  # here, so that only the optimize checks load it

    return scipy.linalg.expm(1j * np.tensordot(np.asarray(theta, dtype=float), ggm_stack(n), axes=1))


def rotation(p: float, n: int) -> np.ndarray:
    u = np.eye(n, dtype=complex)
    c, s = math.cos(p), math.sin(p)
    u[:2, :2] = [[c, s], [-s, c]]
    return u


def y_values(mat, m: int, n: int, pair, u=None, v=None) -> tuple[float, float, float]:
    """(y1, y2, y3) of the rotated elementary triple against ``mat``."""
    shape = BipartiteShape(m, n)
    u = np.eye(m, dtype=complex) if u is None else u
    v = np.eye(n, dtype=complex) if v is None else v
    t = rotate_triple(ketbra_triple(shape, *pair), LocalUnitaryPair(u, v))
    return tuple(float(np.trace(mat @ y).real) for y in (t.y1, t.y2, t.y3))


def violation(y) -> float:
    return y[0] ** 2 + y[1] ** 2 - y[2] ** 2


def pairs_of(m: int, n: int):
    top = min(m, n)
    return [(j, k) for j in range(1, top + 1) for k in range(j + 1, top + 1)]


def ppt_min(mat, m: int, n: int) -> float:
    pt = np.asarray(mat).reshape(m, n, m, n).swapaxes(1, 3).reshape(m * n, m * n)
    return float(np.linalg.eigvalsh((pt + pt.conj().T) / 2)[0])


def ppt_verdict(min_eig: float, m: int, n: int) -> str | None:
    """Expected oracle verdict, or None when too close to the threshold."""
    if abs(min_eig + PPT_TOL) < MARGIN:
        return None
    if min_eig < -PPT_TOL:
        return "entangled"
    return "separable" if m * n <= 6 else "inconclusive"


def report_verdict(best_f: float, ppt: str) -> str:
    if best_f > VIOLATION_TOL:
        return "entangled_certified"
    return "separable" if ppt == "separable" else "inconclusive"


@functools.lru_cache(maxsize=1024)
def reference_file(path: str) -> tuple[int, int, np.ndarray, float, dict]:
    """(m, n, matrix, PPT minimum, identity y values per pair) of an input
    file. Inputs never change during a run, so each is worked out once."""
    with open(path, encoding="ascii") as fh:
        m, n, mat = parse_dm(fh.read())
    mat.setflags(write=False)
    ys = {pr: y_values(mat, m, n, pr) for pr in pairs_of(m, n)}
    return m, n, mat, ppt_min(mat, m, n), ys


def close(a: float, b: float, tol: float = F_TOL) -> bool:
    return abs(a - b) <= tol + 1e-9 * abs(b)


# ---------------------------------------------------------------- shared report checks

def _check_report(rep: dict, path: str, truth: str, theta=None) -> list[str]:
    """Certificate, PPT value and verdict logic of one detection report.

    ``theta`` (the report's unitary parameters) is given for searched
    reports; identity reports must also name the best pair of all.
    """
    m, n, mat, ref_min, ys = reference_file(path)
    bad = []
    pair = tuple(rep["best_pair"])
    if pair not in ys:
        return [f"best_pair {pair} invalid for {m}x{n}"]
    if theta is None:
        y = ys[pair]
        top = max(violation(v) for v in ys.values())
        if not close(rep["best_f"], top):
            bad.append(f"best_f {rep['best_f']} is not the best pair's {top}")
        if rep["evaluations"] != len(ys):
            bad.append(f"evaluations {rep['evaluations']} != {len(ys)} pairs")
    else:
        y = y_values(mat, m, n, pair, unitary(theta[0], m), unitary(theta[1], n))
    got = (rep["y_values"]["y1"], rep["y_values"]["y2"], rep["y_values"]["y3"])
    if not all(close(a, b) for a, b in zip(got, y)):
        bad.append(f"y values {got} != reference {y}")
    if not close(rep["best_f"], violation(y)):
        bad.append(f"best_f {rep['best_f']} != reference {violation(y)}")
    if not close(rep["ppt_min"], ref_min, EIG_TOL):
        bad.append(f"ppt_min {rep['ppt_min']} != reference {ref_min}")
    want_ppt = ppt_verdict(ref_min, m, n)
    if want_ppt is not None and rep["ppt_verdict"] != want_ppt:
        bad.append(f"ppt_verdict {rep['ppt_verdict']} != {want_ppt}")
    if rep["verdict"] != report_verdict(rep["best_f"], rep["ppt_verdict"]):
        bad.append(f"verdict {rep['verdict']} inconsistent with best_f {rep['best_f']}")
    certified = rep["verdict"] == "entangled_certified"
    if certified and not rep["ppt_min"] < 0:
        bad.append(f"certified but ppt_min {rep['ppt_min']} >= 0")
    if certified and truth in ("separable", "ppt"):
        bad.append(f"certified a state that is {truth} by construction")
    if truth in ("separable", "ppt") and rep["ppt_verdict"] == "entangled":
        bad.append("PPT oracle calls a PPT-by-construction state entangled")
    if truth == "npt" and rep["ppt_verdict"] != "entangled":
        bad.append("PPT oracle misses an NPT-by-construction state")
    return bad


def _report_dict(rep) -> dict:
    return rep if isinstance(rep, dict) else rep.to_dict()


# ---------------------------------------------------------------- per-workload checks

def check_optimize(op: dict, rep) -> list[str]:
    """A maximize_violation report: certificate recomputed from its theta."""
    rep = _report_dict(rep)
    theta = (rep["best_params"]["theta_a"], rep["best_params"]["theta_b"])
    bad = _check_report(rep, op["path"], op["truth"], theta)
    opt = OPTIMA.get(op["label"])
    if opt is not None and rep["best_f"] > opt + F_TOL:
        bad.append(f"best_f {rep['best_f']} exceeds the known optimum {opt}")
    if rep["evaluations"] < 1:
        bad.append("no evaluations reported")
    return bad


def check_scan(op: dict, rows, csv_text: str) -> list[str]:
    """One family's grid: shape, written CSV, theory bound, sampled rows."""
    fam = op["family"]
    params = np.linspace(op["lo"], op["hi"], op["param_steps"])
    ps = np.linspace(0.0, math.pi, op["p_steps"])
    arr = np.array(rows, dtype=float)
    if arr.shape != (params.size * ps.size, 3):
        return [f"scan returned shape {arr.shape}"]
    bad = []
    if not (np.array_equal(arr[:, 0], np.repeat(params, ps.size))
            and np.array_equal(arr[:, 1], np.tile(ps, params.size))):
        bad.append("scan grid differs from the requested (param, p) grid")
    lines = csv_text.splitlines()
    if not lines or lines[0] != "param,p,f":
        bad.append("CSV header wrong")
    else:
        written = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
        if written.shape != arr.shape or not np.array_equal(written, arr):
            bad.append("CSV contents differ from the scan rows")
    sep = arr[:, 0] <= FAMILY_PPT_UPTO[fam]
    if (arr[sep, 2] > VIOLATION_TOL).any():
        bad.append("positive violation for a separable or PPT family member")
    m, n = FAMILY_SHAPE[fam]
    pair = (1, 2)
    top = np.flatnonzero(arr[:, 0] == op["hi"])
    best = int(top[np.argmax(arr[top, 2])]) if top.size else 0
    for i in sorted(set(op["sample"]) | {best}):
        a, p, f = arr[i]
        ref = violation(y_values(family_matrix(fam, a), m, n, pair, rotation(p, m)))
        if not close(f, ref):
            bad.append(f"row {i}: f {f} != reference {ref}")
    return bad


def scan_best_ratio(op: dict, rows) -> float | None:
    """Largest f on the reference-parameter row over the family's optimum."""
    label = op.get("label")
    if label not in OPTIMA:
        return None
    top = [f for a, _, f in rows if a == op["hi"]]
    return max(top) / OPTIMA[label] if top else None


def check_triage(op: dict, rep, min_eig: float, ppt: str) -> list[str]:
    """Identity report plus the separate PPT call for one triaged file."""
    rep = _report_dict(rep)
    bad = _check_report(rep, op["path"], op["truth"])
    m, n = reference_file(op["path"])[:2]
    if any(rep["best_params"][k] != [0.0] * (d * d - 1) for k, d in (("theta_a", m), ("theta_b", n))):
        bad.append("identity report carries non-zero unitary parameters")
    if min_eig != rep["ppt_min"]:
        bad.append(f"ppt_min_eigenvalue {min_eig} != report's {rep['ppt_min']}")
    if ppt != rep["ppt_verdict"]:
        bad.append(f"classify_ppt {ppt} != report's {rep['ppt_verdict']}")
    return bad


TEXT_KEYS = ["verdict", "best_f", "best_pair", "y1", "ppt_min_eigenvalue", "ppt_verdict", "evaluations"]


def _parse_text_report(lines: list[str]) -> dict:
    """The seven ``key: value`` lines ``entcert detect`` prints."""
    if [ln.split(":", 1)[0] for ln in lines] != TEXT_KEYS:
        raise ValueError(f"detect printed {lines!r}")
    val = [ln.split(": ", 1)[1] for ln in lines]
    y = val[3].split()  # "y1: a  y2: b  y3: c" -> a, "y2:", b, "y3:", c
    return {
        "verdict": val[0],
        "best_f": float(val[1]),
        "best_pair": [int(x) for x in val[2].split(",")],
        "y_values": {"y1": float(y[0]), "y2": float(y[2]), "y3": float(y[4])},
        "ppt_min": float(val[4]),
        "ppt_verdict": val[5],
        "evaluations": int(val[6]),
    }


def check_cli(op: dict, code: int, stdout: str) -> list[str]:
    """Exit code, stdout and written file of one ``python -m entcert`` run."""
    kind, lines = op["kind"], stdout.splitlines()
    try:
        if kind == "ppt":
            m, n, _, ref, _ = reference_file(op["path"])
            want = ppt_verdict(ref, m, n)
            bad = []
            if len(lines) != 2 or not lines[0].startswith("ppt_min_eigenvalue: "):
                return [f"ppt output {lines!r}"]
            if not close(float(lines[0].split(": ")[1]), ref, EIG_TOL):
                bad.append(f"{lines[0]} != reference {ref}")
            if want is not None and lines[1] != f"ppt_verdict: {want}":
                bad.append(f"{lines[1]} != {want}")
            if code != PPT_EXIT.get(lines[1].split(": ")[-1]):
                bad.append(f"exit code {code} for {lines[1]}")
            return bad
        if kind in ("detect", "detect_json"):
            if kind == "detect_json":
                if len(lines) != 1:
                    return [f"--json printed {len(lines)} lines"]
                rep = json.loads(lines[0])
                if list(rep) != ["verdict", "best_f", "best_pair", "best_params", "y_values",
                                 "ppt_min", "ppt_verdict", "evaluations"]:
                    return [f"--json keys {list(rep)}"]
            else:
                rep = _parse_text_report(lines)
            bad = _check_report(rep, op["path"], op["truth"])
            if code != VERDICT_EXIT.get(rep["verdict"]):
                bad.append(f"exit code {code} for verdict {rep['verdict']}")
            return bad
        if kind == "make_state":
            from entcert import dmfile, states

            with open(op["out"], encoding="ascii") as fh:
                text = fh.read()
            bad = []
            want = dmfile.format_density(getattr(states, op["family"])(op["param"]))
            if text != want:
                bad.append("make-state output differs from format_density of the family state")
            m, n, mat = parse_dm(text)
            if (m, n) != FAMILY_SHAPE[op["family"]]:
                bad.append(f"make-state wrote shape {m}x{n}")
            elif not np.allclose(mat, family_matrix(op["family"], op["param"]), atol=1e-15, rtol=0):
                bad.append("make-state matrix differs from the family definition")
            if code != 0 or lines != [f"wrote {op['family']} state ({m}x{n}) to {op['out']}"]:
                bad.append(f"make-state exit {code}, stdout {lines!r}")
            return bad
        if kind == "basis":
            d = op["dim"]
            with open(op["out"], encoding="ascii") as fh:
                text = fh.read().splitlines()
            want_labels = [f"{t}:{j},{k}" for t in "sa" for j in range(1, d + 1)
                           for k in range(j + 1, d + 1)] + [f"d:{l}" for l in range(1, d)]
            bad = []
            if text[:2] != ["ggm v1", f"dim {d}"]:
                bad.append(f"basis header {text[:2]!r}")
            blocks = text[2:]
            labels = blocks[:: d + 1]
            if labels != want_labels:
                bad.append(f"basis labels {labels!r}")
            else:
                ref = ggm_stack(d)
                for i in range(len(labels)):
                    rows = blocks[i * (d + 1) + 1:(i + 1) * (d + 1)]
                    got = np.array([[complex(*map(float, t.split(","))) for t in r.split()] for r in rows])
                    if not np.allclose(got, ref[i], atol=1e-15, rtol=0):
                        bad.append(f"generator {labels[i]} differs from its definition")
            if code != 0 or lines != [f"wrote {d * d - 1} generators to {op['out']}"]:
                bad.append(f"basis exit {code}, stdout {lines!r}")
            return bad
        if kind == "scan":
            with open(op["out"], encoding="ascii") as fh:
                csv_text = fh.read()
            rows = [tuple(float(x) for x in ln.split(",")) for ln in csv_text.splitlines()[1:]]
            bad = check_scan(op, rows, csv_text)
            if code != 0 or lines != [f"wrote {len(rows)} rows to {op['out']}"]:
                bad.append(f"scan exit {code}, stdout {lines!r}")
            return bad
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"{kind}: unreadable output ({exc!r})"]
    return [f"unknown cli op kind {kind!r}"]
