"""In-memory span recorder and the hooks that trace entcert from outside.

A span is (name, parent, start, end). Spans live in flat arrays while the run
is going and are written out once, at the end. A span's self time is its
duration minus the durations of its direct children.

The hooks replace public functions where the *calling* module looks them up:
entcert modules bind imported names at import time (``from .linalg import
unitary_exp``), so wrapping ``entcert.linalg.unitary_exp`` would miss the
calls made from ``entcert.search``. Every hook is undone by ``uninstall``.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array

# (module where the caller looks the name up, attribute, span name).
# The span name's first component is the layer its self time is charged to.
HOOKS = (
    ("entcert.search", "maximize_violation", "search.maximize_violation"),
    ("entcert.search", "evaluate_at_identity", "search.evaluate_at_identity"),
    ("entcert.search", "scan_1d", "search.scan_1d"),
    ("entcert.search", "evaluate", "witness.evaluate"),
    ("entcert.search", "unitary_exp", "linalg.unitary_exp"),
    ("entcert.search", "build_basis", "ggm.build_basis"),
    ("entcert.search", "build_triple_mxn", "witness.build_triple_mxn"),
    ("entcert.search", "ppt_min_eigenvalue", "witness.ppt_min_eigenvalue"),
    ("entcert.search", "rotation_u", "states.rotation_u"),
    ("entcert.witness", "tensor", "linalg.tensor"),
    ("entcert.witness", "ketbra_in_ggm", "ggm.ketbra_in_ggm"),
    ("entcert.witness", "hermitian_eigen", "linalg.hermitian_eigen"),
    ("entcert.witness", "partial_transpose_b", "linalg.partial_transpose_b"),
    ("entcert.witness", "ppt_min_eigenvalue", "witness.ppt_min_eigenvalue"),
    ("entcert.witness", "classify_ppt", "witness.classify_ppt"),
    ("entcert.dmfile", "read_density", "dmfile.read_density"),
    ("entcert.dmfile", "parse_density", "dmfile.parse_density"),
    ("entcert.dmfile", "write_density", "dmfile.write_density"),
    ("entcert.dmfile", "write_basis", "dmfile.write_basis"),
    ("entcert.dmfile", "write_scan_csv", "dmfile.write_scan_csv"),
    ("entcert.cli", "maximize_violation", "search.maximize_violation"),
    ("entcert.cli", "evaluate_at_identity", "search.evaluate_at_identity"),
    ("entcert.cli", "scan_1d", "search.scan_1d"),
    ("entcert.cli", "build_basis", "ggm.build_basis"),
    ("entcert.cli", "ppt_min_eigenvalue", "witness.ppt_min_eigenvalue"),
    ("entcert.cli", "classify_ppt", "witness.classify_ppt"),
    ("entcert.cli", "werner", "states.werner"),
    ("entcert.cli", "iso23", "states.iso23"),
    ("entcert.cli", "horodecki33", "states.horodecki33"),
)
MINIMIZE = "scipy.minimize"
OBJECTIVE = "search.objective"
VALIDATE = "states.DensityMatrix.validate"


class Tracer:
    """Span store plus the per-op optimizer counters the hooks feed."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._undo: list = []
        self.active = False  # spans are recorded only inside timed ops
        self.reset_counters()

    def reset_counters(self, target: float | None = None):
        """Zero the optimizer counters; ``target`` arms evals-to-target."""
        self.evaluations = 0
        self.starts = 0
        self.capped = 0
        self.target = target
        self.first_hit = None

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def add(self, name: str, parent: int, start: float, end: float) -> int:
        """Record a finished span measured elsewhere (another process)."""
        idx = len(self.start)
        self.name.append(self.name_id(name))
        self.parent.append(parent)
        self.start.append(start)
        self.end.append(end)
        return idx

    def wrap(self, fn, span: str):
        nid = self.name_id(span)

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = self.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return traced

    def _wrap_minimize(self, minimize):
        nid, obj_id = self.name_id(MINIMIZE), self.name_id(OBJECTIVE)

        def traced_minimize(fun, x0, *args, **kwargs):
            if not self.active:
                return minimize(fun, x0, *args, **kwargs)

            def objective(x, *a):
                idx = self.open(obj_id)
                try:
                    val = fun(x, *a)
                finally:
                    self.close(idx)
                self.evaluations += 1
                if self.first_hit is None and self.target is not None and -val >= self.target:
                    self.first_hit = self.evaluations
                return val

            idx = self.open(nid)
            try:
                res = minimize(objective, x0, *args, **kwargs)
            finally:
                self.close(idx)
            maxiter = (kwargs.get("options") or {}).get("maxiter")
            self.starts += 1
            self.capped += int(maxiter is not None and res.nit >= maxiter)
            return res

        return traced_minimize

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every hook of the entcert modules already imported."""
        for mod_name, attr, span in HOOKS:
            mod = sys.modules.get(mod_name)
            if mod is not None:
                self._set(mod, attr, self.wrap(getattr(mod, attr), span))
        search = importlib.import_module("entcert.search")
        self._set(search, "minimize", self._wrap_minimize(search.minimize))
        fams = search.SCAN_FAMILIES
        for fam, (fn, shape) in list(fams.items()):
            self._undo.append((fams, fam, fams[fam]))
            fams[fam] = (self.wrap(fn, f"states.{fam}"), shape)
        dm_cls = importlib.import_module("entcert.states").DensityMatrix
        self._set(dm_cls, "__post_init__", self.wrap(dm_cls.__post_init__, VALIDATE))

    def uninstall(self) -> None:
        """Put back every original function, newest first."""
        while self._undo:
            owner, attr, orig = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = orig
            else:
                setattr(owner, attr, orig)

    def to_json(self) -> dict:
        return {
            "names": self.names,
            "name": list(self.name),
            "parent": list(self.parent),
            "start": list(self.start),
            "end": list(self.end),
        }

    def merge(self, data: dict, parent: int) -> None:
        """Append another process's spans, its roots hung under ``parent``."""
        base = len(self.start)
        for nid, par, t0, t1 in zip(data["name"], data["parent"], data["start"], data["end"]):
            self.add(data["names"][nid], base + par if par >= 0 else parent, t0, t1)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        import numpy as np

        dur = np.asarray(self.end) - np.asarray(self.start)
        par = np.asarray(self.parent, dtype=np.int64)
        name = np.asarray(self.name, dtype=np.int64)
        has = par >= 0
        child = np.bincount(par[has], weights=dur[has], minlength=dur.size)
        self_t = dur - child
        out = {}
        for nid, nm in enumerate(self.names):
            sel = name == nid
            out[nm] = {
                "calls": int(sel.sum()),
                "total": float(dur[sel].sum()),
                "self": float(self_t[sel].sum()),
            }
        return out

    def write(self, path) -> None:
        """Save every span, compressed; ``names[name[i]]`` is span i's name."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.asarray(self.name),
            parent=np.asarray(self.parent),
            start=np.asarray(self.start),
            end=np.asarray(self.end),
        )
