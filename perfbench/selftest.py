"""Self-test of the benchmark's checks at tiny sizes (a few seconds).

    python3 perfbench/selftest.py

Runs each workload's op on a tiny input, shows that its checks pass, then
corrupts the output (a flipped verdict, a perturbed scan row, a wrong CLI
exit code or byte) and shows that every corruption is counted as a failed
op by the same closed loop the benchmark uses, without ending the run.
Exits 1 if any case behaves otherwise.
"""

from __future__ import annotations

import dataclasses
import math
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from entcert import SearchConfig, Verdict, dmfile, maximize_violation, states  # noqa: E402

FAILURES = []


def expect(name: str, problems: list[str], bad: bool) -> None:
    ok = bool(problems) == bad
    print(f"{'PASS' if ok else 'FAIL'}  {name}: {'counted as failure' if problems else 'clean'}")
    if not ok:
        FAILURES.append(name)


def main() -> int:
    work = ROOT / ".perfbench_work" / f"selftest-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        cases(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # only succeeds once no benchmark run is using it
        except OSError:
            pass
    print(f"{len(FAILURES)} unexpected result(s)")
    return 1 if FAILURES else 0


def cases(work: Path) -> None:
    # triage: identity report + PPT oracle on an NPT and a separable file
    tri = worker.Client("triage", ROOT, work)
    npt = {"path": str(work / "w.dm"), "truth": "npt", "label": "werner"}
    dmfile.write_density(states.werner(0.8), npt["path"])
    sep = {"path": str(work / "s.dm"), "truth": "separable", "label": "2x3"}
    rho_sep = states.random_separable(states.BipartiteShape(2, 3), 3, 7)[0]
    dmfile.write_density(rho_sep, sep["path"])
    for op in (npt, sep):
        expect(f"triage {op['label']}", tri.check(op, tri.run(op)), bad=False)
    rep, m, v = tri.run(npt)
    flipped = dataclasses.replace(rep, verdict=Verdict("inconclusive"))
    expect("triage flipped verdict", tri.check(npt, (flipped, m, v)), bad=True)
    expect("triage flipped PPT verdict", tri.check(npt, (rep, m, "separable")), bad=True)
    rep_s, m_s, v_s = tri.run(sep)
    forged = dataclasses.replace(rep_s, verdict=Verdict("entangled_certified"), best_f=0.5)
    expect("triage certifies a separable state", tri.check(sep, (forged, m_s, v_s)), bad=True)

    # scan: tiny grid, then a perturbed row and a damaged CSV
    sc = worker.Client("scan", ROOT, work)
    op = {"family": "iso23", "label": "iso23_1", "lo": 0.0, "hi": 1.0, "param_steps": 5,
          "p_steps": 7, "sample": list(range(35)), "out": str(work / "scan.csv")}
    rows = sc.run(op)
    expect("scan tiny grid", sc.check(op, rows), bad=False)
    bent = list(rows)
    a, p, f = bent[17]
    bent[17] = (a, p, f + 1e-6)
    text = Path(op["out"]).read_text()
    expect("scan perturbed row", checks.check_scan(op, bent, text), bad=True)
    expect("scan damaged CSV", checks.check_scan(op, rows, text.replace("e-", "e+", 1)), bad=True)

    # optimize: a short search, then a flipped verdict and a moved certificate
    path = work / "w1.dm"
    dmfile.write_density(states.werner(1.0), path)
    op = {"path": str(path), "label": "werner_1", "truth": "npt", "seed": 0}
    rep = maximize_violation(dmfile.read_density(path), SearchConfig(restarts=1, max_iters=60))
    expect("optimize short search", checks.check_optimize(op, rep), bad=False)
    expect("optimize flipped verdict",
           checks.check_optimize(op, dataclasses.replace(rep, verdict=Verdict("inconclusive"))),
           bad=True)
    moved = dataclasses.replace(rep.best_params, theta_a=tuple(t + 0.3 for t in rep.best_params.theta_a))
    expect("optimize moved certificate",
           checks.check_optimize(op, dataclasses.replace(rep, best_params=moved)), bad=True)

    # cli: one real command each, then a wrong exit code, stdout and file byte
    cl = worker.Client("cli", ROOT, work)
    ppt = {"kind": "ppt", "argv": ["ppt", str(ROOT / "data" / "werner_1.0.dm")],
           "path": str(ROOT / "data" / "werner_1.0.dm"), "truth": "npt"}
    code, out = cl.run(ppt)
    expect("cli ppt", cl.check(ppt, (code, out)), bad=False)
    expect("cli ppt wrong exit code", cl.check(ppt, (1, out)), bad=True)
    expect("cli ppt flipped verdict", cl.check(ppt, (code, out.replace("entangled", "separable"))), bad=True)
    made = {"kind": "make_state", "family": "horodecki33", "param": 4.5, "out": str(work / "h.dm"),
            "argv": ["make-state", "horodecki33", "--alpha", "4.5", "--out", str(work / "h.dm")]}
    code, out = cl.run(made)
    expect("cli make-state", cl.check(made, (code, out)), bad=False)
    Path(made["out"]).write_text(Path(made["out"]).read_text().replace("0.0,0.0", "0.0,-0.0", 1))
    expect("cli make-state changed byte", cl.check(made, (code, out)), bad=True)

    # the loop: a raising op and a corrupted op are counted, the rest still run
    class Corrupting(worker.Client):
        def run(self, op):
            if op["label"] == "raise":
                raise RuntimeError("injected failure")
            rep, m, v = super().run(op)
            if op["label"] == "flip":
                rep = dataclasses.replace(rep, verdict=Verdict("inconclusive"))
            return rep, m, v

    loop = Corrupting("triage", ROOT, work)
    ops = [dict(npt, label="ok"), dict(npt, label="raise"), dict(npt, label="flip"), dict(sep, label="ok")]
    recs, _ = worker.run_passes(loop, ops, None, 1)
    expect("loop keeps going after failures", [] if len(recs) == 4 else ["short"], bad=False)
    recs = [dict(r, units=1) for r in recs]
    res = {"records": recs, "passes": 1, "peak_rss_kb": 1024}
    metrics, _ = run.end_to_end(res, [(1.0, 1.0)])
    expect("two of four ops counted failed",
           [] if metrics["ok_frac"][0] == 0.5 else [f"ok_frac {metrics['ok_frac'][0]}"], bad=False)

    # host-speed scaling: a host twice as slow (ops and kernel alike) reads the
    # same; a program twice as slow on the same host reads twice as slow
    def e2e(time_factor, host_factor):
        slowed = [dict(r, dt=r["dt"] * time_factor, slow=r["slow"] * host_factor) for r in recs]
        return run.end_to_end(dict(res, records=slowed), [(time_factor, host_factor)])[0]

    base, host, prog = e2e(1, 1), e2e(2, 2), e2e(2, 1)
    for key in ("setup_s", "op_p50_ms", "op_tail_ms", "ops_per_s"):
        want = 0.5 if key == "ops_per_s" else 2.0
        ok = math.isclose(host[key][0], base[key][0]) and math.isclose(prog[key][0], want * base[key][0])
        expect(f"{key} cancels host speed, keeps program speed", [] if ok else [key], bad=False)

    # op_tail_ms reads the same statistic however many passes fit into a run
    for per_pass in (4, 21):
        one = [float((7 * i) % per_pass) for i in range(per_pass)]
        tails = {run.tail(one * k, per_pass)[0] for k in (1, 3, 12)}
        expect(f"op_tail_ms with {per_pass} ops per pass ignores the pass count",
               [] if len(tails) == 1 else [f"tails {sorted(tails)}"], bad=False)


if __name__ == "__main__":
    sys.exit(main())
