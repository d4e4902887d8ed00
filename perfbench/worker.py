"""Benchmark client: one process running one closed loop over a plan's ops.

    python3 worker.py PLAN.json OUT.json --mode probe|measure --seconds S --trace 0|1

The client imports entcert, runs the plan's warm-up op untimed and stamps
``setup_done`` (CLOCK_MONOTONIC, comparable with the parent's clock); the
reference checker and the host-speed calibration (``calib``) are imported
only after that, and one slowness sample is taken. In
``probe`` mode it stops there. In ``measure`` mode it runs whole passes over
the op list for up to S seconds of summed op time, sampling the host's
slowness as it goes and checking every op's output right after it (outside
the timed region). With ``--trace 1`` it then runs the same number of passes
again with the span hooks installed and no sampling.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
EVALS_TARGET_LABEL = "horodecki33_5"
EVALS_TARGET_SHARE = 0.95
CLI_TIMEOUT_S = 120
CAL_EVERY_S = 0.5         # op time between two host-speed samples


class Client:
    """How one workload runs, checks and scores a single op."""

    def __init__(self, workload: str, root: Path, work: Path):
        from entcert import dmfile, search, witness

        self.workload, self.root, self.work = workload, root, work
        self.dmfile, self.search, self.witness = dmfile, search, witness
        self.tracer = None

    @property
    def checks(self):
        """The reference checker. It is first imported when the warm-up op is
        judged, after ``setup_done`` is stamped, so set-up time covers entcert
        alone."""
        import checks

        return checks

    def units(self, op) -> int:
        """Ops per timed call: grid points for a family scan, else 1."""
        return op["param_steps"] * op["p_steps"] if self.workload == "scan" else 1

    def run(self, op):
        w = self.workload
        if w == "optimize":
            from entcert.search import SearchConfig

            rho = self.dmfile.read_density(op["path"])
            cfg = SearchConfig(seed=op["seed"])
            if "restarts" in op:  # the warm-up runs a short search
                cfg = SearchConfig(seed=op["seed"], restarts=op["restarts"])
            return self.search.maximize_violation(rho, cfg)
        if w == "scan":
            import numpy as np

            rows = self.search.scan_1d(
                op["family"],
                np.linspace(op["lo"], op["hi"], op["param_steps"]),
                np.linspace(0.0, np.pi, op["p_steps"]),
            )
            self.dmfile.write_scan_csv(rows, op["out"])
            return rows
        if w == "triage":
            rho = self.dmfile.read_density(op["path"])
            rep = self.search.evaluate_at_identity(rho)
            min_eig = self.witness.ppt_min_eigenvalue(rho)
            return rep, min_eig, self.witness.classify_ppt(min_eig, rho.shape).value
        return self._run_cli(op)

    def _run_cli(self, op):
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        if self.tracer is None:
            argv = [sys.executable, "-m", "entcert", *op["argv"]]
        else:
            spans = op["out_spans"] = str(self.work / "cli.spans.json")
            argv = [sys.executable, str(HERE / "cli_traced.py"), spans, *op["argv"]]
        t0 = time.monotonic()
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
        op["wall"] = (t0, time.monotonic())
        return proc.returncode, proc.stdout

    def check(self, op, out) -> list[str]:
        c, w = self.checks, self.workload
        if w == "optimize":
            return c.check_optimize(op, out)
        if w == "scan":
            with open(op["out"], encoding="ascii") as fh:
                return c.check_scan(op, out, fh.read())
        if w == "triage":
            return c.check_triage(op, *out)
        return c.check_cli(op, *out)

    def best_ratio(self, op, out) -> float | None:
        """best_f over the known optimum, for ops on a reference state."""
        c, w = self.checks, self.workload
        if w == "scan":
            return c.scan_best_ratio(op, out)
        if op.get("label") not in c.OPTIMA:
            return None
        if w == "optimize":
            best_f = out.best_f
        elif w == "triage":
            best_f = out[0].best_f
        else:
            best_f = json.loads(out[1])["best_f"]
        return best_f / c.OPTIMA[op["label"]]


def _timed_op(client: Client, op):
    """Run one op; any exception is the op's failure, never the run's."""
    t0 = time.perf_counter()
    try:
        out, err = client.run(op), None
    except Exception:  # noqa: BLE001 - the loop must outlive a failing op
        out, err = None, traceback.format_exc(limit=3)
    return time.perf_counter() - t0, out, err


def _judge(client: Client, op, out, err) -> tuple[list[str], float | None]:
    if err is not None:
        return [err], None
    try:
        return client.check(op, out), client.best_ratio(op, out)
    except Exception:  # noqa: BLE001 - a crashing check counts as a failed op
        return [traceback.format_exc(limit=3)], None


def _more(done: int, busy: float, seconds: float | None, passes: int | None) -> bool:
    """Whether to start another pass: always one; then either ``passes`` in
    all, or only while the next pass, as long as the mean so far, still fits
    into ``seconds`` of op time. A long pass so never runs twice by chance."""
    if done == 0:
        return True
    if passes is not None:
        return done < passes
    return busy + busy / done <= seconds


def run_passes(client: Client, ops, seconds: float | None, passes: int | None):
    """Closed loop over whole passes of ``ops`` (see ``_more``).

    Untraced, the host's slowness is sampled every ``CAL_EVERY_S`` of op
    time (``calib.Sampler``), and each record's ``slow`` is the mean
    slowness around and inside its op; the sampling's own time inside an op
    is taken off the op's ``dt``.
    """
    from calib import Sampler

    recs, busy, done = [], 0.0, 0
    tracer = client.tracer
    op_span = tracer.name_id("op") if tracer else None
    kind = "start" if client.workload == "cli" else "compute"
    speed = Sampler(kind, CAL_EVERY_S) if tracer is None else None
    spans = []
    while _more(done, busy, seconds, passes):
        for op in ops:
            op = dict(op)
            if speed:
                speed.between()
            if tracer:
                target = None
                if op.get("label") == EVALS_TARGET_LABEL:
                    target = EVALS_TARGET_SHARE * client.checks.OPTIMA[EVALS_TARGET_LABEL]
                tracer.reset_counters(target)
                tracer.active = True
                root = tracer.open(op_span)
            if speed:
                with speed.during() as span:
                    dt, out, err = _timed_op(client, op)
                dt -= span["paused"]
                speed.since += dt
                spans.append((span["first"], len(speed.samples)))
            else:
                dt, out, err = _timed_op(client, op)
            if tracer:
                tracer.close(root)
                tracer.active = False
                if "out_spans" in op and os.path.exists(op["out_spans"]):
                    _merge_cli_spans(tracer, op, root)
                    os.remove(op["out_spans"])
            problems, ratio = _judge(client, op, out, err)
            rec = {"dt": dt, "units": client.units(op), "problems": problems[:3],
                   "label": op.get("label"), "ratio": ratio}
            if client.workload == "optimize" and out is not None:
                rec.update(best_f=out.best_f, evaluations=out.evaluations, verdict=out.verdict.value)
            if tracer:
                rec.update(obj_evals=tracer.evaluations, starts=tracer.starts,
                           capped=tracer.capped, first_hit=tracer.first_hit)
                if client.workload == "optimize" and out is not None and tracer.evaluations != out.evaluations:
                    rec["problems"].append("traced objective calls differ from the report's evaluations")
            recs.append(rec)
            busy += dt
        done += 1
    if speed:
        speed.take()
        for rec, (first, last) in zip(recs, spans):
            rec["slow"] = speed.mean(first, last)
    return recs, done


def _merge_cli_spans(tracer, op, root: int) -> None:
    """Hang a traced CLI child's spans under this op; the rest is start-up."""
    with open(op["out_spans"], encoding="ascii") as fh:
        child = json.load(fh)
    t0, t1 = op["wall"]
    inside = child["done"] - child["boot"]
    tracer.add("interp.startup", root, 0.0, max(0.0, (t1 - t0) - inside))
    tracer.merge(child["spans"], root)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("plan")
    ap.add_argument("out")
    ap.add_argument("--mode", choices=("probe", "measure"), required=True)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    with open(args.plan, encoding="ascii") as fh:
        plan = json.load(fh)
    client = Client(plan["workload"], Path(plan["root"]), Path(plan["work"]))
    _, out, err = _timed_op(client, dict(plan["warmup"]))
    setup_done = time.monotonic()
    from calib import slowness  # imported after the stamp, like the checker

    setup_slow = slowness("start")
    warm_problems, _ = _judge(client, plan["warmup"], out, err)
    result = {"setup_done": setup_done, "setup_slow": setup_slow, "warmup_problems": warm_problems}
    if args.mode == "measure":
        recs, passes = run_passes(client, plan["ops"], args.seconds, None)
        who = resource.RUSAGE_CHILDREN if plan["workload"] == "cli" else resource.RUSAGE_SELF
        result.update(records=recs, passes=passes,
                      peak_rss_kb=resource.getrusage(who).ru_maxrss)
        if args.trace:
            from spans import Tracer

            client.tracer = Tracer()
            client.tracer.install()
            try:
                traced, _ = run_passes(client, plan["ops"], None, passes)
            finally:
                client.tracer.uninstall()
            client.tracer.write(Path(args.out).with_suffix(".spans.npz"))
            result.update(traced=traced, summary=client.tracer.summary())
    with open(args.out, "w", encoding="ascii") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
