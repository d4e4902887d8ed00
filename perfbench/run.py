"""entcert benchmark: one workload, one seed, one line of JSON results.

    python3 perfbench/run.py --workload optimize|scan|triage|cli \\
        --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout that holds ``src/entcert`` and ``data/``.
The seeded inputs are written under ``.perfbench_work/`` and removed at the
end; traces are kept under ``.perfbench_out/``. The last stdout line is
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. The line before it
carries the machine facts and the details behind the numbers. See README.md
in this directory for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calib

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("optimize", "scan", "triage", "cli")
SETUP_PROBES = 2          # extra fresh interpreters; the measuring one is the third
IMPORT_PROBES = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
LAYERS = ("interp", "import", "cli", "dmfile", "states", "ggm", "linalg", "witness", "search", "scipy")
REFS = ("werner_1", "iso23_1", "horodecki33_5")


def machine_facts() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def _worker(plan_path: Path, out: Path, mode: str, seconds: float, trace: int) -> tuple[float, float, dict]:
    """Start a fresh client interpreter; return its set-up time, the host's
    slowness around it (mean of a ``start`` sample just before and one just
    after) and its results."""
    before = calib.slowness("start")
    cmd = [sys.executable, str(HERE / "worker.py"), str(plan_path), str(out),
           "--mode", mode, "--seconds", str(seconds), "--trace", str(trace)]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    t0 = time.monotonic()
    # set-up and checks, plus the untraced passes and their traced rerun (which
    # may overrun ``seconds`` by a pass each, and is slower by the hooks)
    subprocess.run(cmd, env=env, check=True, timeout=60 + 4 * seconds)
    with open(out, encoding="ascii") as fh:
        res = json.load(fh)
    return res["setup_done"] - t0, (before + res["setup_slow"]) / 2, res


def import_times() -> dict:
    """Medians over fresh interpreters of ``-X importtime -c 'import entcert.cli'``."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    samples = {"total": [], "scipy_optimize": [], "numpy": [], "entcert_self": []}
    line = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \| (\s*)(\S+)")
    for _ in range(IMPORT_PROBES):
        err = subprocess.run([sys.executable, "-X", "importtime", "-c", "import entcert.cli"],
                             env=env, capture_output=True, text=True, check=True).stderr
        cum, total, own = {}, 0, 0
        for m in line.finditer(err):
            self_us, cum_us, indent, name = int(m[1]), int(m[2]), len(m[3]), m[4]
            cum.setdefault(name, cum_us)
            if name == "entcert" or name.startswith("entcert."):
                own += self_us
                total += cum_us if indent == 0 else 0
        samples["total"].append(total)
        samples["scipy_optimize"].append(cum.get("scipy.optimize", 0))
        samples["numpy"].append(cum.get("numpy", 0))
        samples["entcert_self"].append(own)
    return {k: statistics.median(v) / 1000.0 for k, v in samples.items()}


def tail(values: list[float], per_pass: int) -> tuple[float, str]:
    """(value, statistic) of the tail of ``values``, recorded pass by pass.

    With at least 11 ops per pass: the highest percentile with >= 10 samples
    beyond it within one pass, read over all values. With fewer: the median
    over passes of each pass's slowest op. Neither depends on how many passes
    fit into the run, so a faster program does not change the statistic.
    """
    if per_pass >= 11:
        xs = sorted(values)
        q = (per_pass - 10) / per_pass
        return xs[max(0, math.ceil(q * len(xs)) - 1)], f"p{100.0 * q:.1f}"
    slowest = [max(values[i:i + per_pass]) for i in range(0, len(values), per_pass)]
    return statistics.median(slowest), f"median of {len(slowest)} per-pass maxima"


def end_to_end(res: dict, setup: list[tuple[float, float]]) -> tuple[dict, dict]:
    """End-to-end metrics; every time is divided by the host's slowness
    measured around it (``calib``)."""
    recs = res["records"]
    dts = [r["dt"] / r["slow"] for r in recs]
    lat = [1000.0 * dt / r["units"] for dt, r in zip(dts, recs)]
    units = sum(r["units"] for r in recs)
    failed = sum(r["units"] for r in recs if r["problems"])
    tail_ms, tail_stat = tail(lat, len(recs) // res["passes"])
    ratios = [r["ratio"] for r in recs if r["ratio"] is not None]
    metrics = {
        "setup_s": (statistics.median(dt / slow for dt, slow in setup), "s"),
        "ops_per_s": (units / sum(dts), "1/s"),
        "op_p50_ms": (statistics.median(lat), "ms"),
        "op_tail_ms": (tail_ms, "ms"),
        "best_f_ratio": (min(ratios) if ratios else 0.0, "ratio"),
        "peak_rss_mb": (res["peak_rss_kb"] / 1024.0, "MB"),
        "ok_frac": (1.0 - failed / units, "ratio"),
    }
    raw = [1000.0 * r["dt"] / r["units"] for r in recs]
    info = {"latency_samples": len(lat), "tail_statistic": tail_stat, "passes": res["passes"],
            "setup_samples_s": [dt for dt, _ in setup], "setup_slowness": [slow for _, slow in setup],
            "raw": {"setup_s": statistics.median(dt for dt, _ in setup),
                    "ops_per_s": units / sum(r["dt"] for r in recs),
                    "op_p50_ms": statistics.median(raw),
                    "op_tail_ms": tail(raw, len(recs) // res["passes"])[0]},
            "op_slowness": {"median": statistics.median(r["slow"] for r in recs),
                            "min": min(r["slow"] for r in recs), "max": max(r["slow"] for r in recs)}}
    return metrics, info


def per_layer(res: dict, imports: dict) -> tuple[dict, dict]:
    s = res["summary"]
    recs = res["traced"]
    units = sum(r["units"] for r in recs)

    def calls(n):
        return s.get(n, {}).get("calls", 0)

    def per_call_us(n, key="total"):
        return 1e6 * s[n][key] / calls(n) if calls(n) else 0.0

    def per_op(n, key=None):
        return (1e6 * s[n][key] if key else calls(n)) / units if n in s else 0.0

    evals = sum(r["obj_evals"] for r in recs)
    starts = sum(r["starts"] for r in recs)
    first = {}
    for r in recs:
        first.setdefault(r["label"], r)
    h5 = first.get("horodecki33_5", {})
    hit = 0  # no search of horodecki33(5) on this workload
    if h5.get("starts"):
        # never reaching the target reads as one call past the whole search
        hit = h5["first_hit"] or h5["obj_evals"] + 1
    op_time = s.get("op", {}).get("total", 0.0)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name, st in s.items():
        if name != "op":
            layer_self[name.split(".")[0]] += st["self"]
    scan_self = s.get("search.scan_1d", {}).get("self", 0.0)
    m = {
        "linalg.unitary_exp.us_per_call": (per_call_us("linalg.unitary_exp"), "us"),
        "linalg.tensor.us_per_call": (per_call_us("linalg.tensor"), "us"),
        "linalg.tensor.calls_per_op": (per_op("linalg.tensor"), "count"),
        "witness.evaluate.us_per_call": (per_call_us("witness.evaluate"), "us"),
        "witness.evaluate.calls_per_op": (per_op("witness.evaluate"), "count"),
        "search.minimize.self_us_per_eval": (
            1e6 * s["scipy.minimize"]["self"] / evals if evals else 0.0, "us"),
        "search.evaluations_per_op": (evals / units, "count"),
        "search.capped_frac": (sum(r["capped"] for r in recs) / starts if starts else 0.0, "ratio"),
        "search.evals_to_95pct": (float(hit), "count"),
        "states.rotation_u.us_per_call": (per_call_us("states.rotation_u"), "us"),
        "search.scan_1d.self_us_per_point": (
            1e6 * scan_self / calls("states.rotation_u") if calls("states.rotation_u") else 0.0, "us"),
        "dmfile.write_scan_csv.us_per_call": (per_call_us("dmfile.write_scan_csv"), "us"),
        "dmfile.parse_density.us_per_call": (per_call_us("dmfile.parse_density"), "us"),
        "states.DensityMatrix.validate_us": (per_call_us("states.DensityMatrix.validate"), "us"),
        "ggm.build_basis.calls_per_op": (per_op("ggm.build_basis"), "count"),
        "witness.build_triple_mxn.calls_per_op": (per_op("witness.build_triple_mxn"), "count"),
        "witness.build_triple_mxn.self_us_per_op": (per_op("witness.build_triple_mxn", "self"), "us"),
        "witness.ppt_min_eigenvalue.us_per_call": (per_call_us("witness.ppt_min_eigenvalue"), "us"),
        "search.evaluate_at_identity.self_us_per_op": (
            per_op("search.evaluate_at_identity", "self"), "us"),
        "import.total_ms": (imports["total"], "ms"),
        "import.scipy_optimize_ms": (imports["scipy_optimize"], "ms"),
        "import.numpy_ms": (imports["numpy"], "ms"),
        "import.entcert_self_ms": (imports["entcert_self"], "ms"),
        "trace.overhead_s": (
            sum(r["dt"] for r in recs) - sum(r["dt"] for r in res["records"]), "s"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_frac"] = (layer_self[layer] / op_time if op_time else 0.0, "ratio")
    for ref in REFS:
        r = first.get(ref, {})
        m[f"search.evaluations.{ref}"] = (float(r.get("obj_evals", 0)), "count")
        m[f"search.capped_starts.{ref}"] = (float(r.get("capped", 0)), "count")
    info = {"traced_ops": len(recs), "spans": sum(v["calls"] for v in s.values()),
            "starts": {ref: first.get(ref, {}).get("starts") for ref in REFS}}
    return m, info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "entcert" / "__init__.py").is_file() or not (ROOT / "data").is_dir():
        print(f"perfbench: no entcert checkout at {ROOT} (need src/entcert and data/)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import gen

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    outdir = ROOT / ".perfbench_out"
    work.mkdir(parents=True, exist_ok=True)
    outdir.mkdir(exist_ok=True)
    try:
        plan = gen.make(args.workload, args.seed, work, ROOT)
        plan.update(root=str(ROOT), work=str(work))
        plan_path = work / "plan.json"
        plan_path.write_text(json.dumps(plan), encoding="ascii")
        facts = machine_facts()
        setup = [_worker(plan_path, work / f"probe{i}.json", "probe", 0, 0)[:2]
                 for i in range(SETUP_PROBES)]
        tag = f"{args.workload}-{args.seed}-trace{args.trace}"
        dt, slow, res = _worker(plan_path, outdir / f"{tag}.json", "measure", args.seconds, args.trace)
        setup.append((dt, slow))
        e2e, info = end_to_end(res, setup)
        checked = res["records"] + res.get("traced", [])
        if args.trace:
            metrics, layer_info = per_layer(res, import_times())
            info.update(layer_info)
        else:
            metrics = e2e
        attempted = sum(r["units"] for r in checked)
        failed = sum(r["units"] for r in checked if r["problems"])
        problems = [p for r in checked for p in r["problems"]] + res["warmup_problems"]
        info.update(workload=args.workload, seed=args.seed, facts=facts,
                    e2e={k: v for k, (v, _) in e2e.items()}, problems=problems[:5],
                    optimize=[{k: r.get(k) for k in ("label", "best_f", "evaluations", "verdict", "dt")}
                              for r in res["records"]] if args.workload == "optimize" else None)
        print(json.dumps({"info": info}))
        print(json.dumps({
            "correct": not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # only succeeds once no other run is using it
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
