"""Record the search's reports on seeded random states, and compare two records.

    PYTHONPATH=src python tools/report_sweep.py run OUT.json
    python tools/report_sweep.py compare BASE.json NEW.json

``run`` imports entcert from ``PYTHONPATH``, so pointing it at two checkouts
in turn records the same sweep for each. It writes, as JSON, the
``to_dict()`` of the default ``maximize_violation`` (search seeds 0 and 1)
and of ``evaluate_at_identity`` for ``random_density`` of every shape in
SHAPES at state seeds 0-2: 126 reports, keyed like ``2x3/s0/search1`` and
``2x3/s0/identity``.

``compare`` prints the reports that differ, the verdict changes, the
evaluation changes with both totals, and the largest change of any theta
entry and of best_f. It exits 1 if a verdict differs, else 0.
"""

from __future__ import annotations

import json
import sys

SHAPES = ((2, 3), (3, 2), (3, 4), (4, 3), (2, 5), (5, 2), (3, 5), (4, 5), (2, 4), (4, 4), (3, 3), (5, 5), (6, 6), (2, 8))
STATE_SEEDS = (0, 1, 2)
SEARCH_SEEDS = (0, 1)


def run(path: str) -> int:
    from entcert import (BipartiteShape, SearchConfig, evaluate_at_identity,
                         maximize_violation, random_density)

    reports = {}
    for m, n in SHAPES:
        for s in STATE_SEEDS:
            rho = random_density(BipartiteShape(m, n), seed=s)
            for k in SEARCH_SEEDS:
                reports[f"{m}x{n}/s{s}/search{k}"] = maximize_violation(rho, SearchConfig(seed=k)).to_dict()
            reports[f"{m}x{n}/s{s}/identity"] = evaluate_at_identity(rho).to_dict()
    with open(path, "w", encoding="ascii") as fh:
        json.dump(reports, fh, indent=1)
    print(f"wrote {len(reports)} reports to {path}")
    return 0


def _theta(report: dict) -> list[float]:
    return report["best_params"]["theta_a"] + report["best_params"]["theta_b"]


def compare(base_path: str, new_path: str) -> int:
    with open(base_path, encoding="ascii") as fh:
        base = json.load(fh)
    with open(new_path, encoding="ascii") as fh:
        new = json.load(fh)
    if base.keys() != new.keys():
        raise SystemExit(f"the two files hold different reports: {sorted(base.keys() ^ new.keys())}")
    moved = [key for key in base if base[key] != new[key]]
    verdicts = [key for key in base if base[key]["verdict"] != new[key]["verdict"]]
    evals = [key for key in base if base[key]["evaluations"] != new[key]["evaluations"]]
    d_theta = max((abs(a - b) for key in moved for a, b in zip(_theta(base[key]), _theta(new[key]))), default=0.0)
    d_f = max((abs(base[key]["best_f"] - new[key]["best_f"]) for key in moved), default=0.0)
    print(f"moved: {len(moved)} of {len(base)} reports")
    for key in moved:
        print(f"  {key}")
    print(f"verdict changes: {len(verdicts)}")
    for key in verdicts:
        print(f"  {key}: {base[key]['verdict']} -> {new[key]['verdict']}")
    total_base = sum(r["evaluations"] for r in base.values())
    total_new = sum(r["evaluations"] for r in new.values())
    print(f"evaluation changes: {len(evals)} (total {total_base} -> {total_new})")
    for key in evals:
        print(f"  {key}: {base[key]['evaluations']} -> {new[key]['evaluations']}")
    print(f"max |d theta|: {d_theta:.3g}")
    print(f"max |d best_f|: {d_f:.3g}")
    return 1 if verdicts else 0


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "run":
        return run(argv[1])
    if len(argv) == 3 and argv[0] == "compare":
        return compare(argv[1], argv[2])
    print(__doc__.split("\n\n")[1], file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
