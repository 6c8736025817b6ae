"""Numbering sensitivity: search node counts of relabeled graphs, per seed.

Not part of a benchmark run.  For each seed it solves, with ``ari`` and the
default config, the relabeled files the search workload generates for that
seed, plus a seeded relabeling of each of the graphs kept out of the timed
pass because their cost depends on the seed (B_{4,4}, K_{2,5}).

Usage (from the repository root):

    python3 perfbench/survey.py --seeds 1-10 --extra B_{4,4}
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
BUDGET_S = 60.0  # search budget per graph
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))

import workloads  # noqa: E402
from arlabel import SearchConfig, ari, load_graph  # noqa: E402


def solve(path: Path) -> dict:
    t = time.perf_counter()
    res = ari(load_graph(path), SearchConfig(budget_s=BUDGET_S))
    return {
        "status": res.status,
        "value": res.lower,
        "nodes": res.stats.nodes,
        "seconds": round(time.perf_counter() - t, 3),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10", help="inclusive range a-b")
    ap.add_argument("--extra", action="append", default=[], help="family to relabel per seed")
    args = ap.parse_args()
    lo, hi = (int(x) for x in args.seeds.split("-"))
    rows = []
    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
        tmp = Path(tmp)
        for seed in range(lo, hi + 1):
            spec = workloads.generate("search", seed, tmp / str(seed))
            found = {f["instance"]: solve(tmp / str(seed) / f["path"]) for f in spec["files"]}
            for family in args.extra:
                n, _ = workloads.family_edges(family)
                rng = random.Random(seed)
                perm = list(range(n))
                rng.shuffle(perm)
                path = tmp / f"{seed}-{family}.json"
                path.write_text(json.dumps(workloads.relabel(family, perm, rng)))
                found[f"seeded:{family}"] = solve(path)
            rows.append({"seed": seed, **found})
            print(seed, json.dumps(found), flush=True)
    print(json.dumps(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
