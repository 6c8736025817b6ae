"""The two workloads: seeded input generation, Graph set-up, and the
operations one pass runs.

``generate`` writes a workload's inputs from its seed and never imports
arlabel.  ``prepare`` builds or parses the workload's Graph inputs; it is the
part of set-up the benchmark times.  ``make_ops`` returns the operations of
one pass: each has a timed ``call``, an untimed ``digest`` that turns the
result into plain data, and an oracle ``check`` on that digest.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import oracle

WORKLOADS = ("search", "verify")

# --- search: refutations ----------------------------------------------------

# (instance, kind, family, k): canonical numbering, default search config.
CANONICAL = [
    ("K_6@15", "find", "K_6", 15),
    ("K_{2,5}", "ari", "K_{2,5}", None),
    ("K_{1,1,1,3}", "ari", "K_{1,1,1,3}", None),
    ("B_{4,4}", "ari", "B_{4,4}", None),
]
# Relabeled from the seed.  B_{4,4} is not among them: its node count over
# seeds 1..9 ranges 259,399..4,833,426 (see NOTES.md), which would make the
# pass time depend on the seed.  It enters as one fixed non-canonical
# numbering instead (vertex v -> v+1 mod 10).
SEEDED_RELABEL = ["B_{3,3}", "K_{3,4}", "K_{4,4}", "K_{2,2,2}", "W_6"]
FIXED_RELABEL = {"B_{4,4}": "rot"}


def family_edges(family: str) -> tuple[int, list[tuple[int, int]]]:
    """Vertex count and edges of a family graph, in constructor numbering."""
    if family == "K_6":
        return 6, oracle.complete_edges(6)
    if family == "W_6":
        return 6, oracle.wheel_edges(6)
    if family.startswith("B_"):
        a, b = (int(x) for x in family[3:-1].split(","))
        return oracle.bistar_edges(a, b)
    parts = [int(x) for x in family[3:-1].split(",")]
    return oracle.multipartite_edges(parts)


def build_family(al, family: str):
    """The arlabel constructor call for a family name."""
    if family == "K_6":
        return al.complete(6)
    if family == "W_6":
        return al.wheel(6)
    if family.startswith("B_"):
        a, b = (int(x) for x in family[3:-1].split(","))
        return al.bistar(a, b)
    parts = [int(x) for x in family[3:-1].split(",")]
    if len(parts) == 2:
        return al.complete_bipartite(*parts)
    return al.complete_multipartite(parts)


def relabel(family: str, perm: list[int], rng: random.Random | None) -> dict:
    n, edges = family_edges(family)
    new = [[perm[u], perm[v]] for u, v in edges]
    if rng is not None:
        rng.shuffle(new)
        for e in new:
            if rng.random() < 0.5:
                e.reverse()
    return {"vertices": n, "edges": new}


def _generate_refute(seed: int, inputs: Path) -> dict:
    rng = random.Random(seed)
    files = []
    for family in SEEDED_RELABEL:
        n, _ = family_edges(family)
        perm = list(range(n))
        rng.shuffle(perm)
        files.append((f"file:{family}", family, relabel(family, perm, rng)))
    for family, tag in FIXED_RELABEL.items():
        n, _ = family_edges(family)
        perm = [(v + 1) % n for v in range(n)]
        files.append((f"file:{family}-{tag}", family, relabel(family, perm, None)))
    spec_files = []
    for i, (instance, family, doc) in enumerate(files):
        path = inputs / f"g{i}.json"
        path.write_text(json.dumps({**doc, "name": instance}))
        spec_files.append({"instance": instance, "family": family, "path": path.name, **doc})
    return {"files": spec_files}


# --- search: reproduction rows -----------------------------------------------

# Every default row except multipartite-ar: that row alone takes ~45 s (the
# K_{2,2,3}@16 witness search), longer than the rest of a search pass.
REPRO_ROWS = [
    "es-values-1-6",
    "es-7",
    "dss-unique-4-within-7",
    "dss-two-5-within-13",
    "star-index",
    "bistars",
    "complete-2-5",
    "complete-6-ingredients",
    "bipartite-cover-none",
    "bipartite-cover-exists",
    "bipartite-ar",
    "multipartite-3-3-3",
    "wheel-labelings",
    "wheel-index",
    "wheels-ar",
]
# The ingredients row reports skipped-budget by design when its facts hold.
REPRO_STATUS = {row: "match" for row in REPRO_ROWS} | {"complete-6-ingredients": "skipped-budget"}
# Published ES(n - 1), the largest label of the W_n construction.
WHEEL_TOP = {6: 13, 7: 24, 8: 44, 9: 84, 10: 161}

# --- verify -----------------------------------------------------------------

SET_CHECKS = 1800
FILE_CHECKS = 200
SIZES = range(4, 17)
# Memory guard: elements <= 2^22 and at most 16 of them, so no occupancy
# bitmap exceeds 16 * 2^22 = 2^26 bits (8 MiB).  Graph labels stay <= 2^16
# with degree <= 13.
MIN_EXP, MAX_EXP = 4, 22
LABEL_EXP = 16
# One fixed set checked in every pass, whose collision search holds 16 large
# prefix bitmaps (about 38 MB): more than any seeded set needs, so the run's
# peak memory does not depend on which seeded set is heaviest (44-52 MB over
# seeds 601-610 without it).  The first 15 elements, 2^20 - 2^i, are DSS
# (equal-size subsets differ in their powers of two, other sizes by about
# 2^20); the last one collides: (2^20-1) + (2^20-8) = (2^20-4) + (2^20-5).
GUARD_SET = [2**20 - 2**i for i in range(15)] + [2**20 - 5]


def dss_sets(rng: random.Random, count: int) -> list[list[int]]:
    """``count`` sets, sizes 4..16 equally often, element magnitudes
    log-uniform in 2^4..2^22.

    Latin hypercube sampling: an n-set takes one exponent from each of n
    equal strata of [4, 22], and across the sets of one size each stratum's
    offsets are spread evenly.  Every element is still log-uniform, but the
    largest elements, which set the cost of a check, vary little from seed
    to seed, so pass time does not depend on the seed.
    """
    sizes = list(SIZES)
    out = []
    for i, n in enumerate(sizes):
        k_sets = count // len(sizes) + (i < count % len(sizes))
        perms = [rng.sample(range(k_sets), k_sets) for _ in range(n)]
        width = (MAX_EXP - MIN_EXP) / n
        for k in range(k_sets):
            vals: list[int] = []
            for j in range(n):
                v = int(2 ** (MIN_EXP + width * (j + (perms[j][k] + rng.random()) / k_sets)))
                while v in vals:  # neighbouring low strata can floor to one integer
                    v += 1
                vals.append(v)
            rng.shuffle(vals)
            out.append(vals)
    rng.shuffle(out)
    return out


def _random_labeled_graph(rng: random.Random, wide: bool) -> tuple[dict, list[int]]:
    n = rng.randint(6, 14)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    m = rng.randint(n, min(40, len(pairs)))
    edges = rng.sample(pairs, m)
    if wide:
        labels: set[int] = set()
        while len(labels) < m:
            labels.add(int(2 ** rng.uniform(0, LABEL_EXP)))
        labs = list(labels)
        rng.shuffle(labs)
    else:
        labs = rng.sample(range(1, 2 * m + 1), m)
    return {"vertices": n, "edges": [list(e) for e in edges]}, labs


def _generate_verify(seed: int, inputs: Path) -> dict:
    rng = random.Random(seed)
    sets = dss_sets(rng, SET_CHECKS) + [GUARD_SET]
    files = []
    for i in range(FILE_CHECKS):
        doc, labs = _random_labeled_graph(rng, wide=i % 2 == 0)
        # Labels are aligned to the canonical (sorted) edge order.
        gpath, lpath = inputs / f"g{i}.json", inputs / f"l{i}.json"
        gpath.write_text(json.dumps(doc))
        lpath.write_text(json.dumps({"labels": labs}))
        expect = oracle.check_labeling(doc["vertices"], doc["edges"], labs) is None
        files.append({"graph": gpath.name, "labeling": lpath.name, "ok": expect, **doc, "labels": labs})
    return {
        "sets": sets,
        "dss": [oracle.naive_is_dss(s) for s in sets],
        "files": files,
    }


def generate(workload: str, seed: int, inputs: Path) -> dict:
    """Write the workload's inputs for ``seed`` under ``inputs``; return the spec."""
    inputs.mkdir(parents=True, exist_ok=True)
    if workload == "search":
        spec = _generate_refute(seed, inputs)
    else:
        spec = _generate_verify(seed, inputs)
    (inputs / "spec.json").write_text(json.dumps(spec))
    return spec


# --- set-up -----------------------------------------------------------------


def prepare(workload: str, inputs: Path) -> dict:
    """Build or parse the workload's Graph inputs (the timed set-up)."""
    import arlabel as al

    graphs = {}
    if workload == "search":
        for instance, _, family, _ in CANONICAL:
            graphs[instance] = build_family(al, family)
    for path in sorted(inputs.glob("g*.json")):
        graphs[path.name] = al.load_graph(path)
    return graphs


# --- operations ---------------------------------------------------------------


@dataclass
class Op:
    instance: str
    call: Callable[[], object]
    digest: Callable[[object], object]
    check: Callable[[object], str | None]
    # Exact search counts, which must repeat from pass to pass.
    counts: Callable[[object], dict] | None = None


def _ari_digest(lb: int):
    def digest(res) -> dict:
        return {
            "status": res.status,
            "value": res.lower,
            "labels": None if res.witness is None else list(res.witness.labels),
            "nodes": res.stats.nodes,
            "prunes": res.stats.occupancy_prunes,
            "k_steps": res.lower - lb + 1,
        }

    return digest


def _ari_check(vertices: int, edges, expect: int):
    def check(d: dict) -> str | None:
        if d["status"] != "exact" or d["value"] != expect:
            return f"ARI {d['status']} {d['value']}, expected exact {expect}"
        return oracle.check_labeling(vertices, edges, d["labels"], top=expect)

    return check


def _search_counts(d: dict) -> dict:
    return {"nodes": d["nodes"], "prunes": d["prunes"], "k_steps": d["k_steps"]}


def _refute_ops(graphs: dict, spec: dict, inputs: Path) -> list[Op]:
    from arlabel import graphs as gmod
    from arlabel import solver

    ops = []
    for instance, kind, family, k in CANONICAL:
        g = graphs[instance]
        n, edges = family_edges(family)
        if kind == "find":
            ops.append(
                Op(
                    instance,
                    lambda g=g, k=k: solver.find_ar_labeling(g, k),
                    lambda out: {
                        "found": out.labeling is not None,
                        "exhausted": out.exhausted,
                        "nodes": out.stats.nodes,
                        "prunes": out.stats.occupancy_prunes,
                        "k_steps": 1,
                    },
                    lambda d: None
                    if (not d["found"] and d["exhausted"])
                    else "K_6 at 15 not refuted exhaustively",
                    _search_counts,
                )
            )
        else:
            ops.append(
                Op(
                    instance,
                    lambda g=g: solver.ari(g),
                    _ari_digest(solver.ari_lower_bound(g)),
                    _ari_check(n, edges, oracle.ARI_VALUES[family]),
                    _search_counts,
                )
            )
    for f in spec["files"]:
        path = inputs / f["path"]
        ops.append(
            Op(
                f["instance"],
                lambda path=path: solver.ari(gmod.load_graph(path)),
                _ari_digest(solver.ari_lower_bound(graphs[f["path"]])),
                _ari_check(f["vertices"], f["edges"], oracle.ARI_VALUES[f["family"]]),
                _search_counts,
            )
        )
    return ops


def _check_artifact(row: str, art: dict) -> str | None:
    """Re-verify the witnesses a reproduction row reports."""
    errors: list[str | None] = []
    if row == "es-values-1-6":
        errors += [oracle.check_es(int(n), max(w), w) for n, w in art["witnesses"].items()]
    elif row == "es-7":
        errors.append(oracle.check_es(7, max(art["witness"]), art["witness"]))
    elif row == "dss-unique-4-within-7":
        errors.append(oracle.check_enumeration(4, 7, art["sets"]))
    elif row == "dss-two-5-within-13":
        errors.append(oracle.check_enumeration(5, 13, art["sets"]))
    elif row == "star-index":
        for n, labels in art["witnesses"].items():
            edges = [(0, i) for i in range(1, int(n) + 1)]
            errors.append(oracle.check_labeling(int(n) + 1, edges, labels, oracle.ES_VALUES[int(n)]))
    elif row == "bistars":
        n, edges = oracle.bistar_edges(3, 3)
        errors.append(oracle.check_labeling(n, edges, art["witness_B33"], top=8))
    elif row == "complete-2-5":
        for n, labels in art["witnesses"].items():
            edges = oracle.complete_edges(int(n))
            errors.append(oracle.check_labeling(int(n), edges, labels, top=len(edges)))
    elif row in ("bipartite-cover-none", "bipartite-cover-exists"):
        for key, cover in art.items():
            m, n = (int(x) for x in key.split("x"))
            errors.append(oracle.check_cover(m, n, None if cover == "no cover" else cover))
    elif row == "bipartite-ar":
        for name, labels in art["witnesses"].items():
            n, edges = family_edges(name)
            errors.append(oracle.check_labeling(n, edges, labels, top=len(edges)))
    elif row == "wheel-labelings":
        for key, rec in art.items():
            n = int(key[1:])
            errors.append(oracle.check_labeling(n, oracle.wheel_edges(n), rec["labels"], WHEEL_TOP[n]))
    return next((e for e in errors if e), None)


def _repro_check(d: dict) -> str | None:
    if [r["claim"] for r in d["rows"]] != REPRO_ROWS:
        return "reproduction ran other rows than requested"
    for r in d["rows"]:
        if r["status"] != REPRO_STATUS[r["claim"]]:
            return f"{r['claim']}: {r['status']}, expected {REPRO_STATUS[r['claim']]}"
        err = _check_artifact(r["claim"], r["artifact"])
        if err:
            return f"{r['claim']}: {err}"
    return None


def _reproduce_ops() -> list[Op]:
    from arlabel import reproduce

    return [
        Op(
            "run_reproduction",
            lambda: reproduce.run_reproduction(only=set(REPRO_ROWS)),
            lambda report: {"rows": [row.as_dict() for row in report.rows]},
            _repro_check,
        )
    ]


def _collision_check(values, dss: bool):
    def check(d) -> str | None:
        if dss:
            return None if d is None else f"{values}: DSS, but a collision was reported"
        if d is None:
            return f"{values}: not DSS, but reported DSS"
        return oracle.check_collision(values, d)

    return check


def _verdict_check(f: dict):
    def check(d) -> str | None:
        ok, vertex, a, b = d
        if ok != f["ok"]:
            return f"{f['graph']}: verdict {ok}, expected {f['ok']}"
        if ok:
            return None
        if vertex is None:
            return f"{f['graph']}: injective labeling reported as duplicated"
        canon = oracle.canonical_edges(f["vertices"], f["edges"])
        labels = dict(zip(canon, f["labels"]))
        for e in a + b:
            if vertex not in canon[e]:
                return f"{f['graph']}: edge {e} is not incident to vertex {vertex}"
        sums = [sum(labels[canon[e]] for e in s) for s in (a, b)]
        if not a or not b or set(a) & set(b) or sums[0] != sums[1]:
            return f"{f['graph']}: collision certificate {a} / {b} rejected"
        return None

    return check


def _verdict_digest(verdict):
    f = verdict.failure
    if f is None or not hasattr(f, "vertex"):
        return (verdict.ok, None, (), ())
    return (verdict.ok, f.vertex, tuple(f.subset_a), tuple(f.subset_b))


def _check_set(dss, values):
    if dss.is_dss(values):
        return None
    return dss.subset_sum_collision(values)


def _verify_ops(spec: dict, inputs: Path) -> list[Op]:
    from arlabel import check, dss

    ops = []
    for i, (values, is_dss) in enumerate(zip(spec["sets"], spec["dss"])):
        ops.append(
            Op(
                f"set:{i}",
                lambda v=values: _check_set(dss, v),
                lambda out: out,
                _collision_check(values, is_dss),
            )
        )
    for f in spec["files"]:
        gpath, lpath = inputs / f["graph"], inputs / f["labeling"]
        ops.append(
            Op(
                f"file:{f['graph']}",
                lambda g=gpath, l=lpath: check.verify_files(g, l),
                _verdict_digest,
                _verdict_check(f),
            )
        )
    return ops


def make_ops(workload: str, graphs: dict, inputs: Path) -> list[Op]:
    """The operations of one pass, in order, over the prepared inputs."""
    spec = json.loads((inputs / "spec.json").read_text())
    if workload == "search":
        return _refute_ops(graphs, spec, inputs) + _reproduce_ops()
    return _verify_ops(spec, inputs)
