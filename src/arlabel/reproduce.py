"""Reproduction harness: re-derive every published claim as machine-checked rows.

Each claim row records the published verdict, the verdict computed by this
package, and whether they match.  Every computed verdict is backed by a
re-verifiable artifact (a witness labeling, a cover, or a refutation log);
heavy rows run only when requested and otherwise report skipped-budget.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Iterable

from .dss import DssSet, enumerate_dss_sets
from .errors import SearchTimeout
from .es import KNOWN_ES, EsRecord, es
from .graphs import (
    Graph,
    bistar,
    complete,
    complete_bipartite,
    complete_multipartite,
    star,
    wheel,
)
from .solver import (
    AriResult,
    SearchConfig,
    SearchOutcome,
    ari,
    ari_lower_bound,
    counting_prune,
    disjoint_dss_cover,
    find_ar_labeling,
    label_wheel,
)

MATCH = "match"
MISMATCH = "mismatch"
SKIPPED = "skipped-budget"


@dataclass
class ClaimRow:
    claim_id: str
    claimed: str
    computed: str
    status: str  # MATCH | MISMATCH | SKIPPED
    seconds: float
    artifact: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "claim": self.claim_id,
            "claimed": self.claimed,
            "computed": self.computed,
            "status": self.status,
            "seconds": round(self.seconds, 3),
            "artifact": self.artifact,
        }


@dataclass
class ReproReport:
    rows: list[ClaimRow]
    include_heavy: bool

    def ok(self) -> bool:
        return all(row.status != MISMATCH for row in self.rows)

    def as_dict(self) -> dict:
        return {
            "include_heavy": self.include_heavy,
            "ok": self.ok(),
            "rows": [row.as_dict() for row in self.rows],
        }

    def render_text(self) -> str:
        width = max(len(r.claim_id) for r in self.rows)
        lines = [f"{'claim':<{width}}  {'status':<15} time     computed"]
        for r in self.rows:
            lines.append(
                f"{r.claim_id:<{width}}  {r.status:<15} {r.seconds:7.2f}s {r.computed}"
            )
        verdict = "all claims reproduced" if self.ok() else "MISMATCH present"
        lines.append(f"-- {verdict} ({len(self.rows)} rows)")
        return "\n".join(lines)

    def write(self, out_dir: str | Path) -> None:
        """Persist the machine-readable report and per-row artifacts."""
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.json").write_text(json.dumps(self.as_dict(), indent=2) + "\n")
        (out / "report.txt").write_text(self.render_text() + "\n")


# runner(deadline, artifact) -> (computed text, ok or None for skipped).  The
# runner fills ``artifact`` in place, so a row whose deadline passes keeps
# what it built so far.
Runner = Callable[[float, dict], tuple[str, bool | None]]


@dataclass(frozen=True)
class _Claim:
    claim_id: str
    claimed: str
    budget_s: float
    runner: Runner
    heavy: bool = False


class _Expired(Exception):
    """The row's deadline passed before ``args[0]`` was decided."""


def _budget(deadline: float, item: str) -> SearchConfig:
    """The time left to the row's deadline, as the budget of the search
    that decides ``item``; raises _Expired once no time is left."""
    left = deadline - time.monotonic()
    if left <= 0:
        raise _Expired(item)
    return SearchConfig(budget_s=left)


def _es(n: int, deadline: float) -> EsRecord:
    rec = es(n, _budget(deadline, f"n={n}").budget_s)
    if rec.value is None:
        raise _Expired(f"n={n}: bound-only interval [{rec.lower}, {rec.upper}]")
    return rec


def _ar_search(g: Graph, deadline: float) -> SearchOutcome:
    """The search for an AR-labeling of g within {1..m(g)}, run to a
    witness or an exhausted refutation."""
    out = find_ar_labeling(g, g.edge_count(), _budget(deadline, g.name))
    if not out.exhausted:
        raise _Expired(g.name)
    return out


def _ari(g: Graph, deadline: float) -> AriResult:
    res = ari(g, _budget(deadline, g.name))
    if res.value is None:
        raise _Expired(g.name)
    return res


def _cover(m: int, n: int, deadline: float) -> list[DssSet] | None:
    try:
        return disjoint_dss_cover(m, n, deadline)
    except SearchTimeout:
        raise _Expired(f"({m},{n})") from None


def _dss_sets(size: int, cap: int, deadline: float) -> list[DssSet]:
    try:
        return enumerate_dss_sets(size, cap, deadline)
    except SearchTimeout:
        raise _Expired(f"{size}-element DSS sets within {{1..{cap}}}") from None


def _run_es_small(deadline: float, artifact: dict) -> tuple[str, bool | None]:
    witnesses = artifact["witnesses"] = {}
    values = []
    for n in range(1, 7):
        rec = _es(n, deadline)
        values.append(rec.value)
        witnesses[n] = list(rec.witness.elements)
    computed = ", ".join(map(str, values))
    return (f"ES(1..6) = {computed}", values == [KNOWN_ES[n] for n in range(1, 7)])


def _run_es_exact(deadline: float, artifact: dict, *, n: int) -> tuple[str, bool | None]:
    rec = _es(n, deadline)
    artifact["witness"] = list(rec.witness.elements)
    return (f"ES({n}) = {rec.value}", rec.value == KNOWN_ES[n])


def _run_enum_unique(deadline: float, artifact: dict) -> tuple[str, bool | None]:
    sets = _dss_sets(4, 7, deadline)
    artifact["sets"] = [list(s.elements) for s in sets]
    ok = len(sets) == 1 and sets[0].elements == (3, 5, 6, 7)
    return (
        f"{len(sets)} four-element DSS set(s) within {{1..7}}: "
        + ", ".join(map(str, artifact["sets"])),
        ok,
    )


def _five_within_13(deadline: float) -> tuple[list[list[int]], list[int]]:
    """The five-element DSS sets within {1..13}, and the elements all of
    them share."""
    sets = [list(s.elements) for s in _dss_sets(5, 13, deadline)]
    return sets, sorted(set.intersection(*map(set, sets)))


def _run_enum_pair(deadline: float, artifact: dict) -> tuple[str, bool | None]:
    sets, shared = _five_within_13(deadline)
    artifact.update(sets=sets, shared=shared)
    return (
        f"{len(sets)} five-element DSS sets within {{1..13}}, {len(shared)} shared elements",
        len(sets) == 2 and len(shared) == 4,
    )


def _run_star_ari(deadline: float, artifact: dict) -> tuple[str, bool | None]:
    witnesses = artifact["witnesses"] = {}
    values = {}
    for n in range(1, 6):
        res = _ari(star(n), deadline)
        values[n] = res.value
        witnesses[n] = list(res.witness.labels)
    # K_{1,n} has n edges, so it is an AR-graph exactly when ARI(K_{1,n}) = n.
    is_ar = artifact["is_ar_3_4_5"] = {n: values[n] == n for n in (3, 4, 5)}
    ok = values == {n: KNOWN_ES[n] for n in range(1, 6)} and not any(is_ar.values())
    computed = ", ".join(f"ARI(K_{{1,{n}}})={values[n]}" for n in range(1, 6))
    return (computed + "; none of n=3..5 is an AR-graph", ok)


def _run_bistars(deadline: float, artifact: dict) -> tuple[str, bool | None]:
    ar = artifact["ar"] = {}
    for a in range(1, 5):
        ar[f"B{a}{a}"] = _ar_search(bistar(a, a), deadline).labeling is not None
    res33 = _ari(bistar(3, 3), deadline)
    artifact["ari_B33"] = res33.value
    artifact["witness_B33"] = list(res33.witness.labels)
    ok = ar == {"B11": True, "B22": True, "B33": False, "B44": False} and res33.value == 8
    return (
        f"B11 AR={ar['B11']}, B22 AR={ar['B22']}, B33 AR={ar['B33']} with "
        f"ARI={res33.value}, B44 AR={ar['B44']}",
        ok,
    )


def _run_complete_six(deadline: float, artifact: dict) -> tuple[str, bool | None]:
    out = _ar_search(complete(6), deadline)  # label budget 15 = m(K_6)
    if out.labeling is not None:
        artifact["labels"] = list(out.labeling.labels)
        return ("found an AR-labeling of K_6", False)
    artifact["search"] = asdict(out.stats)
    return ("label budget 15 refuted exhaustively", True)


def _run_complete_six_ingredients(deadline: float, artifact: dict) -> tuple[str, bool | None]:
    # The ingredients of the K_6 argument: the five-element enumeration
    # facts plus the counting screen (which alone does not refute budget
    # 15, showing the deeper argument is needed).  When they hold the row
    # is skipped, not matched: they do not decide K_6.
    sets, shared = _five_within_13(deadline)
    survives = counting_prune(complete(6), 15)
    artifact.update(five_element_sets_max13=sets, shared=shared, counting_survives_15=survives)
    computed = (
        "ingredients only: 2 five-element sets sharing 4 elements; "
        "counting screen alone does not refute 15"
    )
    return (computed, None if len(sets) == 2 and len(shared) == 4 and survives else False)


def _run_cover_none(
    deadline: float, artifact: dict, *, pairs: list[tuple[int, int]]
) -> tuple[str, bool | None]:
    parts = []
    for m, n in pairs:
        cover = _cover(m, n, deadline)
        artifact[f"{m}x{n}"] = [list(s.elements) for s in cover] if cover else "no cover"
        parts.append(f"({m},{n}) cover {'found' if cover else 'none'}")
    return ("; ".join(parts), all(v == "no cover" for v in artifact.values()))


def _run_cover_exists(
    deadline: float, artifact: dict, *, pairs: list[tuple[int, int]]
) -> tuple[str, bool | None]:
    parts = []
    for m, n in pairs:
        cover = _cover(m, n, deadline)
        if cover:
            artifact[f"{m}x{n}"] = [list(s.elements) for s in cover]
        parts.append(f"({m},{n}) {'found' if cover else 'none'}")
    return ("; ".join(parts), len(artifact) == len(pairs))  # a cover for each pair


def _run_ar_family(
    deadline: float, artifact: dict, *, graphs: list[Graph], keys: Iterable | None = None
) -> tuple[str, bool | None]:
    """Every graph is an AR-graph; witnesses are keyed by ``keys``, or by
    the graphs' names."""
    witnesses = artifact["witnesses"] = {}
    parts = []
    for key, g in zip(keys or [g.name for g in graphs], graphs):
        out = _ar_search(g, deadline)
        if out.labeling is not None:
            witnesses[key] = list(out.labeling.labels)
        else:
            witnesses[key] = {"refuted": asdict(out.stats)}
        parts.append(f"{g.name} AR={out.labeling is not None}")
    return ("; ".join(parts), all(isinstance(w, list) for w in witnesses.values()))


def _run_multipartite_prune(deadline: float, artifact: dict) -> tuple[str, bool | None]:
    g = complete_multipartite([3, 3, 3])
    refuted = not counting_prune(g, 27)
    survives_28 = counting_prune(g, 28)
    lb = ari_lower_bound(g)
    artifact.update(refuted_at_27=refuted, survives_28=survives_28, lower_bound=lb)
    return (
        f"counting argument refutes budget 27 (next surviving budget {lb})",
        refuted and survives_28 and lb == 28,
    )


def _run_wheel_labelings(deadline: float, artifact: dict) -> tuple[str, bool | None]:
    # label_wheel returns only a labeling it has verified.
    parts = []
    ok = True
    for n in range(6, 11):
        labeling = label_wheel(n)
        top = max(labeling.labels)
        artifact[f"W{n}"] = {"labels": list(labeling.labels), "max": top}
        parts.append(f"W_{n} max={top}")
        ok &= top == KNOWN_ES[n - 1]
    return ("; ".join(parts), ok)


def _run_wheel_ari(deadline: float, artifact: dict) -> tuple[str, bool | None]:
    # Upper witness from the construction, matching lower bound from the
    # degree argument: together they pin the index without a full search.
    parts = []
    ok = True
    for n in range(6, 11):
        top = max(label_wheel(n).labels)
        lb = ari_lower_bound(wheel(n))
        artifact[f"W{n}"] = {"lower_bound": lb, "witness_max": top}
        parts.append(f"ARI(W_{n})={top}")
        ok &= lb == top == KNOWN_ES[n - 1]
    return ("; ".join(parts), ok)


def _run_wheels_ar(deadline: float, artifact: dict) -> tuple[str, bool | None]:
    for n in (4, 5, 6):
        artifact[f"W{n}"] = _ar_search(wheel(n), deadline).labeling is not None
    ok = artifact == {"W4": True, "W5": True, "W6": False}
    return (f"W_4 AR={artifact['W4']}, W_5 AR={artifact['W5']}, W_6 AR={artifact['W6']}", ok)


def _claims() -> list[_Claim]:
    return [
        _Claim("es-values-1-6", "ES(1..6) = 1, 2, 4, 7, 13, 24", 120, _run_es_small),
        _Claim("es-7", "ES(7) = 44", 300, partial(_run_es_exact, n=7)),
        _Claim("es-8", "ES(8) = 84", 3600, partial(_run_es_exact, n=8), heavy=True),
        _Claim(
            "dss-unique-4-within-7",
            "exactly one 4-element DSS set within {1..7}, namely {3,5,6,7}",
            10,
            _run_enum_unique,
        ),
        _Claim(
            "dss-two-5-within-13",
            "exactly two 5-element DSS sets within {1..13}, sharing four elements",
            10,
            _run_enum_pair,
        ),
        _Claim(
            "star-index",
            "ARI(K_{1,n}) = ES(n) for n = 1..5; stars with n > 2 are not AR-graphs",
            120,
            _run_star_ari,
        ),
        _Claim(
            "bistars",
            "B_{1,1} and B_{2,2} are AR; B_{3,3} is almost AR with index 8; B_{4,4} is not AR",
            300,
            _run_bistars,
        ),
        _Claim(
            "complete-2-5",
            "K_2 .. K_5 are AR-graphs",
            600,
            partial(_run_ar_family, graphs=[complete(n) for n in range(2, 6)], keys=range(2, 6)),
        ),
        _Claim("complete-6", "K_6 is not an AR-graph", 7200, _run_complete_six, heavy=True),
        _Claim(
            "complete-6-ingredients",
            "K_6 refutation ingredients hold (five-element set facts, counting screen)",
            60,
            _run_complete_six_ingredients,
        ),
        _Claim(
            "bipartite-cover-none",
            "no disjoint DSS cover for (3,5), (4,6), (5,6)",
            1800,
            partial(_run_cover_none, pairs=[(3, 5), (4, 6), (5, 6)]),
        ),
        _Claim(
            "bipartite-cover-6-6",
            "no disjoint DSS cover for (6,6)",
            1800,
            partial(_run_cover_none, pairs=[(6, 6)]),
            heavy=True,
        ),
        _Claim(
            "bipartite-cover-exists",
            "disjoint DSS covers exist for (2,2), (2,3), (2,4), (3,3), (3,4)",
            600,
            partial(_run_cover_exists, pairs=[(2, 2), (2, 3), (2, 4), (3, 3), (3, 4)]),
        ),
        _Claim(
            "bipartite-ar",
            "K_{2,2}, K_{2,3}, K_{2,4}, K_{3,3}, K_{3,4} are AR-graphs",
            1800,
            partial(
                _run_ar_family,
                graphs=[
                    complete_bipartite(2, 2),
                    complete_bipartite(2, 3),
                    complete_bipartite(2, 4),
                    complete_bipartite(3, 3),
                    complete_bipartite(3, 4),
                ],
            ),
        ),
        _Claim(
            "bipartite-ar-stretch",
            "K_{4,4}, K_{4,5}, K_{5,5} are AR-graphs",
            5400,
            partial(
                _run_ar_family,
                graphs=[
                    complete_bipartite(4, 4),
                    complete_bipartite(4, 5),
                    complete_bipartite(5, 5),
                ],
            ),
            heavy=True,
        ),
        _Claim(
            "multipartite-ar",
            "K_{2,2,2} and K_{2,2,3} are AR-graphs",
            1800,
            partial(
                _run_ar_family,
                graphs=[complete_multipartite([2, 2, 2]), complete_multipartite([2, 2, 3])],
            ),
        ),
        _Claim(
            "multipartite-3-3-3",
            "the counting argument refutes label budget 27 for K_{3,3,3}",
            60,
            _run_multipartite_prune,
        ),
        _Claim(
            "wheel-labelings",
            "W_n has a verified AR-labeling with maximum label ES(n-1), n = 6..10",
            900,
            _run_wheel_labelings,
        ),
        _Claim("wheel-index", "ARI(W_n) = ES(n-1) for n = 6..10", 900, _run_wheel_ari),
        _Claim("wheels-ar", "the only AR-wheels are W_4 and W_5", 300, _run_wheels_ar),
    ]


def run_reproduction(
    include_heavy: bool = False,
    budget_override_s: float | None = None,
    only: set[str] | None = None,
) -> ReproReport:
    """Run every claim row; heavy rows are skipped unless requested.

    A row's budget (``budget_override_s`` when given) sets one deadline for
    all of its searches: each is given the time left.  A row whose deadline
    passes reads skipped-budget, "budget expired at <item>", and keeps the
    artifact built so far.  ``only`` restricts the run to the named claim
    ids (mainly for tests).
    """
    rows = []
    for claim in _claims():
        if only is not None and claim.claim_id not in only:
            continue
        if claim.heavy and not include_heavy:
            rows.append(ClaimRow(claim.claim_id, claim.claimed, "not attempted", SKIPPED, 0.0))
            continue
        if claim.claim_id == "complete-6-ingredients" and include_heavy:
            continue  # superseded by the full refutation row
        budget = budget_override_s if budget_override_s is not None else claim.budget_s
        t0 = time.perf_counter()
        artifact: dict = {}
        try:
            computed, ok = claim.runner(time.monotonic() + budget, artifact)
        except _Expired as expired:
            computed, ok = f"budget expired at {expired.args[0]}", None
        seconds = time.perf_counter() - t0
        status = SKIPPED if ok is None else MATCH if ok else MISMATCH
        rows.append(ClaimRow(claim.claim_id, claim.claimed, computed, status, seconds, artifact))
    return ReproReport(rows=rows, include_heavy=include_heavy)
