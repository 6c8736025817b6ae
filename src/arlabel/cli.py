"""Command-line surface: thin adapters over the library.

Exit codes: 0 success / all claims match, 1 verification or claim failure,
2 input error (bad arguments, or a missing, unreadable or directory path),
3 budget exhausted.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

from . import __version__
from .graphs import (
    Graph,
    bistar,
    complete,
    complete_bipartite,
    complete_multipartite,
    cycle,
    load_graph,
    path,
    star,
    wheel,
)

OK = 0
FAILED = 1
INPUT_ERROR = 2
BUDGET_EXHAUSTED = 3

_UNITS = {"s": 1.0, "m": 60.0, "h": 3600.0}


def parse_duration(text: str) -> float:
    """Accept plain seconds or a number suffixed with s, m or h, positive
    and finite once in seconds."""
    text = text.strip()
    unit = 1.0
    if text and text[-1] in _UNITS:
        unit = _UNITS[text[-1]]
        text = text[:-1]
    try:
        value = float(text) * unit
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad duration {text!r}") from None
    # NaN fails both tests; "inf", "1e400" and "1e308h" would never expire.
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError("duration must be positive and finite")
    return value


_FAMILIES = {
    "star": (1, lambda a: star(a[0])),
    "bistar": (2, lambda a: bistar(a[0], a[1])),
    "path": (1, lambda a: path(a[0])),
    "cycle": (1, lambda a: cycle(a[0])),
    "complete": (1, lambda a: complete(a[0])),
    "bipartite": (2, lambda a: complete_bipartite(a[0], a[1])),
    "wheel": (1, lambda a: wheel(a[0])),
}


def build_family(spec: list[str]) -> Graph:
    """Parse the family mini-grammar, e.g. ["bistar", "3", "3"]."""
    if not spec:
        raise ValueError("empty family spec")
    name, args = spec[0], spec[1:]
    if name == "multipartite":
        if len(args) != 1:
            raise ValueError("multipartite takes one comma-separated size list")
        sizes = [int(p) for p in args[0].split(",") if p]
        return complete_multipartite(sizes)
    if name not in _FAMILIES:
        raise ValueError(f"unknown family {name!r}")
    arity, build = _FAMILIES[name]
    if len(args) != arity:
        raise ValueError(f"family {name} takes {arity} integer argument(s)")
    return build([int(a) for a in args])


def _emit(args: argparse.Namespace, text: str, machine: dict) -> None:
    """Print per --format; --output always receives the machine-readable form."""
    print(json.dumps(machine, indent=2) if args.format == "machine" else text)
    if getattr(args, "output", None):
        Path(args.output).write_text(json.dumps(machine, indent=2) + "\n")


def cmd_es(args: argparse.Namespace) -> int:
    from .es import BOUND_ONLY, STOPPED_BY_MASK_CAP, es

    rec = es(args.n, budget_s=args.budget)
    machine = {
        "n": rec.n,
        "status": rec.status,
        "lower": rec.lower,
        "upper": rec.upper,
        "value": rec.value,
        "witness": list(rec.witness.elements) if rec.witness else None,
        "nodes": rec.nodes,
        "stopped_by": rec.stopped_by,
    }
    if rec.status == BOUND_ONLY:
        if rec.stopped_by == STOPPED_BY_MASK_CAP:
            why = f"candidate maximum {rec.lower} needs a difference mask above the cap"
        else:
            why = "budget exhausted"
        text = f"ES({rec.n}) in [{rec.lower}, {rec.upper}]  (bound-only: {why})"
        _emit(args, text, machine)
        return BUDGET_EXHAUSTED
    text = f"ES({rec.n}) = {rec.value}\nwitness: {list(rec.witness.elements)}\nstatus: {rec.status}"
    _emit(args, text, machine)
    return OK


def cmd_dss_check(args: argparse.Namespace) -> int:
    from .dss import checked_elements, subset_sum_collision

    ordered = checked_elements(args.elements)
    collision = subset_sum_collision(ordered)
    if collision is None:
        _emit(args, "DSS: all subset sums distinct", {"dss": True, "elements": list(ordered)})
        return OK
    sub_a = [ordered[i] for i in collision[0]]
    sub_b = [ordered[i] for i in collision[1]]
    text = f"not DSS: subsets {sub_a} and {sub_b} share the sum {sum(sub_a)}"
    _emit(args, text, {"dss": False, "collision": [sub_a, sub_b], "sum": sum(sub_a)})
    return FAILED


def cmd_dss_enum(args: argparse.Namespace) -> int:
    from .dss import enumerate_dss_sets

    sets = enumerate_dss_sets(args.size, args.cap)
    lines = [str(list(s.elements)) for s in sets]
    text = "\n".join(lines + [f"-- {len(sets)} set(s)"])
    _emit(args, text, {"size": args.size, "cap": args.cap, "sets": [list(s.elements) for s in sets]})
    return OK


def cmd_verify(args: argparse.Namespace) -> int:
    from .check import verify_files

    verdict = verify_files(args.graph, args.labeling)
    machine: dict = {"ok": verdict.ok, "detail": verdict.describe()}
    _emit(args, verdict.describe(), machine)
    return OK if verdict.ok else FAILED


def cmd_ari(args: argparse.Namespace) -> int:
    from .check import save_labeling
    from .solver import EXACT, SearchConfig, ari

    if args.file:
        g = load_graph(args.file)
    else:
        g = build_family(args.family)
    result = ari(g, SearchConfig(budget_s=args.budget))
    m = g.edge_count()
    machine = {
        "graph": g.name or "graph",
        "edges": m,
        "status": result.status,
        "lower": result.lower,
        "upper": result.upper,
        "value": result.value,
        "witness": list(result.witness.labels) if result.witness else None,
        "search": asdict(result.stats),
    }
    if result.status != EXACT:
        text = (
            f"ARI({g.name or 'graph'}) in [{result.lower}, {result.upper}]"
            f"  (bounds-only: budget exhausted)"
        )
        _emit(args, text, machine)
        return BUDGET_EXHAUSTED
    if result.value == m:
        kind = "AR-graph: yes"
    elif result.value == m + 1:
        kind = "almost AR (index = edge count + 1)"
    else:
        kind = "AR-graph: no"
    text = (
        f"ARI({g.name or 'graph'}) = {result.value}  (exact)\n"
        f"witness: {list(result.witness.labels)}\n"
        f"edges: {m}; {kind}"
    )
    print(json.dumps(machine, indent=2) if args.format == "machine" else text)
    if args.output:
        # The witness goes out in the labeling file format so `verify` can
        # re-check it against the matching graph file.
        save_labeling(result.witness, args.output)
    return OK


def cmd_reproduce(args: argparse.Namespace) -> int:
    from .reproduce import run_reproduction

    report = run_reproduction(
        include_heavy=args.include_heavy,
        budget_override_s=args.budget,
    )
    if args.format == "machine":
        print(json.dumps(report.as_dict(), indent=2))
    else:
        print(report.render_text())
    if args.output:
        report.write(args.output)
    return OK if report.ok() else FAILED


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arlabel",
        description=(
            "Exact search for distinct-subset-sum sets, the ES sequence, and "
            "AR-labelings of graphs."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, *, budget: bool = False) -> None:
        if budget:
            p.add_argument("--budget", type=parse_duration, default=60.0,
                           help="time budget, e.g. 30s, 5m, 2h (default %(default)ss)")
        p.add_argument("--format", choices=("text", "machine"), default="text")
        p.add_argument("--output", help="also write the rendered result to this path")

    p_es = sub.add_parser("es", help="compute ES(n) exactly with a certified witness")
    p_es.add_argument("n", type=int)
    add_common(p_es, budget=True)
    p_es.set_defaults(func=cmd_es)

    p_dss = sub.add_parser("dss", help="DSS checks and enumeration")
    dss_sub = p_dss.add_subparsers(dest="dss_command", required=True)
    p_check = dss_sub.add_parser("check", help="decide the DSS property for a set")
    p_check.add_argument("elements", type=int, nargs="+")
    add_common(p_check)
    p_check.set_defaults(func=cmd_dss_check)
    p_enum = dss_sub.add_parser("enum", help="enumerate DSS sets of a size under a cap")
    p_enum.add_argument("--size", type=int, required=True)
    p_enum.add_argument("--cap", type=int, required=True)
    add_common(p_enum)
    p_enum.set_defaults(func=cmd_dss_enum)

    p_verify = sub.add_parser("verify", help="verify a labeling file against a graph file")
    p_verify.add_argument("graph")
    p_verify.add_argument("labeling")
    add_common(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_ari = sub.add_parser("ari", help="compute the AR-index of a family or graph file")
    p_ari.add_argument(
        "family",
        nargs="*",
        help="family spec: star N | bistar A B | complete N | bipartite M N | "
        "multipartite A,B,C | wheel N | cycle N | path N",
    )
    p_ari.add_argument("--file", help="graph file instead of a family spec")
    add_common(p_ari, budget=True)
    p_ari.set_defaults(func=cmd_ari)

    p_rep = sub.add_parser("reproduce", help="re-derive every published claim as a report")
    p_rep.add_argument("--include-heavy", action="store_true",
                       help="also run the long refutations and stretch witnesses")
    p_rep.add_argument("--budget", type=parse_duration, default=None,
                       help="override the per-claim budget")
    p_rep.add_argument("--format", choices=("text", "machine"), default="text")
    p_rep.add_argument("--output", help="directory for report.json / report.txt")
    p_rep.set_defaults(func=cmd_reproduce)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    if args.command == "ari" and not args.file and not args.family:
        parser.error("ari needs a family spec or --file")
    try:
        return args.func(args)
    except (ValueError, OverflowError, OSError) as exc:  # ParseError is a ValueError
        print(f"input error: {exc}", file=sys.stderr)
        return INPUT_ERROR


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
