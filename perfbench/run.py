"""arlabel benchmark: one workload, one client, closed loop.

Usage (from the repository root):

    python3 perfbench/run.py --workload search --seed 1 --seconds 45 --trace 0

Workloads: search, verify (see NOTES.md for why each).  The run generates
the workload's inputs from the seed, then runs whole passes over the
workload, each operation starting only after the previous one returned, and
stops at the pass boundary nearest to ``--seconds`` (at least two passes).
Set-up is timed in fresh interpreters, half of them before the passes and
half after.  Every answer is checked by the independent oracle as soon as
its call returns, outside the timed region, and dropped before the next
call; ``wall_s`` is the sum of the calls' own times.

``--trace 0`` reports end-to-end metrics from untraced passes.  ``--trace 1``
alternates untraced and traced passes and reports per-layer metrics from the
traced ones, plus the tracing overhead.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  The exit code
is 0 only when every answer was right.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# Fresh interpreters timed per run, half before the passes and half after,
# so that set-up is sampled across the run rather than at one moment.
SETUP_PROBES = 30

perf = time.perf_counter


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def environment(seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read without running git; None outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def time_setup(workload: str, inputs: Path, probes: int) -> tuple[list[float], list[float]]:
    """Set-up and import times, each from its own fresh interpreter."""
    setup, imports = [], []
    for _ in range(probes):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(inputs)],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
        setup.append(rec["setup_s"])
        imports.append(rec["import_s"])
    return setup, imports


def fingerprint(digest) -> bytes:
    """SHA-256 of a digest's repr, item by item for a list, so that no
    string the size of a large answer is built."""
    h = hashlib.sha256()
    for item in digest if isinstance(digest, list) else [digest]:
        h.update(repr(item).encode())
        h.update(b"\n")
    return h.digest()


class Checker:
    """Oracle check of every answer.  An answer whose digest repeats the
    first verified one for its operation is not checked again; only the
    first one's fingerprint is kept."""

    def __init__(self, ops) -> None:
        self.ops = ops
        self.first: list[bytes | None] = [None] * len(ops)
        self.counts: list[dict | None] = [None] * len(ops)
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, i: int, out, err: str | None) -> None:
        op = self.ops[i]
        self.attempted += 1
        if err is None:
            try:
                d = op.digest(out)
                fp = fingerprint(d)
                if fp != self.first[i]:
                    err = op.check(d)
                if err is None and op.counts is not None:
                    counts = op.counts(d)
                    if self.counts[i] is None:
                        self.counts[i] = counts
                    elif counts != self.counts[i]:
                        err = f"search counts did not repeat: {counts} vs {self.counts[i]}"
                if err is None and self.first[i] is None:
                    self.first[i] = fp
            except Exception as exc:  # a malformed answer is a failure
                err = f"unreadable answer: {type(exc).__name__}: {exc}"
        if err is not None:
            self.failures.append(f"{op.instance}: {err}")


class Pass:
    def __init__(self, traced: bool) -> None:
        self.traced = traced
        self.latencies: list[float] = []
        self.span_range = (0, 0)

    @property
    def wall(self) -> float:
        """Time of the pass's operations; the checks between them are not counted."""
        return sum(self.latencies)


def timed_call(op) -> tuple[object, str | None, float]:
    t = perf()
    try:
        out, err = op.call(), None
    except Exception as exc:  # a failed operation is counted, not fatal
        out, err = None, f"{type(exc).__name__}: {exc}"
    return out, err, perf() - t


def run_pass(ops, tracer, checker: Checker, traced: bool) -> Pass:
    """One pass over the operations.  Each answer is checked as soon as its
    call returns, outside the timed region, and dropped before the next call,
    so the process never holds more than one operation's output."""
    p = Pass(traced)
    first_span = len(tracer.spans) if traced else 0
    if traced:
        tracer.install()
    try:
        for i, op in enumerate(ops):
            if traced:
                tracer.instance = op.instance
                span = tracer.open("op")
            result = timed_call(op)
            if traced:
                tracer.close(span)
            p.latencies.append(result[2])
            checker.check(i, result[0], result[1])
            del result
    finally:
        if traced:
            tracer.uninstall()
            tracer.instance = None
    p.span_range = (first_span, len(tracer.spans) if traced else 0)
    return p


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(untraced: list[Pass], setup: list[float]) -> dict[str, tuple[float, str]]:
    return {
        "wall_s": (statistics.median(p.wall for p in untraced), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def check_rates(untraced: list[Pass]) -> dict[str, float]:
    """Checks per second, and median and 99th-percentile latency of one check."""
    lats = [x for p in untraced for x in p.latencies]
    q = statistics.quantiles(lats, n=100, method="inclusive")
    return {
        "checks_per_s": len(lats) / sum(p.wall for p in untraced),
        "check_p50_us": q[49] * 1e6,
        "check_p99_us": q[98] * 1e6,
        "samples": len(lats),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "arlabel" / "__init__.py").is_file():
        print(f"error: no arlabel sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(1, str(HERE))
    import layers
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    inputs = OUT / f"inputs-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        workloads.generate(args.workload, args.seed, inputs)
        import arlabel.cli  # noqa: F401  (compiles the package before the probes)

        graphs = workloads.prepare(args.workload, inputs)
        setup, imports = time_setup(args.workload, inputs, SETUP_PROBES // 2)
        ops = workloads.make_ops(args.workload, graphs, inputs)
        tracer = tracing.Tracer()
        checker = Checker(ops)
        passes: list[Pass] = []
        ready_rss_mb = peak_rss_mb()
        start = perf()
        while True:
            traced = bool(args.trace) and sum(p.traced for p in passes) < sum(not p.traced for p in passes)
            p = run_pass(ops, tracer, checker, traced)
            passes.append(p)
            elapsed = perf() - start
            # Stop at the pass boundary nearest to --seconds.
            if len(passes) >= 2 and elapsed + elapsed / len(passes) / 2 >= args.seconds:
                break
        later = time_setup(args.workload, inputs, SETUP_PROBES - SETUP_PROBES // 2)
        setup += later[0]
        imports += later[1]
    finally:
        shutil.rmtree(inputs, ignore_errors=True)

    untraced = [p for p in passes if not p.traced]
    e2e = end_to_end(untraced, setup)
    counts = {op.instance: c for op, c in zip(ops, checker.counts) if c is not None}
    changes = layers.tree_changes(counts)
    failed, attempted = len(checker.failures), checker.attempted
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "env": environment(args.seed),
        "untraced_wall_s": [p.wall for p in untraced],
        "traced_wall_s": [p.wall for p in passes if p.traced],
        "setup_s": setup,
        "import_s": imports,
        "end_to_end": {k: v for k, (v, _) in e2e.items()},
        "ready_rss_mb": ready_rss_mb,
        "attempted": attempted,
        "failed": failed,
        "counts": counts,
        "tree_size_changes": changes,
        "failures": checker.failures,
    }
    if args.workload == "verify":
        record["checks"] = check_rates(untraced)
    if args.trace:
        per_layer = layers.per_layer(tracer, passes, imports, record.get("checks"))
        record["per_layer"] = {k: v for k, (v, _) in per_layer.items()}
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json")
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )

    env = record["env"]
    print(
        f"workload {args.workload}  seed {args.seed}  python {env['python']}  nproc {env['nproc']}"
        f"  commit {env['commit'] or 'unknown'}  src {env['src_sha256'][:12]}"
    )
    q1, med, q3 = quartiles(record["untraced_wall_s"])
    print(f"untraced passes {len(untraced)}: wall_s median {med:.4f} s, quartiles {q1:.4f} .. {q3:.4f}")
    print(f"  {'fail_ratio':<14} {failed / attempted:16.6f} ({failed} of {attempted} operations)")
    for name, (value, unit) in e2e.items():
        print(f"  {name:<14} {value:16.6f} {unit}")
    print(f"  {'':<14} {ready_rss_mb:16.6f} MB of the peak reached before the first pass")
    if "checks" in record:
        c = record["checks"]
        print(f"  {'checks_per_s':<14} {c['checks_per_s']:16.6f} 1/s")
        print(f"  {'check_p50_us':<14} {c['check_p50_us']:16.3f} us")
        print(f"  {'check_p99_us':<14} {c['check_p99_us']:16.3f} us ({c['samples']} checks, {c['samples'] // 100} beyond p99)")
    for instance, c in counts.items():
        print(f"  counts {instance}: nodes {c['nodes']:,}, occupancy prunes {c['prunes']:,}, k steps {c['k_steps']}")
    for line in changes:
        print(f"  tree size changed: {line}")
    for line in checker.failures[:20]:
        print(f"  FAILED {line}")
    if args.trace:
        for name, (value, unit) in per_layer.items():
            print(f"  {name:<40} {value:16.6f} {unit}")
    metrics = per_layer if args.trace else e2e
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
