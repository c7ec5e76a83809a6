"""Paired A/B runs of the benchmark: a parent revision against the working tree.

The parent revision is exported with ``git archive`` and the working tree
(tracked files and untracked ones that ``.gitignore`` does not exclude) is
copied, into two directories whose names have equal length, so that no path
length differs between the sides.  Then ``perfbench/run.py --trace 0`` runs
in alternating pairs: for each workload, pair k runs seed
``seeds[(k // 2) % len(seeds)]`` on both sides, the parent first when k is
even and the change first when k is odd.  Every run must exit 0 with
``"correct": true``; anything else stops the tool.

For each workload and end-to-end metric it prints the median, q1 and q3 of
each side, the change of the medians, the pairs the change won (in the
metric's direction from ``BENCHMARK.json``) and whether the gap between the
medians exceeds the parent's interquartile range.  With ``--out`` it writes
those rows, the per-run values, the machine line, the seeds and both
revisions as JSON.  ``perfbench/`` and ``BENCHMARK.json`` are read, never
changed.

Run from the root of a checkout:

    python tools/ab_bench.py c95167c --workloads numeric --seeds 1 2 \\
        --pairs 10 --seconds 20 --out BENCH_<n>.json
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("symbolic", "numeric", "certify", "cli")


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout


def export(rev: str, parent: Path, change: Path) -> None:
    """*rev* into *parent* with ``git archive``; the working tree into *change*."""
    parent.mkdir()
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(parent)], input=archive, check=True)
    for name in _git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split("\0"):
        source = ROOT / name
        if name and source.is_file():     # a tracked file deleted in the tree is skipped
            (change / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, change / name)


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict[str, float]:
    """The end-to-end metrics of one untraced run in *checkout*."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else {}
    if not result.get("correct"):
        raise SystemExit(f"ab_bench: {workload} seed {seed} in {checkout} failed "
                         f"(exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), inclusive method; one value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(workload: str, metric: str, better: str, pairs: list[tuple[float, float]]) -> dict:
    parent, change = [p for p, _ in pairs], [c for _, c in pairs]
    (pq1, pmed, pq3), (cq1, cmed, cq3) = quartiles(parent), quartiles(change)
    sign = 1 if better == "higher" else -1
    return {
        "workload": workload, "metric": metric, "better": better,
        "parent": {"median": pmed, "q1": pq1, "q3": pq3},
        "change": {"median": cmed, "q1": cq1, "q3": cq3},
        "change_frac": (cmed - pmed) / pmed if pmed else None,
        "pairs": len(pairs),
        "pairs_won": sum(sign * (c - p) > 0 for p, c in pairs),
        "gap_exceeds_parent_iqr": abs(cmed - pmed) > pq3 - pq1,
    }


def _format(row: dict) -> str:
    sides = [f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}]"
             for s in (row["parent"], row["change"])]
    frac = "" if row["change_frac"] is None else f"{100 * row['change_frac']:+.1f}%"
    won = f"{row['pairs_won']}/{row['pairs']}"
    return (f"{row['workload']:<9} {row['metric']:<16} {sides[0]:<28} {sides[1]:<28} "
            f"{frac:>7} {won:>5}  {'yes' if row['gap_exceeds_parent_iqr'] else 'no'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="the parent revision (any git revision name)")
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--pairs", type=int, default=10, help="pairs of runs per workload")
    parser.add_argument("--seconds", type=float, default=4.0, help="--seconds of each run")
    parser.add_argument("--out", type=Path, help="write the rows and runs as JSON here")
    args = parser.parse_args(argv)
    if args.pairs < 1 or not args.seconds > 0:
        parser.error("--pairs must be at least 1 and --seconds above 0")

    sys.path.insert(0, str(ROOT / "perfbench"))
    import run as perfbench_run

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    revisions = {"parent": _git("rev-parse", args.parent).strip(),
                 "change": _git("rev-parse", "HEAD").strip(),
                 "change_has_uncommitted_edits": bool(_git("status", "--porcelain").strip())}
    machine = perfbench_run.machine()
    print(f"machine: {machine}")
    print(f"parent {revisions['parent']}, change {revisions['change']}"
          f"{' + working tree' if revisions['change_has_uncommitted_edits'] else ''}")

    runs, rows = [], []
    with tempfile.TemporaryDirectory(prefix="ab_bench-") as workdir:
        sides = {"parent": Path(workdir) / "parent", "change": Path(workdir) / "change"}
        export(args.parent, sides["parent"], sides["change"])
        for workload in args.workloads:
            values: dict[str, list[tuple[float, float]]] = {}
            for k in range(args.pairs):
                seed = args.seeds[(k // 2) % len(args.seeds)]
                order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
                got = {side: run_once(sides[side], workload, seed, args.seconds)
                       for side in order}
                runs.append({"workload": workload, "seed": seed, "first": order[0], **got})
                for metric in got["parent"]:
                    values.setdefault(metric, []).append(
                        (got["parent"][metric], got["change"][metric]))
                print(f"{workload} pair {k + 1}/{args.pairs} seed {seed}: latency_p50_ms "
                      f"{got['parent']['latency_p50_ms']:.4g} -> "
                      f"{got['change']['latency_p50_ms']:.4g}", flush=True)
            rows += [summarize(workload, metric, better[metric], pairs)
                     for metric, pairs in values.items()]

    print(f"{'workload':<9} {'metric':<16} {'parent median [q1, q3]':<28} "
          f"{'change median [q1, q3]':<28} {'change':>7} {'won':>5}  gap > parent IQR")
    for row in rows:
        print(_format(row))
    if args.out:
        args.out.write_text(json.dumps({
            "machine": machine, "revisions": revisions, "workloads": args.workloads,
            "seeds": args.seeds, "pairs": args.pairs, "seconds": args.seconds,
            "rows": rows, "runs": runs}, indent=1) + "\n")
        print(f"written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
