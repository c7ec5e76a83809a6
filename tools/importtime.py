"""Per-module import times of a cold ``import quartics.cli``.

Runs ``python -X importtime -c "import quartics.cli"`` in N fresh interpreters,
with the checkout's ``src/`` first on the path and this process and its
children pinned to one CPU, as ``perfbench/run.py`` pins itself.  It prints the
median self and cumulative milliseconds of each ``quartics.*`` module, then of
each other module the import pulls in: one that ``python -c pass`` does not
import already at start-up (the package has no dependencies, so these are the
standard library's).  ``cli.import_ms`` of the benchmark is the total only.

Run from anywhere; for another revision, run its copy of this file:

    python tools/importtime.py --runs 9

With ``PYTHONDONTWRITEBYTECODE`` set, every run compiles the package again;
the header says which it was.
"""

from __future__ import annotations

import argparse
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
LINE = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|\s+(\S+)")


def importtime(statement: str) -> dict[str, tuple[float, float]]:
    """(self ms, cumulative ms) of each module that *statement* imports in a fresh
    interpreter, start-up included."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", statement], env=env,
                          capture_output=True, text=True, check=True)
    times = {}
    for match in map(LINE.match, proc.stderr.splitlines()):
        if match:
            times[match[3]] = (int(match[1]) / 1000, int(match[2]) / 1000)
    return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=9, help="fresh interpreters (default 9)")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    startup = set(importtime("pass"))
    runs = [importtime("import quartics.cli") for _ in range(args.runs)]
    pulled = [name for name in runs[0] if name not in startup]

    def median(name: str, i: int) -> float:
        return statistics.median(run[name][i] for run in runs if name in run)

    bytecode = "off" if os.environ.get("PYTHONDONTWRITEBYTECODE") else "on"
    print(f"import quartics.cli from {SRC}: {args.runs} runs, "
          f"median {median('quartics.cli', 1):.1f} ms, bytecode cache {bytecode}")
    for title, names in (("package", [n for n in pulled if n.split(".")[0] == "quartics"]),
                         ("pulled in", [n for n in pulled if n.split(".")[0] != "quartics"])):
        print(f"\n{title:<32} {'self_ms':>8} {'cum_ms':>8}")
        for name in sorted(names, key=lambda n: -median(n, 0)):
            print(f"{name:<32} {median(name, 0):8.2f} {median(name, 1):8.2f}")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # the reader went away (| head -1): exit quietly, as the CLI does
        sys.stderr.close()
