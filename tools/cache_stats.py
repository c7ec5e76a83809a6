"""Hits and misses of every bounded cache of the package over one workload.

Runs the first ``--ops`` inputs of one in-process workload of the benchmark
(``perfbench/workloads.py``, imported, not changed) as the benchmark does:
each operation, then its answer check, which for ``numeric`` recomputes
every fourth quartic's invariants after an SL3 substitution.  Every cache
starts empty.  Then it prints, for each bounded cache, the hits, the misses,
the hit ratio (the share of calls whose input repeated one still kept) and
how many entries it keeps against its bound.  A cache that a workload never
calls shows ``-`` as its ratio.  ``polyring._pairing`` holds the plans of the
products and differential pairings, one per tuple of operand key sets, and
``polyring._kernel`` their compiled straight-line code: its misses count the
compiles.  Below the table it prints the pairs of terms that the kept plans
hold, and the share of the plans' runs that compiled code served.

Run from the root of a checkout:

    python tools/cache_stats.py --workload numeric --seed 1 --ops 40

The ``cli`` workload runs each command in a fresh process, where no cache
survives from one operation to the next, so it is not offered here.
"""

from __future__ import annotations

import argparse
import importlib
import itertools
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: (module, attribute) of each bounded cache, in the order printed
CACHES = (("polyring", "_pairing"), ("polyring", "_kernel"), ("polyring", "_operator"),
          ("diffcalc", "_expansion"), ("diffcalc", "_pencil_det"), ("polyring", "_evaluator"),
          ("polyring", "_shape"), ("polyring", "_exact_plan"),
          ("bitangent", "_restriction_coefficients_cached"))


def cache_stats(workload: str, seed: int, ops: int):
    """``(failed, [(name, cache_info()), ...], pairs)`` after the first *ops* inputs of
    *workload*: *pairs* is how many pairs of terms the plans that ``_pairing`` keeps hold."""
    import workloads
    from quartics import polyring

    caches = [(f"{module}.{name}", getattr(importlib.import_module(f"quartics.{module}"), name))
              for module, name in CACHES]
    for _, cache in caches:
        cache.cache_clear()
    pairing, used = polyring._pairing, {}

    def recorded(*args):
        # each plan in the order of its last use: the cache keeps the last ones
        plan = pairing(*args)
        used.pop(plan, None)
        used[plan] = None
        return plan

    polyring._pairing = recorded
    work = workloads.make(workload, ROOT / "src")
    failed = 0
    try:
        for inp in itertools.islice(work.inputs(seed), ops):
            out = work.run(inp)
            if isinstance(out, workloads.Failed):
                failed += 1
            else:
                work.check(inp, out)
    finally:
        polyring._pairing = pairing
    kept = list(used)[len(used) - pairing.cache_info().currsize:]
    return (failed, [(name, cache.cache_info()) for name, cache in caches],
            sum(len(plan.pairs) for plan in kept) // 4)     # four entries a pair


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("symbolic", "numeric", "certify"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--ops", type=int, required=True, help="operations to run")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

    failed, stats, pairs = cache_stats(args.workload, args.seed, args.ops)
    print(f"{args.workload} seed {args.seed}: {args.ops} operations, {failed} failed")
    print(f"{'cache':<42}{'hits':>8}{'misses':>8}{'hit ratio':>11}{'kept/bound':>12}")
    for name, info in stats:
        calls = info.hits + info.misses
        ratio = f"{info.hits / calls:.3f}" if calls else "-"
        print(f"{name:<42}{info.hits:>8}{info.misses:>8}{ratio:>11}"
              f"{f'{info.currsize}/{info.maxsize}':>12}")
    plans, kernels = (info for name, info in stats
                      if name in ("polyring._pairing", "polyring._kernel"))
    runs, compiled = plans.hits + plans.misses, kernels.hits + kernels.misses
    share = f"{compiled / runs:.3f}" if runs else "-"
    print(f"the {plans.currsize} plans kept hold {pairs} pairs of terms; of their {runs} runs "
          f"{compiled} ran compiled code, a share of {share}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
