"""Hits and misses of every bounded cache of the package over one workload.

Runs the first ``--ops`` inputs of one in-process workload of the benchmark
(``perfbench/workloads.py``, imported, not changed) as the benchmark does:
each operation, then its answer check, which for ``numeric`` recomputes
every fourth quartic's invariants after an SL3 substitution.  Every cache
starts empty.  Then it prints, for each bounded cache, the hits, the misses,
the hit ratio (the share of calls whose input repeated one still kept) and
how many entries it keeps against its bound.  A cache that a workload never
calls shows ``-`` as its ratio.  ``polyring._pairing`` holds only the plans of
``diff_pair``, one per pair of operand key sets (a product forms no plan);
``diffcalc._bracket`` the two-stage plans of the J-brackets, one per pair of
key sets; ``diffcalc._hessian_det_plan`` the two-stage plans of det H,
``dixmier._contravariant_plan`` the three-stage plans of sigma and psi, one per
key set of the quartic, and ``polyring._restriction`` the one-stage plans of
``restrict_to_line`` (the contravariants' first stage).  ``symfam._symmetry`` keeps,
per key set, where each term's images under (r s) and (s u) are and which terms lead the
S-basis decomposition, and ``symfam._layout`` the packed keys of each family quartic,
symbolic or numeric.  A plan or stage keeps
its compiled straight-line code, from its ``_HOT``-th use, in its ``kernel``
slot.  Below the table it prints, for each of the five, the milliseconds spent in the calls that missed, which
built the plans (wall time, ``time.perf_counter``); the pairs of terms that the
kept plans hold, and those of the compiled ones among them; how many plans
compiled in all, and how many of those were built again after the cache
dropped them; and the share of the plans' runs that compiled code served (a
plan's runs are its uses, so the restriction stage that a contravariant plan
shares counts the runs of both caches).

Each cache of plans is recorded under every name that binds it in a
``quartics`` module (``dixmier`` calls ``_restriction`` by the name it
imported, not through ``polyring``), as ``perfbench/tracing.py`` wraps a
function.  A cached value is ``(stages, outputs)``, stages a tuple of
``polyring._Plan`` (``_pairing`` keeps one ``_Plan``).  The tool exits 1 when
the misses it recorded for a cache of plans differ from the cache's own
``cache_info().misses``: then a call reached the cache by a name it did not
wrap, and the numbers below the table miss those calls.

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
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: (module, attribute) of each bounded cache, in the order printed
CACHES = (("polyring", "_pairing"), ("diffcalc", "_bracket"), ("diffcalc", "_hessian_det_plan"),
          ("dixmier", "_contravariant_plan"), ("polyring", "_restriction"), ("polyring", "_operator"),
          ("diffcalc", "_expansion"), ("diffcalc", "_pencil_det"), ("polyring", "_evaluator"),
          ("polyring", "_shape"), ("polyring", "_exact_plan"),
          ("bitangent", "_restriction_coefficients_cached"), ("symfam", "_symmetry"),
          ("symfam", "_layout"))
#: the caches of plans: (module, attribute, what their plans are called); a value of a
#: staged plan is ``(stages, outputs)``, stages a tuple
PLANS = (("polyring", "_pairing", "plans"), ("diffcalc", "_bracket", "bracket stages"),
         ("diffcalc", "_hessian_det_plan", "det H stages"),
         ("dixmier", "_contravariant_plan", "contravariant stages"),
         ("polyring", "_restriction", "restriction stages"))


def cache_stats(workload: str, seed: int, ops: int):
    """``(failed, [(name, cache_info()), ...], {name: (kept, built, missed)})`` after the
    first *ops* inputs of *workload*: for each cache of :data:`PLANS`, *kept* the plans it
    keeps, *built* the ``((arguments, stage), uses, compiled)`` of every plan it held, those
    dropped first, and *missed* the seconds of each call that missed."""
    import workloads

    # every module first, so that each name bound to a cache is bound before it is wrapped
    modules = [importlib.import_module(f"quartics.{path.stem}".removesuffix(".__init__"))
               for path in sorted((ROOT / "src" / "quartics").glob("*.py"))]
    caches = [(f"{module}.{name}", getattr(importlib.import_module(f"quartics.{module}"), name))
              for module, name in CACHES]
    for _, cache in caches:
        cache.cache_clear()
    # name: (the cache, its kept values' plans, the dropped ones, the seconds of each call
    # that missed); saved: (module, name, the cache) of each name wrapped
    records, saved = {}, []
    for module_name, name, _ in PLANS:
        cache, used, dropped, missed = dict(caches)[f"{module_name}.{name}"], {}, [], []
        records[f"{module_name}.{name}"] = (cache, used, dropped, missed)
        wrapper = _recorded(cache, used, dropped, missed)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is cache:
                    setattr(module, key, wrapper)
                    saved.append((module, key, cache))
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
        for module, key, cache in saved:
            setattr(module, key, cache)
    plans = {name: ([plan for value in used for plan in value], dropped + [
        ((arguments, k), plan.uses, bool(plan.kernel)) for value, arguments in used.items()
        for k, plan in enumerate(value)], missed)
        for name, (_, used, dropped, missed) in records.items()}
    return failed, [(name, cache.cache_info()) for name, cache in caches], plans


def _recorded(cache, used: dict, dropped: list, missed: list):
    """*cache* wrapped to keep, in *used*, the plans of each value it keeps, in the
    order of their last use, as the cache keeps them: past its bound, the first is the one
    the cache dropped (its kernels with it), and its plans go to *dropped* as
    ``((arguments, stage), uses, compiled)``; the seconds of each call that missed, the
    one that built the plans, go to *missed*."""
    def recorded(*args):
        misses, start = cache.cache_info().misses, time.perf_counter()
        try:
            value = cache(*args)
        finally:    # a call that raises is a miss of the cache too
            if cache.cache_info().misses > misses:
                missed.append(time.perf_counter() - start)
        plans = value[0] if isinstance(value, tuple) else (value,)
        used.pop(plans, None)
        used[plans] = args
        if len(used) > cache.cache_info().maxsize:
            old = next(iter(used))
            arguments = used.pop(old)
            dropped.extend(((arguments, k), plan.uses, bool(plan.kernel))
                           for k, plan in enumerate(old))
        return value

    return recorded


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("symbolic", "numeric", "certify"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--ops", type=int, required=True, help="operations to run")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from quartics.polyring import _HOT

    failed, stats, plans = cache_stats(args.workload, args.seed, args.ops)
    print(f"{args.workload} seed {args.seed}: {args.ops} operations, {failed} failed")
    print(f"{'cache':<42}{'hits':>8}{'misses':>8}{'hit ratio':>11}{'kept/bound':>12}")
    for name, info in stats:
        calls = info.hits + info.misses
        ratio = f"{info.hits / calls:.3f}" if calls else "-"
        print(f"{name:<42}{info.hits:>8}{info.misses:>8}{ratio:>11}"
              f"{f'{info.currsize}/{info.maxsize}':>12}")
    for (name, (kept, built, missed)), (_, _, what) in zip(plans.items(), PLANS):
        print(f"{name}: {len(missed)} calls missed and built the {what} in "
              f"{1000 * sum(missed):.2f} ms")
        hot = [plan for plan in kept if plan.kernel]
        pairs, hot_pairs = (sum(len(plan.pairs) for plan in group) // 4    # four entries a pair
                            for group in (kept, hot))
        print(f"{name}: the {len(kept)} {what} kept hold {pairs} pairs of terms; "
              f"the {len(hot)} of them compiled hold {hot_pairs}")
        # a plan's runs are its uses: a restriction stage is run by the contravariant plans too
        runs = sum(uses for _, uses, _ in built)
        compiled = [(arguments, uses) for arguments, uses, hot in built if hot]
        served = sum(uses - _HOT + 1 for _, uses in compiled)   # compiled from the _HOT-th use
        again = len(compiled) - len({arguments for arguments, _ in compiled})
        share = f"{served / runs:.3f}" if runs else "-"
        print(f"{len(compiled)} {what} compiled, {again} of them built again after the cache "
              f"dropped them; of the {runs} runs {served} ran compiled code, a share of {share}")
    counted = dict(stats)
    gaps = [(name, len(missed), counted[name].misses) for name, (_, _, missed) in plans.items()
            if len(missed) != counted[name].misses]
    for name, recorded, misses in gaps:
        print(f"{name}: {recorded} misses recorded, but the cache counts {misses}: "
              f"a caller reaches it by a name that was not wrapped", file=sys.stderr)
    return 1 if gaps else 0


if __name__ == "__main__":
    sys.exit(main())
