"""One sha256 over every answer of the benchmark's ``certify`` members.

For each seed, the first ``--members`` inputs of the ``certify`` workload's
generator (``perfbench/workloads.py``, imported, not changed) are solved:
``enumerate_bitangents`` for every member and ``solve_detrep`` for the X4
ones.  The digest covers, in generator order, the ``repr`` of every
certified line, its fit λ, residual, source and chart, every ``DetRep``
(matrices, branch and residuals) and the message of every error.  Two
checkouts whose numeric path agrees bit for bit print the same digest, so a
change that claims identical output is checked by running this in both.

Run from the root of a checkout:

    python tools/certify_digest.py --seeds 7 8 --members 300

The digest is the only line on stdout; member and failure counts go to
stderr.  ``--per-member`` prints instead one line per member: seed, index
in the generator, member, ``ok`` or ``fail``, and the sha256 of its record.
A ``diff`` of that listing from two checkouts names the members that moved:

    python tools/certify_digest.py --seeds 7 8 --members 300 --per-member
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _outcome(call, *args) -> tuple[str, bool]:
    """The repr of the result, or the error's type and message; and whether it failed."""
    from quartics.errors import QuarticsError

    try:
        return repr(call(*args)), False
    except QuarticsError as exc:
        return f"{type(exc).__name__}: {exc}", True


def member_records(seed: int, members: int):
    """(record, failures) for each of the first *members* inputs of the generator."""
    import workloads
    from quartics import bitangent, detrep

    for family, params, _near in itertools.islice(workloads.Certify().inputs(seed), members):
        outcomes = [_outcome(bitangent.enumerate_bitangents, family, params)]
        if family == "X4":
            outcomes.append(_outcome(detrep.solve_detrep, *params))
        record = [f"{family}{tuple(str(p) for p in params)}", *(text for text, _ in outcomes)]
        yield "\n".join(record), sum(bad for _, bad in outcomes)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--members", type=int, required=True,
                        help="generator inputs per seed")
    parser.add_argument("--per-member", action="store_true",
                        help="one line per member instead of the single digest")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

    digest = hashlib.sha256()
    count = failed = 0
    for seed in args.seeds:
        for index, (record, bad) in enumerate(member_records(seed, args.members)):
            digest.update(record.encode() + b"\0")
            count += 1
            failed += bad
            if args.per_member:
                member = record.split("\n", 1)[0]
                print(seed, index, member, "fail" if bad else "ok",
                      hashlib.sha256(record.encode()).hexdigest())
    print(f"{count} members, {failed} failed solves", file=sys.stderr)
    if not args.per_member:
        print(digest.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
