"""One sha256 over the answers of the exact (symbolic and rational) path.

The digest covers, in a fixed order:

* the six symbolic invariants of each of X4, X16, X24 and X96, and every
  entry of the family's reference table as a polynomial;
* the golden report of each family's invariants, and of a doctored copy whose
  I3 and I12 are shifted, so the report names two differing monomials;
* the S-basis decomposition of each X4 invariant;
* the invariants of the first ``GENERIC`` seeded generic quartics of the
  benchmark's ``numeric`` generator (``perfbench/workloads.py``, imported, not
  changed), for each of ``SEEDS``;
* the invariants of ``MEMBERS`` seeded rational members of each family per
  seed, about one in ten parameters being +-2 (singular members);
* the embedded algebra: every polynomial of ``E_SYSTEM`` and ``OEQ_SYSTEM`` of
  ``detrep.systems()``, and of the ``COMPONENTS`` tables of
  ``components.tables()``.
* the differential calculus on its own: ``partial``, ``multi_partial``,
  ``diff_pair``, ``hessian`` and ``transvectant`` (k = 2, 4) on each of X4,
  X16, X24 and X96 and the first ``CALCULUS`` generic quartics of seed 1, and
  on their contravariants sigma and psi.

Each value enters as its ``str`` or ``repr``: exact, canonical and in term
order.  Two checkouts whose exact path agrees print the same digest, so a
change that claims identical output is checked by running this in both.

Run from the root of a checkout:

    python tools/exact_digest.py

The digest is the only line on stdout; the record count goes to stderr.
"""

from __future__ import annotations

import hashlib
import itertools
import random
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2)
GENERIC = 40   # generic quartics of the numeric generator per seed
MEMBERS = 25   # rational members per family per seed
CALCULUS = 10  # generic quartics of seed 1 whose calculus operators are covered
#: the bitangent component tables covered, by name
COMPONENTS = ("X4_J1_GENERATORS", "X4_J1_QUARTIC_B", "X4_J2_BIQUADRATIC", "X4_J1_A2_SPLITS",
              "X16_J56_BIQUADRATIC", "X16_J7_BIQUADRATIC", "X24_J2_BIQUADRATIC",
              "X24_RATIONAL_POINTS", "X24_J69_QUADRATIC", "X24_J10_13_QUADRATIC")


def _invariants(inv) -> str:
    return "\n".join(f"I{k} = {value}" for k, value in inv.as_dict().items())


def symbolic_records():
    from quartics import dixmier, symfam
    from quartics.polyring import Polynomial

    for family in sorted(symfam.FAMILY_PARAMS):
        inv = dixmier.dixmier_invariants(symfam.make_family(family))
        table = inv.I3.table
        yield f"{family} symbolic\n{_invariants(inv)}"
        yield "\n".join(f"{family} golden I{k} = {symfam.golden_polynomial(family, k, table)}"
                        for k in inv.as_dict())
        yield f"{family} report {symfam.golden_compare(inv, family)!r}"
        shift = Polynomial.monomial(table, {table.names[-1]: 2}, Fraction(3, 2))
        values = {**inv.as_dict(), 3: inv.I3 + 1, 12: inv.I12 + shift}
        doctored = dixmier.InvariantSet(*values.values())
        yield f"{family} doctored report {symfam.golden_compare(doctored, family)!r}"
        if family == "X4":
            yield "\n".join(f"X4 S-basis I{k} = {symfam.decompose_symmetric(value)!r}"
                            for k, value in inv.as_dict().items())


def generic_records(seed: int, count: int):
    import workloads
    from quartics import dixmier, symfam

    for coeffs, _matrix in itertools.islice(workloads.Numeric().inputs(seed), count):
        inv = dixmier.dixmier_invariants(symfam.make_generic(coeffs))
        yield f"generic {tuple(map(str, coeffs))}\n{_invariants(inv)}"


def member_records(seed: int, count: int):
    """*count* members of each family with small rational parameters."""
    from quartics import dixmier, symfam

    rng = random.Random(seed)
    for family in sorted(symfam.FAMILY_PARAMS):
        for _ in range(count):
            # a parameter of +-2 now and then makes the member singular
            params = tuple(Fraction(rng.choice((2, -2))) if rng.random() < 0.1
                           else Fraction(rng.randint(-40, 40), rng.randint(1, 12))
                           for _ in symfam.FAMILY_PARAMS[family])
            inv = dixmier.dixmier_invariants(symfam.make_family(family, params))
            yield f"{family}{tuple(map(str, params))}\n{_invariants(inv)}"


def _flat(value):
    """The entries of nested tuples, in order."""
    if isinstance(value, tuple):
        for item in value:
            yield from _flat(item)
    else:
        yield value


def embedded_records():
    from quartics import components, detrep

    systems, tables = detrep.systems(), components.tables()
    for name in ("E_SYSTEM", "OEQ_SYSTEM"):
        yield "\n".join(f"detrep.{name}[{i}] = {p}" for i, p in enumerate(getattr(systems, name)))
    for name in COMPONENTS:
        yield "\n".join(f"components.{name} {value}" for value in _flat(getattr(tables, name)))


def calculus_records(count: int):
    """The calculus operators on the symbolic families and the first *count* generic
    quartics of seed 1, each with its contravariants; the binary forms of the
    transvectants are the restrictions to z = 0."""
    import workloads
    from quartics import dixmier, symfam
    from quartics.diffcalc import diff_pair, hessian, transvectant
    from quartics.polyring import multi_partial, partial, substitute_values

    forms = [(family, symfam.make_family(family)) for family in sorted(symfam.FAMILY_PARAMS)]
    forms += [(f"generic {tuple(map(str, coeffs))}", symfam.make_generic(coeffs))
              for coeffs, _matrix in itertools.islice(workloads.Numeric().inputs(1), count)]
    for label, form in forms:
        f = form.poly
        sigma, psi = dixmier.contravariants(f)
        x, y, z = f.table.geometric
        binary = [substitute_values(p, {z: 0}) for p in (f, sigma, psi)]
        values = {
            **{f"partial {p} {v}^{k}": partial(q, v, k) for p, q in (("f", f), ("psi", psi))
               for v in (x, y, z) for k in (1, 2)},
            "multi_partial f x y z^2": multi_partial(f, {x: 1, y: 1, z: 2}),
            "multi_partial psi x^2 y^2 z": multi_partial(psi, {x: 2, y: 2, z: 1}),
            "diff_pair f psi": diff_pair(f, psi),
            "diff_pair sigma f": diff_pair(sigma, f),
            "diff_pair f f": diff_pair(f, f),
            **{f"hessian {p}": hessian(q) for p, q in (("f", f), ("sigma", sigma))},
            **{f"transvectant f {p} {k}": transvectant(binary[0], b, k)
               for p, b in (("f", binary[0]), ("sigma", binary[1]), ("psi", binary[2]))
               for k in (2, 4)},
        }
        yield "\n".join(f"{label} {name} = {value}" for name, value in values.items())


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

    records = itertools.chain(
        symbolic_records(), embedded_records(), calculus_records(CALCULUS),
        *(itertools.chain(generic_records(seed, GENERIC), member_records(seed, MEMBERS))
          for seed in SEEDS))
    digest = hashlib.sha256()
    count = 0
    for count, record in enumerate(records, 1):
        digest.update(record.encode() + b"\0")
    print(f"{count} records", file=sys.stderr)
    print(digest.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
