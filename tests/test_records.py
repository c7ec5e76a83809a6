"""The immutable records of the package: equality and hash by field, a
field-by-field repr, no assignment and no deletion, and copies that compare
equal.  The reprs are part of the output: ``BranchChoice``'s is in the certify
fixture, and ``GoldenReport``'s and ``SymmetricDecomposition``'s are hashed by
the exact digest."""

import copy
from fractions import Fraction

import pytest

from quartics.bitangent import CHARTS, AffineChart, BitangentCert, ProjLine
from quartics.detrep import BranchChoice, DetRep
from quartics.dixmier import InvariantSet
from quartics.polyring import Polynomial, VarTable
from quartics.symfam import (GoldenEntry, GoldenReport, Partition, SymmetricDecomposition,
                             make_family)

XY = VarTable(("x", "y"))


def _invariants():
    return InvariantSet(*(Polynomial.constant(XY, k) for k in (3, 6, 9, 12, 15, 18)))


def _line():
    return ProjLine.from_coefficients((2, 1j, 0.5))


# each factory builds a new instance, equal to the one before, on every call
RECORDS = {
    "VarTable": lambda: VarTable(("x", "y"), ("r",)),
    "AffineChart": lambda: AffineChart("XY", "z", ("x", "y"), ("a", "b"), (0, 1)),
    "ProjLine": _line,
    "BitangentCert": lambda: BitangentCert(_line(), (1j, 0j, 2 + 0j), 1e-12, "x4_coord", "XY"),
    "BranchChoice": lambda: BranchChoice(1, False, True),
    "DetRep": lambda: DetRep((1 + 0j, -1 + 0j, 2j, -2j), ((0j,) * 4,) * 4,
                             BranchChoice(0, True, False), {"e1": 0.0}),
    "InvariantSet": _invariants,
    "QuarticForm": lambda: make_family("X24", [3]),
    "Partition": lambda: Partition((2, 1)),
    "SymmetricDecomposition": lambda: SymmetricDecomposition(
        Fraction(1, 2), ((Partition((1,)), Fraction(3)),)),
    "GoldenEntry": lambda: GoldenEntry(Fraction(2), (((1,), Fraction(-1)),)),
    "GoldenReport": lambda: GoldenReport("X24", {3: Fraction(1), 6: None}, {}),
}

#: records with a dict field: their hash over the fields raises TypeError
UNHASHABLE = {"DetRep", "GoldenReport"}

REPRS = {
    "VarTable": "VarTable(geometric=('x', 'y'), parameters=('r',))",
    "AffineChart": ("AffineChart(id='XY', normalized='z', pair=('x', 'y'), "
                    "unknowns=('a', 'b'), slots=(0, 1))"),
    "BranchChoice": "BranchChoice(t_index=1, cd_swap=False, be_swap=True)",
    "Partition": "Partition(parts=(2, 1))",
    "ProjLine": "ProjLine(coefficients=((1+0j), 0.5j, (0.25+0j)))",
    "GoldenReport": "GoldenReport(family='X24', gamma={3: Fraction(1, 1), 6: None}, failures={})",
    "SymmetricDecomposition": ("SymmetricDecomposition(constant=Fraction(1, 2), "
                               "terms=((Partition(parts=(1,)), Fraction(3, 1)),))"),
}

#: the fields of each record, in the order of its constructor and repr
FIELDS = {
    "VarTable": ("geometric", "parameters"),
    "AffineChart": ("id", "normalized", "pair", "unknowns", "slots"),
    "ProjLine": ("coefficients",),
    "BitangentCert": ("line", "lam", "residual", "source", "chart"),
    "BranchChoice": ("t_index", "cd_swap", "be_swap"),
    "DetRep": ("b_diagonal", "c_matrix", "branch", "residuals"),
    "InvariantSet": ("I3", "I6", "I9", "I12", "I15", "I18"),
    "QuarticForm": ("poly", "family", "params"),
    "Partition": ("parts",),
    "SymmetricDecomposition": ("constant", "terms"),
    "GoldenEntry": ("prefactor", "coefficients"),
    "GoldenReport": ("family", "gamma", "failures"),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_behaviour(name):
    make = RECORDS[name]
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) and len({a, b}) == 1
    values = tuple(getattr(a, field) for field in FIELDS[name])
    assert type(a)(*values) == a
    assert type(a)(**dict(zip(FIELDS[name], values))) == a
    assert repr(a) == f"{name}(" + ", ".join(
        f"{field}={value!r}" for field, value in zip(FIELDS[name], values)) + ")"
    # another record class, or the plain tuple of the fields, is never equal
    other = Partition((1,)) if name != "Partition" else BranchChoice(0, False, False)
    assert a != other and other != a and a != values
    assert a.__eq__(other) is NotImplemented
    field = FIELDS[name][0]
    for target in (field, "extra"):
        with pytest.raises(AttributeError):
            setattr(a, target, None)
    with pytest.raises(AttributeError):
        delattr(a, field)
    assert a == b and repr(a) == repr(b)
    twin = copy.copy(a)
    assert twin == a and repr(twin) == repr(a)


#: the records that bind their fields with the base's constructor
SHARED_BINDING = sorted(set(RECORDS) - {"VarTable", "ProjLine", "BitangentCert", "QuarticForm",
                                        "Partition"})


@pytest.mark.parametrize("name", SHARED_BINDING)
def test_binding_names_the_fields(name):
    a = RECORDS[name]()
    fields = FIELDS[name]
    values = tuple(getattr(a, field) for field in fields)
    message = f"^{name} takes the fields {', '.join(fields)}: got "
    for args, kwargs in [
        (values[:-1], {}),                                  # the last field missing
        (values + (None,), {}),                             # one value too many
        (values, {"extra": None}),                          # an unknown field
        (values, {fields[0]: values[0]}),                   # the first field given twice
    ]:
        with pytest.raises(TypeError, match=message):
            type(a)(*args, **kwargs)
    # any split between position and name binds the same record
    assert type(a)(*values[:1], **dict(zip(fields[1:], values[1:]))) == a


@pytest.mark.parametrize("name", sorted(REPRS))
def test_record_repr(name):
    assert repr(RECORDS[name]()) == REPRS[name]


def test_records_differ_by_field():
    assert VarTable(("x", "y"), ("r",)) != VarTable(("x", "y"), ("s",))
    assert VarTable(("x",)) != VarTable(("y",))
    assert BranchChoice(1, False, True) != BranchChoice(1, True, True)
    assert _line() != ProjLine.from_coefficients((2, 1j, 0.25))
    assert CHARTS["XY"] != CHARTS["YZ"] and CHARTS["XY"] == RECORDS["AffineChart"]()
    assert make_family("X24", [3]) != make_family("X24", [4])


def test_vartable_defaults():
    table = VarTable(("x",))
    assert table.parameters == () and table == VarTable(("x",), ())
    assert repr(table) == "VarTable(geometric=('x',), parameters=())"


def test_lookup_tables_kept_out_of_repr():
    # a VarTable's index, key layout and hash are derived from its names
    table = RECORDS["VarTable"]()
    assert table.index("r") == 2 and hash(table) == hash((("x", "y"), ("r",)))
    assert repr(table) == REPRS["VarTable"]
