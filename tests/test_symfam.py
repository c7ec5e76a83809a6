"""Family constructors, the monomial symmetric basis, and reference-table
comparison."""

import random
import re
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from quartics import errors, symfam
from quartics.bitangent import enumerate_bitangents
from quartics.dixmier import InvariantSet, dixmier_invariants
from quartics.errors import DegeneracyError, DomainError, rational
from quartics.polyring import Polynomial, VarTable
from quartics.symfam import (FAMILY_PARAMS, Partition, QuarticForm,
                             decompose_symmetric, golden_compare,
                             golden_polynomial, is_symmetric, load_golden,
                             make_family, make_generic, reconstruct, s_basis,
                             singular_locus_check)

from conftest import pencil_resultant, quartic_discriminant, random_fraction

RSU = VarTable(("x", "y", "z"), ("r", "s", "u"))


def mono(table, powers, c=1):
    return Polynomial.monomial(table, powers, c)


def explicit_family(family, params, table):
    """The family quartic written out monomial by monomial (module docstring)."""
    def m(**powers):
        return mono(table, powers)

    def c(v):
        return Polynomial.variable(table, v) if isinstance(v, str) else Polynomial.constant(table, v)

    quartic = m(x=4) + m(y=4) + m(z=4)
    if family == "X4":
        r, s, u = params
        return quartic + c(r) * m(x=2, y=2) + c(s) * m(y=2, z=2) + c(u) * m(z=2, x=2)
    if family == "X16":
        r, s = params
        return quartic + c(r) * m(x=2, y=2) + c(s) * (m(y=2, z=2) + m(z=2, x=2))
    if family == "X24":
        (r,) = params
        return quartic + c(r) * (m(x=2, y=2) + m(y=2, z=2) + m(z=2, x=2))
    return quartic


def entry_oracle(family, entry, table):
    """A reference table entry built term by term: ``s_basis(part) * coeff`` for
    X4, plain monomials in the family's parameters otherwise."""
    total = Polynomial.zero(table)
    for exps, coeff in entry.coefficients:
        if family != "X4":
            basis = mono(table, dict(zip(FAMILY_PARAMS[family], exps)))
        else:
            basis = s_basis(exps, table) if exps else Polynomial.constant(table, 1)
        total = total + basis * coeff
    return total * entry.prefactor


def compare_oracle(inv, family):
    """``(gamma, failures)`` of golden_compare, from :func:`entry_oracle` and the
    leading term of the full canonical term list."""
    gamma, failures = {}, {}
    for k, ours in inv.as_dict().items():
        ref = entry_oracle(family, load_golden(family)[k], ours.table)
        gamma[k] = None
        if ref.is_zero() or ours.is_zero():
            if not (ref.is_zero() and ours.is_zero()):
                failures[k] = "one side identically zero, the other not"
            continue
        lead, c = ref.sorted_terms()[0]
        ratio = ours.terms.get(lead, Fraction(0)) / c
        diff = ours - ref * ratio
        if diff.is_zero():
            gamma[k] = ratio
        else:
            exps, residue = diff.sorted_terms()[0]
            failures[k] = f"first differing monomial {exps}: residue {residue}"
    return gamma, failures


@pytest.fixture(scope="module")
def family_invariants():
    return {family: dixmier_invariants(make_family(family)) for family in FAMILY_PARAMS}


class TestMakeFamily:
    def test_x96_equation(self):
        f = make_family("X96")
        t = f.poly.table
        assert f.poly == mono(t, {"x": 4}) + mono(t, {"y": 4}) + mono(t, {"z": 4})

    def test_x4_at_zero_is_x96(self):
        assert make_family("X4", (0, 0, 0)).poly == make_family("X96").poly

    def test_x16_is_specialized_x4(self):
        a = make_family("X16", (1, 3)).poly
        b = make_family("X4", (1, 3, 3)).poly
        assert a == b

    def test_x24_equation(self):
        f = make_family("X24", (5,)).poly
        t = f.table
        want = (mono(t, {"x": 4}) + mono(t, {"y": 4}) + mono(t, {"z": 4})
                + 5 * (mono(t, {"x": 2, "y": 2}) + mono(t, {"y": 2, "z": 2})
                       + mono(t, {"z": 2, "x": 2})))
        assert f == want

    @pytest.mark.parametrize("family", sorted(FAMILY_PARAMS))
    def test_matches_explicit_monomials(self, family):
        names = FAMILY_PARAMS[family]
        f = make_family(family)
        assert f.poly == explicit_family(family, names, f.poly.table)
        assert (f.family, f.params) == (family, names)
        rng = random.Random(62)
        for trial in range(20):
            # the first member puts 0 in every slot: no zero term may survive
            params = tuple(Fraction(0) if trial == 0 else random_fraction(rng) for _ in names)
            f = make_family(family, params)
            assert f.poly == explicit_family(family, params, f.poly.table)
            assert (f.family, f.params) == (family, params)

    def test_wrong_arity(self):
        with pytest.raises(DomainError):
            make_family("X4", (1, 2))
        with pytest.raises(DomainError):
            make_family("X96", (1,))

    def test_parameter_too_long_to_print(self):
        # str() refuses an int of more digits than the interpreter's limit
        limit = sys.get_int_max_str_digits()
        assert make_family("X24", [10**limit - 1]).params == (10**limit - 1,)
        # a decimal exponent is read first, of a string or a Decimal: 1e100000000
        # returns at once, not after 10**e
        texts = ("1e100000000", "1e-100000000", "-2.5E+100000000", "1e1000000", "1e-1000000",
                 f"1e{limit}", f"1e-{limit}", f"0.001e{limit + 3}", f"1000e-{limit + 3}")
        for value in (10**limit, Fraction(1, 10**limit), 10**5000, *texts, *map(Decimal, texts)):
            with pytest.raises(DomainError, match=f"more than {limit} digits"):
                make_family("X24", [value])

    def test_long_decimal_mantissa_fails_before_the_power(self, monkeypatch):
        # a mantissa of k > limit significant digits is an int of k digits times 10**e:
        # too long for e >= 0, and, with a denominator above 10**(-e - k), for
        # -e - k >= limit; that is raised without Fraction(Decimal), which forms 10**e
        limit = sys.get_int_max_str_digits()
        message = (f"^cannot parse rational: a numerator or denominator of more than {limit} "
                   r"digits, the limit of sys\.get_int_max_str_digits\(\)$")
        long = "1" * 5000
        values = [Decimal(long + "e1000000"), Decimal(long + "e-1000000"), Decimal("-" + long),
                  Decimal(f"0.00{long}000e-{limit + 5003}"), Decimal(f"{long}0e-1")]
        real = errors.Fraction

        def no_decimal(value, *rest):
            assert not isinstance(value, Decimal), "Fraction(Decimal) forms the power"
            return real(value, *rest)

        monkeypatch.setattr(errors, "Fraction", no_decimal)
        for value in values:
            with pytest.raises(DomainError, match=message):
                rational(value)
        monkeypatch.undo()
        # -e - k < limit: Fraction(Decimal) forms the power, 10**5000, as before
        for value in values + [Decimal(f"{long}0e-5001")]:
            with pytest.raises(DomainError, match=message):
                rational(value)
        # more than limit significant digits, a numerator and denominator within it:
        # q / 5**4400 from the 4,326 digits of q * 2**4400, times 10**-4400
        q = 3 ** 6290 + 2
        with localcontext(prec=5000):
            value = (Decimal(q) * Decimal(2) ** 4400).scaleb(-4400)
        assert len(value.as_tuple().digits) > limit
        assert rational(value) == Fraction(q, 5 ** 4400)

    def test_decimal_exponent_within_the_limit(self):
        # a zero mantissa gives 0 without the power; the largest values the limit allows
        limit = sys.get_int_max_str_digits()
        top = limit - 1
        for text, want in (("0e100000000", 0), ("-0.0e-100000000", 0), ("7.5e3", 7500),
                           (f"1e{top}", 10**top), (f"0.001e{top + 3}", 10**top),
                           (f"1e-{top}", Fraction(1, 10**top)),
                           (f"1000e-{top + 3}", Fraction(1, 10**top))):
            assert rational(text) == rational(Decimal(text)) == want

    def test_decimal_exponent_with_no_limit(self):
        # a limit of 0 converts any int: the power is formed as Fraction forms it
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            assert rational("3e5000") == rational(Decimal("3e5000")) == 3 * 10**5000
            assert rational("3e-5000") == rational(Decimal("3e-5000")) == Fraction(3, 10**5000)
        finally:
            sys.set_int_max_str_digits(limit)

    def test_unknown_family(self):
        with pytest.raises(DomainError, match="unknown family 'X5'"):
            make_family("X5")

    def test_parameters_from_an_iterator(self):
        # counted and read once each, like a tuple's
        assert make_family("X24", iter([1])) == make_family("X24", (1,))
        assert symfam.x4_triple("X16", iter([1, 3])) == (1, 3, 3)
        with pytest.raises(DomainError, match=r"^X24 takes 1 parameter\(s\), got 2$"):
            make_family("X24", iter([1, 2]))
        with pytest.raises(DegeneracyError, match=r"^X24\('-1',\): singular curve"):
            singular_locus_check("X24", iter([-1]))

    def test_generic_coefficients_from_an_iterator(self):
        # read once, as make_family reads its parameters
        coeffs = [Fraction(k, 7) for k in range(1, 16)]
        assert make_generic(iter(coeffs)) == make_generic(coeffs)
        assert make_generic(c for c in coeffs).params == tuple(coeffs)
        with pytest.raises(DomainError, match="^a generic quartic takes 15 coefficients, got 14$"):
            make_generic(iter(coeffs[1:]))

    @pytest.mark.parametrize("call, message", [
        (lambda: make_generic(5), "^a generic quartic's coefficients must be iterable, got 5$"),
        (lambda: make_generic(None),
         "^a generic quartic's coefficients must be iterable, got None$"),
        (lambda: make_family("X24", 5), "^X24 parameters must be iterable, got 5$"),
        (lambda: make_family("X4", Fraction(1, 2)),
         r"^X4 parameters must be iterable, got Fraction\(1, 2\)$"),
        (lambda: symfam.x4_triple("X16", 3), "^X16 parameters must be iterable, got 3$"),
        (lambda: singular_locus_check("X24", 1.5), "^X24 parameters must be iterable, got 1.5$"),
        (lambda: enumerate_bitangents("X4", None), "^X4 parameters must be iterable, got None$"),
        (lambda: enumerate_bitangents("X24", 3), "^X24 parameters must be iterable, got 3$"),
    ], ids=["generic-int", "generic-None", "family-int", "family-Fraction", "triple",
            "locus", "bitangents-None", "bitangents-int"])
    def test_parameters_that_cannot_be_iterated(self, call, message):
        # a DomainError naming the value, not the TypeError of tuple() or len()
        with pytest.raises(DomainError, match=message):
            call()

    @pytest.mark.parametrize("call, message", [
        (lambda: make_family("X4", "135"), "^X4 parameters .* not the string '135'$"),
        (lambda: make_family("X24", "12"), "^X24 parameters .* not the string '12'$"),
        (lambda: make_family("X24", b"1"), "^X24 parameters .* not the string b'1'$"),
        (lambda: make_family("X4", bytearray(b"\x01\x03\x05")),
         r"^X4 parameters .* not the string bytearray\(b'\\x01\\x03\\x05'\)$"),
        (lambda: make_generic("123456789012345"),
         "^a generic quartic's coefficients must be an iterable of values, not the string "
         "'123456789012345'$"),
        (lambda: symfam.x4_triple("X16", "13"), "^X16 parameters .* not the string '13'$"),
        (lambda: singular_locus_check("X24", "1"), "^X24 parameters .* not the string '1'$"),
        (lambda: enumerate_bitangents("X24", "1"), "^X24 parameters .* not the string '1'$"),
    ], ids=["family", "family-count", "family-bytes", "family-bytearray", "generic", "triple",
            "locus", "bitangents"])
    def test_a_string_is_not_a_parameter_list(self, call, message):
        # its characters were read as the parameters: X4(1, 3, 5) from "135"
        with pytest.raises(DomainError, match=message):
            call()

    def test_none_is_still_the_symbolic_form(self):
        form = make_family("X16", None)
        assert form.params == ("r", "s") and form == make_family("X16")

    @pytest.mark.parametrize("call", [symfam.x4_triple, singular_locus_check])
    @pytest.mark.parametrize("family, params, message", [
        ("X5", (Fraction(1),), "^unknown family 'X5'"),
        ("X4", (Fraction(1),), r"^X4 takes 3 parameter\(s\), got 1$"),
        ("X24", (Fraction(1), Fraction(3)), r"^X24 takes 1 parameter\(s\), got 2$"),
        ("X96", (Fraction(1),), r"^X96 takes 0 parameter\(s\), got 1$"),
    ], ids=["unknown", "X4-short", "X24-long", "X96-extra"])
    def test_triple_checks_the_family_and_the_count(self, call, family, params, message):
        # the errors of make_family; a short tuple was padded with zeros
        with pytest.raises(DomainError, match=message):
            make_family(family, params)
        with pytest.raises(DomainError, match=message):
            call(family, params)

    @pytest.mark.parametrize("powers", [[{"x": 3}], [{"x": 4}, {"y": 3}], [{"r": 4}]])
    def test_quartic_form_needs_a_homogeneous_quartic(self, powers):
        poly = sum((mono(RSU, m) for m in powers), Polynomial.zero(RSU))
        with pytest.raises(DomainError, match="homogeneous of geometric degree 4"):
            QuarticForm(poly, "X4", ())

    def test_generic(self):
        q = make_generic(list(range(1, 16)))
        assert q.poly.geometric_degree() == 4
        assert len(q.poly.terms) == 15
        with pytest.raises(DomainError):
            make_generic([1, 2, 3])

    @pytest.mark.parametrize("bad", [
        "a", "nan", "1/0", None, float("nan"), float("inf"), 1j, True, False,
        # outside the grammar, or an exponent int refuses to read (a zero mantissa is 0
        # whatever its exponent: tests/test_rational.py), before any power of ten is formed
        "1ee100000000", "1e1_", "e100000000", "1/2e100000000",
        pytest.param("1e" + "1" * 5000, id="exponent-of-5000-digits"),
        # a Decimal's exponent is read only when it is finite
        pytest.param(Decimal("NaN"), id="Decimal-NaN"),
        pytest.param(Decimal("-Infinity"), id="Decimal-Infinity")])
    def test_non_rational_value_is_a_domain_error(self, bad):
        message = f"^cannot parse rational {re.escape(repr(bad))}"
        with pytest.raises(DomainError, match=message):
            make_family("X4", [bad, 1, 1])
        with pytest.raises(DomainError, match=message):
            make_family("X24", [bad])
        with pytest.raises(DomainError, match=message):
            make_generic([1] * 14 + [bad])

    def test_rationals_in_every_form_are_accepted(self):
        want = make_family("X4", (Fraction(7, 2), -3, Fraction(1, 4))).poly
        assert make_family("X4", ("7/2", "-3", 0.25)).poly == want
        assert make_generic(["1/3"] * 15).params == (Fraction(1, 3),) * 15


class TestSBasis:
    def test_s21(self):
        got = s_basis((2, 1), RSU)
        want = (mono(RSU, {"r": 2, "s": 1}) + mono(RSU, {"r": 1, "s": 2})
                + mono(RSU, {"s": 2, "u": 1}) + mono(RSU, {"s": 1, "u": 2})
                + mono(RSU, {"r": 2, "u": 1}) + mono(RSU, {"r": 1, "u": 2}))
        assert got == want

    def test_s311(self):
        got = s_basis((3, 1, 1), RSU)
        want = (mono(RSU, {"r": 3, "s": 1, "u": 1}) + mono(RSU, {"r": 1, "s": 3, "u": 1})
                + mono(RSU, {"r": 1, "s": 1, "u": 3}))
        assert got == want

    def test_s111_single_orbit(self):
        assert s_basis((1, 1, 1), RSU) == mono(RSU, {"r": 1, "s": 1, "u": 1})

    def test_orbit_sizes(self):
        assert len(s_basis((2,), RSU).terms) == 3
        assert len(s_basis((2, 1), RSU).terms) == 6
        assert len(s_basis((2, 2), RSU).terms) == 3
        assert len(s_basis((1, 1, 1), RSU).terms) == 1
        assert len(s_basis((3, 2, 1), RSU).terms) == 6

    def test_symmetry(self):
        for parts in ((3,), (2, 1), (4, 2, 1), (5, 5, 2)):
            assert is_symmetric(s_basis(parts, RSU))

    def test_table_without_basis_variable(self):
        with pytest.raises(DomainError, match="needs variable 'u'"):
            s_basis((2, 1), VarTable(("x", "y", "z"), ("r", "s")))

    def test_partition_validation(self):
        with pytest.raises(DomainError):
            Partition((1, 2))
        with pytest.raises(DomainError):
            Partition((1, 1, 1, 1))


class TestDecompose:
    def test_reference_shape(self):
        p = 6 * s_basis((2,), RSU) + 2 * s_basis((1, 1, 1), RSU) + 72
        dec = decompose_symmetric(p)
        assert dec.constant == 72
        assert dec.terms == ((Partition((1, 1, 1)), Fraction(2)), (Partition((2,)), Fraction(6)))

    def test_constant(self):
        dec = decompose_symmetric(Polynomial.constant(RSU, 1))
        assert dec.constant == 1 and not dec.terms

    def test_linear(self):
        p = (Polynomial.variable(RSU, "r") + Polynomial.variable(RSU, "s")
             + Polynomial.variable(RSU, "u"))
        dec = decompose_symmetric(p)
        assert dec.constant == 0
        assert dec.terms == ((Partition((1,)), Fraction(1)),)

    def test_roundtrip_random(self):
        rng = random.Random(61)
        for _ in range(10):
            p = Polynomial.constant(RSU, rng.randint(-5, 5))
            for _ in range(4):
                parts = tuple(sorted((rng.randint(1, 4) for _ in range(rng.randint(1, 3))),
                                     reverse=True))
                p = p + s_basis(parts, RSU) * Fraction(rng.randint(-6, 6), rng.randint(1, 3))
            dec = decompose_symmetric(p)
            assert reconstruct(dec, RSU) == p

    def test_reconstruct_without_basis_variable(self):
        dec = decompose_symmetric(6 * s_basis((2,), RSU) + 72)
        with pytest.raises(DomainError, match="needs variable 's'"):
            reconstruct(dec, VarTable(("x", "y", "z"), ("r", "u")))

    def test_rejects_asymmetric(self):
        with pytest.raises(DomainError):
            decompose_symmetric(mono(RSU, {"r": 1}))

    def test_rejects_geometric_variables(self):
        for powers in ({"x": 1}, {"y": 2, "r": 1}, {"z": 4}):
            with pytest.raises(DomainError, match="non-basis variables"):
                decompose_symmetric(mono(RSU, powers))

    def test_table_without_basis_variable(self, family_invariants):
        i3 = family_invariants["X16"].I3
        for check in (decompose_symmetric, is_symmetric):
            with pytest.raises(DomainError, match="needs variable 'u'"):
                check(i3)
        with pytest.raises(DomainError, match="needs variable 'r'"):
            decompose_symmetric(family_invariants["X96"].I3)


class TestGolden:
    def test_tables_load(self):
        for family in ("X4", "X16", "X24", "X96"):
            table = load_golden(family)
            assert set(table) == {3, 6, 9, 12, 15, 18}

    def test_x24_table_values(self):
        t = VarTable(("x", "y", "z"), ("r",))
        i12 = golden_polynomial("X24", 12, t)
        # 64 r^3 (r+18)^3 (r^2+3r+18)^3int / 729 at r = 1
        from quartics.polyring import eval_exact

        assert eval_exact(i12, {"r": 1}) == Fraction(64 * 19 ** 3 * 22 ** 3, 729)

    def test_gamma_is_one_for_specialized_families(self):
        for family in ("X16", "X24"):
            report = golden_compare(dixmier_invariants(make_family(family)), family)
            assert report.ok
            assert all(g == 1 for g in report.gamma.values()), report.gamma

    def test_x96_zero_entries_undetermined(self):
        report = golden_compare(dixmier_invariants(make_family("X96")), "X96")
        assert report.ok
        assert report.gamma[3] == 1 and report.gamma[6] == 1
        assert all(report.gamma[k] is None for k in (9, 12, 15, 18))

    def test_x4_documented_anomalies(self):
        report = golden_compare(dixmier_invariants(make_family("X4")), "X4")
        assert report.ok
        assert report.gamma[3] == 1
        assert report.gamma[6] == Fraction(1, 648)
        assert report.gamma[9] == Fraction(64, 27)
        assert report.gamma[12] == 1
        assert report.gamma[15] == 1
        assert report.gamma[18] == 1

    def test_table_is_read_only_and_parsed_once(self):
        table = load_golden("X4")
        assert load_golden("X4") is table
        with pytest.raises(TypeError):
            table[3] = table[6]

    def test_one_expansion_per_table(self, family_invariants):
        table = family_invariants["X16"].I3.table
        load_golden.cache_clear()
        golden_polynomial.cache_clear()
        first = golden_polynomial("X16", 9, table)
        # an equal table made afresh is the same key
        assert golden_polynomial("X16", 9, VarTable(table.geometric, table.parameters)) is first
        assert golden_polynomial.cache_info()[:2] == (1, 1)     # (hits, misses)
        golden_polynomial("X16", 9, RSU)
        golden_polynomial("X16", 12, table)
        assert golden_polynomial.cache_info()[:2] == (1, 3)
        assert load_golden.cache_info().misses == 1

    @pytest.mark.parametrize("family", sorted(FAMILY_PARAMS))
    def test_cold_and_warm_cache_agree(self, family, family_invariants):
        load_golden.cache_clear()
        golden_polynomial.cache_clear()
        cold = golden_compare(family_invariants[family], family)
        assert load_golden.cache_info().misses == 1
        assert golden_polynomial.cache_info()[:2] == (0, 6)
        warm = golden_compare(family_invariants[family], family)
        assert golden_polynomial.cache_info()[:2] == (6, 6)
        assert load_golden.cache_info().misses == 1
        assert warm == cold
        assert (cold.gamma, cold.failures) == compare_oracle(family_invariants[family], family)

    def test_unknown_family(self, family_invariants):
        with pytest.raises(DomainError, match="unknown family 'X8'"):
            golden_polynomial("X8", 3, RSU)
        with pytest.raises(DomainError, match="unknown family 'X8'"):
            golden_compare(family_invariants["X4"], "X8")

    @pytest.mark.parametrize("family", ["X4", "X24"])
    @pytest.mark.parametrize("k", [0, 4, 21, -3, "3"])
    def test_degree_that_is_not_an_invariant(self, family, k):
        with pytest.raises(DomainError, match=re.escape("(3, 6, 9, 12, 15, 18)")):
            golden_polynomial(family, k, RSU)

    @pytest.mark.parametrize("family, line", [
        ("X4", "I3 [1,2] 5"),
        ("X4", "I3 [2,0] 5"),
        ("X4", "I3 [1,1,1,1] 5"),
        ("X4", "I3 [x] 5"),
        ("X16", "I6 [1,2,0] 5"),
        ("X16", "I6 [-1,2] 5"),
        ("X24", "I9 [2,2] 5"),
        ("X96", "I12 [1] 5"),
        ("X24", "I9 [2] 5 7"),
        ("X24", "I9 [2] 5/0"),
        ("X24", "I7 [2] 5"),
        ("X24", "J9 [2] 5"),
    ])
    def test_malformed_key_is_rejected(self, family, line):
        good = "# a comment\nI3 prefactor 1/2\nI3 const 4\n"
        assert symfam._parse_golden(family, good)[3].prefactor == Fraction(1, 2)
        with pytest.raises(DomainError, match=rf"^{family} table: malformed line '{re.escape(line)}'"):
            symfam._parse_golden(family, good + line + "\n")

    @pytest.mark.parametrize("family", sorted(FAMILY_PARAMS))
    def test_compare_parses_the_table_once(self, family, family_invariants):
        load_golden.cache_clear()
        golden_polynomial.cache_clear()
        report = golden_compare(family_invariants[family], family)
        assert load_golden.cache_info().misses == 1
        # with every entry expanded, a fresh comparison does not read the table
        load_golden.cache_clear()
        assert golden_compare(family_invariants[family], family) == report
        assert load_golden.cache_info()[:2] == (0, 0)
        assert report.ok

    @pytest.mark.parametrize("source, family, message", [
        (("X4", (1, 2, 3)), "X4", "symmetric basis needs variable 'r'"),
        (("X24", None), "X16", "X16 table needs variable 's'"),
    ], ids=["numeric-X4", "X24-as-X16"])
    def test_missing_family_parameter_is_named(self, source, family, message):
        inv = dixmier_invariants(make_family(*source))
        with pytest.raises(DomainError, match=message):
            golden_compare(inv, family)

    @pytest.mark.parametrize("family", sorted(FAMILY_PARAMS))
    def test_doctored_invariants_match_oracle(self, family, family_invariants):
        inv = family_invariants[family]
        table = inv.I3.table
        rng = random.Random(640 + sorted(FAMILY_PARAMS).index(family))
        names = FAMILY_PARAMS[family]

        def nonzero():
            return random_fraction(rng) or Fraction(1, 7)

        def added_monomial(v):
            powers = {n: rng.randint(0, 5) for n in names}
            return v + mono(table, powers, nonzero())

        doctorings = {
            "constant shift": lambda v: v + nonzero(),
            "added monomial": added_monomial,
            "rational rescale": lambda v: v * nonzero(),
            "zeroed": lambda v: Polynomial.zero(table),
        }
        for label, doctor in doctorings.items():
            for _ in range(3):
                values = inv.as_dict()
                k = rng.choice(sorted(values))
                values[k] = doctor(values[k])
                doctored = InvariantSet(*(values[j] for j in (3, 6, 9, 12, 15, 18)))
                report = golden_compare(doctored, family)
                assert (report.gamma, report.failures) == compare_oracle(doctored, family), \
                    (label, k)

    def test_mismatch_is_reported(self):
        inv = dixmier_invariants(make_family("X24"))
        doctored = InvariantSet(inv.I3 + 1, inv.I6, inv.I9, inv.I12, inv.I15, inv.I18)
        report = golden_compare(doctored, "X24")
        assert not report.ok
        assert 3 in report.failures


def _disc(family, params):
    return quartic_discriminant(make_family(family, params).poly.terms)


def _raises(family, params) -> bool:
    try:
        singular_locus_check(family, tuple(map(Fraction, params)))
    except DegeneracyError:
        return True
    return False


def _rational(rng, avoid=()):
    """A seeded small rational not in *avoid*."""
    while (v := random_fraction(rng, span=9, den=5)) in avoid:
        pass
    return v


class TestDiscriminantOracle:
    """``singular_locus_check`` against the exact discriminant (Macaulay's
    resultant of f_x, f_y, f_z in conftest.py): it raises exactly when the
    discriminant vanishes, on seeded points of each locus and off them."""

    def _on_locus(self, family, params):
        assert _disc(family, params) == 0, (family, params)
        assert _raises(family, params), (family, params)

    def test_oracle_is_the_factored_discriminant(self):
        # on X4 the resultant is 2^34 ((r^2-4)(s^2-4)(u^2-4))^2 (r^2+s^2+u^2-rsu-4)^4,
        # so the Fermat quartic's is 2^54
        rng = random.Random(11)
        for _ in range(4):
            r, s, u = (_rational(rng) for _ in range(3))
            want = (2 ** 34 * ((r * r - 4) * (s * s - 4) * (u * u - 4)) ** 2
                    * (r * r + s * s + u * u - r * s * u - 4) ** 4)
            assert _disc("X4", (r, s, u)) == want
        assert _disc("X96", ()) == 2 ** 54

    @pytest.mark.parametrize("family, params", [("X4", (1, 3, 5)), ("X96", ()),
                                                 ("X16", (Fraction(7, 2), -1))])
    def test_pencil_gives_the_same_value(self, family, params):
        # the fallback where Macaulay's extraneous minor vanishes, at members
        # where it does not
        terms = make_family(family, params).poly.terms
        assert pencil_resultant(terms) == quartic_discriminant(terms) != 0

    @pytest.mark.parametrize("seed", range(2))
    def test_fricke_points(self, seed):
        # r = a + 1/a, s = b + 1/b, u = ab + 1/(ab) lies on r^2+s^2+u^2-rsu-4 = 0
        rng = random.Random(seed)
        for _ in range(4):
            a, b = _rational(rng, (0,)), _rational(rng, (0,))
            self._on_locus("X4", (a + 1 / a, b + 1 / b, a * b + 1 / (a * b)))

    @pytest.mark.parametrize("seed", range(2))
    def test_plus_minus_two_planes(self, seed):
        rng = random.Random(10 + seed)
        for slot in range(3):
            for two in (2, -2):
                triple = [_rational(rng) for _ in range(3)]
                triple[slot] = two
                self._on_locus("X4", tuple(triple))
        for two in (2, -2):
            self._on_locus("X16", (two, _rational(rng)))
            self._on_locus("X16", (_rational(rng), two))

    @pytest.mark.parametrize("seed", range(2))
    def test_x16_parabola(self, seed):
        # X16's triple (r, s, s) meets the surface on r = 2 and r = s^2 - 2
        rng = random.Random(20 + seed)
        for _ in range(3):
            s = _rational(rng)
            self._on_locus("X16", (s * s - 2, s))

    def test_x24_integers(self):
        # X24's triple (r, r, r) meets the surface on r = -1 and r = 2 (twice)
        # and the planes on r = +-2; every other integer is a smooth member
        zeros = [r for r in range(-6, 7) if _disc("X24", (r,)) == 0]
        assert zeros == [-2, -1, 2]
        assert [r for r in range(-6, 7) if _raises("X24", (r,))] == zeros

    @pytest.mark.parametrize("seed", range(2))
    def test_random_points_agree(self, seed):
        # random rationals other than +-2: nearly all miss the surface
        rng = random.Random(30 + seed)
        points = [("X96", ())]
        for family, arity in (("X4", 3), ("X16", 2), ("X24", 1)):
            points += [(family, tuple(_rational(rng, (2, -2)) for _ in range(arity)))
                       for _ in range(4)]
        smooth = 0
        for family, params in points:
            disc = _disc(family, params)
            assert _raises(family, params) == (disc == 0), (family, params)
            smooth += disc != 0
        assert smooth >= len(points) - 2
