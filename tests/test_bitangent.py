"""Tangency systems, perfect-square fitting, enumeration counts and
certification for the bitangent machinery."""

import cmath
import itertools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quartics import bitangent
from quartics import components as comp
from quartics.bitangent import (CHARTS, DEFAULT_CERT_TOL, DEFAULT_DEDUPE_TOL,
                                ProjLine, build_tangency_system,
                                coordinate_type_count, dedupe_lines,
                                enumerate_bitangents, eval_scaled,
                                perfect_square_fit, proj_distance,
                                restriction_coefficients)
from quartics.detrep import solve_detrep
from quartics.errors import (DegeneracyError, DomainError, EnumerationError, QuarticsError,
                             overflow_as)
from quartics.numroots import eval_poly
from quartics.polyring import (Polynomial, VarTable, convert, eval_complex, eval_exact,
                               substitute)
from quartics.symfam import FAMILY_PARAMS, make_family, singular_locus_check, x4_triple

from test_certify_fixture import MEMBERS


NAN, INF = float("nan"), float("inf")


def mono(table, powers, c=1):
    return Polynomial.monomial(table, powers, c)


def var(table, name):
    return Polynomial.variable(table, name)


class TestTangencySystem:
    def test_x4_leading_generator(self):
        gens = build_tangency_system(make_family("X4"), "XY")
        t = gens[0].table
        want = (1 + var(t, "u") * mono(t, {"a": 2}) + mono(t, {"a": 4})
                - mono(t, {"l0": 2}))
        assert gens[0] == want

    def test_x96_trailing_generator(self):
        gens = build_tangency_system(make_family("X96"), "XY")
        t = gens[0].table
        assert gens[4] == 1 + mono(t, {"b": 4}) - mono(t, {"l2": 2})

    def test_generators_vanish_on_certified_line(self):
        certs = enumerate_bitangents("X24", (3,))
        f = make_family("X24", (3,))
        for cert in certs[:6]:
            gens = build_tangency_system(f, cert.chart)
            point = {**CHARTS[cert.chart].point(cert.line.coefficients),
                     "l0": cert.lam[0], "l1": cert.lam[1], "l2": cert.lam[2]}
            for gen in gens:
                value, scale = eval_scaled(gen, point)
                assert abs(value) / max(scale, 1.0) < 1e-9

    @pytest.mark.parametrize("name", ["a", "b", "c", "l0", "l1", "l2"])
    def test_reserved_parameter_name_rejected(self, name):
        t = VarTable(("x", "y", "z"), (name,))
        f = mono(t, {"x": 4}) + var(t, name) * mono(t, {"y": 4}) + mono(t, {"z": 4})
        with pytest.raises(DomainError, match=repr(name)):
            restriction_coefficients(f, "XY")
        with pytest.raises(DomainError, match=repr(name)):
            build_tangency_system(f, "YZ")

    @pytest.mark.parametrize("chart", ["QQ", "xy", "", "Y Z", ["XY"], None])
    def test_unknown_chart_is_a_domain_error(self, chart):
        # both raised a bare KeyError from the chart table (TypeError for a list)
        f = make_family("X24", (3,))
        want = f"^unknown chart {re.escape(repr(chart))}; the charts are XY, YZ, ZX$"
        with pytest.raises(DomainError, match=want):
            restriction_coefficients(f, chart)
        with pytest.raises(DomainError, match=want):
            build_tangency_system(f, chart)


class TestPerfectSquareFit:
    def test_exact_square(self):
        fit = perfect_square_fit([1, 2, 3, 2, 1])  # (x^2 + xy + y^2)^2
        assert fit is not None
        lam, residual = fit
        assert residual < 1e-14
        ratios = [lam[0] / lam[0], lam[1] / lam[0], lam[2] / lam[0]]
        assert all(abs(v - 1) < 1e-12 for v in ratios)

    def test_fermat_binary_rejected(self):
        assert perfect_square_fit([1, 0, 0, 0, 1]) is None

    def test_x96_slanted_axis_line(self):
        # the line x + w y = 0 with w^4 = -1 restricts x^4+y^4+z^4 to z^4
        w = cmath.exp(1j * cmath.pi / 4)
        f = make_family("X96")
        coeffs = restriction_coefficients(f, "YZ")
        point = {"b": w, "c": 0j}
        values = [eval_scaled(c, point)[0] for c in coeffs]
        fit = perfect_square_fit(values)
        assert fit is not None and fit[1] < 1e-12

    def test_all_zero(self):
        assert perfect_square_fit([0, 0, 0, 0, 0]) is None

    @pytest.mark.parametrize("coeffs", [
        [1, NAN, 0, 0, 0],          # max() skips a NaN that is not first
        [NAN, 0, 0, 0, 1],
        [1, 2, 3, 2, complex(1, NAN)],
        [1, 2, INF, 2, 1],
        [1, -INF, 3, 2, 1],
    ])
    def test_non_finite_coefficient_is_no_fit(self, coeffs):
        assert perfect_square_fit(coeffs) is None
        assert perfect_square_fit(coeffs, 1e300) is None

    @pytest.mark.parametrize("value", [NAN, INF, -INF, 0.0, -1.0])
    def test_bad_tolerance_rejected(self, value):
        square = [1, 2, 1.5, 0.5, 0.0625]   # (x^2 + xy + y^2/4)^2
        assert perfect_square_fit(square) is not None
        with pytest.raises(DomainError, match="^tol must be a finite number > 0"):
            perfect_square_fit(square, value)

    def test_modulus_above_the_largest_double(self):
        # abs() of such a coefficient raised a bare OverflowError
        big = 1.5e308 + 1.5e308j
        l0 = cmath.sqrt(big)
        lam, residual = perfect_square_fit([big, 0, 0, 0, 1])
        assert abs(lam[0] / l0 - 1) < 1e-15 and lam[1] == 0 and residual < 1e-300
        # (l0 x^2 + 3 xy + 5 y^2)^2 with l0^2 = big fits exactly
        lam, residual = perfect_square_fit([big, 6 * l0, 9 + 10 * l0, 30, 25])
        assert abs(lam[0] / l0 - 1) < 1e-15 and lam[1:] == (3, 5) and residual < 1e-15
        assert perfect_square_fit([big, 0, 1, 0, big]) is None
        assert perfect_square_fit([big, NAN, 0, 0, 1]) is None

    @pytest.mark.parametrize("n", [0, 3, 4, 6])
    def test_fit_takes_five_coefficients(self, n):
        # four raised a bare ValueError from unpacking, and none one from max()
        with pytest.raises(DomainError, match=f"^a square fit takes 5 coefficients, got {n}$"):
            perfect_square_fit([1] * n)


class TestDedupe:
    def test_scalar_multiples(self):
        out = dedupe_lines([(1, 1, 1), (2, 2, 2)])
        assert len(out) == 1

    def test_cross_chart(self):
        b = 0.7 - 0.3j
        out = dedupe_lines([(0, b, 1), (0, 1, 1 / b)])
        assert len(out) == 1

    def test_distinct_survive(self):
        out = dedupe_lines([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])
        assert len(out) == 4

    def test_projective_distance(self):
        assert proj_distance((1, 2, 3), (2, 4, 6)) < 1e-15
        assert proj_distance((1, 0, 0), (0, 1, 0)) > 0.5

    def test_zero_line_is_a_domain_error(self):
        for p, q in (((0, 0, 0), (1, 2, 3)), ((1, 2, 3), (0.0, 0j, -0.0))):
            with pytest.raises(DomainError, match="zero line"):
                proj_distance(p, q)

    @pytest.mark.parametrize("p, q, want", [
        ((1e200, 0, 0), (0, 1e200, 0), 1.0),        # the minors overflowed to inf / inf
        ((1e200, 0, 0), (1e200, 1e199, 0), 0.1),
        ((1e-170, 0, 0), (0, 1e-170, 0), 1.0),      # the norms' product underflowed to 0
        ((5e-324, 0, 0), (0, 5e-324, 0), 1.0),      # subnormal
        ((1e-310, 0, 0), (1e-310, 1e-310, 0), 1.0),
    ])
    def test_distance_at_extreme_magnitudes(self, p, q, want):
        assert proj_distance(p, q) == pytest.approx(want, rel=1e-15)

    @pytest.mark.parametrize("seed", range(3))
    def test_distance_is_invariant_under_power_of_two_scaling(self, seed):
        rng = random.Random(seed)
        for _ in range(50):
            p, q = ([complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(3)] for _ in "pq")
            want = proj_distance(p, q)
            for a, b in ((900, -900), (-900, 900), (900, 900), (-900, -900)):
                assert proj_distance([v * 2.0 ** a for v in p], [v * 2.0 ** b for v in q]) == want


def _dedupe_reference(lines, tol):
    """Dedupe by a pairwise loop over :func:`proj_distance`, the oracle for
    :func:`dedupe_lines`, which normalizes each line only once."""
    reps = []
    for line in lines:
        if not isinstance(line, ProjLine):
            line = ProjLine.from_coefficients(line)
        if not any(proj_distance(line.coefficients, r.coefficients) < tol for r in reps):
            reps.append(line)
    return sorted(reps, key=lambda l: l.sort_key())


#: Coefficient triples with exact repeats, rescalings and copies within and
#: beyond the dedupe tolerance of one another.
_LINES = st.tuples(*[st.sampled_from([0, 1, -1, 2, 1j, -0.5j, 1 + 1e-9, 2 + 3e-9j, 1e-7, 2e-8])] * 3
                   ).filter(any)


class TestDedupeExact:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_pairwise_reference(self, seed):
        rng = random.Random(seed)
        tol = 1e-8
        base = [ProjLine.from_coefficients(
                    [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(3)])
                for _ in range(12)]
        lines = list(base)
        for line in base:
            # copies at about 0.5x and 2x the tolerance from the line, rescaled
            for factor in (0.5, 2.0):
                c = list(line.coefficients)
                j = (line.pivot + 1) % 3
                c[j] += factor * tol * cmath.exp(1j * rng.uniform(0, 2 * cmath.pi))
                scale = complex(rng.uniform(0.1, 10), rng.uniform(-10, 10))
                lines.append(tuple(v * scale for v in c))
        rng.shuffle(lines)
        got = dedupe_lines(lines, tol)
        assert got == _dedupe_reference(lines, tol)
        assert len(got) == 2 * len(base)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), 0.0, -1.0])
    def test_bad_tolerance_rejected(self, value):
        with pytest.raises(DomainError, match="^tol must be a finite number > 0"):
            dedupe_lines([(1, 0, 0)], value)

    # dedupe_lines compares a line only with representatives whose modulus sum
    # lies in a nearby cell; the inputs below put matches into neighbouring
    # cells, into one shared cell, and across a change of pivot slot

    @staticmethod
    def _radial_copy(line, factor, tol):
        """A copy whose two non-pivot moduli both grow by factor * tol: its
        distance is factor * tol and its modulus sum grows by 2 * factor * tol."""
        c = list(line.coefficients)
        for j in range(3):
            if j != line.pivot and c[j]:
                c[j] *= 1 + factor * tol / abs(c[j])
        return tuple(c)

    @pytest.mark.parametrize("seed", range(6))
    def test_radial_copies_match_reference(self, seed):
        rng = random.Random(100 + seed)
        tol = 1e-8
        lines = []
        for _ in range(40):
            line = ProjLine.from_coefficients(
                [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(3)])
            lines.append(line)
            for factor in (0.45, 0.9, 2.0):
                lines.append(self._radial_copy(line, factor, tol))
        rng.shuffle(lines)
        got = dedupe_lines(lines, tol)
        assert got == _dedupe_reference(lines, tol)
        assert len(got) == 2 * 40

    @pytest.mark.parametrize("seed", range(6))
    def test_near_tie_pivots_match_reference(self, seed):
        # two slots of equal modulus: copies pick either slot as their pivot
        rng = random.Random(200 + seed)
        tol = 1e-8
        lines = []
        for _ in range(20):
            w = cmath.exp(1j * rng.uniform(0, 2 * cmath.pi))
            c = complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7))
            scale = complex(rng.uniform(0.1, 10), rng.uniform(-10, 10))
            for eta in (0.0, 0.3 * tol, -0.3 * tol, 0.6 * tol, 3 * tol):
                slots = [1, w * (1 + eta), c]
                rng.shuffle(slots)
                lines.append(tuple(v * scale for v in slots))
        got = dedupe_lines(lines, tol)
        assert got == _dedupe_reference(lines, tol)

    @pytest.mark.parametrize("seed", range(6))
    def test_sign_orbits_match_reference(self, seed):
        # (+-a, +-b, 1) share their moduli, so the four lines share a cell
        rng = random.Random(300 + seed)
        tol = 1e-8
        lines = []
        for _ in range(10):
            a = complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) / 1.5
            b = complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) / 1.5
            for sa in (1, -1):
                for sb in (1, -1):
                    line = ProjLine.from_coefficients((sa * a, sb * b, 1))
                    lines.append(line)
                    for factor in (0.5, 2.0):
                        lines.append(self._radial_copy(line, factor, tol))
        rng.shuffle(lines)
        got = dedupe_lines(lines, tol)
        assert got == _dedupe_reference(lines, tol)
        assert len(got) == 2 * 40

    @pytest.mark.parametrize("tol", [5e-324, 1e-300, 1e-8, 0.3, 1.0, 1e308])
    def test_extreme_tolerances_match_reference(self, tol):
        rng = random.Random(400)
        lines = []
        for _ in range(30):
            line = ProjLine.from_coefficients(
                [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(3)])
            lines += [line, line.coefficients, self._radial_copy(line, 0.5, min(tol, 1e-3))]
            scale = complex(rng.uniform(0.1, 10), rng.uniform(-10, 10))
            lines.append(tuple(v * scale for v in line.coefficients))
        rng.shuffle(lines)
        assert dedupe_lines(lines, tol) == _dedupe_reference(lines, tol)

    @pytest.mark.parametrize("seed", range(6))
    def test_copies_near_tol_in_every_direction_match_reference(self, seed):
        # each non-pivot slot moved by 0.99 tol in a random direction: the minors
        # through the pivot are 0.99 tol, the third one up to about 2 tol, so
        # some copies match and some do not, and the moduli pre-check must let
        # every match through to the distance
        rng = random.Random(500 + seed)
        tol = 1e-8
        lines = []
        for _ in range(30):
            line = ProjLine.from_coefficients(
                [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(3)])
            lines.append(line)
            for _ in range(3):
                lines.append(tuple(
                    v if j == line.pivot
                    else v + 0.99 * tol * cmath.exp(1j * rng.uniform(0, 2 * cmath.pi))
                    for j, v in enumerate(line.coefficients)))
        rng.shuffle(lines)
        got = dedupe_lines(lines, tol)
        assert got == _dedupe_reference(lines, tol)
        assert 30 < len(got) < 120

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_LINES, max_size=12), st.lists(_LINES, max_size=12))
    def test_dedupe_onto_kept_lines(self, first, rest):
        # enumerate_bitangents dedupes each pass onto the lines kept before it
        kept = dedupe_lines(first)
        assert dedupe_lines(kept + rest) == dedupe_lines(first + rest)
        assert dedupe_lines(first + rest) == _dedupe_reference(first + rest, DEFAULT_DEDUPE_TOL)

    @pytest.mark.parametrize("bad", [(1, NAN, 3), (INF, 0, 1), (0, complex(0, NAN), 0)])
    def test_non_finite_line_rejected(self, bad):
        # NaN distances once read 0.0, which collapsed such lines into one
        with pytest.raises(DomainError, match="not all finite"):
            dedupe_lines([bad, bad])
        with pytest.raises(DomainError, match="non-finite"):
            dedupe_lines([ProjLine(tuple(complex(v) for v in bad))])


class TestNormalization:
    def test_pivot_is_exact_one(self):
        line = ProjLine.from_coefficients((3, 1 + 1j, 2))
        assert line.coefficients[0] == 1.0 + 0j
        assert line.pivot == 0 and line.chart == "YZ"

    def test_tie_takes_first(self):
        line = ProjLine.from_coefficients((1, 1j, 0))
        assert line.coefficients[0] == 1.0 + 0j

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            ProjLine.from_coefficients((0, 0, 0))

    @pytest.mark.parametrize("bad", [(1, NAN, 3), (NAN, 1, 0), (0, INF, 0), (1, 1, -INF),
                                     (0, complex(0, NAN), 0)])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(DomainError, match="not all finite"):
            ProjLine.from_coefficients(bad)

    @pytest.mark.parametrize("coeffs", [(), (1,), (1, 2), (1, 2, 3, 4)])
    def test_a_line_has_three_coefficients(self, coeffs):
        # two coefficients made a line with two slots, and four a line whose
        # .chart raised a bare KeyError; proj_distance and dedupe_lines raised
        # a bare ValueError from unpacking
        want = f"^a line has 3 coefficients, got {len(coeffs)}$"
        calls = [lambda: ProjLine.from_coefficients(coeffs),
                 lambda: ProjLine(tuple(map(complex, coeffs))),
                 lambda: proj_distance(coeffs, (1, 0, 0)),
                 lambda: proj_distance((1, 0, 0), coeffs),
                 lambda: dedupe_lines([(1, 0, 0), coeffs])]
        for call in calls:
            with pytest.raises(DomainError, match=want):
                call()

    def test_constructor_takes_only_the_normal_form(self):
        # the dedupe files a line by its moduli, which holds only when the
        # largest is 1
        line = ProjLine.from_coefficients((3, 1 + 1j, 2))
        assert ProjLine(line.coefficients) == line
        for coeffs in ((2, 0, 0), (0.5, 0.25j, 0), (1e200, 1, 0)):
            with pytest.raises(DomainError, match="is not normalized"):
                ProjLine(coeffs)

    def test_modulus_above_the_largest_double(self):
        # abs() of such a coefficient raised a bare OverflowError; the line is
        # that of the coefficients over 4, which do not overflow
        big = 1.5e308 + 1.5e308j
        assert proj_distance((big, 0, 0), (1, 0, 0)) == 0.0
        assert proj_distance((big, 0, 0), (0, 1, 0)) == 1.0
        line = ProjLine.from_coefficients((big, big / 2, 2 ** 970))
        assert line.coefficients[:2] == (1, 0.5) and line.moduli[2] < 1e-16
        kept = dedupe_lines([(big, big, 0), (1, 1, 0), (0, big, 1)])
        assert [line.coefficients[:2] for line in kept] == [(0, 1), (1, 1)]
        with pytest.raises(DomainError, match="not all finite"):
            ProjLine.from_coefficients((big, NAN, 0))
        with pytest.raises(DomainError, match="is not normalized"):
            ProjLine((big, 0, 0))

    def test_moduli_are_those_of_the_coefficients(self):
        line = ProjLine.from_coefficients((3, 1 + 1j, 2j))
        assert line.moduli == tuple(abs(v) for v in line.coefficients)
        assert "moduli" not in repr(line)
        twin = ProjLine(line.coefficients)
        assert twin == line and hash(twin) == hash(line)


class TestChartPoint:
    def test_slots_match_the_literal_table(self):
        # the table the benchmark still spells out
        literal = {"XY": (0, 1), "YZ": (1, 2), "ZX": (0, 2)}
        coeffs = (2 + 1j, -3 + 0j, 0.5j)
        for chart, slots in literal.items():
            unknowns = CHARTS[chart].unknowns
            assert CHARTS[chart].slots == slots
            assert CHARTS[chart].point(coeffs) == {unknowns[0]: coeffs[slots[0]],
                                                   unknowns[1]: coeffs[slots[1]]}

    def test_normalized_slot_is_not_an_unknown(self):
        # each chart's two slots are the coefficients left after normalizing one to 1
        for chart, spec in CHARTS.items():
            normalized = "xyz".index(spec.normalized)
            assert sorted(spec.slots + (normalized,)) == [0, 1, 2]
            line = ProjLine.from_coefficients([5.0 if i == normalized else 1.0 for i in range(3)])
            assert line.chart == chart


#: X4's components solved in all three charts, as one candidate source.
_X4_ALL_CHARTS = bitangent._in_charts("X4", (bitangent._solve_x4_axes, bitangent._solve_x4_j1))


class TestNonFiniteCandidate:
    def test_certify_rejects(self, monkeypatch):
        # such a candidate cannot be normalized, so it is rejected before
        # certification: it never reaches _certify and counts under its source
        bad = ((NAN, 1 + 0j, 1 + 0j), (1 + 0j, complex(INF, 0), 1 + 0j))
        for coeffs in bad:
            with pytest.raises(DomainError, match="not all finite"):
                ProjLine.from_coefficients(coeffs)
        certified = []
        certify = bitangent._certify
        monkeypatch.setattr(bitangent, "_certify",
                            lambda poly, line, *rest: certified.append(line)
                            or certify(poly, line, *rest))
        monkeypatch.setitem(bitangent.CANDIDATE_SOURCES, "X24",
                            (((lambda _triple: [(c, "X24.J2") for c in bad]),),))
        with pytest.raises(EnumerationError, match=r"rejected: \{'X24.J2': 2\}"):
            enumerate_bitangents("X24", (3,))
        assert certified == []

    def test_counted_under_its_source(self, monkeypatch):
        def bad(_triple):
            return [((complex(NAN, 0), 0.5 + 0j, 1 + 0j), "X24.bad")]

        (sources,) = bitangent.CANDIDATE_SOURCES["X24"]
        monkeypatch.setitem(bitangent.CANDIDATE_SOURCES, "X24", ((bad, *sources),))
        assert len(enumerate_bitangents("X24", (3,))) == 28
        monkeypatch.setitem(bitangent.CANDIDATE_SOURCES, "X24", ((bad,),))
        with pytest.raises(EnumerationError, match=r"rejected: \{'X24.bad': 1\}"):
            enumerate_bitangents("X24", (3,))

    def test_j1_root_without_a_split_is_counted(self, monkeypatch):
        # at (1, 1, 1) the J1 resolvent's double root B = 1 makes every a^2
        # split vanish; without the diagonal source the error names the cause
        monkeypatch.setitem(bitangent.CANDIDATE_SOURCES, "X4", ((_X4_ALL_CHARTS,),))
        with pytest.raises(EnumerationError, match=r"rejected: \{'X4.J1\(split\)': 12\}"):
            enumerate_bitangents("X4", (1, 1, 1))


class TestRestrictionCache:
    def test_cached_coefficients_are_frozen(self):
        f = make_family("X96")
        coeffs = restriction_coefficients(f, "XY")
        before = list(coeffs)
        with pytest.raises(TypeError):
            coeffs[0] = coeffs[4]
        assert list(restriction_coefficients(f, "XY")) == before

    def test_members_evicting_each_other_give_the_same_lines(self):
        # the cache holds one member's charts; the next member evicts them
        cache = bitangent._restriction_coefficients_cached
        a = ("X4", (Fraction(1, 3), 3, Fraction(-5, 7)))
        first = repr(enumerate_bitangents(*a))
        enumerate_bitangents("X16", (Fraction(1, 3), 5))
        assert repr(enumerate_bitangents(*a)) == first
        assert cache.cache_info().currsize <= 3


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), 0.0, -1.0])
@pytest.mark.parametrize("keyword", ["tol", "dedupe_tol"])
def test_enumeration_rejects_bad_tolerance(keyword, value):
    with pytest.raises(DomainError, match=f"^{keyword} must be a finite number > 0"):
        enumerate_bitangents("X4", (1, 3, 5), **{keyword: value})


#: every tolerance parameter of the package, as a call that passes it the value
TOLERANCES = {
    "enumerate_bitangents tol": lambda v: enumerate_bitangents("X24", (1,), tol=v),
    "enumerate_bitangents dedupe_tol": lambda v: enumerate_bitangents("X24", (1,), dedupe_tol=v),
    "dedupe_lines tol": lambda v: dedupe_lines([(1, 0, 0)], tol=v),
    "perfect_square_fit tol": lambda v: perfect_square_fit([1, 0, 0, 0, 1], tol=v),
    "solve_detrep tol": lambda v: solve_detrep(1, 3, 5, tol=v),
}


@pytest.mark.parametrize("value", ["1e-9", None, 1j, True])
@pytest.mark.parametrize("parameter", sorted(TOLERANCES))
def test_tolerance_that_is_not_a_number_is_a_domain_error(parameter, value):
    keyword = parameter.split()[1]
    message = f"^{keyword} must be a finite number > 0, got {re.escape(repr(value))}$"
    with pytest.raises(DomainError, match=message):
        TOLERANCES[parameter](value)


class TestEnumeration:
    def test_x96_full_count(self):
        certs = enumerate_bitangents("X96")
        assert len(certs) == 28
        full = [c for c in certs if all(abs(v) > 1e-9 for v in c.line.coefficients)]
        axis = [c for c in certs if any(abs(v) <= 1e-9 for v in c.line.coefficients)]
        assert len(full) == 16 and len(axis) == 12
        assert all(c.residual < 1e-9 for c in certs)

    def test_x96_candidates_all_certify(self):
        candidates = bitangent._x96_candidates(None)
        sources = [source for _, source in candidates]
        assert (sources.count("X96.full"), sources.count("X96.axis")) == (16, 24)
        poly = make_family("X96").poly
        for coeffs, source in candidates:
            line = ProjLine.from_coefficients(coeffs)
            assert bitangent._certify(poly, line, DEFAULT_CERT_TOL, source) is not None

    def test_x24_rational_lines(self):
        certs = enumerate_bitangents("X24", (1,))
        assert len(certs) == 28
        for target in ((1, -1, 1), (-1, 1, 1), (-1, -1, 1), (1, 1, 1)):
            assert any(
                proj_distance(c.line.coefficients, target) < 1e-9 for c in certs
            ), f"missing rational line {target}"

    def test_x24_component_split(self):
        certs = enumerate_bitangents("X24", (3,))
        by_source = {}
        for c in certs:
            by_source[c.source] = by_source.get(c.source, 0) + 1
        # 8 + 8 coordinate-type from the biquadratics across charts, 12 rational-ish
        assert sum(by_source.values()) == 28

    def test_x4_split_and_residuals(self):
        certs = enumerate_bitangents("X4", (1, 3, 5))
        coord, general = coordinate_type_count(certs)
        assert (coord, general) == (12, 16)
        assert all(c.residual < 1e-9 for c in certs)
        j1 = [c for c in certs if c.source == "X4.J1"]
        assert len(j1) == 16

    def test_x16_count(self):
        certs = enumerate_bitangents("X16", (-2 + 3, 4))  # r=1, s=4
        assert len(certs) == 28

    def test_x16_thin_locus_supplement(self):
        # at (10, -1) the specialized a^2 + b^2 + s component picks up four
        # points with no perfect-square lift; the embedded three-parameter
        # route must supply the four certified lines it misses
        certs = enumerate_bitangents("X16", (10, -1))
        assert len(certs) == 28
        assert sum(1 for c in certs if c.source == "X4.J1") == 4

    def test_x24_large_parameter_conditioning(self):
        # small leading restriction coefficients (1 + b^4 + r b^2 with
        # b^2 = -1/(r+1)) must not defeat the square fit
        for r in (38, -55, Fraction(-65, 2)):
            certs = enumerate_bitangents("X24", (r,))
            assert len(certs) == 28
            assert max(c.residual for c in certs) < 1e-9

    def test_x16_closed_radical_cross_check(self):
        # the a = 0 component's roots in closed radical form
        r, s = Fraction(1), Fraction(4)
        inner = cmath.sqrt(float((2 - r) * s ** 2 + r ** 2 - 4))
        vals = []
        for sign in (1, -1):
            b2 = (2 * inner + float((2 - r) * s)) / float(s ** 2 - 4) if sign > 0 else \
                 -(2 * inner + float((r - 2) * s)) / float(s ** 2 - 4)
            root = cmath.sqrt(b2)
            vals.extend([root, -root])
        certs = enumerate_bitangents("X16", (r, s))
        for b in vals:
            assert any(
                proj_distance(c.line.coefficients, (0, b, 1)) < 1e-8 for c in certs
            ), f"closed-form root {b} not among certified lines"

    def test_x4_random_rational_parameters(self):
        rng = random.Random(71)
        done = 0
        while done < 3:
            params = tuple(Fraction(rng.randint(-100, 100), 10) for _ in range(3))
            r, s, u = params
            if any(abs(p) == 2 for p in params) or r*r + s*s + u*u - r*s*u - 4 == 0:
                continue
            certs = enumerate_bitangents("X4", params)
            assert len(certs) == 28
            assert coordinate_type_count(certs) == (12, 16)
            done += 1

    def test_j1_eliminant_even_and_satisfied(self):
        # a full-support bitangent lies on J1 in each chart: its coordinate b
        # there solves the degree-8 eliminant (the resolvent in B = b^2) of the
        # triple rotated into that chart, and so does -b
        charts = (((0, 1, 2), lambda c: c[1] / c[2]),    # (a, b, 1)
                  ((1, 2, 0), lambda c: c[2] / c[0]),    # (1, a, b)
                  ((2, 0, 1), lambda c: c[0] / c[1]))    # (b, 1, a)
        members = ((1, 3, 5), (Fraction(-7, 2), 4, Fraction(1, 3)),
                   (Fraction(2623, 1000), Fraction(-3, 10), Fraction(1, 7)),
                   (Fraction(30001, 3), Fraction(7, 3), Fraction(-11, 5)))
        for triple in members:
            certs = enumerate_bitangents("X4", triple)
            j1_lines = [c.line.coefficients for c in certs if c.source == "X4.J1"]
            assert len(j1_lines) == 16
            for order, chart_b in charts:
                params = {n: Fraction(triple[i]) for n, i in zip("rsu", order)}
                quartic = [complex(float(eval_exact(c, params))) for c in comp.X4_J1_QUARTIC_B]
                eliminant = [0j] * 9
                for k, c in enumerate(quartic):
                    eliminant[2 * k] = c
                for coeffs in j1_lines:
                    b = chart_b(coeffs)
                    scale = sum(abs(c) * abs(b) ** k for k, c in enumerate(eliminant))
                    assert abs(eval_poly(eliminant, b)) / scale < 1e-8
                    assert abs(eval_poly(eliminant, -b)) / scale < 1e-8  # even powers only

    def test_a2_splits_rebuild_their_generators(self):
        a2 = mono(comp.TABLE_X4, {"a": 2})
        assert len(comp.X4_J1_A2_SPLITS) == 3
        for (coeff, rest), gen in zip(comp.X4_J1_A2_SPLITS, comp.X4_J1_GENERATORS[2:5]):
            assert coeff.degree_in("a") == rest.degree_in("a") == 0 and coeff
            assert coeff * a2 + rest == gen

    def test_x4_j1_generators_vanish(self):
        certs = enumerate_bitangents("X4", (1, 3, 5))
        cparams = {"r": 1.0 + 0j, "s": 3.0 + 0j, "u": 5.0 + 0j}
        for cert in certs:
            if cert.source != "X4.J1" or abs(cert.line.coefficients[2]) < 0.5:
                continue
            c0, c1, c2 = cert.line.coefficients
            point = {"a": c0 / c2, "b": c1 / c2, **cparams}
            for gen in comp.X4_J1_GENERATORS:
                value, scale = eval_scaled(gen, point)
                assert abs(value) / max(scale, 1.0) < 1e-9


class TestCoordinateBiquadratic:
    """X4's J2 biquadratic is the one stored coordinate-type biquadratic; the
    solvers evaluate it at permuted parameters for X4's J3 and X16's J1, J2
    and J1''.  The literals below are those biquadratics written out."""

    @staticmethod
    def _references():
        r, s, u = (var(comp.TABLE_X4, n) for n in "rsu")
        r16, s16 = (var(comp.TABLE_X16, n) for n in "rs")
        return (
            # X4's J3 (b = 0) at (r, s, u), from J2 at (r, u, s)
            ((r**2 - 4, 2 * r * s - 4 * u, s**2 - 4), {"s": u, "u": s}, lambda r, s, u: (r, u, s)),
            # X16's J1/J2 (a = 0, b = 0), from J2 at (r, s, s)
            ((r16**2 - 4, 2 * r16 * s16 - 4 * s16, s16**2 - 4), {"u": s},
             lambda r, s, u: (r, s, s)),
            # X16's lines x + b*y = 0 (J1''), from J2 at (s, r, s)
            ((s16**2 - 4, 2 * s16**2 - 4 * r16, s16**2 - 4), {"r": s, "s": r, "u": s},
             lambda r, s, u: (s, r, s)),
        )

    def test_equal_symbolically(self):
        for literal, renaming, _ in self._references():
            table = literal[0].table
            derived = tuple(convert(substitute(c, renaming), table)
                            for c in comp.X4_J2_BIQUADRATIC)
            assert derived == literal

    def test_equal_at_seeded_rational_points(self):
        rng = random.Random(18)
        for _ in range(50):
            r, s, u = (Fraction(rng.randint(-60, 60), rng.randint(1, 9)) for _ in range(3))
            for literal, _, permute in self._references():
                point = dict(zip("rsu", (r, s, u)))
                derived = [eval_exact(c, dict(zip("rsu", permute(r, s, u))))
                           for c in comp.X4_J2_BIQUADRATIC]
                assert derived == [eval_exact(c, point) for c in literal]


@pytest.mark.parametrize("family,params", [
    ("X24", (Fraction(-1) + Fraction(1, 10 ** 12),)),
    ("X16", (Fraction(7000000000009, 9000000000000), Fraction(-5, 3))),
])
def test_near_locus_members_recertify(family, params):
    # both gave 40 distinct lines while the J1 resolvent was solved iteratively;
    # each line is re-certified with the other evaluator at ten times the
    # tolerance, and the lines are pairwise apart, as the benchmark checks them
    certs = enumerate_bitangents(family, params)
    assert len(certs) == 28
    form = make_family(family, params)
    for cert in certs:
        point = CHARTS[cert.chart].point(cert.coefficients)
        values = [eval_complex(c, point) for c in restriction_coefficients(form, cert.chart)]
        assert perfect_square_fit(values, 10 * DEFAULT_CERT_TOL) is not None
    for i, a in enumerate(certs):
        for b in certs[i + 1:]:
            assert proj_distance(a.coefficients, b.coefficients) >= DEFAULT_DEDUPE_TOL


def _x4_diagonal_members(magnitudes):
    """The smooth X4 members (r, s, u) with |r| = |s| = |u| in *magnitudes*."""
    members = {tuple(sign * m for sign in signs)
               for m in magnitudes for signs in itertools.product((1, -1), repeat=3)}
    return sorted((r, s, u) for r, s, u in members
                  if abs(r) != 2 and r * r + s * s + u * u - r * s * u - 4 != 0)


class TestX4Diagonal:
    """|r| = |s| = |u|: the J1 resolvent has the double root B = 1 there, and the
    lines come from X24(a), a = sign(rsu) |r|, scaled by d = (d_x, 1, d_z)."""

    GRID = _x4_diagonal_members([Fraction(k, 2) for k in range(10)])
    EXTREMES = _x4_diagonal_members([Fraction(10 ** 6), Fraction(1, 1000)])

    def test_grid_size(self):
        # the members of the grid {k/2 : -9 <= k <= 9}^3 on the diagonal
        assert len(self.GRID) == 61

    def test_every_member_has_the_28_scaled_x24_lines(self):
        x24 = {}
        for r, s, u in self.GRID + self.EXTREMES:
            a = abs(r) if r * s * u >= 0 else -abs(r)
            if a not in x24:
                x24[a] = [cert.coefficients for cert in enumerate_bitangents("X24", (a,))]
            d = (1 if r == a else 1j, 1, 1 if s == a else 1j)
            want = [tuple(c * k for c, k in zip(line, d)) for line in x24[a]]
            got = [cert.coefficients for cert in enumerate_bitangents("X4", (r, s, u))]
            assert len(got) == 28, (r, s, u)
            for line in got:
                assert min(proj_distance(line, w) for w in want) < DEFAULT_DEDUPE_TOL
            for line in want:
                assert min(proj_distance(line, g) for g in got) < DEFAULT_DEDUPE_TOL

    def test_off_diagonal_source_is_empty(self):
        assert bitangent._x4_diagonal_candidates((Fraction(1), Fraction(1), Fraction(3))) == []


class TestX24OwnComponents:
    """X24 takes its lines from its own 72 candidates in three charts only."""

    def test_no_supplementary_source(self):
        assert bitangent.CANDIDATE_SOURCES["X24"] == ((bitangent._x24_candidates,),)

    @pytest.mark.parametrize("r", [
        *(2 + sign * Fraction(1, 10 ** k) for k in range(9, 14) for sign in (1, -1)
          if (k, sign) != (10, -1)),
        Fraction(-10 ** 14), Fraction(4 * 10 ** 13), Fraction(-4 * 10 ** 13),
        Fraction(-2 * 10 ** 14), Fraction(-10 ** 16),
    ])
    def test_edge_members_certify(self, r):
        # each over-counted (40 or 52 lines) while X4's components also ran on X24
        assert len(enumerate_bitangents("X24", (r,))) == 28

    @pytest.mark.parametrize("r,count", [(4 * 10 ** 16, 22), (10 ** 100, 13)])
    def test_past_the_dedupe_limit_undercounts(self, r, count):
        # the closest distinct lines are 2/sqrt(r) apart, below dedupe_tol here
        with pytest.raises(EnumerationError, match=f"{count} distinct certified lines"):
            enumerate_bitangents("X24", (Fraction(r),))


class TestCertifyPasses:
    """A family's supplementary pass runs only when its own lines fall short."""

    @pytest.mark.parametrize("params", [
        (Fraction(-1345661, 250), Fraction(359, 200)),
        (Fraction(-659999, 125), Fraction(-923, 500)),
    ])
    def test_x16_members_no_longer_overcount(self, params):
        # each ended with 44 lines while X4's ungated J1 lines ran on every X16 member
        certs = enumerate_bitangents("X16", params)
        assert len(certs) == 28
        assert all(c.source.startswith("X16.") for c in certs)

    def test_x4_j1_gate_applies_to_x16(self, monkeypatch):
        # 16 X4.J1 candidates fit a square on this X16 member but miss the generators
        monkeypatch.setitem(bitangent.CANDIDATE_SOURCES, "X16", ((_X4_ALL_CHARTS,),))
        with pytest.raises(EnumerationError,
                           match=r"rejected: \{'X4.J1': 24, 'X4.J1\(generators\)': 16\}"):
            enumerate_bitangents("X16", (Fraction(-1345661, 250), Fraction(359, 200)))

    def test_x4_j1_gate_fails_a_line_without_z(self):
        # the generators are checked in chart XY, at (a, b) = (c0 / c2, c1 / c2)
        triple = (Fraction(1), Fraction(1), Fraction(3))
        certs = [c for c in enumerate_bitangents("X4", triple) if c.source == "X4.J1"]
        assert certs and all(bitangent._kills_x4_j1_generators(c, triple, DEFAULT_CERT_TOL)
                             for c in certs)
        for c2 in (0, 1e-13):
            line = bitangent.BitangentCert(ProjLine.from_coefficients((1, 0.5, c2)),
                                           (1, 0, 0), 0.0, "X4.J1", "XY")
            assert not bitangent._kills_x4_j1_generators(line, triple, DEFAULT_CERT_TOL)

    def test_x16_later_passes_are_x4s(self):
        x16, x4 = bitangent.CANDIDATE_SOURCES["X16"], bitangent.CANDIDATE_SOURCES["X4"]
        assert x16[0] == (bitangent._x16_candidates,)
        assert len(x16[1:]) == len(x4)
        assert all(ours is theirs for ours, theirs in zip(x16[1:], x4))

    @pytest.mark.parametrize("params", [
        (Fraction(72427220723057861402841, 77051528410000000000), Fraction(21552737, 702232)),
        (Fraction(43806083247582231728761, 824792728761000000), Fraction(-209302969, 908181)),
    ])
    def test_x16_near_singular_members_stop_after_x4s_first_pass(self, monkeypatch, params):
        # each ended with 32 lines while X4's YZ/ZX J1 lines ran in one pass with the rest
        def boom(_triple):
            raise AssertionError("X4's second pass ran")

        own, x4_first, _x4_second = bitangent.CANDIDATE_SOURCES["X16"]
        monkeypatch.setitem(bitangent.CANDIDATE_SOURCES, "X16", (own, x4_first, (boom,)))
        certs = enumerate_bitangents("X16", params)
        assert len(certs) == 28
        assert {c.source for c in certs if c.source.startswith("X4.")} == {"X4.J1"}

    @pytest.mark.parametrize("family,params", [("X16", (1, 3)), ("X4", (1, 3, 5))])
    def test_second_pass_runs_only_on_demand(self, monkeypatch, family, params):
        def boom(_triple):
            raise AssertionError("the second pass ran")

        first = bitangent.CANDIDATE_SOURCES[family][0]
        want = enumerate_bitangents(family, params)
        monkeypatch.setitem(bitangent.CANDIDATE_SOURCES, family, (first, (boom,)))
        got = enumerate_bitangents(family, params)
        assert len(got) == 28
        assert [repr(c) for c in got] == [repr(c) for c in want]

    def test_failure_counts_every_pass_that_ran(self, monkeypatch):
        params = (Fraction(222633), Fraction(30, 7), Fraction(30, 7))
        with pytest.raises(EnumerationError,
                           match=r"rejected: \{'X4.J1': 8, 'X4.J1\(generators\)': 32\}\)$"):
            enumerate_bitangents("X4", params)
        first, _second = bitangent.CANDIDATE_SOURCES["X4"]
        monkeypatch.setitem(bitangent.CANDIDATE_SOURCES, "X4", (first,))
        with pytest.raises(EnumerationError,
                           match=r"rejected: \{'X4.J1\(generators\)': 16\}\)$"):
            enumerate_bitangents("X4", params)

    def test_x4_first_pass_is_chart_xy_and_the_axes(self):
        triple = (Fraction(1), Fraction(3), Fraction(5))
        (xy, axes, diagonal), (j1,) = bitangent.CANDIDATE_SOURCES["X4"]
        assert diagonal is bitangent._x4_diagonal_candidates
        # together the two passes list exactly X4's three-chart candidates
        by_chart = sorted(xy(triple) + axes(triple) + j1(triple), key=repr)
        assert by_chart == sorted(_X4_ALL_CHARTS(triple), key=repr)
        assert {source for _, source in axes(triple)} == {"X4.J2", "X4.J3"}
        assert {source for _, source in j1(triple)} == {"X4.J1"}
        assert all(coeffs[2] == 1 for coeffs, _ in xy(triple))


def _enumerate_reference(family, params, tol=DEFAULT_CERT_TOL, dedupe_tol=DEFAULT_DEDUPE_TOL):
    """The enumeration as it ran before candidates were deduplicated first, from
    the module's own pieces: every candidate of every pass that runs goes through
    ``_certify`` and the J1 gate, then each pass is deduplicated onto the lines
    kept before it."""
    form = make_family(family, tuple(params))
    singular_locus_check(family, form.params)
    triple = x4_triple(family, form.params)
    member = f"{family}{tuple(str(v) for v in form.params)}"
    reps, failures, gated = [], {}, 0
    with overflow_as(EnumerationError, member):
        for sources in bitangent.CANDIDATE_SOURCES[family]:
            certified = []
            for source in sources:
                for coeffs, tag in source(triple):
                    cert = None
                    if all(map(cmath.isfinite, coeffs)):
                        cert = bitangent._certify(form.poly, ProjLine.from_coefficients(coeffs),
                                                  tol, tag)
                    if cert is None:
                        failures[tag] = failures.get(tag, 0) + 1
                    elif tag == "X4.J1" and not bitangent._kills_x4_j1_generators(cert, triple,
                                                                                   tol):
                        gated += 1
                    else:
                        certified.append(cert)
            reps = dedupe_lines(reps + certified, dedupe_tol)
            if len(reps) == 28:
                break
    if len(reps) != 28:
        counts = {}
        for c in reps:
            counts[c.source] = counts.get(c.source, 0) + 1
        if gated:
            failures["X4.J1(generators)"] = gated
        raise EnumerationError(f"{member}: {len(reps)} distinct certified lines instead of 28 "
                               f"(by component: {counts}; rejected: {failures})")
    return reps


def _outcome(call, *args):
    try:
        return repr(call(*args))
    except QuarticsError as exc:
        return f"{type(exc).__name__}: {exc}"


def _far_members(seed, count):
    """Seeded members of each family with parameters of size 1e-1..1e3."""
    rng = random.Random(seed)

    def value():
        return Fraction(rng.choice((1, -1)) * rng.randint(100, 10 ** 6), 1000)

    return [(family, tuple(value() for _ in FAMILY_PARAMS[family]))
            for _ in range(count) for family in ("X4", "X16", "X24")]


class TestDedupeBeforeCertification:
    """Each distinct line is certified once; the answers are those of certifying
    every candidate and deduplicating each pass afterwards."""

    @pytest.mark.parametrize("family,raw", MEMBERS)
    def test_fixture_members_match_the_reference(self, family, raw):
        params = tuple(Fraction(p) for p in raw)
        assert (_outcome(enumerate_bitangents, family, params)
                == _outcome(_enumerate_reference, family, params))

    @pytest.mark.parametrize("seed", range(3))
    def test_far_members_match_the_reference(self, seed):
        for family, params in _far_members(seed, 6):
            assert (_outcome(enumerate_bitangents, family, params)
                    == _outcome(_enumerate_reference, family, params)), (family, params)

    def test_failing_member_counts_its_skipped_duplicates(self, monkeypatch):
        # this member ends with 24 lines; 8 of its rejected candidates lie within
        # dedupe_tol of a line kept before them, so they are certified only after
        # the last pass, and the error counts them where the reference does
        params = (Fraction(61, 125), Fraction(6557379, 1000))
        want = _outcome(_enumerate_reference, "X16", params)
        assert want.startswith("EnumerationError: X16('61/125', '6557379/1000'): 24 distinct")
        skipped, rejected = [], []
        fresh, certify = bitangent._LineSet.fresh, bitangent._certify

        def recording_fresh(self, line):
            cell = fresh(self, line)
            if cell is None:
                skipped.append(line)
            return cell

        def recording_certify(poly, line, *rest):
            cert = certify(poly, line, *rest)
            if cert is None and any(line is s for s in skipped):
                rejected.append(line)
            return cert

        monkeypatch.setattr(bitangent._LineSet, "fresh", recording_fresh)
        monkeypatch.setattr(bitangent, "_certify", recording_certify)
        assert _outcome(enumerate_bitangents, "X16", params) == want
        assert len(rejected) == 8

    def test_passing_member_certifies_each_line_once(self, monkeypatch):
        lines = []
        certify = bitangent._certify
        monkeypatch.setattr(bitangent, "_certify",
                            lambda poly, line, *rest: lines.append(line)
                            or certify(poly, line, *rest))
        assert len(enumerate_bitangents("X24", (3,))) == 28
        assert len(lines) == 28
        assert all(proj_distance(a.coefficients, b.coefficients) >= DEFAULT_DEDUPE_TOL
                   for a, b in itertools.combinations(lines, 2))


class TestSymmetryEquivariance:
    def _match(self, certs_a, certs_b, mapping):
        for cert in certs_a:
            image = mapping(cert.line.coefficients)
            assert any(
                proj_distance(image, other.line.coefficients) < 1e-8
                for other in certs_b
            ), f"no image for {cert.line.coefficients}"

    def test_cyclic_rotation(self):
        # (alpha, beta, gamma) bitangent at (r,s,u)  <->  (gamma, alpha, beta) at (u,r,s)
        base = enumerate_bitangents("X4", (1, 3, 5))
        rotated = enumerate_bitangents("X4", (5, 1, 3))
        self._match(base, rotated, lambda c: (c[2], c[0], c[1]))

    def test_transposition(self):
        # swapping x and y swaps the roles of s and u
        base = enumerate_bitangents("X4", (1, 3, 5))
        swapped = enumerate_bitangents("X4", (1, 5, 3))
        self._match(base, swapped, lambda c: (c[1], c[0], c[2]))


class TestDegeneracy:
    @pytest.mark.parametrize("family,params", [
        ("X24", (2,)),
        ("X24", (-2,)),
        ("X24", (-1,)),
        ("X16", (2, 2)),
        ("X16", (2, -2)),
        ("X16", (7, 3)),        # s^2 = r + 2: singular member
        ("X4", (2, 2, 2)),
        ("X4", (1, 2, 3)),      # s = 2: nodes at (0, 1, +-i)
    ])
    def test_named_loci(self, family, params):
        with pytest.raises(DegeneracyError):
            enumerate_bitangents(family, params)

    def test_wrong_arity(self):
        with pytest.raises(DomainError):
            enumerate_bitangents("X4", (1, 2))

    @pytest.mark.parametrize("family,params", [
        ("X24", ("1e400",)),
        ("X16", ("1e155", 1)),
        ("X4", (1, "1e200", 1)),
        ("X4", ("1e400", 1, 1)),
    ])
    def test_double_overflow_is_an_enumeration_error(self, family, params):
        with pytest.raises(EnumerationError, match="overflows double precision"):
            enumerate_bitangents(family, tuple(Fraction(p) for p in params))
