"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Every tolerance and runtime bound is pinned here; nothing is deferred.
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction


from quartics.bitangent import (CHARTS, build_tangency_system,
                                coordinate_type_count, enumerate_bitangents,
                                eval_scaled, proj_distance)
from quartics.detrep import solve_detrep
from quartics.diffcalc import transvectant
from quartics.dixmier import delta_binary, dixmier_invariants
from quartics.polyring import (Polynomial, compose_linear, convert,
                               substitute_linear, substitute_values)
from quartics.symfam import golden_compare, make_family

from conftest import (XY, random_binary_form, random_fraction, random_quartic,
                      random_unimodular, univariate_gcd_degree)
from test_diffcalc import transvectant_oracle


def report(n, name, started=None):
    stamp = f" [{time.perf_counter() - started:.2f}s]" if started is not None else ""
    print(f"\nACCEPTANCE {n} PASS: {name}{stamp}")


def test_criterion_1_fermat_anchors():
    t0 = time.perf_counter()
    inv = dixmier_invariants(make_family("X96"))
    assert inv.I3 == 72
    assert inv.I6 == 13822
    for k in (9, 12, 15, 18):
        assert inv.as_dict()[k].is_zero()
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"Fermat anchors took {elapsed:.2f}s"
    report(1, "I3 = 72, I6 = 13822, I9 = I12 = I15 = I18 = 0 exactly", t0)


def test_criterion_2_symbolic_tables_and_gamma_consistency():
    t0 = time.perf_counter()
    inv4 = dixmier_invariants(make_family("X4"))
    x4_elapsed = time.perf_counter() - t0
    assert x4_elapsed < 60.0, f"symbolic X4 run took {x4_elapsed:.1f}s"

    rep24 = golden_compare(dixmier_invariants(make_family("X24")), "X24")
    rep16 = golden_compare(dixmier_invariants(make_family("X16")), "X16")
    assert rep24.ok and rep16.ok
    assert rep24.gamma[3] == 1  # forced by criterion 1
    for k in (3, 6, 9, 12, 15, 18):
        assert rep24.gamma[k] == rep16.gamma[k] == 1

    # the three-parameter table is fit modulo its two documented prefactor
    # anomalies, which are reported, not hidden
    rep4 = golden_compare(inv4, "X4")
    assert rep4.ok
    assert rep4.gamma[3] == 1
    assert rep4.gamma[6] == Fraction(1, 648)
    assert rep4.gamma[9] == Fraction(64, 27)
    assert rep4.gamma[12] == rep4.gamma[15] == rep4.gamma[18] == 1
    report(2, f"reference tables fit, gamma constant across families "
              f"(X4 anomalies 1/648 and 64/27 reported); symbolic X4 in "
              f"{x4_elapsed:.2f}s", t0)


def test_criterion_3_specialization_coherence():
    t0 = time.perf_counter()
    inv4 = dixmier_invariants(make_family("X4"))
    inv16 = dixmier_invariants(make_family("X16"))
    inv24 = dixmier_invariants(make_family("X24"))
    inv96 = dixmier_invariants(make_family("X96"))
    t4 = inv4.I3.table
    t16 = inv16.I3.table
    for k in (3, 6, 9, 12, 15, 18):
        v4, v16, v24, v96 = (inv.as_dict()[k] for inv in (inv4, inv16, inv24, inv96))
        assert substitute_linear(v4, "u", Polynomial.variable(t4, "s")) == convert(v16, t4)
        assert substitute_linear(v16, "s", Polynomial.variable(t16, "r")) == convert(v24, t16)
        assert substitute_values(v24, {"r": 0}).constant_value() == v96.constant_value()
    report(3, "I_k(X4(r,s,s)) = I_k(X16(r,s)), I_k(X16(r,r)) = I_k(X24(r)), "
              "I_k(X24(0)) = I_k(X96), all exact", t0)


def test_criterion_4_invariance_suite():
    t0 = time.perf_counter()
    rng = random.Random(20101)
    quartics = [random_quartic(rng) for _ in range(5)]
    matrices = [random_unimodular(rng) for _ in range(5)]
    for f in quartics:
        base = dixmier_invariants(f)
        for g in matrices:
            moved = dixmier_invariants(compose_linear(f, g))
            for k, v in base.as_dict().items():
                assert moved.as_dict()[k] == v

    f = quartics[0]
    base = dixmier_invariants(f)
    doubled = dixmier_invariants(f * 2)
    for k, v in base.as_dict().items():
        assert doubled.as_dict()[k] == v * Fraction(2) ** k

    from quartics.symfam import is_symmetric

    for v in dixmier_invariants(make_family("X4")).as_dict().values():
        assert is_symmetric(v)
    report(4, "SL3 substitution invariance (5x5), scaling 2^k, parameter "
              "symmetry, all exact", t0)


def _certify_generators(family, params, certs, tol=1e-9):
    form = make_family(family, params)
    for cert in certs:
        gens = build_tangency_system(form, cert.chart)
        point = {**CHARTS[cert.chart].point(cert.line.coefficients),
                 "l0": cert.lam[0], "l1": cert.lam[1], "l2": cert.lam[2]}
        for gen in gens:
            value, scale = eval_scaled(gen, point)
            assert abs(value) / max(scale, 1.0) < tol


def test_criterion_5_bitangent_counts_and_certification():
    t0 = time.perf_counter()
    rng = random.Random(20105)
    done = 0
    while done < 10:
        params = tuple(Fraction(rng.randint(-100, 100), 10) for _ in range(3))
        r, s, u = params
        if any(abs(p) == 2 for p in params) or r * r + s * s + u * u - r * s * u - 4 == 0:
            continue
        t1 = time.perf_counter()
        certs = enumerate_bitangents("X4", params)
        elapsed = time.perf_counter() - t1
        assert elapsed < 5.0, f"X4{params} enumeration took {elapsed:.2f}s"
        assert len(certs) == 28
        assert all(c.residual < 1e-9 for c in certs)
        assert coordinate_type_count(certs) == (12, 16)
        _certify_generators("X4", params, certs)
        done += 1

    certs96 = enumerate_bitangents("X96")
    assert len(certs96) == 28
    full = sum(1 for c in certs96 if all(abs(v) > 1e-9 for v in c.line.coefficients))
    assert full == 16 and len(certs96) - full == 12

    certs24 = enumerate_bitangents("X24", (1,))
    for target in ((1, 1, 1), (1, -1, 1), (-1, 1, 1), (-1, -1, 1)):
        assert any(proj_distance(c.line.coefficients, target) < 1e-8 for c in certs24)
    report(5, "28 certified lines at 10 random X4 triples (12+16 split, "
              "residuals < 1e-9), X96 = 16 + 12, X24(1) rational lines present", t0)


def test_criterion_6_transvectant_oracle():
    t0 = time.perf_counter()
    rng = random.Random(20106)
    pairs = 0
    while pairs < 50:
        r = rng.randint(1, 4)
        s = rng.randint(1, 4)
        F = random_binary_form(rng, r)
        G = random_binary_form(rng, s)
        for k in range(min(r, s, 4) + 1):
            assert transvectant(F, G, k) == transvectant_oracle(F, G, k)
        pairs += 1
    report(6, "transvectant equals the two-point operator oracle exactly "
              "(50 random pairs, all orders)", t0)


def test_criterion_7_binary_discriminant():
    t0 = time.perf_counter()
    rng = random.Random(20107)
    x, y = Polynomial.variable(XY, "x"), Polynomial.variable(XY, "y")

    built = 0
    while built < 20:
        alpha, beta = random_fraction(rng), random_fraction(rng)
        if alpha == 0 and beta == 0:
            continue
        quadratic = random_binary_form(rng, 2)
        P = (alpha * x + beta * y) ** 2 * quadratic
        if P.geometric_degree() != 4:
            continue
        assert delta_binary(P).is_zero()
        built += 1

    built = 0
    while built < 20:
        P = random_binary_form(rng, 4)
        coeffs = [P.coefficient({"x": 4 - i, "y": i}) for i in range(5)]
        if coeffs[0] == 0:
            continue
        dehom = list(reversed(coeffs))                # ascending in t = x/y
        deriv = [k * dehom[k] for k in range(1, 5)]
        if univariate_gcd_degree(dehom, deriv) != 0:  # not squarefree
            continue
        assert not delta_binary(P).is_zero()
        built += 1
    report(7, "discriminant vanishes on 20 forced double roots, nonzero on "
              "20 gcd-verified squarefree quartics, exact", t0)


def test_criterion_8_detrep_certification():
    t0 = time.perf_counter()
    rng = random.Random(20108)
    cases = [(Fraction(0), Fraction(0), Fraction(0)),
             (Fraction(1), Fraction(2), Fraction(3)),
             (Fraction(5), Fraction(1), Fraction(7))]
    while len(cases) < 13:
        triple = tuple(random_fraction(rng, span=30, den=6) for _ in range(3))
        if abs(triple[0]) != 2:
            cases.append(triple)
    for r, s, u in cases:
        t1 = time.perf_counter()
        rep = solve_detrep(r, s, u)
        elapsed = time.perf_counter() - t1
        assert elapsed < 1.0, f"detrep({r},{s},{u}) took {elapsed:.2f}s"
        assert max(rep.residuals[f"e{i}"] for i in range(1, 7)) < 1e-10
        assert rep.residuals["det"] < 1e-8
        assert rep.residuals["pq_identity"] < 1e-12
        assert rep.residuals["p2q2_sum"] < 1e-12
    report(8, "13 certified representations: e-system < 1e-10, determinant "
              "identity < 1e-8 at 50 seeded points, pq identities < 1e-12", t0)


def test_criterion_9_cli_determinism():
    t0 = time.perf_counter()
    commands = [
        ["invariants", "--family", "X96"],
        ["invariants", "--family", "X4", "--symbolic", "--decompose", "--golden"],
        ["bitangents", "--family", "X24", "--params", "1"],
        ["detrep", "--params", "1", "2", "3"],
    ]
    for argv in commands:
        full = [sys.executable, "-m", "quartics.cli", *argv]
        a = subprocess.run(full, capture_output=True, check=True)
        b = subprocess.run(full, capture_output=True, check=True)
        assert a.stdout == b.stdout and a.stdout
        json.loads(a.stdout)  # valid JSON envelope
    report(9, "repeated CLI invocations are byte-identical JSON", t0)
