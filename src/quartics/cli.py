"""Command-line interface: JSON on stdout, diagnostics on stderr.

Subcommands
    invariants  --family {X4,X16,X24,X96,generic} [--params ...] [--symbolic]
                [--decompose] [--golden]
    bitangents  --family {X4,X16,X24,X96} [--params ...] [--tol T] [--dedupe-tol T]
    detrep      --params r s u [--tol T] [--seed N]

Rationals are written as "num/den" strings (never floats), complex numbers
as [re, im] pairs.  Responses carry a schema tag and are deterministic
functions of the flags: identical invocations print identical bytes.

Exit codes: 0 success, 2 usage error, 3 degenerate parameters,
4 numeric/solver failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import __version__
from .bitangent import (DEFAULT_CERT_TOL, DEFAULT_DEDUPE_TOL,
                        coordinate_type_count, enumerate_bitangents)
from .detrep import DEFAULT_SEED, DEFAULT_TOL, solve_detrep
from .dixmier import dixmier_invariants
from .errors import (DegeneracyError, DomainError, EnumerationError, SolverError,
                     check_tolerance, rational)
from .polyring import Polynomial
from .symfam import (FAMILY_PARAMS, decompose_symmetric, golden_compare,
                     make_family, make_generic)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DEGENERATE = 3
EXIT_NUMERIC = 4

SCHEMA = f"quartics/{__version__}"


def tolerance(text: str) -> float:
    """The argparse type of the tolerance flags: a finite float > 0."""
    try:
        return check_tolerance("tolerance", float(text))
    except DomainError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _complex_pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _poly_payload(p: Polynomial):
    """A constant polynomial serializes as a rational string, else as its
    canonical string plus an explicit term list."""
    if p.total_degree() == 0:
        return str(Fraction(p.constant_value()))
    names = p.table.names
    terms = []
    for exps, coeff in p.sorted_terms():
        monomial = {names[i]: e for i, e in enumerate(exps) if e}
        terms.append({"monomial": monomial, "coefficient": str(Fraction(coeff))})
    return {"text": str(p), "terms": terms}


def _emit(payload: dict) -> None:
    json.dump(payload, sys.stdout, sort_keys=True, separators=(",", ": "), indent=1,
              allow_nan=False)
    sys.stdout.write("\n")


def _parse_params(family: str, raw: list[str] | None, symbolic: bool):
    if symbolic:
        if raw:
            raise DomainError("--symbolic takes no --params")
        return None
    # tokens may be comma-joined ("--params=-7/2,0,1" sidesteps argparse's
    # refusal of leading-dash fractions)
    tokens = [t for item in (raw or []) for t in item.split(",") if t]
    want = 15 if family == "GENERIC" else len(FAMILY_PARAMS[family])
    if len(tokens) != want:
        raise DomainError(f"{family} needs {want} parameter(s), got {len(tokens)}")
    return [rational(t) for t in tokens]


def cmd_invariants(args) -> dict:
    family = args.family if args.family != "generic" else "GENERIC"
    params = _parse_params(family, args.params, args.symbolic)
    if family == "GENERIC":
        if args.symbolic:
            raise DomainError("generic quartics are numeric only")
        form = make_generic(params)
    else:
        form = make_family(family, params)
    # flag misuse is reported before any invariant is computed
    if args.decompose and (family != "X4" or not args.symbolic):
        raise DomainError("--decompose applies to the symbolic X4 family")
    if args.golden and family == "GENERIC":
        raise DomainError("--golden applies to the named families")
    if args.golden and not args.symbolic:
        raise DomainError("--golden compares symbolic tables; pass --symbolic")
    inv = dixmier_invariants(form)
    payload = {
        "schema": SCHEMA,
        "command": "invariants",
        "family": args.family,
        "params": None if params is None else [str(Fraction(v)) for v in params],
        "symbolic": bool(args.symbolic),
        "invariants": {f"I{k}": _poly_payload(v) for k, v in inv.as_dict().items()},
    }
    if args.decompose:
        tables = {}
        for k, v in inv.as_dict().items():
            dec = decompose_symmetric(v)
            tables[f"I{k}"] = {
                "const": str(Fraction(dec.constant)),
                **{str(p): str(Fraction(c)) for p, c in dec.terms},
            }
        payload["decomposition"] = tables
    if args.golden:
        report = golden_compare(inv, family)
        payload["golden"] = {
            "family": family,
            "gamma": {
                f"I{k}": (None if g is None else str(Fraction(g)))
                for k, g in report.gamma.items()
            },
            "failures": {f"I{k}": msg for k, msg in report.failures.items()},
            "consistent": report.ok,
        }
    return payload


def cmd_bitangents(args) -> dict:
    params = _parse_params(args.family, args.params, False)
    certs = enumerate_bitangents(args.family, params, tol=args.tol, dedupe_tol=args.dedupe_tol)
    coord, general = coordinate_type_count(certs)
    lines = []
    for cert in certs:
        lines.append({
            "coefficients": [_complex_pair(c) for c in cert.line.coefficients],
            "lambda": [_complex_pair(c) for c in cert.lam],
            "residual": cert.residual,
            "source": cert.source,
            "chart": cert.chart,
        })
    return {
        "schema": SCHEMA,
        "command": "bitangents",
        "family": args.family,
        "params": [str(Fraction(v)) for v in params],
        "tolerance": args.tol,
        "count": len(lines),
        "coordinate_type": coord,
        "general_type": general,
        "lines": lines,
    }


def cmd_detrep(args) -> dict:
    r, s, u = _parse_params("X4", args.params, False)
    rep = solve_detrep(r, s, u, tol=args.tol, seed=args.seed)
    return {
        "schema": SCHEMA,
        "command": "detrep",
        "params": [str(Fraction(v)) for v in (r, s, u)],
        "tolerance": args.tol,
        "seed": args.seed,
        "A": [[_complex_pair(v) for v in row] for row in rep.a_matrix],
        "B": [[_complex_pair(v) for v in row] for row in rep.b_matrix],
        "C": [[_complex_pair(v) for v in row] for row in rep.c_matrix],
        "branch": {
            "t_index": rep.branch.t_index,
            "cd_swap": rep.branch.cd_swap,
            "be_swap": rep.branch.be_swap,
        },
        "residuals": {k: float(v) for k, v in sorted(rep.residuals.items())},
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quartics",
        description="Invariants, bitangents and determinantal representations "
                    "of symmetric plane quartics (exact arithmetic, JSON output).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_inv = sub.add_parser("invariants", help="the six quartic invariants")
    p_inv.add_argument("--family", required=True, choices=[*FAMILY_PARAMS, "generic"])
    p_inv.add_argument("--params", nargs="*", metavar="Q",
                       help="exact rationals like 3 or 7/2; negatives via "
                            "--params=-7/2,0,1")
    p_inv.add_argument("--symbolic", action="store_true",
                       help="keep the family parameters symbolic")
    p_inv.add_argument("--decompose", action="store_true",
                       help="also print the symmetric-basis table (symbolic X4)")
    p_inv.add_argument("--golden", action="store_true",
                       help="compare against the shipped reference tables")
    p_inv.set_defaults(run=cmd_invariants)

    p_bit = sub.add_parser("bitangents", help="all 28 certified bitangents")
    p_bit.add_argument("--family", required=True, choices=list(FAMILY_PARAMS))
    p_bit.add_argument("--params", nargs="*", metavar="Q")
    p_bit.add_argument("--tol", type=tolerance, default=DEFAULT_CERT_TOL)
    p_bit.add_argument("--dedupe-tol", type=tolerance, default=DEFAULT_DEDUPE_TOL)
    p_bit.set_defaults(run=cmd_bitangents)

    p_det = sub.add_parser("detrep", help="symmetric 4x4 pencil with det = f")
    p_det.add_argument("--params", nargs="*", metavar="Q",
                       help="r s u; negatives via --params=-7/2,1,3")
    p_det.add_argument("--tol", type=tolerance, default=DEFAULT_TOL)
    p_det.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_det.set_defaults(run=cmd_detrep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload = args.run(args)
    except DomainError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DegeneracyError as exc:
        print(f"degenerate parameters: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (EnumerationError, SolverError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    try:
        _emit(payload)
    except BrokenPipeError:
        sys.stderr.close()
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
