"""The four benchmark workloads: input generators, operations and answer checks.

Each workload turns ``--seed`` into an endless stream of inputs, runs one
operation per input through the package's public calls, and checks the
answer afterwards, outside the timed region.  Every call goes through a
module attribute (``dixmier.dixmier_invariants``, not a name bound at import
time) so that the traced run's wrappers see it.

An operation ends in one of three ways: an answer, which :meth:`check`
verifies; a numeric failure of the kind the package reports by design
(``EnumerationError``, ``RootFindingError``, ``SolverError``, or exit code 4
of the CLI), which counts as failed; or anything else, which aborts the run.
A wrong answer raises :class:`WrongAnswer` and also aborts the run.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from quartics import bitangent, cli, detrep, dixmier, polyring, symfam
from quartics.errors import EnumerationError, RootFindingError, SolverError

NUMERIC_FAILURES = (EnumerationError, RootFindingError, SolverError)


class WrongAnswer(Exception):
    """The package returned an answer that the benchmark's check rejects."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise WrongAnswer(message)


class Failed:
    """The outcome of an operation that ended in a numeric failure."""

    def __init__(self, cause: str):
        self.cause = cause


# -- symbolic -------------------------------------------------------------------

FAMILIES = ("X4", "X16", "X24", "X96")
_ALL_ONE = {k: Fraction(1) for k in (3, 6, 9, 12, 15, 18)}
#: gamma_k of each family against its reference table, as the README documents;
#: None where both sides vanish (Fermat I9..I18).
EXPECTED_GAMMA = {
    "X4": {**_ALL_ONE, 6: Fraction(1, 648), 9: Fraction(64, 27)},
    "X16": dict(_ALL_ONE),
    "X24": dict(_ALL_ONE),
    "X96": {3: Fraction(1), 6: Fraction(1), 9: None, 12: None, 15: None, 18: None},
}
#: exact Fermat anchors I3 = 72, I6 = 13822, higher invariants zero
X96_ANCHORS = {3: 72, 6: 13822, 9: 0, 12: 0, 15: 0, 18: 0}


class Symbolic:
    """The four symbolic family tables, compared with the reference tables."""

    #: inputs per cycle of the generator; a run ends on a whole cycle
    CYCLE = 1
    #: operations per second at reference machine speed: a run of S seconds
    #: attempts about S * RATE operations
    RATE = 8

    def inputs(self, seed: int):
        rng = random.Random(seed)
        while True:
            order = list(FAMILIES)
            rng.shuffle(order)
            yield tuple(order)

    def run(self, order):
        out = {}
        for family in order:
            inv = dixmier.dixmier_invariants(symfam.make_family(family))
            report = symfam.golden_compare(inv, family)
            dec = None
            if family == "X4":
                dec = [symfam.decompose_symmetric(v) for v in inv.as_dict().values()]
            out[family] = (inv, report, dec)
        return out

    def check(self, order, out) -> None:
        _require(set(out) == set(FAMILIES), "missing family tables")
        for family, (inv, report, dec) in out.items():
            _require(not report.failures, f"{family}: table mismatch {report.failures}")
            _require(report.gamma == EXPECTED_GAMMA[family],
                     f"{family}: gamma {report.gamma} != {EXPECTED_GAMMA[family]}")
        inv96 = out["X96"][0].as_dict()
        for k, value in X96_ANCHORS.items():
            _require(inv96[k] == value, f"X96: I{k} = {inv96[k]}, expected {value}")
        inv4, _, dec = out["X4"]
        for (k, value), d in zip(inv4.as_dict().items(), dec):
            _require(symfam.reconstruct(d, value.table) == value,
                     f"X4: S-basis decomposition of I{k} does not reconstruct it")

    def same(self, a, b) -> bool:
        return all(a[f][0].as_dict() == b[f][0].as_dict() for f in FAMILIES)


# -- numeric --------------------------------------------------------------------


def _unimodular(rng: random.Random):
    """An integer 3x3 matrix of determinant 1, a product of six shears."""
    m = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
    for _ in range(6):
        i, j = rng.sample(range(3), 2)
        k = rng.choice((-2, -1, 1, 2))
        for col in range(3):
            m[i][col] += k * m[j][col]
    return m


class Numeric:
    """Invariants of seeded generic quartics with 15 rational coefficients."""

    #: inputs per cycle of the generator; a run ends on a whole cycle
    CYCLE = 1
    #: operations per second at reference machine speed: a run of S seconds
    #: attempts about S * RATE operations
    RATE = 22

    #: numerators in [-NUM, NUM], denominators in [1, DEN]
    NUM, DEN = 1000, 100
    #: every CHECK_EVERY-th operation is checked for exact SL3 invariance
    CHECK_EVERY = 4

    def inputs(self, seed: int):
        rng = random.Random(seed)
        i = 0
        while True:
            coeffs = tuple(Fraction(rng.randint(-self.NUM, self.NUM), rng.randint(1, self.DEN))
                           for _ in range(15))
            matrix = _unimodular(rng) if i % self.CHECK_EVERY == 0 else None
            yield coeffs, matrix
            i += 1

    def run(self, inp):
        coeffs, _ = inp
        return dixmier.dixmier_invariants(symfam.make_generic(coeffs))

    def check(self, inp, inv) -> None:
        coeffs, matrix = inp
        values = inv.as_dict()
        for k, value in values.items():
            _require(value.total_degree() == 0, f"I{k} is not a constant")
        if matrix is None:
            return
        moved = polyring.compose_linear(symfam.make_generic(coeffs).poly, matrix)
        for k, value in dixmier.dixmier_invariants(moved).as_dict().items():
            _require(value == values[k], f"I{k} changed under an SL3 substitution")

    def same(self, a, b) -> bool:
        return a.as_dict() == b.as_dict()


# -- certify --------------------------------------------------------------------


def _locus(family: str, params) -> Fraction:
    """The singular-locus polynomial of the member; 0 exactly on the locus."""
    if family == "X4":
        r, s, u = params
    elif family == "X16":
        r, s = params
        u = s
    else:
        r = s = u = params[0]
    return r * r + s * s + u * u - r * s * u - 4


def degenerate(family: str, params) -> bool:
    """True on the loci the package rejects: a parameter of +-2 or a singular member."""
    return any(abs(p) == 2 for p in params) or _locus(family, params) == 0


#: line coefficient slots that hold each chart's two unknowns
_CHART_SLOTS = {"XY": (0, 1), "YZ": (1, 2), "ZX": (0, 2)}


class _EvenSpread:
    """Points of [0, 1) from a Kronecker sequence ``offset + k * step``:
    any stretch of consecutive draws covers the interval nearly evenly, so
    that shares taken over a run vary less between seeds than random draws."""

    def __init__(self, step: float, offset: float):
        self.step, self.value = step, offset

    def draw(self) -> float:
        self.value = (self.value + self.step) % 1.0
        return self.value


class Certify:
    """28 certified bitangents of seeded X4/X16/X24 members, plus detrep for X4.

    Parameter magnitudes are log-uniform over 10**MAG with random signs;
    every NEAR_EVERY-th member of each family is moved to within eps of its
    singular locus, log-uniform over 10**EPS.  Log-magnitudes and log-eps
    come from seeded :class:`_EvenSpread` sequences, one per parameter slot
    and one per family.  These settings are fixed; they are not tuned to
    the failure rate.
    """

    ROTATION = ("X4", "X16", "X24")
    MAG = (-1.0, 4.0)
    EPS = (-12.0, -4.0)
    NEAR_EVERY = 4
    CYCLE = len(ROTATION) * NEAR_EVERY
    #: operations per second at reference machine speed: a run of S seconds
    #: attempts about S * RATE operations
    RATE = 36
    _SLOT_STEPS = (math.sqrt(2) % 1, math.sqrt(3) % 1, math.sqrt(5) % 1)
    _EPS_STEP = (math.sqrt(5) - 1) / 2

    def _log_uniform(self, spread: _EvenSpread, bounds) -> float:
        return 10.0 ** (bounds[0] + spread.draw() * (bounds[1] - bounds[0]))

    def _magnitude(self, slot: int) -> Fraction:
        value = self._log_uniform(self.slots[slot], self.MAG)
        return self.rng.choice((-1, 1)) * Fraction(max(1, round(value * 1000)), 1000)

    def _near_x4(self, delta: Fraction):
        # r on the locus r^2 - s*u*r + (s^2 + u^2 - 4) = 0, which has real
        # roots when (s^2 - 4)(u^2 - 4) >= 0, refined by one exact Newton step
        while True:
            s, u = self._magnitude(1), self._magnitude(2)
            disc = (s * s - 4) * (u * u - 4)
            if disc > 0:
                break
        root = Fraction((float(s * u) + self.rng.choice((-1, 1)) * math.sqrt(disc)) / 2)
        value = _locus("X4", (root, s, u))
        root -= value / (2 * root - s * u)
        return (root + delta, s, u)

    def _member(self, family: str, near: bool):
        while True:
            delta = 0
            if near:
                eps = self._log_uniform(self.eps[family], self.EPS)
                delta = self.rng.choice((-1, 1)) * Fraction(eps)
            if family == "X4":
                params = (self._near_x4(delta) if near
                          else tuple(self._magnitude(k) for k in range(3)))
            elif family == "X16":
                s = self._magnitude(1)
                params = (s * s - 2 + delta if near else self._magnitude(0), s)
            else:
                params = (Fraction(-1) + delta if near else self._magnitude(0),)
            if not degenerate(family, params):
                return params

    def inputs(self, seed: int):
        self.rng = random.Random(seed)
        self.slots = [_EvenSpread(step, self.rng.random()) for step in self._SLOT_STEPS]
        self.eps = {f: _EvenSpread(self._EPS_STEP, self.rng.random()) for f in self.ROTATION}
        i = 0
        while True:
            family = self.ROTATION[i % len(self.ROTATION)]
            near = (i // len(self.ROTATION)) % self.NEAR_EVERY == self.NEAR_EVERY - 1
            yield family, self._member(family, near), near
            i += 1

    def run(self, inp):
        family, params, _ = inp
        out = {}
        try:
            out["lines"] = bitangent.enumerate_bitangents(family, params)
        except NUMERIC_FAILURES as exc:
            out["lines"] = Failed(f"{family}{'.near' if inp[2] else ''}:{type(exc).__name__}")
        if family == "X4":
            try:
                out["detrep"] = detrep.solve_detrep(*params)
            except NUMERIC_FAILURES as exc:
                out["detrep"] = Failed(f"detrep:{type(exc).__name__}")
        failed = [v.cause for v in out.values() if isinstance(v, Failed)]
        return Failed(",".join(failed)) if failed else out

    def check(self, inp, out) -> None:
        family, params, _ = inp
        certs = out["lines"]
        _require(len(certs) == 28, f"{family}{params}: {len(certs)} lines")
        form = symfam.make_family(family, params)
        tol = bitangent.DEFAULT_CERT_TOL
        for cert in certs:
            chart = bitangent.CHARTS[cert.chart]
            slots = _CHART_SLOTS[cert.chart]
            point = {chart.unknowns[0]: cert.line.coefficients[slots[0]],
                     chart.unknowns[1]: cert.line.coefficients[slots[1]]}
            values = [polyring.eval_complex(c, point)
                      for c in bitangent.restriction_coefficients(form, cert.chart)]
            # a different evaluator rounds differently: allow one decade
            _require(bitangent.perfect_square_fit(values, 10 * tol) is not None,
                     f"{family}{params}: line {cert.line.coefficients} is not a bitangent")
        for i, a in enumerate(certs):
            for b in certs[i + 1:]:
                _require(bitangent.proj_distance(a.line.coefficients, b.line.coefficients)
                         >= bitangent.DEFAULT_DEDUPE_TOL,
                         f"{family}{params}: two lines coincide projectively")
        if family == "X4":
            res = out["detrep"].residuals
            worst = max(res[f"e{i}"] for i in range(1, 7))
            _require(worst <= detrep.DEFAULT_TOL and res["det"] < detrep.DEFAULT_TOL,
                     f"X4{params}: detrep residuals {res}")

    def same(self, a, b) -> bool:
        if isinstance(a, Failed) or isinstance(b, Failed):
            return isinstance(a, Failed) and isinstance(b, Failed) and a.cause == b.cause
        return ([c.line for c in a["lines"]] == [c.line for c in b["lines"]]
                and a.get("detrep") == b.get("detrep"))


# -- cli ------------------------------------------------------------------------


def _strict_constant(token: str):
    raise WrongAnswer(f"stdout is not strict JSON: {token}")


def _params_flag(values) -> str:
    return "--params=" + ",".join(str(v) for v in values)


class Cli:
    """One fresh ``python -m quartics.cli`` process per operation."""

    KINDS = ("X96", "numeric X4", "generic", "symbolic X4", "bitangents", "detrep")
    CYCLE = len(KINDS)
    #: operations per second at reference machine speed: a run of S seconds
    #: attempts about S * RATE operations
    RATE = 3.6

    def __init__(self, src: Path):
        self.env = {**os.environ, "PYTHONPATH": str(src)}
        self._expected: dict = {}

    def _params(self, rng, family: str, positive: bool = False):
        low = 0 if positive else -100
        while True:
            params = tuple(Fraction(rng.randint(low, 100), rng.randint(1, 10))
                           for _ in symfam.FAMILY_PARAMS[family])
            if not degenerate(family, params):
                return params

    def inputs(self, seed: int):
        rng = random.Random(seed)
        i = 0
        while True:
            kind = self.KINDS[i % len(self.KINDS)]
            if kind == "X96":
                argv = ["invariants", "--family", "X96"]
            elif kind == "numeric X4":
                argv = ["invariants", "--family", "X4", _params_flag(self._params(rng, "X4"))]
            elif kind == "generic":
                coeffs = [Fraction(rng.randint(-1000, 1000), rng.randint(1, 100))
                          for _ in range(15)]
                argv = ["invariants", "--family", "generic", _params_flag(coeffs)]
            elif kind == "symbolic X4":
                argv = ["invariants", "--family", "X4", "--symbolic", "--decompose", "--golden"]
            elif kind == "bitangents":
                family = rng.choice(("X4", "X16", "X24"))
                argv = ["bitangents", "--family", family, _params_flag(self._params(rng, family))]
            else:
                # detrep reads --params as separate tokens, where a negative
                # fraction would parse as a flag: its values are nonnegative
                params = self._params(rng, "X4", positive=True)
                argv = ["detrep", "--params", *(str(v) for v in params)]
            yield tuple(argv)
            i += 1

    def command(self, argv) -> list[str]:
        return [sys.executable, "-m", "quartics.cli", *argv]

    def spawn(self, cmd):
        """Run one child to completion; returns (exit code, stdout, stderr)."""
        proc = subprocess.run(cmd, capture_output=True, env=self.env, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr

    def run(self, argv):
        code, out, _ = self.spawn(self.command(argv))
        if code == cli.EXIT_NUMERIC:
            return Failed(f"cli {argv[0]}: exit {code}")
        return code, out

    def expected(self, argv):
        """The JSON payload of *argv* computed in this process."""
        if argv not in self._expected:
            args = cli.build_parser().parse_args(list(argv))
            self._expected[argv] = json.loads(json.dumps(args.run(args)))
        return self._expected[argv]

    def check(self, argv, out) -> None:
        code, stdout = out
        _require(code == cli.EXIT_OK, f"{' '.join(argv)}: exit {code}")
        payload = json.loads(stdout, parse_constant=_strict_constant)
        _require(payload == self.expected(argv),
                 f"{' '.join(argv)}: stdout differs from the in-process result")

    def same(self, a, b) -> bool:
        if isinstance(a, Failed) or isinstance(b, Failed):
            return isinstance(a, Failed) and isinstance(b, Failed)
        return a == b


def make(name: str, src: Path):
    """The workload called *name*; ``src`` is the package source for child processes."""
    if name == "cli":
        return Cli(src)
    return {"symbolic": Symbolic, "numeric": Numeric, "certify": Certify}[name]()

