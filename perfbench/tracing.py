"""Span recording around the calls the benchmark makes into each module.

The package is not changed: a :class:`Recorder` replaces module attributes
of ``quartics`` with timing wrappers and puts the originals back afterwards.
A function is replaced under every name that binds it in any ``quartics``
module, because modules import each other's functions by name (``dixmier``
calls ``transvectant`` through ``quartics.dixmier.transvectant``, not through
``quartics.diffcalc``).

A span is the tuple ``(name, start, end, parent, op, extra)``: wall-clock
start and end from ``time.perf_counter``, the index of the enclosing span
(-1 for none), the operation id, and a per-target measurement of the result
or the name of the exception that ended the call.  Spans stay in memory
until the run writes them out.
"""

from __future__ import annotations

import gzip
import json
import statistics
import sys
import time


def _mul_measure(poly):
    terms = poly.terms
    bits = max((max(c.numerator.bit_length(), c.denominator.bit_length())
                for c in terms.values()), default=0)
    return [len(terms), bits]


def _is_some(value):
    return 0 if value is None else 1


#: (span name, module, attribute, measurement of the returned value)
TARGETS = (
    ("polyring.mul", "quartics.polyring", "Polynomial.__mul__", _mul_measure),
    ("polyring.add", "quartics.polyring", "Polynomial.__add__", None),
    ("polyring.partial", "quartics.polyring", "partial", None),
    ("polyring.substitute_linear", "quartics.polyring", "substitute_linear", None),
    ("polyring.eval_complex", "quartics.polyring", "eval_complex", None),
    ("diffcalc.transvectant", "quartics.diffcalc", "transvectant", None),
    ("diffcalc.diff_pair", "quartics.diffcalc", "diff_pair", None),
    ("diffcalc.j_bracket", "quartics.diffcalc", "j_bracket", None),
    ("diffcalc.det", "quartics.diffcalc", "det", None),
    ("dixmier.contravariants", "quartics.dixmier", "contravariants", None),
    ("dixmier.covariants", "quartics.dixmier", "covariants", None),
    ("dixmier.invariants", "quartics.dixmier", "dixmier_invariants", None),
    ("symfam.golden_compare", "quartics.symfam", "golden_compare", None),
    ("symfam.load_golden", "quartics.symfam", "load_golden", None),
    ("symfam.decompose_symmetric", "quartics.symfam", "decompose_symmetric", None),
    ("symfam.make_family", "quartics.symfam", "make_family", None),
    ("bitangent.enumerate", "quartics.bitangent", "enumerate_bitangents", len),
    ("bitangent.certify", "quartics.bitangent", "_certify", _is_some),
    ("bitangent.eval_scaled", "quartics.bitangent", "eval_scaled", None),
    ("bitangent.perfect_square_fit", "quartics.bitangent", "perfect_square_fit", None),
    ("bitangent.proj_distance", "quartics.bitangent", "proj_distance", None),
    ("numroots.roots", "quartics.numroots", "roots", None),
    ("numroots.biquadratic_roots", "quartics.numroots", "biquadratic_roots", None),
    ("detrep.solve", "quartics.detrep", "solve_detrep", None),
    ("detrep.e_residuals", "quartics.detrep", "residuals_e_system", None),
    ("detrep.det_residual", "quartics.detrep", "_determinant_residual", None),
    ("cli.run", "quartics.cli", "cmd_invariants", None),
    ("cli.run", "quartics.cli", "cmd_bitangents", None),
    ("cli.run", "quartics.cli", "cmd_detrep", None),
    ("cli.emit", "quartics.cli", "_emit", None),
)


class Recorder:
    """Collects spans while its wrappers are installed."""

    def __init__(self):
        self.spans: list = []
        self.current = -1
        self.op = -1
        self._saved: list = []

    def open(self, name: str, start: float) -> int:
        """Start a span recorded by the benchmark itself; returns its index."""
        idx = len(self.spans)
        self.spans.append([name, start, None, self.current, self.op, None])
        self.current = idx
        return idx

    def close(self, idx: int, end: float, extra=None) -> None:
        span = self.spans[idx]
        span[2], span[5] = end, extra
        self.current = span[3]

    def _wrap(self, name, fn, measure):
        perf_counter = time.perf_counter
        rec = self

        def wrapper(*args, **kwargs):
            parent = rec.current
            idx = len(rec.spans)
            rec.spans.append(None)
            rec.current = idx
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                rec.current = parent
                rec.spans[idx] = (name, start, perf_counter(), parent, rec.op,
                                  type(exc).__name__)
                raise
            end = perf_counter()
            rec.current = parent
            rec.spans[idx] = (name, start, end, parent, rec.op,
                              None if measure is None else measure(out))
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("wrappers are already installed")
        modules = [m for k, m in list(sys.modules.items())
                   if k == "quartics" or k.startswith("quartics.")]
        for name, module, attr, measure in TARGETS:
            owner = sys.modules[module]
            holders = modules
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                holders = [owner]
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, measure)
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)
                        self._saved.append((holder, key, original))

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._saved):
            setattr(holder, key, original)
        self._saved = []

    def adopt(self, spans, parent: int) -> None:
        """Append spans recorded in a child process under span *parent*."""
        offset = len(self.spans)
        for name, start, end, up, _op, extra in spans:
            self.spans.append((name, start, end, parent if up < 0 else up + offset,
                               self.op, extra))

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps(["name", "start", "end", "parent", "op", "extra"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(list(span)) + "\n")


def _outermost_ms(spans, name) -> float:
    """Total wall ms of spans called *name* that no span of that name encloses."""
    total = 0.0
    for name_, start, end, parent, _op, _extra in spans:
        if name_ != name:
            continue
        up = parent
        while up >= 0 and spans[up][0] != name:
            up = spans[up][3]
        if up < 0:
            total += end - start
    return total * 1e3


def layer_metrics(spans, n_ops: int, cache_hits: int, cache_misses: int) -> dict:
    """The per-layer metrics of a traced run, per traced operation."""
    n = max(n_ops, 1)
    by_name: dict[str, list[int]] = {}
    for idx, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(idx)

    def calls(name):
        return len(by_name.get(name, ())) / n

    def ms(name):
        return _outermost_ms(spans, name) / n

    def ratio(num, den):
        return num / den if den else 0.0

    child_ms: dict[int, float] = {}
    for name_, start, end, parent, *_ in spans:
        if parent >= 0:
            child_ms[parent] = child_ms.get(parent, 0.0) + (end - start)

    def self_ms(name):
        return sum(spans[i][2] - spans[i][1] - child_ms.get(i, 0.0)
                   for i in by_name.get(name, ())) * 1e3 / n

    mul = [spans[i][5] for i in by_name.get("polyring.mul", ())]
    bits_per_op: dict[int, int] = {}
    for i in by_name.get("polyring.mul", ()):
        op = spans[i][4]
        bits_per_op[op] = max(bits_per_op.get(op, 0), spans[i][5][1])

    certify = by_name.get("bitangent.certify", ())
    certified_under: dict[int, int] = {}
    for i in certify:
        if spans[i][5] == 1:
            certified_under[spans[i][3]] = certified_under.get(spans[i][3], 0) + 1
    enum_ok = [i for i in by_name.get("bitangent.enumerate", ()) if isinstance(spans[i][5], int)]
    enum_fail = len(by_name.get("bitangent.enumerate", ())) - len(enum_ok)
    solves = by_name.get("detrep.solve", ())
    solve_fail = sum(1 for i in solves if isinstance(spans[i][5], str))

    return {
        "polyring.mul.calls": calls("polyring.mul"),
        "polyring.mul.ms": ms("polyring.mul"),
        "polyring.mul.terms_out": sum(m[0] for m in mul) / n,
        "polyring.add.ms": ms("polyring.add"),
        "polyring.partial.ms": ms("polyring.partial"),
        "polyring.substitute_linear.ms": ms("polyring.substitute_linear"),
        "polyring.coeff_bits_max": (statistics.median(bits_per_op.values())
                                    if bits_per_op else 0),
        "polyring.eval_complex.calls": calls("polyring.eval_complex"),
        "polyring.eval_complex.ms": ms("polyring.eval_complex"),
        "diffcalc.transvectant.calls": calls("diffcalc.transvectant"),
        "diffcalc.transvectant.ms": ms("diffcalc.transvectant"),
        "diffcalc.diff_pair.ms": ms("diffcalc.diff_pair"),
        "diffcalc.j_bracket.ms": ms("diffcalc.j_bracket"),
        "diffcalc.det.ms": ms("diffcalc.det"),
        "dixmier.contravariants.ms": ms("dixmier.contravariants"),
        "dixmier.covariants.ms": ms("dixmier.covariants"),
        "dixmier.invariants.self_ms": self_ms("dixmier.invariants"),
        "symfam.golden_compare.ms": ms("symfam.golden_compare"),
        "symfam.load_golden.calls": calls("symfam.load_golden"),
        "symfam.load_golden.ms": ms("symfam.load_golden"),
        "symfam.decompose_symmetric.ms": ms("symfam.decompose_symmetric"),
        "symfam.make_family.ms": ms("symfam.make_family"),
        "bitangent.enumerate.ms": ms("bitangent.enumerate"),
        "bitangent.eval_scaled.calls": calls("bitangent.eval_scaled"),
        "bitangent.eval_scaled.ms": ms("bitangent.eval_scaled"),
        "bitangent.perfect_square_fit.ms": ms("bitangent.perfect_square_fit"),
        "bitangent.proj_distance.calls": calls("bitangent.proj_distance"),
        "bitangent.proj_distance.ms": ms("bitangent.proj_distance"),
        "bitangent.restriction.hit_ratio": ratio(cache_hits, cache_hits + cache_misses),
        "bitangent.candidates": len(certify) / n,
        "bitangent.certified_ratio": ratio(sum(certified_under.values()), len(certify)),
        "bitangent.distinct_ratio": ratio(sum(spans[i][5] for i in enum_ok),
                                          sum(certified_under.get(i, 0) for i in enum_ok)),
        "bitangent.fail": enum_fail / n,
        "numroots.roots.calls": calls("numroots.roots"),
        "numroots.roots.ms": ms("numroots.roots"),
        "numroots.biquadratic_roots.ms": ms("numroots.biquadratic_roots"),
        "detrep.solve.ms": ms("detrep.solve"),
        "detrep.e_residuals.calls": calls("detrep.e_residuals"),
        "detrep.det_residual.calls": calls("detrep.det_residual"),
        "detrep.det_residual.ms": ms("detrep.det_residual"),
        "detrep.certified_ratio": ratio(len(solves) - solve_fail, len(solves)),
        "detrep.fail": solve_fail / n,
        "cli.spawn_ms": ms("cli.spawn"),
        "cli.import_ms": ms("cli.import"),
        "cli.run_ms": ms("cli.run"),
        "cli.emit_ms": ms("cli.emit"),
    }
