"""The numeric certification path reproduces a recorded fixture exactly.

``certify_fixture.json`` holds, for a dozen X4/X16/X24 members (ordinary,
large-magnitude and near-singular ones), the ``repr`` of every certified
line, its perfect-square fit, residual, source and chart, the detrep
residuals of the X4 members, and the error message of every member that
fails.  Any change to evaluation order, dedupe or certification that moves
a single bit shows up here.  The recorded bits are those of IEEE double
arithmetic and the platform's ``cmath``; a platform whose square root or
exponential rounds differently would need its own fixture.

Regenerate (only when a change of output is intended) with::

    PYTHONPATH=src python tests/test_certify_fixture.py
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

from quartics.bitangent import enumerate_bitangents
from quartics.detrep import solve_detrep
from quartics.errors import QuarticsError

FIXTURE = Path(__file__).with_name("certify_fixture.json")

#: (family, params) as exact rationals; the near-singular members sit at
#: distance eps from the loci r^2+s^2+u^2-rsu = 4, s^2 = r+2 and r = -1.
MEMBERS = (
    ("X4", ("1", "3", "5")),
    ("X4", ("-7/2", "4", "1/3")),
    ("X4", ("1234567/1000", "-87/4", "3001/7")),
    ("X4", ("222633", "30/7", "30/7")),
    ("X4", ("2376525/1000000", "3", "5")),
    ("X4", ("2376524617/1000000000", "3", "5")),
    ("X4", ("2623/1000", "-3/10", "1/7")),
    ("X4", ("54321", "-12345/7", "23456")),
    ("X16", ("1", "3")),
    ("X16", ("-7/2", "1/3")),
    ("X16", ("5000/3", "-17")),
    ("X16", ("7000000001/1000000000", "3")),
    ("X16", ("7000000000001/1000000000000", "3")),
    ("X16", ("7000000000009/9000000000000", "-5/3")),
    ("X16", ("10", "-1")),
    ("X16", ("1743/1000", "-44027/20")),
    ("X24", ("-1/3",)),
    ("X24", ("4321/10",)),
    ("X24", ("-999999/1000000",)),
    ("X24", ("-999999999999/1000000000000",)),
)


def _error(exc: QuarticsError) -> str:
    return f"{type(exc).__name__}: {exc}"


def records() -> dict:
    out = {}
    for family, raw in MEMBERS:
        params = tuple(Fraction(p) for p in raw)
        key = f"{family}({','.join(raw)})"
        try:
            certs = enumerate_bitangents(family, params)
        except QuarticsError as exc:
            out[key] = _error(exc)
        else:
            out[key] = [repr((c.line.coefficients, c.lam, c.residual, c.source, c.chart))
                        for c in certs]
        if family == "X4":
            try:
                rep = solve_detrep(*params)
            except QuarticsError as exc:
                out[f"detrep{key[2:]}"] = _error(exc)
            else:
                out[f"detrep{key[2:]}"] = repr((rep.branch, sorted(rep.residuals.items())))
    return out


def test_certification_reproduces_fixture():
    want = json.loads(FIXTURE.read_text())
    got = records()
    assert list(got) == list(want)
    for key in want:
        assert got[key] == want[key], key


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(records(), indent=1) + "\n")
