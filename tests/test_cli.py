"""CLI surface: JSON payloads, exit codes, round-trips and determinism."""

import argparse
import json
import subprocess
import sys
from fractions import Fraction

import pytest

from quartics.cli import (EXIT_DEGENERATE, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE,
                          main, tolerance)
from quartics.detrep import DEFAULT_TOL, solve_detrep


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestInvariants:
    def test_x96(self, capsys):
        code, out, _ = run_cli(capsys, ["invariants", "--family", "X96"])
        assert code == EXIT_OK
        data = json.loads(out)
        inv = data["invariants"]
        assert inv["I3"] == "72" and inv["I6"] == "13822"
        assert inv["I9"] == inv["I12"] == inv["I15"] == inv["I18"] == "0"
        assert data["schema"].startswith("quartics/")

    def test_x4_at_origin_matches_x96(self, capsys):
        code, out96, _ = run_cli(capsys, ["invariants", "--family", "X96"])
        code4, out4, _ = run_cli(capsys, ["invariants", "--family", "X4",
                                          "--params", "0", "0", "0"])
        assert code == code4 == EXIT_OK
        assert json.loads(out96)["invariants"] == json.loads(out4)["invariants"]

    def test_symbolic_decompose(self, capsys):
        code, out, _ = run_cli(capsys, ["invariants", "--family", "X4",
                                        "--symbolic", "--decompose"])
        assert code == EXIT_OK
        table = json.loads(out)["decomposition"]["I3"]
        assert table == {"const": "72", "[2]": "6", "[1,1,1]": "2"}

    def test_symbolic_golden(self, capsys):
        code, out, _ = run_cli(capsys, ["invariants", "--family", "X4",
                                        "--symbolic", "--golden"])
        assert code == EXIT_OK
        golden = json.loads(out)["golden"]
        assert golden["consistent"] is True
        assert golden["gamma"]["I3"] == "1"
        assert golden["gamma"]["I6"] == "1/648"
        assert golden["gamma"]["I9"] == "64/27"

    def test_negative_rational_params(self, capsys):
        code, out, _ = run_cli(capsys, ["invariants", "--family", "X4",
                                        "--params=-7/2,0,1"])
        assert code == EXIT_OK
        assert json.loads(out)["params"] == ["-7/2", "0", "1"]

    def test_generic(self, capsys):
        coeffs = [str(k + 1) for k in range(15)]
        code, out, _ = run_cli(capsys, ["invariants", "--family", "generic",
                                        "--params", *coeffs])
        assert code == EXIT_OK
        data = json.loads(out)
        assert set(data["invariants"]) == {"I3", "I6", "I9", "I12", "I15", "I18"}

    @pytest.mark.parametrize("argv", [
        ["invariants", "--family", "X4", "--params", "x", "1", "1"],
        ["invariants", "--family", "generic", "--params", "x", *["1"] * 14],
        ["bitangents", "--family", "X24", "--params", "x"],
        ["detrep", "--params", "1", "x", "1"],
    ])
    def test_usage_bad_rational(self, capsys, argv):
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "usage error: cannot parse rational 'x': Invalid literal for Fraction: 'x'\n"

    def test_usage_bad_arity(self, capsys):
        code, _, err = run_cli(capsys, ["invariants", "--family", "X4",
                                        "--params", "1", "2"])
        assert code == EXIT_USAGE
        assert "parameter" in err

    @pytest.mark.parametrize("argv, message", [
        (["--family", "generic", "--symbolic"], "generic quartics are numeric only"),
        (["--family", "X4", "--symbolic", "--params", "1", "2", "3"],
         "--symbolic takes no --params"),
    ])
    def test_usage_symbolic_misuse(self, capsys, argv, message):
        code, out, err = run_cli(capsys, ["invariants", *argv])
        assert (code, out, err) == (EXIT_USAGE, "", f"usage error: {message}\n")


DECOMPOSE_MISUSE = "--decompose applies to the symbolic X4 family"
GOLDEN_GENERIC = "--golden applies to the named families"
GOLDEN_NUMERIC = "--golden compares symbolic tables; pass --symbolic"
GENERIC_PARAMS = ["--params", *(str(k + 1) for k in range(15))]


@pytest.mark.parametrize("argv, message", [
    (["--family", "X16", "--symbolic", "--decompose"], DECOMPOSE_MISUSE),
    (["--family", "X24", "--symbolic", "--decompose"], DECOMPOSE_MISUSE),
    (["--family", "X96", "--symbolic", "--decompose"], DECOMPOSE_MISUSE),
    (["--family", "generic", *GENERIC_PARAMS, "--decompose"], DECOMPOSE_MISUSE),
    (["--family", "X4", "--params", "1", "2", "3", "--decompose"], DECOMPOSE_MISUSE),
    (["--family", "X96", "--decompose"], DECOMPOSE_MISUSE),
    (["--family", "X4", "--params", "1", "2", "3", "--golden"], GOLDEN_NUMERIC),
    (["--family", "X96", "--golden"], GOLDEN_NUMERIC),
    (["--family", "generic", *GENERIC_PARAMS, "--golden"], GOLDEN_GENERIC),
    # several misuses at once: the decompose check fires first, then the golden ones
    (["--family", "X16", "--symbolic", "--decompose", "--golden"], DECOMPOSE_MISUSE),
    (["--family", "X4", "--params", "1", "2", "3", "--decompose", "--golden"], DECOMPOSE_MISUSE),
    (["--family", "generic", *GENERIC_PARAMS, "--decompose", "--golden"], DECOMPOSE_MISUSE),
])
def test_invariants_flag_misuse_is_reported_before_computing(capsys, monkeypatch, argv, message):
    def refuse(form):
        raise AssertionError("invariants computed before the flags were checked")

    monkeypatch.setattr("quartics.cli.dixmier_invariants", refuse)
    code, out, err = run_cli(capsys, ["invariants", *argv])
    assert (code, out, err) == (EXIT_USAGE, "", f"usage error: {message}\n")


class TestBitangents:
    def test_x24_contains_rational_line(self, capsys):
        code, out, _ = run_cli(capsys, ["bitangents", "--family", "X24",
                                        "--params", "1"])
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["count"] == 28
        lines = [tuple(complex(re, im) for re, im in entry["coefficients"])
                 for entry in data["lines"]]
        from quartics.bitangent import proj_distance

        assert any(proj_distance(l, (1, -1, 1)) < 1e-9 for l in lines)
        assert all(entry["residual"] < 1e-9 for entry in data["lines"])

    def test_x96_count(self, capsys):
        code, out, _ = run_cli(capsys, ["bitangents", "--family", "X96"])
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["count"] == 28
        assert data["coordinate_type"] == 12 and data["general_type"] == 16

    def test_degenerate_exit_code(self, capsys):
        code, out, err = run_cli(capsys, ["bitangents", "--family", "X24",
                                          "--params", "2"])
        assert code == EXIT_DEGENERATE
        assert out == "" and "degenerate" in err.lower()

    def test_unattainable_tolerance_exits_numeric(self, capsys):
        code, out, err = run_cli(capsys, ["bitangents", "--family", "X96",
                                          "--tol", "1e-30"])
        assert code == EXIT_NUMERIC
        assert out == "" and "28" in err


@pytest.mark.parametrize("argv", [
    ["bitangents", "--family", "X24", "--params", "1e400"],
    ["detrep", "--params", "3", "1e200", "1"],
    ["detrep", "--params", "1e140", "1e140", "1e140"],
])
def test_double_overflow_exits_numeric(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == EXIT_NUMERIC
    assert out == "" and "overflows double precision" in err


@pytest.mark.parametrize("params", ["1e100,1,3", "-1e100,1,3"])
def test_detrep_large_r_certifies(capsys, params):
    # p^2 is the root of z^2 + r z + 1 whose formula does not cancel and q = 1/p,
    # so p^2 q^2 = 1 holds and the member certifies at |r| = 1e100
    code, out, _ = run_cli(capsys, ["detrep", f"--params={params}"])
    assert code == EXIT_OK
    residuals = json.loads(out)["residuals"]
    assert max(residuals[f"e{i}"] for i in range(1, 7)) <= DEFAULT_TOL
    assert residuals["det"] <= DEFAULT_TOL


class TestDetrep:
    def test_solves(self, capsys):
        code, out, _ = run_cli(capsys, ["detrep", "--params", "1", "2", "3"])
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["residuals"]["det"] < 1e-8
        assert max(data["residuals"][f"e{i}"] for i in range(1, 7)) < 1e-10
        # A = identity in [re, im] encoding
        assert data["A"][0][0] == [1.0, 0.0] and data["A"][0][1] == [0.0, 0.0]

    def test_fermat_branch(self, capsys):
        code, out, _ = run_cli(capsys, ["detrep", "--params", "0", "0", "0"])
        assert code == EXIT_OK
        data = json.loads(out)
        c = data["C"]
        cd = complex(*c[1][2]) * complex(*c[0][3])
        assert min(abs(cd - complex(-0.5, 0.5)), abs(cd - complex(-0.5, -0.5))) < 1e-9

    def test_degenerate_exit_code(self, capsys):
        code, _, err = run_cli(capsys, ["detrep", "--params", "2", "0", "0"])
        assert code == EXIT_DEGENERATE

    def test_usage(self, capsys):
        code, _, _ = run_cli(capsys, ["detrep", "--params", "1"])
        assert code == EXIT_USAGE

    def test_negative_rational_params(self, capsys):
        code, out, _ = run_cli(capsys, ["detrep", "--params=-7/2,1,3"])
        assert code == EXIT_OK
        data = json.loads(out)
        rep = solve_detrep(Fraction(-7, 2), 1, 3)
        assert data["params"] == ["-7/2", "1", "3"]
        for key, matrix in (("A", rep.a_matrix), ("B", rep.b_matrix), ("C", rep.c_matrix)):
            assert data[key] == [[[v.real, v.imag] for v in row] for row in matrix]
        assert data["branch"] == {"t_index": rep.branch.t_index,
                                  "cd_swap": rep.branch.cd_swap,
                                  "be_swap": rep.branch.be_swap}
        assert data["residuals"] == rep.residuals


@pytest.mark.parametrize("value", ["nan", "inf", "-1", "0"])
@pytest.mark.parametrize("argv", [
    ["bitangents", "--family", "X4", "--params", "1", "3", "5", "--tol"],
    ["bitangents", "--family", "X4", "--params", "1", "3", "5", "--dedupe-tol"],
    ["detrep", "--params", "1", "2", "3", "--tol"],
])
def test_tolerance_must_be_finite_and_positive(capsys, argv, value):
    with pytest.raises(SystemExit) as exc:
        main([*argv, value])
    assert exc.value.code == EXIT_USAGE
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1"])
def test_tolerance_type_uses_library_check(value):
    with pytest.raises(argparse.ArgumentTypeError, match="^tolerance must be a finite number > 0"):
        tolerance(value)


class TestEnvelope:
    def test_roundtrip_identity(self, capsys):
        for argv in (["invariants", "--family", "X24", "--symbolic"],
                     ["bitangents", "--family", "X96"],
                     ["detrep", "--params", "5", "1", "7"]):
            _, out, _ = run_cli(capsys, argv)
            data = json.loads(out)
            again = json.dumps(data, sort_keys=True, separators=(",", ": "), indent=1) + "\n"
            assert again == out

    def test_subprocess_byte_determinism(self):
        argv = [sys.executable, "-m", "quartics.cli", "detrep", "--params", "1", "2", "3"]
        a = subprocess.run(argv, capture_output=True, check=True)
        b = subprocess.run(argv, capture_output=True, check=True)
        assert a.stdout == b.stdout and a.stdout

    def test_runs_without_numpy(self):
        # nor dataclasses: the records are plain slotted classes, and its import
        # (inspect, ast, dis, tokenize) is most of a cold start's stdlib cost
        script = (
            "import sys\n"
            "sys.modules['numpy'] = sys.modules['dataclasses'] = None\n"
            "import quartics.cli as cli\n"
            "sys.exit(cli.main(['invariants', '--family', 'X24', '--symbolic', '--golden'])"
            " or cli.main(['detrep', '--params', '1', '2', '3'])"
            " or cli.main(['bitangents', '--family', 'X96']))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True)
        assert proc.returncode == 0, proc.stderr.decode()

    def test_unknown_family_exits_two(self):
        argv = [sys.executable, "-m", "quartics.cli", "invariants", "--family", "X7"]
        proc = subprocess.run(argv, capture_output=True)
        assert proc.returncode == 2
