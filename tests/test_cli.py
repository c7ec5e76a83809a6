"""CLI surface: JSON payloads, exit codes, round-trips and determinism."""

import argparse
import io
import json
import math
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quartics import bitangent, cli, components, detrep, diffcalc, dixmier, polyring, symfam
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


@pytest.mark.parametrize("argv,want", [
    (["invariants", "--family", "X24", "--params", "1e250"], EXIT_NUMERIC),
    (["bitangents", "--family", "X24", "--params", "1e5000"], EXIT_USAGE),
    (["detrep", "--params", "1e5000", "1", "3"], EXIT_USAGE),
    # rejected from the exponent, before 10**100000000 is formed
    (["invariants", "--family", "X24", "--params", "1e100000000"], EXIT_USAGE),
])
def test_numbers_too_long_to_print_exit_cleanly(capsys, argv, want):
    # a parameter str() cannot print is a usage error, an answer it cannot
    # print a numeric failure; either names the limit
    code, out, err = run_cli(capsys, argv)
    assert code == want and out == ""
    assert f"{sys.get_int_max_str_digits()} digits" in err and "Traceback" not in err


@pytest.mark.parametrize("text, same", [("1_0", "10"), ("3/ 4", "3/4"), ("0e" + "9" * 5000, "0")],
                         ids=["underscore", "blank-slash", "zero-times-exponent-of-5000-digits"])
def test_parameter_text_read_alike_on_every_python(capsys, text, same):
    # Fraction refused "1_0" on 3.10, "3/ 4" on 3.10 and 3.11 and "0e" + 5000 digits on all
    code, out, _ = run_cli(capsys, ["invariants", "--family", "X24", "--params", text])
    assert code == EXIT_OK and out == run_cli(capsys, ["invariants", "--family", "X24",
                                                       "--params", same])[1]


@pytest.mark.parametrize("command", ["bitangents", "invariants"])
def test_exponent_in_any_digits_exits_at_once(capsys, command):
    # Fraction formed 10**9999999 before the limit refused it, seconds on every Python
    start = time.perf_counter()
    code, out, err = run_cli(capsys, [command, "--family", "X24", "--params", "1e" + "٩" * 7])
    assert time.perf_counter() - start < 0.05
    assert code == EXIT_USAGE and out == ""
    assert err == (f"usage error: cannot parse rational: a numerator or denominator of more than "
                   f"{sys.get_int_max_str_digits()} digits, the limit of "
                   f"sys.get_int_max_str_digits()\n")


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

    def test_broken_pipe_closes_stderr(self, monkeypatch):
        # a reader that went away (quartics ... | head -c 1): the payload is
        # dropped and stderr closed, so the exit prints no second traceback
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError

        err = io.StringIO()
        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        monkeypatch.setattr(sys, "stderr", err)
        assert main(["invariants", "--family", "X96"]) == EXIT_OK
        assert err.closed

    def test_payload_is_one_write(self, monkeypatch):
        # with write-through stdout (python -u) each write is a system call
        writes = []

        class Recorder(io.StringIO):
            def write(self, text):
                writes.append(text)
                return super().write(text)

        monkeypatch.setattr(sys, "stdout", Recorder())
        assert main(["invariants", "--family", "X96"]) == EXIT_OK
        assert len(writes) == 1 and writes[0].endswith("}\n")
        assert json.loads(writes[0])["command"] == "invariants"

    def test_non_finite_answer_prints_no_partial_json(self, capsys, monkeypatch):
        # strict JSON has no NaN; "command" sorts before the NaN, so a streaming
        # encoder would have printed it before failing
        monkeypatch.setattr(cli, "cmd_detrep",
                            lambda args: {"command": "detrep", "residuals": {"det": math.nan}})
        code, out, err = run_cli(capsys, ["detrep", "--params", "1", "2", "3"])
        assert code == EXIT_NUMERIC and out == ""
        assert err.startswith("numeric failure: ") and "Traceback" not in err

    def test_unknown_family_exits_two(self):
        argv = [sys.executable, "-m", "quartics.cli", "invariants", "--family", "X7"]
        proc = subprocess.run(argv, capture_output=True)
        assert proc.returncode == 2


#: Run in a fresh interpreter: the import of the CLI builds no table and generates
#: no evaluator; then each builder, on its first call, builds its tables once, equal
#: to a fresh build.
COLD_IMPORT = """
import sys
import quartics.cli
from quartics import components, detrep, polyring

assert {"quartics.components", "quartics.detrep"} <= set(sys.modules)
builders = (components.tables, detrep.systems)
for build in builders:
    assert build.cache_info().currsize == 0, build
assert len(polyring._GENERATED) == 0
for build in builders:
    built = build()
    assert build() is built and build.cache_info().currsize == 1, build
    assert vars(built) == vars(build.__wrapped__()), build
"""


class TestColdStart:
    def test_import_builds_no_table(self):
        proc = subprocess.run([sys.executable, "-c", COLD_IMPORT], capture_output=True)
        assert proc.returncode == 0, proc.stderr.decode()

    #: One command of each kind in the rotation of the benchmark's CLI workload,
    #: which runs each in a fresh process.
    ROTATION = (["invariants", "--family", "X96"],
                ["invariants", "--family", "X4", "--params=-33/5,95/2,-35/2"],
                ["invariants", "--family", "generic",
                 "--params=1/7,-80/61,334/49,205/9,-7,13/3,-55/8,2,91/10,-3/4,17,-1/9,8/5,-6,44/7"],
                ["invariants", "--family", "X4", "--symbolic", "--decompose", "--golden"],
                ["bitangents", "--family", "X4", "--params=3,5/2,-7"],
                ["bitangents", "--family", "X16", "--params=25/4,29/7"],
                ["bitangents", "--family", "X24", "--params=-14"],
                ["detrep", "--params", "87/4", "54", "67/4"])
    #: The plans each kind of command builds: the invariants' four diff_pair plans
    #: (rho, tau, I3 and I6), J-brackets, det H, contravariants and their restriction;
    #: the bitangents' restrictions of three charts; detrep none.
    PLANS = {"invariants": {"_pairing": 4, "_bracket": 1, "_hessian_det_plan": 1,
                            "_contravariant_plan": 1, "_restriction": 1},
             "bitangents": {"_restriction": 3},
             "detrep": {}}

    @pytest.mark.parametrize("argv", ROTATION, ids=lambda argv: " ".join(argv[:3]))
    def test_a_command_compiles_no_kernel(self, capsys, compiles, argv):
        # a plan runs as generated code from its _HOT-th use with 8 pairs or more: one
        # command from empty caches, as in a fresh process, uses none of its plans
        # that often, so it pays for no compile; a product builds no plan
        for module in (polyring, diffcalc, dixmier, components, detrep, symfam, bitangent):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()
        assert run_cli(capsys, argv)[0] == EXIT_OK
        caches = {"_pairing": polyring._pairing, "_bracket": diffcalc._bracket,
                  "_hessian_det_plan": diffcalc._hessian_det_plan,
                  "_contravariant_plan": dixmier._contravariant_plan,
                  "_restriction": polyring._restriction}
        built = {name: cache.cache_info().misses for name, cache in caches.items()}
        assert {name: n for name, n in built.items() if n} == self.PLANS[argv[0]]
        assert compiles == []


#: parameter tokens: rationals in the grammar's forms and digit sets ("-7/2" only in the
#: comma-joined form: a word of its own is a flag), degenerate and overflowing values
GOOD = ["0", "1", "3", "-7/2", "3/ 4", "1_0", "٣", "１.５e-١", "2", "1e100", "1e400",
        "0e" + "9" * 5000]
#: tokens that are a usage error: too long or outside the grammar, or no token at all
BAD = ["1e5000", "1e" + "٩" * 7, "1/0", "x", "nan", "1__0", ""]
#: each subcommand's flags, with a value where they take one
FLAGS = {"invariants": [["--symbolic"], ["--decompose"], ["--golden"]],
         "bitangents": [["--tol", "1e-9"], ["--dedupe-tol", "0"]],
         "detrep": [["--seed", "5"], ["--seed", "x"], ["--tol", "nan"]]}


@st.composite
def argvs(draw):
    """A command line of a subcommand, a family and parameter tokens, mostly as many as the
    family takes and at most one of them bad, given as separate words or one comma-joined
    --params= word, and at most one of the subcommand's flags."""
    command = draw(st.sampled_from(sorted(FLAGS)))
    family = draw(st.sampled_from([*symfam.FAMILY_PARAMS, "generic", "X5"]))
    argv = [command] if command == "detrep" else [command, "--family", family]
    names = symfam.FAMILY_PARAMS.get(family, range(15))     # generic: 15 coefficients
    count = 3 if command == "detrep" else len(names)
    if not draw(st.integers(0, 3)):
        count = draw(st.integers(0, 4))
    tokens = draw(st.lists(st.sampled_from(GOOD), min_size=count, max_size=count))
    if tokens and not draw(st.integers(0, 2)):
        tokens[draw(st.integers(0, count - 1))] = draw(st.sampled_from(BAD))
    if draw(st.booleans()):
        argv.append("--params=" + ",".join(tokens))
    elif tokens:
        argv += ["--params", *tokens]
    if not draw(st.integers(0, 2)):
        argv += draw(st.sampled_from(FLAGS[command]))
    return argv


@settings(max_examples=80)
@given(argvs())
def test_any_command_line_exits_with_a_code_and_strict_json(argv):
    # an exit code of the CLI's, at most one strict-JSON document on stdout, and a
    # diagnostic, never a traceback, on stderr; argparse's refusals exit 2 as usage errors
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_DEGENERATE, EXIT_NUMERIC), argv
    assert "Traceback" not in err.getvalue(), argv
    assert (code == EXIT_OK) == bool(out.getvalue()), argv
    if out.getvalue():
        json.loads(out.getvalue(), parse_constant=lambda name: pytest.fail(f"{name} in {argv}"))
