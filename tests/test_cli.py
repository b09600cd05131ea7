"""Command-line interface tests: determinism, formats, exit codes."""

import argparse
import io
import json
import math
import os
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eulerpencil
from eulerpencil import cli
from eulerpencil.cli import main
from eulerpencil.curves import ENV_CATALOGUE


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- determinism --------------------------------------------------------------


def test_match_json_byte_deterministic(capsys):
    args = ("match", "--ap", "-4", "--p", "5", "--format", "json")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical across invocations


# -- output formats -----------------------------------------------------------


def test_match_formats(capsys):
    code, out, _ = run(capsys, "match", "--ap", "-4", "--p", "5", "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert blob["schema"] == "euler-pencil/1" and blob["status"] == "PASS"
    assert blob["result"]["p"] == 5 and blob["result"]["a_p"] == -4

    code, out, _ = run(capsys, "match", "--ap", "-4", "--p", "5", "--format", "table")
    assert code == 0 and "PASS" in out

    code, out, _ = run(capsys, "match", "--ap", "-4", "--p", "5", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2 and lines[1].split(",")[0] == "5"


def test_ap_table_lists_primes(capsys):
    code, out, _ = run(capsys, "ap", "--curve", "32a2", "--max-p", "30")
    assert code == 0
    assert "a_p = 6" in out  # a_13 for 32a2


def test_catalogue_lists_labels(capsys):
    code, out, _ = run(capsys, "catalogue")
    assert code == 0
    for label in ("256b2", "32a2", "27a3", "48a1", "389a1"):
        assert label in out


# -- exit codes ---------------------------------------------------------------


def test_exit_zero_on_pass(capsys):
    code, _, _ = run(capsys, "match", "--ap", "2", "--p", "13")
    assert code == 0


def test_exit_two_on_usage_error(capsys):
    code, _, _ = run(capsys, "no-such-command")
    assert code == 2


def test_exit_two_on_domain_error(capsys):
    # Hasse violation surfaces as a clean error, not a traceback
    code, _, err = run(capsys, "match", "--ap", "50", "--p", "5")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("command", ["basepoint", "match"])
@pytest.mark.parametrize("pencil", [(), ("--pencil", "3,1,1/2")], ids=["canonical", "general"])
def test_hasse_violation_exits_two_on_every_pencil(capsys, command, pencil):
    code, out, err = run(capsys, command, *pencil, "--ap", "100", "--p", "5")
    assert (code, out, err) == (2, "", "error: (a_p=100, p=5) violates the Hasse bound\n")


def test_exit_two_on_unknown_curve(capsys):
    code, _, err = run(capsys, "ap", "--curve", "zz999", "--max-p", "20")
    assert code == 2 and "error:" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("match", "--curve", "256b2"), "need --p or --max-p"),
        (("ap", "--max-p", "50"), "need --curve"),
        (("ap", "--curve", "389a1", "--max-p", "50"), "carries no model"),
    ],
)
def test_exit_two_on_missing_input(capsys, argv, message):
    code, _, err = run(capsys, *argv)
    assert code == 2 and "error:" in err and message in err
    assert "Traceback" not in err


BIG_P = "3317044064679887385962177"  # a probable prime just above the Miller-Rabin bound
UNDECIDED = (
    f"error: primality of {BIG_P} is not decided: it passes Miller-Rabin on the first"
    " 13 prime bases, which proves primality only below 3317044064679887385961981\n"
)


@pytest.mark.parametrize(
    "argv, stderr",
    [
        (("tco", "--p", "2"), "error: p=2 is a bad prime for 48a1\n"),
        (("match", "--curve", "256b2", "--p", "2"), "error: p=2 is a bad prime for 256b2\n"),
        (("cornacchia", "--p", "65"), "error: p=65 is not prime\n"),
        (("cornacchia", "--p", BIG_P, "--format", "json"), UNDECIDED),
        (("match", "--curve", "256b2", "--p", BIG_P), UNDECIDED),
    ],
)
def test_exit_two_on_bad_or_composite_prime(capsys, argv, stderr):
    # the bad-prime message names no library keyword; a composite p = 1 mod 4
    # has no Cornacchia decomposition to offer; a probable prime above the
    # Miller-Rabin bound is not decided
    assert run(capsys, *argv) == (2, "", stderr)


@pytest.mark.parametrize(
    "argv",
    [
        ("basepoint", "--ap", "0", "--p", "-3"),
        ("d-off", "--w", "1", "--p", "-2"),
        ("hasse", "--ap", "0", "--p", "0"),
        ("disc-identity", "--ap", "0", "--p", "-1"),
        ("match", "--ap", "0", "--p", "1"),
        ("tco", "--ap", "0", "--p", "-5"),
        ("tco", "--ap", "1", "--p", "0"),
        ("d-off", "--w", "1", "--p", "0"),
        ("reduce-check", "--ap", "0", "--p", "0"),
        ("cornacchia", "--p", "1"),
    ],
)
def test_exit_two_on_p_below_two(capsys, argv):
    code, out, err = run(capsys, *argv)
    p = argv[argv.index("--p") + 1]
    assert (code, out) == (2, "")
    assert err.endswith(f"{argv[0]}: error: argument --p: p={p} must be >= 2\n")


def test_exit_two_on_unconverged_series(capsys):
    code, out, err = run(capsys, "chi4-L", "--s", "2", "--tol", "1e-18")
    assert code == 2 and not out
    assert "error:" in err and "not converged" in err and "Traceback" not in err


@pytest.mark.parametrize("z", ["nan", "inf+1j"])
def test_exit_two_on_non_finite_z(capsys, z):
    code, out, err = run(capsys, "universality", "--z", z, "--format", "json")
    assert code == 2 and not out
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("zco-c", "--c", "1", "--u", "nan"),
        ("arcsine", "--z", "inf"),
        ("universality", "--z", "infj"),
    ],
)
def test_non_finite_complex_input_names_the_domain(capsys, argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == 2 and not out
    assert err == f"error: {argv[-1]} is not a finite complex number\n"


@pytest.mark.parametrize("u, expect", [("0.3+0.4i", {"re": 0.3, "im": 0.4}),
                                       ("2i", {"re": 0.0, "im": 2.0})])
def test_complex_input_reads_a_trailing_i(capsys, u, expect):
    code, out, _ = run(capsys, "zco-c", "--c", "1", "--u", u, "--format", "json")
    assert code in (0, 1) and json.loads(out)["result"]["u"] == expect


@pytest.mark.parametrize(
    "argv",
    [
        ("chi4-L", "--s", "inf"),
        ("arcsine", "--t", "nan"),
        ("bulk", "--curve", "256b2", "--X", "100", "--eps", "inf"),
        ("eta-feq", "--s", "0.5", "--tol", "nan"),
        # a negative tolerance: no residual can meet it, true identity or not
        ("match", "--ap", "0", "--p", "3", "--tol", "-1"),
        ("eta-feq", "--s", "0.5", "--tol", "-1"),
        ("zco-c", "--c", "1", "--u", "0.5", "--tol", "-0.001"),
        ("universality", "--z", "2", "--tol", "-1"),
        ("chi4-L", "--s", "2", "--tol", "-1"),
    ],
)
def test_exit_two_on_non_finite_float_option(capsys, argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    value = float(argv[-1])
    assert code == 2 and not out
    reason = "is negative" if math.isfinite(value) else "is not finite"
    assert err == f"error: {argv[-2]} = {value} {reason}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("delta-series", "--model", "0,0,0,-300,-285", "--X", "10"),
        ("ap", "--curve", "256b2", "--max-p", "1"),
        ("match", "--curve", "256b2", "--max-p", "2"),
    ],
)
def test_empty_csv_table_prints_nothing(capsys, argv):
    code, out, _ = run(capsys, *argv, "--format", "csv")
    assert code == 0 and out == ""


def test_threads_flag_removed(capsys):
    code, _, _ = run(capsys, "delta-series", "--curve", "256b2", "--X", "100",
                     "--threads", "2")
    assert code == 2


@pytest.mark.parametrize("label, warns", [("48a1", True), ("27a3", False), ("256b2", False)])
def test_sato_tate_warns_only_without_cm(capsys, label, warns):
    code, out, _ = run(capsys, "sato-tate", "--curve", label, "--X", "2000",
                       "--format", "json")
    assert code == 0
    assert ("warning" in json.loads(out)["result"]) == warns


# -- golden radicands ---------------------------------------------------------


@pytest.mark.parametrize(
    "argv, w",
    [
        (
            ("--ap", "37", "--p", "99991", "--branch", "minus"),
            {"x": "37/199982", "y": "-1/199982", "d": "39993198919"},
        ),
        (("--ap", "0", "--p", "99989"), {"x": "0", "y": "3/99989", "d": "1110877790"}),
    ],
)
def test_basepoint_json_radicand_golden(capsys, argv, w):
    code, out, _ = run(capsys, "basepoint", *argv, "--format", "json")
    assert code == 0
    assert json.loads(out)["result"]["w"] == w


@pytest.mark.parametrize("branch", ["plus", "minus"])
def test_basepoint_canonical_pencil_given_or_implied_agree(capsys, branch):
    # --pencil 2,0,2 is the canonical pencil, so it takes the same exact root
    # as the default and as match
    args = ("--ap", "-4", "--p", "5", "--branch", branch, "--format", "json")
    _, implied, _ = run(capsys, "basepoint", *args)
    code, given_, _ = run(capsys, "basepoint", "--pencil", "2,0,2", *args)
    assert code == 0 and given_ == implied
    _, matched, _ = run(capsys, "match", "--pencil", "2,0,2", *args)
    assert json.loads(matched)["result"]["basepoint"] == json.loads(implied)["result"]


def test_reduce_check_pencil_with_zero_leading_coefficient(capsys):
    # tau^2 = 4 Delta: A = 0, so the master quadratic is linear in Y
    code, out, _ = run(capsys, "reduce-check", "--pencil", "3,1,2.25", "--ap", "3",
                       "--p", "11", "--format", "json")
    assert code == 0 and json.loads(out)["result"] == {"exact": True}


# -- assorted smoke -----------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ("zco",),
        ("golden",),
        ("disc-identity", "--ap", "2", "--p", "13"),
        ("chi4-L", "--s", "1.0"),
        ("eta-feq", "--s", "0.5"),
        ("j", "--tau", "2", "--delta", "0", "--Delta", "2"),
        ("universality", "--z", "2.0", "--dispersion", "tanh"),
    ],
)
def test_smoke_commands_exit_zero(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out.strip()


def test_verify_all_passes(capsys):
    code, out, _ = run(capsys, "verify-all")
    assert code == 0
    assert "FAIL" not in out


# -- flags only where they are read -------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ("golden", "--tol", "1e-3"),
        ("match", "--ap", "2", "--p", "13", "--E", "2"),
        ("zco", "--catalogue", "x.json"),
        ("arcsine",),
        ("arcsine", "--z", "2", "--t", "0.5"),
        ("j", "--delta", "0", "--Delta", "2"),
        ("j", "--tau", "2", "--tau-sq", "4", "--delta", "0", "--Delta", "2"),
    ],
)
def test_exit_two_on_unread_or_missing_flag(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and not out
    assert "usage:" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("chi4-L", "--s", "2", "--tol", "1e-6"),
        ("universality", "--z", "2.0", "--tol", "1e-8"),
        ("j", "--tau-sq", "4", "--delta", "0", "--Delta", "2"),
        ("arcsine", "--t", "0.5"),
    ],
)
def test_flags_that_are_read_still_work(capsys, argv):
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0 and json.loads(out)["status"] == "INFO"


def test_catalogue_override_path(capsys, tmp_path):
    copy = tmp_path / "catalogue.json"
    copy.write_text(resources.files("eulerpencil.data").joinpath("catalogue.json").read_text())
    _, expect, _ = run(capsys, "ap", "--curve", "256b2", "--max-p", "50")
    code, out, _ = run(capsys, "ap", "--curve", "256b2", "--max-p", "50",
                       "--catalogue", str(copy))
    assert code == 0 and out == expect


@pytest.mark.parametrize(
    "argv",
    [
        ("catalogue", "--catalogue", "/nonexistent.json"),
        ("ap", "--curve", "256b2", "--max-p", "10", "--catalogue", "/nonexistent.json"),
    ],
)
def test_exit_two_on_missing_catalogue(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and not out
    assert "error:" in err and "nonexistent.json" in err and "Traceback" not in err


# -- cold processes: what a fresh interpreter loads and prints ----------------


def _cold(*args):
    """Run a fresh interpreter on this checkout's package."""
    src = str(Path(eulerpencil.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120)


def test_package_import_loads_neither_scipy_nor_numpy():
    proc = _cold("-c", "import sys, eulerpencil, eulerpencil.cli; "
                       "print(sorted({'numpy', 'scipy'} & set(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "argv",
    [
        ("universality", "--z", "2", "--format", "json"),  # pure-Python quadrature
        ("ap", "--curve", "256b2", "--max-p", "50", "--format", "json"),  # pure-Python count
    ],
)
def test_cold_process_matches_in_process(capsys, argv):
    code, out, err = run(capsys, *argv)
    proc = _cold("-m", "eulerpencil.cli", *argv)
    assert code == 0 and not err
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)


def test_verify_all_loads_no_scipy():
    # neither numpy nor scipy, in a cold verify-all and a cold Legendre/CM count
    for argv in (["verify-all"], ["ap", "--curve", "256b2", "--max-p", "700"]):
        proc = _cold("-c", "import sys; from eulerpencil import cli; "
                           f"code = cli.main({argv + ['--format', 'json']!r}); "
                           "print(sorted({'numpy', 'scipy'} & set(sys.modules)), code, "
                           "file=sys.stderr)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.strip() == "[] 0", argv


_MODULES_RUN = """
import json, sys
from pathlib import Path
ran = set()

def hook(event, args):
    # "exec" fires for every module body the import system runs, lazy or not
    if event == "exec" and Path(getattr(args[0], "co_filename", "")).parent.name == "eulerpencil":
        ran.add(Path(args[0].co_filename).stem)

sys.addaudithook(hook)
argv = json.loads(sys.argv[1])
if argv is None:
    import eulerpencil
else:
    from eulerpencil import cli
    cli.main(argv)
print(json.dumps(sorted(ran)), file=sys.stderr)
"""

LIBRARY = {"acceptance", "continuum", "curves", "exactmath", "matching", "pencil", "stats"}


def _modules_run(argv):
    proc = _cold("-c", _MODULES_RUN, json.dumps(argv))
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stderr.splitlines()[-1]))


def test_cold_command_runs_only_the_modules_it_calls():
    assert _modules_run(None) == {"__init__"}
    assert not _modules_run(["hasse", "--ap", "3", "--p", "13"]) & {
        "acceptance", "stats", "matching", "pencil"}
    assert not _modules_run(["zco"]) & {"acceptance", "stats"}
    assert _modules_run(["verify-all"]) == LIBRARY | {"__init__", "cli"}


def test_quadrature_failure_is_one_error_line():
    # an unconverged quadrature is one error line on stderr, with no warning
    proc = _cold("-m", "eulerpencil.cli", "universality", "--z", "2", "--tol", "1e-300")
    assert proc.returncode == 2 and not proc.stdout
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error:")


# -- fuzz: the exit-code contract over every subcommand -----------------------


def _subparsers(parser):
    return next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)).choices


PARSER = cli.build_parser()
SUBCOMMANDS = {
    name: [a for a in p._actions if not isinstance(a, argparse._HelpAction)]
    for name, p in _subparsers(PARSER).items()
}

# Options whose value sets the amount of work (primes, sweep length, scan
# size) draw only small values, so that every call stays within milliseconds.
_SIZED = {"--X", "--max-p", "--p", "--K", "--X-list"}

_small_ints = st.integers(-20, 300).map(str)
_malformed = st.sampled_from(["", "abc", "1/0", "nan", "inf", "-inf", "1e400", "-",
                              "0.3+0.4i", "2i", ",", "1,,2", "--", "/nonexistent.json"])
_scalars = st.one_of(
    _small_ints,
    st.fractions(max_denominator=20).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    _malformed,
)
_lists = st.lists(st.one_of(_small_ints, st.sampled_from(["1/2", "-9", "20.35", "0", "x"])),
                  min_size=0, max_size=6).map(",".join)


def _value(action):
    if action.choices is not None:
        return st.one_of(st.sampled_from(list(action.choices)), _malformed)
    if action.option_strings[0] in _SIZED:
        return st.one_of(_small_ints, _lists, _malformed)
    return st.one_of(_scalars, _lists)


@st.composite
def _argv(draw, name):
    argv = [name]
    for action in SUBCOMMANDS[name]:
        if not draw(st.booleans()):  # missing, even when required
            continue
        argv.append(action.option_strings[0])
        if action.nargs != 0:
            argv.append(draw(_value(action)))
    if draw(st.integers(0, 9)) == 0:
        argv.append(draw(st.sampled_from(["--bogus", "extra", "--tol", "--E", "--catalogue"])))
    return argv


def _assert_contract(argv):
    # an exception escaping main fails the test and names the argv
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("ignore")
        code = main(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue(), (argv, err.getvalue())


def test_cli_surface_is_pinned(capsys, monkeypatch):
    assert len(SUBCOMMANDS) == 36
    assert sum(len(actions) for actions in SUBCOMMANDS.values()) == 131
    assert list(cli.COMMANDS) == list(SUBCOMMANDS)
    # every subcommand run with a stub body: tolerance comes with --tol alone
    parser = cli.build_parser()
    subparsers = _subparsers(parser)
    monkeypatch.setattr(cli, "build_parser", lambda *_: parser)
    for name, sub in subparsers.items():
        sub.set_defaults(fn=lambda args: {})
        argv = [name, "--format", "json"]
        for action in SUBCOMMANDS[name]:
            if action.required:
                argv += [action.option_strings[0], "2"]  # --p takes p >= 2
        for group in sub._mutually_exclusive_groups:
            argv += [group._group_actions[0].option_strings[0], "1"]
        assert main(argv) == 0, argv
        report = json.loads(capsys.readouterr().out)
        takes_tol = any("--tol" in a.option_strings for a in SUBCOMMANDS[name])
        assert ("tolerance" in report) == takes_tol, name


@pytest.fixture
def fuzz_env(monkeypatch):
    monkeypatch.delenv(ENV_CATALOGUE, raising=False)
    # one parser for every call: building it takes most of a failing call
    monkeypatch.setattr(cli, "build_parser", lambda *_: PARSER)


@pytest.mark.parametrize("name", list(cli.COMMANDS))
def test_one_command_parser_equals_the_full_parser(name, monkeypatch):
    # main builds the named subcommand's parser alone; what it prints must not
    # depend on that, also where the top-level usage is printed
    monkeypatch.setenv("COLUMNS", "80")
    full, one = cli.build_parser(), cli.build_parser(name)
    assert list(_subparsers(one)) == [name]
    expect, got = _subparsers(full)[name], _subparsers(one)[name]
    assert got.format_help() == expect.format_help()
    assert got.format_usage() == expect.format_usage()
    assert one.format_usage() == full.format_usage()


@pytest.mark.parametrize("name", sorted(SUBCOMMANDS))
def test_fuzz_subcommand(name, fuzz_env):
    # verify-all takes only --format and runs for ~1 s per call
    @settings(max_examples=3 if name == "verify-all" else 20, deadline=None, database=None)
    @given(_argv(name))
    def check(argv):
        _assert_contract(argv)

    check()


@pytest.mark.parametrize("name", sorted(SUBCOMMANDS))
def test_required_options_only(name, fuzz_env):
    # each required option given a plain value, every optional one left out
    argv = [name]
    for action in SUBCOMMANDS[name]:
        if action.required:
            argv += [action.option_strings[0], "1"]
    _assert_contract(argv)
