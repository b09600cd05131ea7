"""Command-line interface tests: determinism, formats, exit codes."""

import json

import pytest

from eulerpencil.cli import main


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


def test_exit_two_on_unconverged_series(capsys):
    code, out, err = run(capsys, "chi4-L", "--s", "2", "--tol", "1e-18")
    assert code == 2 and not out
    assert "error:" in err and "not converged" in err and "Traceback" not in err


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
