"""Golden CLI transcripts: one JSON file per invocation in this directory.

Each file holds the argv, exit code, stdout and stderr of one
``eulerpencil.cli.main(argv)`` call run in-process with ``COLUMNS=80`` (argparse
wraps help and usage at the terminal width).  ``tests/test_golden.py`` replays
them; rewrite them (only when an output is meant to change) with

    PYTHONPATH=src python tests/golden/update.py
"""

from __future__ import annotations

import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent

INVOCATIONS = {
    "verify-all": ["verify-all", "--format", "json"],
    "match-canonical": ["match", "--ap", "3", "--p", "13", "--format", "json"],
    "match-canonical-table": ["match", "--ap", "3", "--p", "13"],
    "match-48a1-pencil": ["match", "--curve", "48a1", "--max-p", "60",
                          "--pencil", "3,1,1/2", "--format", "json"],
    "match-27a3": ["match", "--curve", "27a3", "--max-p", "60", "--format", "json"],
    "match-389a1-missing": ["match", "--curve", "389a1", "--max-p", "100", "--format", "json"],
    "reduce-check-canonical": ["reduce-check", "--ap", "-4", "--p", "5", "--format", "json"],
    "reduce-check-tau-zero": ["reduce-check", "--pencil", "0,1,1", "--ap", "2", "--p", "5",
                              "--format", "json"],
    "reduce-check-A-zero": ["reduce-check", "--pencil", "3,1,2.25", "--ap", "3", "--p", "11",
                            "--format", "json"],
    "spectral-poly": ["spectral-poly", "--pencil", "3,1,1/2", "--format", "json"],
    "spectral-poly-E2": ["spectral-poly", "--pencil", "3,1,1/2", "--E", "2", "--format", "json"],
    "spectral-poly-E0": ["spectral-poly", "--E", "0", "--format", "json"],
    "evenness": ["evenness", "--pencil", "3,1,1/2", "--format", "json"],
    "pontryagin": ["pontryagin", "--pencil", "2,0,2", "--format", "json"],
    "eta-gram": ["eta-gram", "--pencil", "3,1,1/2", "--c", "2", "--format", "json"],
    "basepoint-canonical": ["basepoint", "--ap", "-4", "--p", "5", "--format", "json"],
    "basepoint-pencil": ["basepoint", "--pencil", "3,1,1/2", "--ap", "-2", "--p", "7",
                         "--branch", "minus", "--format", "json"],
    # the README's CLI examples, as written there
    "readme-match": ["match", "--ap", "-4", "--p", "5"],
    "readme-basepoint": ["basepoint", "--ap", "2", "--p", "13", "--branch", "minus"],
    "readme-ap": ["ap", "--curve", "32a2", "--max-p", "100"],
    "readme-j": ["j", "--tau", "2", "--delta", "0", "--Delta", "2"],
    "readme-zco": ["zco"],
    "readme-universality": ["universality", "--z", "2.0", "--dispersion", "tanh"],
    "readme-sato-tate": ["sato-tate", "--curve", "256b2", "--X", "10000"],
    "readme-verify-all": ["verify-all"],
    # domain errors raised by the library (exit 2)
    "cornacchia-not-prime": ["cornacchia", "--p", "21"],
    "basepoint-hasse-violation": ["basepoint", "--ap", "100", "--p", "5"],
    "d-off-pole": ["d-off", "--w", "-1", "--p", "5"],
    # the canonical pencil at large p: the float residual_det exceeds the default 1e-9 (FAIL)
    "match-canonical-p10007": ["match", "--ap", "7", "--p", "10007", "--format", "json"],
    "match-canonical-p99991": ["match", "--ap", "50", "--p", "99991", "--format", "json"],
    # the float matcher off the canonical pencil: A = tau^2 - 4 Delta = 0, a complex
    # basepoint, and the canonical pencil given explicitly
    "match-A-zero": ["match", "--pencil", "3,1,9/4", "--ap", "3", "--p", "11", "--format", "json"],
    "match-complex-basepoint": ["match", "--pencil", "3,1,1/2", "--ap", "0", "--p", "3",
                                "--branch", "minus", "--format", "json"],
    "basepoint-canonical-given": ["basepoint", "--pencil", "2,0,2", "--ap", "-4", "--p", "5",
                                  "--format", "json"],
    # the g = 0 operator off shell, the eta-Gram at c = 0, and the monomial Gram
    "zco-c": ["zco-c", "--c", "3/2", "--u", "0.3+0.4i", "--format", "json"],
    "zco-c-u-zero": ["zco-c", "--c", "1", "--u", "0"],
    "pontryagin-E-zero": ["pontryagin", "--E", "0"],
    "eta-gram-c-zero": ["eta-gram", "--pencil", "3,1,1/2", "--E", "2", "--c", "0",
                        "--format", "json"],
    "monomial-gram": ["monomial-gram", "--format", "json"],
    # the CM branch of ap_count on models given by their coefficients (a model
    # with j = -3375, D = -7; j = -32768, D = -11; j = 8000, D = -8; j = -884736,
    # D = -19), and the subcommands that read such a model
    "ap-model-j-3375": ["ap", "--model", "1,-1,0,-2,-1", "--max-p", "3000",
                        "--format", "json"],
    "ap-model-j-32768": ["ap", "--model", "0,-1,1,-7,10", "--max-p", "3000",
                         "--format", "json"],
    "ap-model-j8000": ["ap", "--model", "0,1,0,-3,1", "--max-p", "3000", "--format", "json"],
    "delta-series-model-j-884736": ["delta-series", "--model", "0,0,1,-38,90", "--X", "3000",
                                    "--format", "csv"],
    "sato-tate-model-j-3375": ["sato-tate", "--model", "1,-1,0,-2,-1", "--X", "20000",
                               "--format", "json"],
    "good-primes-model-j-32768": ["good-primes", "--model", "0,-1,1,-7,10", "--max-p", "200",
                                  "--format", "json"],
    "curve-j-model-j-884736": ["curve-j", "--model", "0,0,1,-38,90", "--format", "json"],
    "monomial-gram-eps": ["monomial-gram", "--eps1", "-1", "--eps2", "1", "--format", "json"],
    # one call of each subcommand not run above
    "hasse": ["hasse", "--ap", "3", "--p", "13"],
    "quartic": ["quartic", "--coeffs", "1,0,2,0,3", "--format", "json"],
    "legendre-j": ["legendre-j", "--lambda-cr", "1/3", "--format", "json"],
    "pencil": ["pencil", "--pencil", "3,1,1/2", "--format", "json"],
    "j1728-q": ["j1728-q", "--tau-sq", "4", "--delta", "0", "--Delta", "2", "--format", "json"],
    "disc-identity": ["disc-identity", "--ap", "2", "--p", "13", "--format", "json"],
    "d-off": ["d-off", "--w", "1/3", "--p", "13", "--format", "json"],
    "cd-ratio": ["cd-ratio", "--ap", "3", "--p", "13", "--format", "json"],
    "tco": ["tco", "--p", "13", "--format", "json"],
    "golden": ["golden", "--format", "json"],
    "obstruction": ["obstruction", "--curve", "256b2", "--format", "json"],
    "arcsine-z": ["arcsine", "--z", "2", "--format", "json"],
    "arcsine-t": ["arcsine", "--t", "0.5", "--format", "csv"],
    "chi4-L": ["chi4-L", "--s", "2", "--format", "json"],
    "eta-feq": ["eta-feq", "--s", "0.5", "--format", "json"],
    "bulk": ["bulk", "--curve", "256b2", "--X", "3000", "--eps", "0.3", "--format", "json"],
    "accumulate": ["accumulate", "--curve", "256b2", "--X-list", "100,1000", "--format", "csv"],
    "catalogue": ["catalogue", "--format", "json"],
    # every path into the parser: help, and the usage errors of the top-level
    # parser and of a subcommand's parser (argparse wraps both at COLUMNS)
    "help": ["--help"],
    "hasse-help": ["hasse", "--help"],
    "no-arguments": [],
    "unknown-command": ["frobnicate"],
    "hasse-missing-argument": ["hasse", "--ap", "1"],
    "hasse-unrecognized-argument": ["hasse", "--ap", "3", "--p", "13", "extra"],
    "arcsine-no-choice": ["arcsine"],
}


def run(argv) -> dict:
    """The transcript of ``cli.main(argv)`` in this process, at COLUMNS=80."""
    from eulerpencil import cli

    out, err = io.StringIO(), io.StringIO()
    columns = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(argv))
    finally:
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns
    return {"argv": list(argv), "exit_code": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


def main() -> int:
    for name, argv in INVOCATIONS.items():
        text = json.dumps(run(argv), indent=2, sort_keys=True) + "\n"
        (HERE / f"{name}.json").write_text(text)
        print(f"wrote {name}.json", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
