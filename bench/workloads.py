"""The benchmark's workloads: inputs from a seed, timed passes, output checks.

Each workload runs in passes.  A pass is a fixed-shape list of requests
(one curve pipeline, one ``(a_p, p)`` pair, one CLI call).  The inputs of a
run form a seeded *cycle* of ``cycle`` passes: the runner always runs the
whole cycle once, then repeats it until the measured time is used up, so
every run measures whole passes of the same shape and checks the same set of
operations whatever the clock allows.  Constructing a workload is its
set-up: imports, catalogue load and input generation.

``check`` runs outside the timed region and returns, per operation, a key
naming the operation by its input and the causes for which its output is
wrong.  Causes in ``known_defects`` are defects of the library that the
benchmark counts but that do not make the run incorrect.
"""

from __future__ import annotations

import bisect
import io
import json
import math
import os
import random
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import eulerpencil
from eulerpencil import cli, curves, matching, stats

SCHEMA = "euler-pencil/1"
P_MIN, P_MAX = 5, 10**5  # match inputs: p log-uniform on [P_MIN, P_MAX]
#: a FAIL verdict with relative residuals this small is the absolute-1e-9
#: tolerance defect, not a wrong basepoint
ROUNDOFF_REL = 1e-6


@dataclass
class PassResult:
    latencies: list[float]  # seconds per request
    work: int  # primes (sweep), pairs (match) or calls (cli, verify)
    outputs: list = field(default_factory=list)


def primes_upto(n: int) -> list[int]:
    """Sieve of Eratosthenes, kept apart from the library's own."""
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\0\0"
    for i in range(2, math.isqrt(n) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, n + 1, i)))
    return [i for i, flag in enumerate(sieve) if flag]


def kronecker(D: int, p: int) -> int:
    """Kronecker symbol (D/p) at a prime p: +1 split, -1 inert, 0 ramified."""
    if p == 2:
        return 0 if D % 2 == 0 else (1 if D % 8 in (1, 7) else -1)
    r = pow(D % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def brute_force_ap(model: tuple[int, ...], p: int) -> int:
    """a_p = p + 1 - #E(F_p) counted point by point, independently of ``ap_count``.

    Small p enumerate every (x, y); larger p count the roots in y of
    y^2 + (a1 x + a3) y - f(x) for each x by Euler's criterion.
    """
    a1, a2, a3, a4, a6 = (c % p for c in model)
    count = 1  # the point at infinity
    for x in range(p):
        f = (x * x * x + a2 * x * x + a4 * x + a6) % p
        if p < 100:
            count += sum((y * y + a1 * x * y + a3 * y - f) % p == 0 for y in range(p))
            continue
        disc = ((a1 * x + a3) ** 2 + 4 * f) % p
        count += 1 if disc == 0 else (2 if pow(disc, (p - 1) // 2, p) == 1 else 0)
    return p + 1 - count


def _prime_at(primes: list[int], u: float) -> int:
    """The prime at quantile u of a log-uniform law on [P_MIN, P_MAX]."""
    x = math.exp(math.log(P_MIN) + u * (math.log(P_MAX) - math.log(P_MIN)))
    return primes[min(bisect.bisect_left(primes, x), len(primes) - 1)]


def _stratified_primes(primes: list[int], n: int) -> list[int]:
    """The primes at the midpoints of n equal strata of log p on [P_MIN, P_MAX].

    A pair's cost grows about linearly in p, so a fixed log-uniform grid
    keeps the heavy cost tail the same size in every pass and every seed.
    """
    return [_prime_at(primes, (i + 0.5) / n) for i in range(n)]


def _hasse_ap(rng: random.Random, p: int, residue: int | None = None) -> int:
    """a_p uniform on the Hasse interval, optionally in a given class mod 8.

    The interval holds every class mod 8 for p >= 5.
    """
    r = math.isqrt(4 * p)
    while True:
        a_p = rng.randint(-r, r)
        if residue is None or a_p % 8 == residue:
            return a_p


def _verdict_cause(residual_tr: float, residual_det: float, p: int) -> str:
    if max(residual_tr, residual_det) <= ROUNDOFF_REL * p:
        return "verify_abs_tolerance"
    return "verify_wrong_verdict"


def _failed(exc: BaseException) -> str:
    return f"raised_{type(exc).__name__}"


# ---------------------------------------------------------------------------


class Sweep:
    """Prime sweeps: delta_p_series -> sato_tate_report -> bulk_count ->
    accumulation_means for two CM curves and one non-CM curve."""

    name = "sweep"
    labels = ("256b2", "27a3", "48a1")
    X = 30_000
    brute_force_per_curve = 4
    cycle = 3
    known_defects = frozenset({"cm_class_label"})

    def __init__(self, seed: int):
        self.seed = seed
        self.entries = [curves.catalogue_entry(label) for label in self.labels]

    def pass_inputs(self, k: int):
        """(curve order, brute-force sample per curve) of pass k."""
        rng = random.Random(f"{self.seed}:sweep:{k}")
        order = list(range(len(self.entries)))
        rng.shuffle(order)
        samples = [sorted(rng.random() for _ in range(self.brute_force_per_curve))
                   for _ in self.entries]
        return order, samples

    def run_pass(self, k: int, tracer=None) -> PassResult:
        order, samples = self.pass_inputs(k)
        result = PassResult([], 0)
        for i in order:
            entry = self.entries[i]
            curve = entry.curve
            if tracer is not None:
                tracer.op = f"{k}:{entry.label}"
            start = time.perf_counter()
            try:
                series = stats.delta_p_series(curve, self.X)
                stats.sato_tate_report(series, cm_by_zi=entry.cm_discriminant == -4)
                stats.bulk_count(series, 0.3)
                stats.accumulation_means(curve, [self.X // 100, self.X // 10, self.X],
                                         series=series)
                output = series.rows
            except Exception as exc:  # counted as a failed request
                output = exc
            result.latencies.append(time.perf_counter() - start)
            if not isinstance(output, Exception):
                result.work += len(output)
            result.outputs.append((entry, output, samples[i]))
        return result

    def check(self, outputs) -> list[tuple[tuple, list[str]]]:
        """Per prime row, keyed by (curve label, p)."""
        causes = []
        for entry, rows, sample in outputs:
            if isinstance(rows, Exception):
                causes.append(((entry.label, None), [_failed(rows)]))
                continue
            picked = {min(int(u * len(rows)), len(rows) - 1) for u in sample}
            D = entry.cm_discriminant
            for i, row in enumerate(rows):
                bad = []
                if row.a_p * row.a_p > 4 * row.p:
                    bad.append("hasse")
                if D is not None:
                    symbol = kronecker(D, row.p)
                    if symbol == -1 and row.a_p != 0:
                        bad.append("cm_inert_ap_nonzero")
                    expected = {-1: "inert", 1: "split"}.get(symbol)
                    if expected is not None and row.cls != expected:
                        bad.append("cm_class_label")
                if i in picked and brute_force_ap(entry.model, row.p) != row.a_p:
                    bad.append("brute_force_ap")
                causes.append(((entry.label, row.p), bad))
        return causes


class Match:
    """Per-prime exact matching on seeded (a_p, p) pairs, no point counting."""

    name = "match"
    batch = 256
    cycle = 4
    known_defects = frozenset({"verify_abs_tolerance"})

    def __init__(self, seed: int):
        self.seed = seed
        self.grid = _stratified_primes(primes_upto(P_MAX), self.batch)
        self.pencils = [e.pencil_params for e in curves.load_catalogue() if e.pencil_params]

    def pass_inputs(self, k: int) -> list[tuple[int, int, tuple]]:
        """(a_p, p, pencil params) for each pair of pass k.

        The class of a_p mod 8 is (i + 2k) mod 8 at grid point i: its
        parity alternates along the p grid, and over the cycle's passes each
        p takes each class of its parity once.  The power of 2 in
        Delta_p = 4p(p+1) - a_p^2 follows from that class and p, and each
        factor 4 in Delta_p halves the exact arithmetic's cost, so this keeps
        the cost of a run the same on every seed.
        """
        rng = random.Random(f"{self.seed}:match:{k}")
        pairs = []
        for i, p in enumerate(self.grid):
            pairs.append((_hasse_ap(rng, p, (i + 2 * k) % 8), p, rng.choice(self.pencils)))
        rng.shuffle(pairs)
        return pairs

    def run_pass(self, k: int, tracer=None) -> PassResult:
        result = PassResult([], 0)
        for i, (a_p, p, params) in enumerate(self.pass_inputs(k)):
            if tracer is not None:
                tracer.op = f"{k}:{i}"
            start = time.perf_counter()
            try:
                tr, det, _ = matching.canonical_match_exact(a_p, p)
                canonical = matching.euler_match_verify("canonical", a_p, p)
                general = matching.euler_match_verify(params, a_p, p)
                output = (tr, det, canonical, general)
            except Exception as exc:  # counted as a failed pair
                output = exc
            result.latencies.append(time.perf_counter() - start)
            result.work += 1
            result.outputs.append((a_p, p, params, output))
        return result

    def check(self, outputs) -> list[tuple[tuple, list[str]]]:
        """Per pair, keyed by (a_p, p, pencil params)."""
        causes = []
        for a_p, p, params, output in outputs:
            if isinstance(output, Exception):
                causes.append(((a_p, p, params), [_failed(output)]))
                continue
            tr, det, canonical, general = output
            bad = []
            if not (tr == a_p and det == p):
                bad.append("exact_mismatch")
            if canonical.euler_poly != (1, -a_p, p):
                bad.append("euler_poly")
            # The exact identities hold, so a FAIL verdict disagrees with them.
            for report in (canonical, general):
                if not report.passed:
                    bad.append(_verdict_cause(report.residual_tr, report.residual_det, p))
            causes.append(((a_p, p, params), sorted(set(bad))))
        return causes


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Call:
    kind: str
    argv: tuple[str, ...]
    exit_code: int  # the documented exit code


def child_env() -> dict:
    """Environment for child interpreters: this package on the path, the
    default catalogue, and the parent's thread pins."""
    env = dict(os.environ)
    env.pop(curves.ENV_CATALOGUE, None)
    src = str(Path(eulerpencil.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def call_cli(argv) -> tuple[int, str, str]:
    """One cold ``python -m eulerpencil.cli`` process."""
    done = subprocess.run([sys.executable, "-m", "eulerpencil.cli", *argv], env=child_env(),
                          capture_output=True, text=True, timeout=120)
    return done.returncode, done.stdout, done.stderr


def call_in_process(argv) -> tuple[int, str, str]:
    """``cli.main(argv)`` in this process, reporting as the interpreter would."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            if exc.code is None or isinstance(exc.code, int):
                code = exc.code or 0
            else:
                print(exc.code, file=sys.stderr)
                code = 1
        except Exception:  # an uncaught error ends the process with a traceback
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


def _report_causes(call: Call, code: int, out: str) -> list[str]:
    try:
        report = json.loads(out)
    except ValueError:
        return ["json"]
    if report.get("schema") != SCHEMA or report.get("command") != call.argv[0]:
        return ["schema"]
    if (report["status"] in ("PASS", "INFO")) != (code == 0):
        return ["status_vs_exit"]
    if call.kind == "match" and code == 1:
        res = report["result"]
        return [_verdict_cause(res["residual_tr"], res["residual_det"], res["p"])]
    if call.kind == "verify-all":
        rows = report["result"]["rows"]
        bad = [f"criterion_{r['criterion']}" for r in rows if r["status"] != "PASS"]
        return bad + (["row_count"] if len(rows) != 15 else [])
    return []


def check_call(call: Call, code: int, out: str, err: str) -> list[str]:
    """Causes for which one CLI call's outcome breaks the documented contract."""
    bad = ["traceback"] if "Traceback" in err else []
    if code in (0, 1) and call.exit_code in (0, 1):
        bad += _report_causes(call, code, out)
    # A FAIL verdict on a true match already names why the exit code is 1.
    if code != call.exit_code and not any(c.startswith("verify_") for c in bad):
        bad.append("exit_code")
    return [f"{call.kind}:{c}" for c in bad]


class Cli:
    """Closed loop, one client: cold CLI processes over a seeded quick mix."""

    name = "cli"
    strata = 4
    cycle = strata
    known_defects = frozenset({
        # ``match --curve L`` without --p or --max-p dies in a TypeError
        "match-no-prime:traceback", "match-no-prime:exit_code",
        # a missing --curve raises SystemExit(msg), which exits 1, not 2
        "missing-curve:exit_code",
        "match:verify_abs_tolerance",
    })

    def __init__(self, seed: int):
        self.seed = seed
        self.primes = [p for p in primes_upto(P_MAX) if p >= P_MIN]
        self.split_primes = [p for p in self.primes if p % 4 == 1]
        self.with_model = [e.label for e in curves.load_catalogue() if e.model]
        cli.build_parser()

    def pass_inputs(self, k: int) -> list[Call]:
        """The calls of pass k, in seeded order.

        Each drawn argument is uniform within one of ``strata`` equal
        strata of its range, and the passes of a cycle rotate through the
        strata, so every run covers each range evenly on every seed.
        """
        rng = random.Random(f"{self.seed}:cli:{k}")
        slot = iter(range(k, k + 16))

        def quantile() -> float:
            return (next(slot) % self.strata + rng.random()) / self.strata

        def uniform(lo: float, hi: float) -> float:
            return lo + (hi - lo) * quantile()

        p_match, p_base, p_hasse = (_prime_at(self.primes, quantile()) for _ in range(3))
        while True:
            tau, delta, Delta = rng.randint(1, 6), rng.randint(-5, 5), rng.randint(1, 6)
            mu = Fraction(tau * tau - delta * delta, 4) - Delta
            if mu != 0 and tau * tau != 4 * Delta:
                break
        a_hasse = rng.randint(-2 * math.isqrt(4 * p_hasse), 2 * math.isqrt(4 * p_hasse))
        calls = [
            Call("match", ("match", "--ap", str(_hasse_ap(rng, p_match)), "--p", str(p_match)), 0),
            Call("basepoint", ("basepoint", "--ap", str(_hasse_ap(rng, p_base)),
                               "--p", str(p_base), "--branch", rng.choice(("plus", "minus"))), 0),
            Call("j", ("j", "--tau", str(tau), "--delta", str(delta), "--Delta", str(Delta)), 0),
            Call("zco", ("zco",), 0),
            Call("golden", ("golden",), 0),
            Call("universality", ("universality", "--z", f"{uniform(1.1, 3.0):.4f}",
                                  "--dispersion", rng.choice(("tanh", "algebraic"))), 0),
            Call("chi4-L", ("chi4-L", "--s", f"{uniform(0.3, 2.0):.4f}"), 0),
            Call("hasse", ("hasse", "--ap", str(a_hasse), "--p", str(p_hasse)),
                 0 if a_hasse * a_hasse <= 4 * p_hasse else 1),
            Call("cornacchia", ("cornacchia", "--p", str(rng.choice(self.split_primes))), 0),
            Call("ap", ("ap", "--curve", rng.choice(self.with_model),
                        "--max-p", str(round(uniform(100, 1000)))), 0),
            Call("catalogue", ("catalogue",), 0),
            # usage and domain errors: documented exit code 2
            Call("match-no-prime", ("match", "--curve", rng.choice(self.with_model)), 2),
            Call("missing-curve", ("ap", "--max-p", str(rng.randint(10, 100))), 2),
            Call("unknown-command", ("frobnicate",), 2),
            Call("missing-argument", ("hasse", "--ap", "1"), 2),
            Call("hasse-violation", ("basepoint", "--ap", str(2 * p_base + rng.randint(2, 50)),
                                     "--p", str(p_base)), 2),
        ]
        calls = [Call(c.kind, c.argv + ("--format", "json"), c.exit_code) for c in calls]
        rng.shuffle(calls)
        return calls

    def run_pass(self, k: int, tracer=None) -> PassResult:
        result = PassResult([], 0)
        for i, call in enumerate(self.pass_inputs(k)):
            start = time.perf_counter()
            if tracer is None:
                outcome = call_cli(call.argv)
            else:
                tracer.op = f"{k}:{i}"
                outcome = call_in_process(call.argv)
            result.latencies.append(time.perf_counter() - start)
            result.work += 1
            result.outputs.append((call, outcome))
        return result

    def check(self, outputs) -> list[tuple[Call, list[str]]]:
        """Per call, keyed by the call itself."""
        return [(call, check_call(call, *outcome)) for call, outcome in outputs]


class Verify(Cli):
    """Cold ``verify-all --format json``: all 15 acceptance criteria."""

    name = "verify"
    cycle = 1
    known_defects = frozenset()

    def __init__(self, seed: int):
        self.seed = seed
        cli.build_parser()

    def pass_inputs(self, k: int) -> list[Call]:
        return [Call("verify-all", ("verify-all", "--format", "json"), 0)]


WORKLOADS = {w.name: w for w in (Sweep, Match, Cli, Verify)}
