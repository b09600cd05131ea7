"""Self-tests of the benchmark.

    python3 -m pytest bench/selftest.py -q

They run every workload for one short cycle of passes in each mode (a few
minutes).
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from eulerpencil import curves, matching, stats  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEEDED = ("sweep", "match", "cli")


def bench(workload: str, seed: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300, check=True)
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result = bench(workload, 1, trace)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    assert result["correct"] and result["attempted"] >= 1


@pytest.mark.parametrize("workload", SEEDED)
def test_seed_changes_inputs_but_not_metric_names(workload):
    cls = workloads.WORKLOADS[workload]
    assert cls(1).pass_inputs(0) == cls(1).pass_inputs(0)
    assert cls(1).pass_inputs(0) != cls(2).pass_inputs(0)


def test_metric_names_do_not_depend_on_the_seed():
    assert bench("cli", 1, 0)["metrics"].keys() == bench("cli", 2, 0)["metrics"].keys()


def _result(workload, checked):
    outcomes = {}
    run.record(outcomes, checked)
    return run.report(workload, {"context": {}}, {}, outcomes)


def test_planted_wrong_sweep_row_is_counted():
    sweep = workloads.Sweep(1)
    entry = sweep.entries[0]
    rows = list(stats.delta_p_series(entry.curve, 200).rows)
    assert not any(bad for _, bad in sweep.check([(entry, rows, [0.5])]))
    planted = len(rows) // 2
    rows[planted] = rows[planted]._replace(a_p=rows[planted].a_p + 2)
    checked = sweep.check([(entry, rows, [0.5])])
    assert checked[planted] == ((entry.label, rows[planted].p), ["brute_force_ap"])
    result = _result(sweep, checked)
    assert result["failed"] == 1 and not result["correct"]


def test_planted_wrong_match_output_is_counted():
    match = workloads.Match(1)
    a_p, p = -4, 5
    tr, det, _ = matching.canonical_match_exact(a_p, p)
    reports = (matching.euler_match_verify("canonical", a_p, p),
               matching.euler_match_verify("canonical", a_p, p))
    params = match.pencils[0]
    good = (a_p, p, params, (tr, det, *reports))
    planted = (a_p, p, params, (tr + 1, det, *reports))
    checked = match.check([good, planted])
    assert checked == [((a_p, p, params), []), ((a_p, p, params), ["exact_mismatch"])]
    result = _result(match, checked)
    assert result["failed"] == 1 and not result["correct"]


def test_planted_wrong_cli_output_is_counted():
    cli = workloads.Cli.__new__(workloads.Cli)
    call = workloads.Call("golden", ("golden", "--format", "json"), 0)
    good = workloads.call_in_process(call.argv)
    wrong_schema = (0, good[1].replace(workloads.SCHEMA, "other/0"), "")
    crashed = (1, "", "Traceback (most recent call last):\n")
    other = workloads.Call("zco", ("zco", "--format", "json"), 0)
    checked = cli.check([(call, good), (call, wrong_schema), (other, crashed)])
    assert checked[0] == (call, [])
    assert checked[1] == (call, ["golden:schema"])
    assert "zco:traceback" in checked[2][1] and "zco:exit_code" in checked[2][1]
    result = _result(cli, checked)
    # the two runs of ``call`` are one operation, failed on one of its runs
    assert result["attempted"] == 2
    assert result["failed"] == 2 and not result["correct"]


def test_known_defects_are_counted_but_keep_the_run_correct():
    cli = workloads.Cli.__new__(workloads.Cli)
    call = workloads.Call("missing-curve", ("ap", "--max-p", "50"), 2)
    checked = cli.check([(call, workloads.call_in_process(call.argv))])
    result = _result(cli, checked)
    assert result["failed"] == 1 and result["correct"]


class _Clockless:
    """A workload whose every pass reports one request of 1 s."""

    cycle = 2

    def run_pass(self, k, tracer=None):
        return workloads.PassResult([1.0], 1, [k])

    def check(self, outputs):
        return [(k, ["odd"] if k % 2 else []) for k in outputs]


@pytest.mark.parametrize("seconds", (0.1, 2, 7))
def test_operation_counts_do_not_depend_on_the_clock(seconds):
    passes, _, outcomes = run.measure(_Clockless(), seconds)
    assert len(passes) == max(2, math.ceil(seconds))
    assert outcomes == {0: set(), 1: {"odd"}}


def test_tracer_wraps_every_binding_and_tolerates_missing_targets(monkeypatch):
    monkeypatch.setitem(tracing.TARGETS, "curves.removed", ("eulerpencil.curves", "removed"))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        curve = curves.catalogue_entry("256b2").curve
        assert stats.ap_count is not curves.ap_count.__wrapped__
        stats.ap_count(curve, 5)
        curves.ap_count(curve, 7)
    finally:
        tracer.uninstall()
    assert stats.ap_count is curves.ap_count and not hasattr(curves.ap_count, "__wrapped__")
    metrics = tracing.layer_metrics(tracer, 1)
    assert metrics["curves.ap_count.calls"] == (2, "count")
    assert metrics["curves.removed.calls"] == (0, "count")
