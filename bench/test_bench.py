"""Tests of the benchmark itself: python3 -m pytest bench"""

import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from superx import cli  # noqa: E402
from superx.reports import render_rows_text  # noqa: E402


def test_self_time_keeps_same_module_calls():
    spans = [
        ["cli.main", 0.0, 10.0, -1],
        ["verify.run", 1.0, 9.0, 0],
        ["verify.check_a", 2.0, 5.0, 1],
        ["superext.build", 3.0, 4.0, 2],
        ["verify.check_b", 6.0, 8.0, 1],
        ["semigroups.zeros", 8.5, 8.9, 1],
        ["semigroups.zeros", 8.6, 8.7, 5],
    ]
    assert tracing.span_times(spans) == pytest.approx(
        {
            "cli.main": 2.0,
            "verify.run": 6.6,
            "verify.check_a": 2.0,
            "verify.check_b": 2.0,
            "superext.build": 1.0,
            "semigroups.zeros": 0.4,
        }
    )


def _bindings():
    table_cls = sys.modules["superx.semigroups"].SemigroupTable
    found = {(table_cls, "__post_init__"): table_cls.__dict__["__post_init__"]}
    for module in tracing.superx_modules():
        found.update(((module, attr), value) for attr, value in vars(module).items())
    return found


def test_install_wraps_every_binding_and_restore_puts_originals_back(capsys):
    before = _bindings()
    is_commutative = cli.is_commutative
    tracer = tracing.Tracer()
    replaced = tracing.install(tracer)
    try:
        verify = sys.modules["superx.verify"]
        assert cli.is_commutative is not is_commutative
        assert cli.is_commutative is verify.is_commutative
        assert cli.main(["lambda", "C4", "--what=structure"]) == 0
    finally:
        tracing.restore(replaced)
    capsys.readouterr()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    names = {row[0] for row in tracer.spans}
    assert {"cli.main", "semigroups.is_commutative", "semigroups.validate", "cli.render"} <= names
    assert tracer.counts["superext.build_lambda_table.cells"] == 12 * 12


def _verify_text(rows):
    return render_rows_text(["check", "expected", "computed", "match"], rows)


def test_checker_accepts_the_pinned_result_and_rejects_a_corrupted_one():
    pins = workloads.load_pins()
    command = workloads.WORKLOADS["verify-all"].commands[0]
    fields = pins[command.key]["fields"]
    rows = [fields[f"row {i}"].split(" | ") for i in range(int(fields["rows"]))]
    assert workloads.check(command, 1, _verify_text(rows), {}, pins) == []

    # The known sl(D10) disagreement is part of the pin: hiding it is a failure.
    d10 = next(i for i, row in enumerate(rows) if row[0] == "sl(D10)")
    fixed = [row if i != d10 else ["sl(D10)", "4", "4", "ok"] for i, row in enumerate(rows)]
    assert len(workloads.check(command, 0, _verify_text(fixed), {}, pins)) == 3
    dropped = rows[:d10] + rows[d10 + 1 :]
    assert workloads.check(command, 1, _verify_text(dropped), {}, pins)


def test_checker_rejects_a_wrong_table_digest_or_cache_state():
    pins = workloads.load_pins()
    miss = workloads.WORKLOADS["table-cache"].commands[0]
    digest = pins[miss.key]["fields"]["table_digest"]
    text = "key value\ncount 2646\ncache_file cache/C6-table-v1.txt\ncache_hit False\n"
    assert workloads.check(miss, 0, text, {"table_digest": digest}, pins) == []
    assert workloads.check(miss, 0, text, {"table_digest": "0" * 64}, pins)
    assert workloads.check(miss, 0, text.replace("False", "True"), {"table_digest": digest}, pins)


def test_a_traced_iteration_with_other_counts_fails():
    traced = [run.Iteration() for _ in range(3)]
    for it in traced:
        it.counts = {"cache.hits": 1, "invariants.vertices": 84}
    traced[2].counts = {"cache.hits": 1, "invariants.vertices": 85}
    run.check_counts(traced)
    assert [it.failed for it in traced] == [0, 0, 1]
    assert traced[2].problems


def test_count_metrics_repeat_exactly(tmp_path):
    commands = [
        ("lambda", "C5", "--what=table"),
        ("lambda", "C5", "--what=table"),
        ("lambda", "C4", "--what=structure"),
        ("invariant", "C6"),
    ]
    rounds = []
    for k in range(2):
        work = tmp_path / str(k)
        work.mkdir()
        runner = run.Runner(work, deadline=time.perf_counter() + 120)
        rounds.append([runner.spawn(["--trace"], argv)[0]["counts"] for argv in commands])
    assert rounds[0] == rounds[1]
    miss, hit = rounds[0][:2]
    assert miss["cache.misses"] == hit["cache.hits"] == 1
    assert miss["cache.save_table.bytes"] == hit["cache.load_table.bytes"] > 0
    assert rounds[0][3]["invariants.vertices"] > 0
