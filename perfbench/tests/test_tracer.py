"""Tests for the span tracer and the benchmark's metric bookkeeping."""

import json
import sys
import types

import numpy as np
import pytest

import spinlab
import tracer
from spinlab import evolution, higher_spin


def spinlab_functions():
    """Every function object bound on every loaded spinlab module."""
    return {
        (name, attr): val
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "spinlab" or name.startswith("spinlab."))
        for attr, val in vars(mod).items()
        if isinstance(val, types.FunctionType)
    }


def test_self_time_of_nested_spans():
    spans = [
        ["evolution.evolve", 0.0, 10.0, -1, 0],
        ["higher_spin.symbol_matrix", 1.0, 4.0, 0, 0],
        ["higher_spin.unpack", 2.0, 3.0, 1, 0],
        ["higher_spin.pack", 5.0, 9.0, 0, 0],
        ["evolution.evolve", 20.0, 21.5, -1, 1],
    ]
    assert tracer.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0, 1.5])
    totals = tracer.layer_totals(spans)
    assert totals["evolution"] == pytest.approx({"self_s": 4.5, "calls": 2})
    assert totals["higher_spin"] == pytest.approx({"self_s": 7.0, "calls": 3})
    assert totals["higher_spin.unpack"] == pytest.approx({"self_s": 1.0, "calls": 1})
    assert totals["cli.algebra_suite"] == {"self_s": 0.0, "calls": 0}
    # self times partition the root spans: nothing is counted twice
    module_sum = sum(totals[mod]["self_s"] for mod in tracer.TARGETS)
    assert module_sum == pytest.approx(10.0 + 1.5)


def test_call_from_evolve_into_symbol_matrix_is_attributed_to_higher_spin():
    cfg = spinlab.EvolutionConfig(mass=1.0, k=1, l=1, extent=4.0, points=8, dt=0.25, steps=2)
    u0 = np.zeros((cfg.points, cfg.fiber), dtype=complex)
    u0[3, 0] = 1.0
    with tracer.Tracer() as active:
        spinlab.evolve(u0, cfg)
    names = [span[0] for span in active.spans]
    root = names.index("evolution.evolve")
    children = [span for span in active.spans if span[3] == root]
    assert {span[0] for span in children} == {"higher_spin.symbol_matrix"}
    totals = tracer.layer_totals(active.spans)
    assert totals["higher_spin.symbol_matrix"]["calls"] == 2
    assert totals["higher_spin"]["calls"] >= 2
    assert totals["evolution"]["calls"] == 1


def test_remove_restores_every_module_binding():
    before = spinlab_functions()
    active = tracer.Tracer()
    active.install()
    try:
        wrapped = spinlab_functions()
        # the same object is replaced wherever a module imported it by name
        for module in (higher_spin, evolution, spinlab):
            assert wrapped[(module.__name__, "symbol_matrix")] is not before[
                (module.__name__, "symbol_matrix")]
        assert evolution.symbol_matrix is higher_spin.symbol_matrix is spinlab.symbol_matrix
        assert higher_spin.symmetrize is spinlab.spinor_core.symmetrize
    finally:
        active.remove()
    after = spinlab_functions()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    # removed wrappers record nothing
    spinlab.symbol_matrix(0, 0, spinlab.basis_vector(0, covariant=True))
    assert active.spans == []


def test_missing_target_is_skipped_and_reports_zero():
    targets = {"higher_spin": ("symbol_matrix", "no_such_function"), "absent": ("f",)}
    with tracer.Tracer(targets) as active:
        spinlab.symbol_matrix(0, 0, spinlab.basis_vector(3, covariant=True))
    totals = tracer.layer_totals(active.spans, targets)
    assert totals["higher_spin.no_such_function"] == {"self_s": 0.0, "calls": 0}
    assert totals["higher_spin.symbol_matrix"]["calls"] == 1


def test_exception_in_an_operation_is_a_failed_operation():
    import worker

    runs = worker.cauchy_prepare(spinlab, 0)
    bad = dict(runs[2], u0=runs[2]["u0"][:, :3])
    outcomes = worker.cauchy_call(spinlab, [bad])
    ops, _ = worker.cauchy_check([bad], outcomes)
    assert len(ops) == 1 and not ops[0]["ok"]
    assert ops[0]["error"].startswith("ValueError")


def test_benchmark_json_names_match_emitted_metrics():
    import run

    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    traced = {
        "wall_s": 2.0,
        "trace": {
            "layers": tracer.layer_totals([["evolution.evolve", 0.0, 1.0, -1, 0]]),
            "counts": {"symbol_matrix_calls": 0, "symbol_matrix_repeats": 0,
                       "cell_updates": 1, "field_bytes": 1},
        },
    }
    emitted = run.layer_metrics(traced, untraced_wall=1.5)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {
        name: metric["unit"] for name, metric in emitted.items()}
    assert emitted["trace.overhead_s"]["value"] == pytest.approx(0.5)
    assert emitted["trace.unattributed_s"]["value"] == pytest.approx(1.0)


def test_report_rows_are_operations_and_exit_status_must_agree(tmp_path):
    import worker

    rows = [
        {"id": "a", "status": "pass", "residual": 1e-12, "tolerance": 1e-10, "direction": "below"},
        {"id": "b", "status": "fail", "residual": 2e-10, "tolerance": 1e-10, "direction": "below"},
        {"id": "c", "status": "pass", "residual": 2.0, "tolerance": 1.8, "direction": "above"},
    ]
    report = {"suites": [{"checks": rows}], "summary": {"total": 3, "passed": 2}}

    def check(rc):
        path = tmp_path / "report.json"
        path.write_text(json.dumps(report))
        return worker.report_check({"argv": ["--json", str(path)]}, {"rc": rc})

    ops, digest = check(rc=1)
    assert [(o["name"], o["ok"]) for o in ops] == [
        ("a", True), ("b", False), ("c", True), ("exit-status-and-summary", True)]
    assert ops[1]["margin"] == pytest.approx(0.5)
    assert ops[2]["margin"] == pytest.approx(2.0 / 1.8)
    assert len(digest) == 64
    ops, _ = check(rc=0)
    assert not ops[-1]["ok"]
    ops, _ = worker.report_check({"argv": []}, {"error": "AssertionError: boom"})
    assert [(o["name"], o["ok"]) for o in ops] == [("report", False)]
