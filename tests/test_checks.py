"""The row contract of the check battery: gaps reduce to one NaN-keeping residual."""

import json
import sys

import numpy as np
import pytest

from spinlab import checks
from spinlab import clifford as cl
from spinlab import evolution as ev
from spinlab import higher_spin as hs


def _refuse_constant(token):
    raise AssertionError(f"non-finite JSON token {token}")


def _row(suite: checks.Suite, check_id: str) -> dict:
    return next(row for row in suite.report()["checks"] if row["id"] == check_id)


def test_a_generator_row_reports_the_largest_gap():
    def gaps():
        yield np.array([1e-3, -2e-3])
        yield 3e-4 + 4e-4j
        yield -1e-4

    suite = checks.Suite("probe")
    suite.check("gaps", "Eq. (1)", 1e-2, gaps)
    row = suite.report()["checks"][0]
    assert row["status"] == "pass" and row["residual"] == 2e-3


def test_a_nan_gap_anywhere_makes_an_error_row():
    suite = checks.Suite("probe")
    suite.check("later-nan", "Eq. (1)", 1.0, lambda: (gap for gap in [0.0, np.nan, 1e-20]))
    row = suite.report()["checks"][0]
    assert row["status"] == "error" and row["residual"] is None
    assert row["error"] == "ValueError: non-finite residual nan"


def test_an_empty_generator_passes_at_zero():
    suite = checks.Suite("probe")
    suite.check("no-gaps", "Eq. (1)", 0.0, lambda: (gap for gap in []))
    row = suite.report()["checks"][0]
    assert row["status"] == "pass" and row["residual"] == 0.0


def _poison_call(real, caller, nth, poison):
    """``real``, except that its nth call made from ``caller`` returns ``poison(result)``."""
    calls = []

    def wrapped(*args):
        result = real(*args)
        if sys._getframe(1).f_code.co_name == caller:
            calls.append(None)
            if len(calls) == nth:
                return poison(result)
        return result

    return wrapped


def _assert_only_error(suite: checks.Suite, check_id: str) -> None:
    statuses = {row["id"]: row["status"] for row in suite.report()["checks"]}
    assert statuses.pop(check_id) == "error"
    assert set(statuses.values()) == {"pass"}


def test_a_later_nan_exp_spin_result_makes_an_error_row(monkeypatch):
    nan_s4 = lambda pair: (pair[0], np.full_like(pair[1], np.nan))
    monkeypatch.setattr(cl, "exp_spin", _poison_call(cl.exp_spin, "exp_spin_blocks", 2, nan_s4))
    _assert_only_error(checks.SUITES["algebra"](0, timings=False), "exp-spin-blocks")


def test_a_later_nan_pairing_makes_an_error_row_at_rank_one(monkeypatch):
    poisoned = _poison_call(hs.gen_pairing, "pairing_hermitian", 4, lambda _: complex("nan"))
    monkeypatch.setattr(hs, "gen_pairing", poisoned)
    suite = checks.SUITES["symbols"](0, timings=False, pairs=[(1, 1)])
    _assert_only_error(suite, "pairing-hermitian-k1")


def test_a_later_nan_green_ratio_makes_an_error_row(monkeypatch):
    residuals = {128: 4e-2, 256: 1e-2, 512: np.nan}
    monkeypatch.setattr(checks, "green_pulse", lambda mass, n_pts: (None, residuals[n_pts], 0.0))
    row = _row(checks.SUITES["evolution"](0, timings=False), "green-monotone-m0")
    assert row["status"] == "error" and row["error"] == "ValueError: non-finite residual nan"


def test_a_study_that_raises_makes_each_row_of_its_group_record_its_error(monkeypatch):
    # a row group shares one run of its study; a study that raised is not kept,
    # so every row of the group records the study's own error, not a missing key
    real_causality = ev.causal_support_check
    pulses = []

    def causality(u0, cfg):
        if cfg.mass == 0.0:
            raise RuntimeError("planted causality")
        return real_causality(u0, cfg)

    def green_pulse(mass, n_pts):
        pulses.append((mass, n_pts))
        if mass == 1.0:
            raise RuntimeError("planted green")
        return None, 4e-2 * (128 / n_pts) ** 2, 0.0

    monkeypatch.setattr(ev, "causal_support_check", causality)
    monkeypatch.setattr(checks, "green_pulse", green_pulse)
    report = checks.SUITES["evolution"](0, timings=False).report()
    rows = {row["id"]: row for row in report["checks"]}
    planted = {"causality-exact-m0": "causality", "causality-cone-m0": "causality",
               "green-residual-m1": "green", "green-monotone-m1": "green",
               "green-support-m1": "green"}
    for check_id, study in planted.items():
        assert rows[check_id]["status"] == "error"
        assert rows[check_id]["error"] == f"RuntimeError: planted {study}"
    for check_id in ("causality-exact-m2", "causality-cone-m2",
                     "green-residual-m0", "green-monotone-m0", "green-support-m0"):
        assert rows[check_id]["status"] == "pass"
    # the study that returned ran once for its three rows
    assert [n_pts for mass, n_pts in pulses if mass == 0.0] == [128, 256, 512]


def test_a_later_nan_convergence_order_makes_an_error_row(monkeypatch):
    poisoned = _poison_call(ev.final_level, "convergence_order", 3, lambda u: np.full_like(u, np.nan))
    monkeypatch.setattr(ev, "final_level", poisoned)
    suite = checks.SUITES["evolution"](0, timings=False)
    row = _row(suite, "convergence-order")
    assert row["status"] == "error" and row["error"] == "ValueError: non-finite residual nan"
    # the NaN order (512 -> 1024) reaches the suite's info, which writes it as null
    report = json.loads(checks.stable_json(suite.report()), parse_constant=_refuse_constant)
    first, second = report["info"]["convergence-orders"]
    assert first > 1.8 and second is None
    with pytest.raises(ValueError):
        checks.stable_json({"orders": [float("nan")]})


def test_the_rank_one_signature_row_certifies_its_witnesses(monkeypatch):
    # k = 1 is indefinite, (12, 4, 0), so the row fails when no negative witness certifies
    row = _row(checks.SUITES["signature"](0, timings=False, ks=(1,)), "signature-k1-report")
    assert row["status"] == "pass" and row["tolerance"] == 0.5
    positive_minus = lambda pair: (pair[0], (pair[1][0], 1.0))
    poisoned = _poison_call(hs.witness_pair, "witnesses", 1, positive_minus)
    monkeypatch.setattr(hs, "witness_pair", poisoned)
    row = _row(checks.SUITES["signature"](0, timings=False, ks=(1,)), "signature-k1-report")
    assert row["status"] == "fail" and row["residual"] == 1.0


@pytest.mark.parametrize("seed", [0, 10])
def test_a_covering_batch_that_raises_leaves_the_later_rows_inputs_alone(monkeypatch, seed):
    # the batch draws every sample before its first covering call, so raising there leaves
    # every other row as it is when the batch runs to its end
    def rows():
        report = checks.SUITES["algebra"](seed, timings=False).report()
        return {row["id"]: (row["status"], row["residual"]) for row in report["checks"]}

    completed = rows()
    real = cl.covering_lambda

    def refuse_the_batch(s2):
        if sys._getframe(1).f_code.co_name == "covering_batch":
            raise cl.InvariantViolation("planted")
        return real(s2)

    monkeypatch.setattr(cl, "covering_lambda", refuse_the_batch)
    raised = rows()
    assert raised.pop("covering-map-batch") == ("error", None)
    completed.pop("covering-map-batch")
    assert raised == completed


@pytest.mark.parametrize("seed", [10, 83, 105])
def test_the_covering_batch_passes_where_round_off_used_to_trip_its_metric_gate(seed):
    # these seeds draw neighbouring products with |S|_2 near 60-80, whose images miss eta
    # by about eps max|lam|^2 > 1e-9; the row's own gates stay at 1e-9 and pass
    row = _row(checks.SUITES["algebra"](seed, timings=False), "covering-map-batch")
    assert row["status"] == "pass" and row["tolerance"] == 1e-9
    assert row["residual"] <= 1e-9


@pytest.mark.parametrize("seed", [107, 159])
def test_the_planted_intertwiner_row_passes_with_a_tenfold_margin(seed):
    # these seeds draw the planted conjugations that come closest to the 1e-10 bound
    # when S is built by a cancelling sum; the null vector keeps them tenfold inside it
    row = _row(checks.SUITES["algebra"](seed, timings=False), "intertwiner-planted")
    assert row["status"] == "pass" and row["tolerance"] == 1e-10
    assert row["residual"] <= 1e-11
