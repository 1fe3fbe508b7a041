"""The row contract of the check battery: gaps reduce to one NaN-keeping residual."""

import functools
import inspect
import json
import sys
import zlib

import numpy as np
import pytest

from spinlab import checks
from spinlab import clifford as cl
from spinlab import evolution as ev
from spinlab import higher_spin as hs
from spinlab import minkowski as mk
from spinlab import spinor_core as sc


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


def _nan_at(index):
    """A copy of an array with a NaN at ``index``, a later member of its stack."""
    def poison(values):
        values = values.copy()
        values[index] = np.nan
        return values
    return poison


def test_a_later_nan_exp_spin_result_makes_an_error_row(monkeypatch):
    nan_s4 = lambda pair: (pair[0], _nan_at(1)(pair[1]))
    monkeypatch.setattr(cl, "exp_spin", _poison_call(cl.exp_spin, "exp_spin_blocks", 1, nan_s4))
    _assert_only_error(checks.SUITES["algebra"](0, timings=False), "exp-spin-blocks")


def test_a_later_nan_pairing_makes_an_error_row_at_rank_one(monkeypatch):
    # the row pairs one pair at a time, twice per pair: the 7th pairing is pair 4's
    poisoned = _poison_call(hs._pairing_blocks, "pairing_hermitian", 7, lambda _: complex("nan"))
    monkeypatch.setattr(hs, "_pairing_blocks", poisoned)
    suite = checks.SUITES["symbols"](0, timings=False, pairs=[(1, 1)])
    _assert_only_error(suite, "pairing-hermitian-k1")


@pytest.mark.parametrize("n_pts", [0, -3])
def test_green_pulse_refuses_a_point_count_below_one(n_pts):
    with pytest.raises(ValueError, match=f"at least one point, got {n_pts}"):
        checks.green_pulse(1.0, n_pts)


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


def test_each_row_draws_from_the_stream_of_its_seed_and_id():
    suite = checks.Suite("probe", seed=12)
    for check_id in ("first", "second"):
        suite.check(check_id, "Eq. (1)", 1.0, lambda: suite.rng.normal())
    drawn = [row["residual"] for row in suite.report()["checks"]]
    assert drawn == [np.random.default_rng([12, zlib.crc32(f"probe/{check_id}".encode())]).normal()
                     for check_id in ("first", "second")]


@functools.cache
def _report_rows(seed):
    report = checks.build_report(seed, timings=False)
    return {(suite["suite"], row["id"]): row for suite in report["suites"] for row in suite["checks"]}


@pytest.mark.parametrize("seed", [0, 3, 107])
@pytest.mark.parametrize("suite_name, selection",
                         [("symbols", {"pairs": [(k, k)]}) for k in (0, 1, 2)]
                         + [("signature", {"ks": (k,)}) for k in (0, 1, 2)])
def test_a_selected_row_equals_the_reports_row_bit_for_bit(seed, suite_name, selection):
    # a row's samples depend on the seed and its id, not on the rows that ran before it
    rows = checks.SUITES[suite_name](seed, timings=False, **selection).report()["checks"]
    full = _report_rows(seed)
    for row in rows:
        assert row == full[(suite_name, row["id"])]


#: Every row that reads its generator, at these selections.
SAMPLE_ROWS = {
    "algebra": ["exp-spin-blocks", "exp-spin-vector-rep", "covering-map-batch",
                "intertwiner-planted", "raise-lower-roundtrip", "sigma-isometry",
                "eta-from-epsilon", "covering-diagram", "frame-invariance-batch",
                "clebsch-roundtrip"],
    "symbols": ["factorization-k1-l0", "factorization-k2-l2", "adjoint-rank-guard",
                "pairing-hermitian-k2", "self-adjoint-symbol-k2", "xi-form-hermitian-k2",
                "dirac-reduction"],
    "signature": ["signature-k0-positive", "signature-boost-invariance-k0",
                  "signature-boost-invariance-k1", "signature-boost-invariance-k2",
                  "positivity-kron"],
    "evolution": ["slice-product-crosscheck"],
}
SELECTION = {"symbols": {"pairs": [(1, 0), (2, 2)]}}
#: they size a draw and read no sample, so a row may call them before it draws
SIZES = {"fiber_dim", "sym_dimension"}


def _suite_run(suite_name):
    """Each row's (status, residual)."""
    suite = checks.SUITES[suite_name](3, timings=False, **SELECTION.get(suite_name, {}))
    return {row["id"]: (row["status"], row["residual"]) for row in suite.report()["checks"]}


_completed = functools.cache(_suite_run)


@pytest.mark.parametrize("suite_name, row_id",
                         [(suite, row) for suite, rows in SAMPLE_ROWS.items() for row in rows])
def test_a_row_that_raises_at_its_first_engine_call_leaves_the_other_rows_alone(
        monkeypatch, suite_name, row_id):
    # every engine function raises while the row runs, so it raises at its first engine
    # call; every other row of the suite is as completed, bit for bit
    completed = _completed(suite_name)
    armed = [False]
    real_check = checks.Suite.check

    def check(self, check_id, *args, **kwargs):
        armed[0] = check_id == row_id
        try:
            real_check(self, check_id, *args, **kwargs)
        finally:
            armed[0] = False

    def planted(fn):
        def wrapped(*args, **kwargs):
            if armed[0]:
                raise RuntimeError(f"planted at {fn.__name__}")
            return fn(*args, **kwargs)
        return wrapped

    for module in (cl, sc, hs, mk, ev):
        for name, fn in vars(module).items():
            if inspect.isfunction(fn) and fn.__module__.startswith("spinlab") and name not in SIZES:
                monkeypatch.setattr(module, name, planted(fn))
    monkeypatch.setattr(checks.Suite, "check", check)
    rows = _suite_run(suite_name)
    status, residual = rows.pop(row_id)
    assert status == "error" and residual is None
    assert rows == {key: value for key, value in completed.items() if key != row_id}


def _seeds(shared, own):
    """Seeds whose samples a regression test guards: those the suite's shared generator drew
    (replayed, and named by the seed alone) and those of the rows' own streams."""
    return ([pytest.param(seed, True, id=str(seed)) for seed in shared]
            + [pytest.param(seed, False, id=f"{seed}-own-stream") for seed in own])


RANK_TWO_PAIR_ROWS = ("pairing-hermitian-k2", "self-adjoint-symbol-k2", "xi-form-hermitian-k2")


@pytest.mark.parametrize("seed, shared", _seeds([63, 140, 188], [19, 64, 178]))
def test_the_rank_two_random_pair_rows_keep_a_tenfold_margin(shared_stream, seed, shared):
    # the seeds of these rows' smallest margins over seeds 0-199; one contraction per pair
    if shared:
        shared_stream("symbols", seed, *RANK_TWO_PAIR_ROWS)
    report = checks.SUITES["symbols"](seed, timings=False, pairs=[(2, 2)]).report()
    rows = {row["id"]: row for row in report["checks"]}
    for check_id in RANK_TWO_PAIR_ROWS:
        assert rows[check_id]["status"] == "pass" and rows[check_id]["tolerance"] == 1e-12
        assert rows[check_id]["residual"] <= 1e-13


@pytest.mark.parametrize("seed, shared", _seeds([10, 83, 105], [6]))
def test_the_covering_batch_passes_where_round_off_used_to_trip_its_metric_gate(
        shared_stream, seed, shared):
    # the shared seeds draw neighbouring products with |S|_2 near 60-80, whose images miss
    # eta by about eps max|lam|^2 > 1e-9; the row's own gates stay at 1e-9 and pass
    if shared:
        shared_stream("algebra", seed, "covering-map-batch")
    row = _row(checks.SUITES["algebra"](seed, timings=False), "covering-map-batch")
    assert row["status"] == "pass" and row["tolerance"] == 1e-9
    assert row["residual"] <= 1e-9


@pytest.mark.parametrize("seed, shared", _seeds([107, 159], [62]))
def test_the_planted_intertwiner_row_passes_with_a_tenfold_margin(shared_stream, seed, shared):
    # the shared seeds draw the planted conjugations that come closest to the 1e-10 bound
    # when S is built by a cancelling sum; the null vector keeps them tenfold inside it
    if shared:
        shared_stream("algebra", seed, "intertwiner-planted")
    row = _row(checks.SUITES["algebra"](seed, timings=False), "intertwiner-planted")
    assert row["status"] == "pass" and row["tolerance"] == 1e-10
    assert row["residual"] <= 1e-11


def _e0_signature_probe(monkeypatch, planted=()):
    """Count gram_signature(k, e0) calls by rank, raising for the ranks in ``planted``."""
    real, calls = hs.gram_signature, []

    def probe(k, xi=None, require_future=True):
        if xi is not None and xi.covariant and np.array_equal(xi.components, [1, 0, 0, 0]):
            calls.append(k)
            if k in planted:
                raise RuntimeError(f"planted signature k = {k}")
        return real(k, xi, require_future)

    monkeypatch.setattr(hs, "gram_signature", probe)
    return calls


def test_each_rank_computes_its_e0_signature_once_per_suite_run(monkeypatch):
    calls = _e0_signature_probe(monkeypatch)
    report = checks.SUITES["signature"](0, timings=False).report()
    assert calls == [0, 1, 2]
    assert report["info"] == {"signature-k0": [4, 0, 0], "signature-k1": [12, 4, 0],
                              "signature-k2": [24, 12, 0]}
    assert {row["status"] for row in report["checks"]} == {"pass"}


def test_a_signature_study_that_raises_makes_only_its_reading_rows_error(monkeypatch):
    # each row that reads the study records its error; every other row still runs
    calls = _e0_signature_probe(monkeypatch, planted=(0, 1))
    report = checks.SUITES["signature"](0, timings=False).report()
    rows = {row["id"]: row for row in report["checks"]}
    readers = {"signature-k0-positive": 0, "signature-boost-invariance-k0": 0,
               "signature-k1-report": 1, "signature-boost-invariance-k1": 1}
    for check_id, k in readers.items():
        assert rows.pop(check_id)["error"] == f"RuntimeError: planted signature k = {k}"
    assert {row["status"] for row in rows.values()} == {"pass"}
    assert "signature-k2-witnesses" in rows and "gram-dimension-k1" in rows
    assert report["info"] == {"signature-k2": [24, 12, 0]}
    assert calls == [0, 0, 1, 1, 2]  # a study that raised is not kept
