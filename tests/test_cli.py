"""Exit codes, determinism, and file plumbing of the verification front end."""

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spinlab import checks, cli
from spinlab import evolution as ev


def test_verify_algebra_passes_and_prints_the_suite(capsys):
    assert cli.run(["verify", "algebra", "--seed", "7", "--no-timings"]) == 0
    out = capsys.readouterr().out
    assert "suite algebra:" in out
    assert "[FAIL]" not in out
    assert "(CR)" in out and "Eq. (1)" in out and "Appendix 8" in out


def test_verify_symbols_single_pair(capsys):
    assert cli.run(["verify", "symbols", "--k", "0", "--l", "0", "--no-timings"]) == 0
    out = capsys.readouterr().out
    assert "factorization-k0-l0" in out
    assert "factorization-k1-l1" not in out


def test_verify_symbols_requires_both_ranks(capsys):
    assert cli.run(["verify", "symbols", "--k", "1"]) == 2


def test_signature_prints_the_triple(capsys):
    assert cli.run(["signature", "--k", "0", "--no-timings"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "(4, 0, 0)"


def test_signature_rank_two_is_indefinite(capsys):
    assert cli.run(["signature", "--k", "2", "--no-timings"]) == 0
    triple = capsys.readouterr().out.splitlines()[0]
    n_plus, n_minus, n_zero = (int(part) for part in triple.strip("()").split(","))
    assert n_minus >= 1 and n_plus >= 1 and n_zero == 0


def test_signature_accepts_an_explicit_direction(capsys):
    assert cli.run(["signature", "--k", "0", "--xi", "2,0.3,0,0.5", "--no-timings"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "(4, 0, 0)"


def test_signature_rejects_non_future_directions(capsys):
    assert cli.run(["signature", "--k", "0", "--xi", "0,1,0,0"]) == 2
    assert cli.run(["signature", "--k", "0", "--xi", "1,2"]) == 2
    assert cli.run(["signature", "--k", "0", "--xi", "a,b,c,d"]) == 2


@pytest.mark.parametrize("xi", ["inf,0,0,0", "1,nan,0,0", "1,0,0,-inf"])
def test_signature_refuses_non_finite_directions_before_any_arithmetic(xi, capsys):
    assert cli.run(["signature", "--k", "0", "--xi", xi]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: --xi components must be finite, got {xi}\n"
    assert captured.out == ""


def test_usage_errors_exit_two():
    assert cli.run(["bogus"]) == 2
    assert cli.run(["verify"]) == 2
    assert cli.run([]) == 2
    assert cli.run(["--help"]) == 0


def test_injected_tolerance_forces_exit_one(capsys):
    assert cli.run(["verify", "symbols", "--k", "0", "--l", "0",
                    "--tol-scale", "1e-20", "--no-timings"]) == 1
    assert "[FAIL]" in capsys.readouterr().out


@pytest.mark.parametrize("scale", ["inf", "nan", "-1", "0", "-inf"])
def test_tol_scale_must_be_finite_and_positive(capsys, scale):
    assert cli.run(["verify", "symbols", "--k", "0", "--l", "0",
                    f"--tol-scale={scale}", "--no-timings"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert captured.out == ""


@pytest.mark.parametrize("direction", ["below", "above"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_residual_is_an_error_in_either_direction(value, direction):
    suite = checks.Suite("probe")
    suite.check("non-finite", "Eq. (1)", 1.0, lambda: value, direction=direction)
    row = suite.report()["checks"][0]
    assert row["status"] == "error"
    assert row["residual"] is None
    assert row["error"].startswith("ValueError: non-finite residual")
    assert suite.report()["summary"] == {"total": 1, "passed": 0, "failed": 1}


def test_raising_check_is_recorded_and_the_suite_runs_on():
    def broken():
        raise ZeroDivisionError("no residual")

    suite = checks.Suite("probe")
    suite.check("broken", "Eq. (1)", 1.0, broken)
    suite.check("fine", "Eq. (1)", 1.0, lambda: 0.0)
    broken_row, fine_row = suite.report()["checks"]
    assert broken_row["error"] == "ZeroDivisionError: no residual"
    assert broken_row["status"] == "error" and broken_row["residual"] is None
    assert fine_row["status"] == "pass" and "error" not in fine_row


def test_verify_reports_a_non_finite_row_as_error(monkeypatch, capsys):
    monkeypatch.setattr(checks.hs, "closed_form_residual", lambda *args: float("inf"))
    assert cli.run(["verify", "symbols", "--k", "0", "--l", "0", "--no-timings"]) == 1
    out = capsys.readouterr().out
    assert "[ERROR] symbols/closed-form-k0-l0" in out
    assert "suite symbols: 8/9 passed" in out


def test_verify_algebra_seed_ten_records_the_covering_batch_error(tmp_path, capsys):
    path = tmp_path / "algebra.json"
    assert cli.run(["verify", "algebra", "--seed", "10", "--no-timings",
                    "--json", str(path)]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert "[ERROR] algebra/covering-map-batch" in captured.out
    suite = json.loads(path.read_text())["suites"][0]
    errors = [row for row in suite["checks"] if row["status"] == "error"]
    assert [row["id"] for row in errors] == ["covering-map-batch"]
    assert errors[0]["residual"] is None
    # README quotes this message
    assert errors[0]["error"] == (
        "InvariantViolation: covering output left the restricted group at index 646")
    assert suite["summary"]["failed"] == 1


@given(st.floats(1e-25, 1e-18), st.integers(0, 2**32 - 1))
def test_check_recorder_pass_iff_residual_within_tolerance(scale, seed):
    suite = checks.Suite("probe", tol_scale=scale)
    suite.check("tiny-but-nonzero", "Eq. (1)", 1e-9, lambda: 1e-12)
    assert suite.checks[0]["status"] == "fail"
    suite2 = checks.Suite("probe", tol_scale=1.0)
    suite2.check("tiny-but-nonzero", "Eq. (1)", 1e-9, lambda: 1e-12)
    assert suite2.checks[0]["status"] == "pass"


def test_report_rows_are_sorted_by_id():
    suite = checks.Suite("probe")
    suite.check("zebra", "Eq. (1)", 1.0, lambda: 0.0)
    suite.check("aardvark", "Eq. (1)", 1.0, lambda: 0.0)
    ids = [c["id"] for c in suite.report()["checks"]]
    assert ids == sorted(ids)


def test_same_seed_gives_byte_identical_json(tmp_path):
    path_a = tmp_path / "a.json"
    path_b = tmp_path / "b.json"
    for path in (path_a, path_b):
        assert cli.run(["verify", "algebra", "--seed", "11", "--no-timings",
                        "--json", str(path)]) == 0
    assert path_a.read_bytes() == path_b.read_bytes()
    payload = json.loads(path_a.read_text())
    assert payload["schema"] == 1
    assert payload["seed"] == 11


def test_seed_env_fallback(monkeypatch, capsys):
    monkeypatch.setenv("SPINLAB_SEED", "23")
    assert cli.run(["signature", "--k", "0", "--no-timings"]) == 0
    assert "(seed=23)" in capsys.readouterr().out


def test_check_rows_carry_anchors_and_fields():
    suite = checks.algebra_suite(seed=0, timings=False)
    for check in suite.report()["checks"]:
        assert set(check) == {
            "id", "paper_anchor", "status", "residual", "tolerance",
            "direction", "runtime_ms",
        }
        assert check["paper_anchor"]
        assert check["runtime_ms"] == 0.0


def test_evolve_subcommand_roundtrip(tmp_path, capsys):
    cfg = ev.EvolutionConfig(mass=1.0, k=0, l=0, extent=8.0, points=64,
                             dt=0.0625, steps=16)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(ev.config_to_json(cfg)))
    out_path = tmp_path / "final.json"
    assert cli.run(["evolve", "--config", str(cfg_path), "--out", str(out_path)]) == 0
    snap = json.loads(out_path.read_text())
    cfg_back, time, data = ev.snapshot_from_json(snap)
    assert cfg_back == cfg
    assert time == pytest.approx(cfg.steps * cfg.dt)
    assert np.max(np.abs(data)) > 0
    # a snapshot is itself a valid --config input (restart from the final level)
    out2 = tmp_path / "final2.json"
    assert cli.run(["evolve", "--config", str(out_path), "--out", str(out2)]) == 0


def test_evolve_rejects_unreadable_or_invalid_configs(tmp_path):
    missing = tmp_path / "missing.json"
    assert cli.run(["evolve", "--config", str(missing), "--out",
                    str(tmp_path / "x.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"mass": 1.0, "k": 0, "l": 0, "extent": 8.0,
                               "points": 64, "dt": 0.5, "steps": 4}))
    assert cli.run(["evolve", "--config", str(bad), "--out",
                    str(tmp_path / "y.json")]) == 2


def test_evolve_refuses_an_unstable_run_and_writes_nothing(tmp_path, capsys):
    cfg_path = tmp_path / "unstable.json"
    cfg_path.write_text(json.dumps({"mass": 2, "k": 0, "l": 0, "extent": 16,
                                    "points": 128, "dt": 0.125, "steps": 400}))
    out_path = tmp_path / "out.json"
    assert cli.run(["evolve", "--config", str(cfg_path), "--out", str(out_path)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out_path.exists()


def test_evolve_refuses_a_snapshot_with_a_nan_value(tmp_path, capsys):
    cfg = ev.EvolutionConfig(mass=1.0, k=0, l=0, extent=16.0, points=128,
                             dt=0.0625, steps=32)
    field = ev.GridField(cfg, np.ones((cfg.steps + 1, cfg.points, cfg.fiber)))
    snap = ev.snapshot_to_json(cfg, field.data[cfg.steps], cfg.steps * cfg.dt)
    snap["values"][40]["phi1"][0][1] = float("nan")
    snap_path = tmp_path / "nan.json"
    snap_path.write_text(json.dumps(snap))  # Python's json writes the NaN token
    assert "NaN" in snap_path.read_text()
    out_path = tmp_path / "out.json"
    assert cli.run(["evolve", "--config", str(snap_path), "--out", str(out_path)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out_path.exists()


def test_restarted_snapshots_carry_the_elapsed_time(tmp_path):
    cfg = ev.EvolutionConfig(mass=1.0, k=0, l=0, extent=16.0, points=128,
                             dt=0.0625, steps=32)
    source = tmp_path / "cfg.json"
    source.write_text(json.dumps(ev.config_to_json(cfg)))
    for leg in (1, 2, 3):
        out_path = tmp_path / f"leg{leg}.json"
        assert cli.run(["evolve", "--config", str(source), "--out", str(out_path)]) == 0
        assert json.loads(out_path.read_text())["time"] == pytest.approx(leg * 2.0)
        source = out_path


def test_evolve_with_unequal_ranks_writes_the_final_level_without_drift(tmp_path, capsys):
    cfg = ev.EvolutionConfig(mass=0.5, k=1, l=0, extent=16.0, points=64,
                             dt=0.125, steps=20)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(ev.config_to_json(cfg)))
    out_path = tmp_path / "final.json"
    assert cli.run(["evolve", "--config", str(cfg_path), "--out", str(out_path)]) == 0
    assert capsys.readouterr().out == "evolved 20 steps\n"
    _, _, data = ev.snapshot_from_json(json.loads(out_path.read_text()))
    # the packet cmd_evolve builds from a bare config
    wave = ev.plane_wave(2 * np.pi * 4 / cfg.extent, cfg.mass, cfg.k, cfg.l)
    initial = checks.packet_initial(cfg, wave.u, cfg.extent / 8, 4)
    np.testing.assert_array_equal(data, ev.final_level(initial, cfg))


# 8 points leave too few time levels for an interior residual; 0 has no grid
@pytest.mark.parametrize("points", ["8", "0"])
def test_green_rejects_unusable_point_counts(tmp_path, capsys, points):
    out_path = tmp_path / "green.json"
    assert cli.run(["green", "--m", "1", "--points", points, "--out", str(out_path)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out_path.exists()


def test_green_subcommand_writes_a_snapshot(tmp_path, capsys):
    out_path = tmp_path / "green.json"
    assert cli.run(["green", "--m", "1.0", "--points", "128",
                    "--out", str(out_path)]) == 0
    assert "residual=" in capsys.readouterr().out
    snap = json.loads(out_path.read_text())
    assert len(snap["values"]) == 128


def test_report_runs_every_suite_and_passes_at_seed_zero(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    assert cli.run(["report", "--seed", "0", "--no-timings", "--json", str(out_path)]) == 0
    assert capsys.readouterr().out.endswith("total: 89/89 passed -> pass\n")
    report = json.loads(out_path.read_text())
    rows = [row for suite in report["suites"] for row in suite["checks"]]
    assert len(rows) == 89
    assert len({row["id"] for row in rows}) == 89
    assert all(row["status"] == "pass" for row in rows)


def test_full_report_structure(tmp_path):
    # assembled from cheap suites here; the complete battery runs in the
    # acceptance tests
    report = {
        "schema": checks.SCHEMA_VERSION,
        "suites": [checks.symbols_suite(0, pairs=[(0, 0)]).report()],
        "flags": [checks.DIMENSION_FLAG],
    }
    text = checks.stable_json(report)
    assert text.endswith("\n")
    parsed = json.loads(text)
    assert parsed["flags"][0]["id"] == "twist-dimension-formula"
    suite = parsed["suites"][0]
    assert suite["summary"]["total"] == len(suite["checks"])


def _malformed_evolve_inputs() -> dict:
    config = {"mass": 1.0, "k": 0, "l": 0, "extent": 16.0, "points": 64, "dt": 0.0625,
              "steps": 8}
    cfg = ev.config_from_json(config)

    def snapshot():
        return ev.snapshot_to_json(cfg, np.ones((cfg.points, cfg.fiber)), 0.0)

    not_an_object, string_pair = snapshot(), snapshot()
    not_an_object["values"][3] = [1.0, 0.0]
    string_pair["values"][3]["phi1"][0] = ["1", "0"]
    return {
        "k-null": {**config, "k": None},
        "k-fractional": {**config, "k": 0.7},
        "top-level-list": [config],
        "value-not-an-object": not_an_object,
        "phi1-pair-of-strings": string_pair,
    }


@pytest.mark.parametrize("case", sorted(_malformed_evolve_inputs()))
def test_evolve_rejects_malformed_json_and_writes_nothing(tmp_path, capsys, case):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_malformed_evolve_inputs()[case]))
    out_path = tmp_path / "out.json"
    assert cli.run(["evolve", "--config", str(cfg_path), "--out", str(out_path)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out_path.exists()


def test_signature_rejects_a_negative_rank(capsys):
    assert cli.run(["signature", "--k", "-1", "--no-timings"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: twist ranks must be nonnegative")
    assert captured.out == ""


def test_verify_symbols_rejects_a_negative_rank(capsys):
    assert cli.run(["verify", "symbols", "--k", "-1", "--l", "0", "--no-timings"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: twist ranks must be nonnegative")
    assert captured.out == ""


def test_a_non_integer_seed_variable_is_a_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("SPINLAB_SEED", "abc")
    assert cli.run(["verify", "symbols", "--k", "0", "--l", "0", "--no-timings"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: SPINLAB_SEED")
    assert captured.out == ""
    # an explicit --seed does not read the variable
    assert cli.run(["signature", "--k", "0", "--seed", "5", "--no-timings"]) == 0


@pytest.mark.parametrize("knob", [["--seed", "3"], ["--tol-scale", "1e9"], ["--no-timings"]],
                         ids=["seed", "tol-scale", "no-timings"])
@pytest.mark.parametrize("command", ["evolve", "green"])
def test_evolve_and_green_refuse_the_check_suite_knobs(tmp_path, capsys, command, knob):
    # neither runs a check suite, so a knob would be silently ignored
    out = tmp_path / "out.json"
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"mass": 1.0, "k": 0, "l": 0, "extent": 16.0,
                                  "points": 64, "dt": 0.0625, "steps": 8}))
    argv = {
        "evolve": ["evolve", "--config", str(config), "--out", str(out)],
        "green": ["green", "--m", "1", "--points", "64", "--out", str(out)],
    }[command]
    assert cli.run(argv + knob) == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


def test_green_does_not_read_the_seed_variable(monkeypatch, tmp_path, capsys):
    monkeypatch.setenv("SPINLAB_SEED", "abc")
    out = tmp_path / "green.json"
    assert cli.run(["green", "--m", "1", "--points", "128", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert out.exists()


@pytest.mark.parametrize("command", ["evolve", "green", "verify", "report"])
def test_an_unwritable_output_path_exits_two(tmp_path, capsys, command):
    out = str(tmp_path / "missing-dir" / "out.json")
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"mass": 1.0, "k": 0, "l": 0, "extent": 16.0,
                                  "points": 64, "dt": 0.0625, "steps": 8}))
    argv = {
        "evolve": ["evolve", "--config", str(config), "--out", out],
        "green": ["green", "--m", "1", "--points", "64", "--out", out],
        "verify": ["verify", "symbols", "--k", "0", "--l", "0", "--json", out],
        "report": ["report", "--no-timings", "--json", out],
    }[command]
    assert cli.run(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {out}")
