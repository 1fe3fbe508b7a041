"""Exit codes, determinism, and file plumbing of the verification front end."""

import json
import os
import resource
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import spinlab
from spinlab import checks, cli
from spinlab import clifford as cl
from spinlab import evolution as ev
from spinlab import higher_spin as hs


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


def test_injected_tolerance_forces_exit_one(monkeypatch, capsys):
    # a finite residual above its tolerance is a fail row, not an error row
    monkeypatch.setattr(checks.hs, "closed_form_residual", lambda *args: 1.0)
    assert cli.run(["verify", "symbols", "--k", "0", "--l", "0", "--no-timings"]) == 1
    assert "[FAIL] symbols/closed-form-k0-l0" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["verify", "signature", "report"])
def test_tolerances_cannot_be_scaled(monkeypatch, tmp_path, capsys, command):
    # every tolerance is the literal at its row; no flag moves a gate
    monkeypatch.chdir(tmp_path)
    argv = {
        "verify": ["verify", "algebra", "--json", "scaled.json"],
        "signature": ["signature", "--k", "0"],
        "report": ["report", "--json", "scaled.json"],
    }[command]
    assert cli.run(argv + ["--seed", "0", "--tol-scale", "1"]) == 2
    captured = capsys.readouterr()
    assert "unrecognized arguments: --tol-scale" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "scaled.json").exists()


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


def test_verify_algebra_seed_ten_records_the_covering_batch_error(tmp_path, capsys, monkeypatch,
                                                                  shared_stream):
    # seed 10's batch from the suite's shared generator passes since the covering map's
    # metric gate scales with max|lam|^2
    shared_stream("algebra", 10, "covering-map-batch")
    assert cli.run(["verify", "algebra", "--seed", "10", "--no-timings"]) == 0
    assert "[PASS] algebra/covering-map-batch" in capsys.readouterr().out
    # a batch member whose image genuinely leaves the group is recorded as an error row:
    # S = sqrt(1 + 9e-10) I passes the det test, and its image misses eta by 1.8e-9
    real = cl.covering_lambda

    def plant_member_646(s2):
        if np.ndim(s2) == 3 and len(s2) > 646:  # the batch's stacks, not the 50 exp_spin draws
            s2 = np.array(s2)
            s2[646] = np.sqrt(1 + 9e-10) * np.eye(2)
        return real(s2)

    monkeypatch.setattr(cl, "covering_lambda", plant_member_646)
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


@given(st.floats(1e-25, 1e-12, exclude_max=True))
def test_check_recorder_pass_iff_residual_within_tolerance(tolerance):
    suite = checks.Suite("probe")
    suite.check("tiny-but-nonzero", "Eq. (1)", tolerance, lambda: 1e-12)
    suite.check("at-the-bound", "Eq. (1)", tolerance, lambda: tolerance)
    suite.check("loose", "Eq. (1)", 1e-9, lambda: 1e-12)
    assert [row["status"] for row in suite.checks] == ["fail", "pass", "pass"]
    assert [row["tolerance"] for row in suite.checks] == [tolerance, tolerance, 1e-9]


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
    assert payload["schema"] == 2 and "tol_scale" not in payload
    assert payload["seed"] == 11


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


@pytest.mark.parametrize("k, l, first", [(0, 0, "the slice product at level 0"),
                                          (1, 0, "level 1 of the run")], ids=["k=l", "k!=l"])
def test_evolve_refuses_a_run_that_overflows_and_names_its_first_level(
        tmp_path, capsys, k, l, first):
    # finite values whose products overflow: the slice product at once (k = l),
    # the leapfrog's first step (k != l, where the run has no slice product)
    cfg = ev.EvolutionConfig(mass=1.0, k=k, l=l, extent=16.0, points=64, dt=0.125, steps=8)
    level = np.full((cfg.points, cfg.fiber), 1e308, dtype=complex)
    snap_path = tmp_path / "huge.json"
    snap_path.write_text(json.dumps(ev.snapshot_to_json(cfg, level, 0.0)))
    out_path = tmp_path / "out.json"
    assert cli.run(["evolve", "--config", str(snap_path), "--out", str(out_path)]) == 2
    assert capsys.readouterr().err == f"error: {first} is not finite\n"
    assert not out_path.exists()


def test_evolve_refuses_a_packet_momentum_past_the_float_range(tmp_path, capsys):
    # the packet's momentum 2 pi 4 / extent is 2.5e301, so omega^2 = p^2 + m^2
    # leaves the float range before any symbol is built: a usage error, not a
    # ZeroProjection traceback from an infinite symbol
    cfg_path = tmp_path / "tiny.json"
    cfg_path.write_text(json.dumps({"mass": 1, "k": 0, "l": 0, "extent": 1e-300,
                                    "points": 8, "dt": 1e-302, "steps": 2}))
    out_path = tmp_path / "out.json"
    assert cli.run(["evolve", "--config", str(cfg_path), "--out", str(out_path)]) == 2
    assert capsys.readouterr().err.startswith("error: omega = sqrt(p^2 + m^2) overflows at p = ")
    assert not out_path.exists()


def _cli_subprocess(*args, preexec_fn=None, stdout=subprocess.PIPE, module="spinlab.cli"):
    # a fresh interpreter under the CI warning filter, with a timeout so a hang fails
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(spinlab.__file__)),
               PYTHONWARNINGS="error::RuntimeWarning", OPENBLAS_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-m", module, *args], env=env, stdout=stdout,
                          stderr=subprocess.PIPE, text=True, timeout=60, preexec_fn=preexec_fn)


def test_python_dash_m_spinlab_writes_the_report_of_cli_run(tmp_path, capsys):
    assert cli.run(["report", "--seed", "0", "--no-timings", "--json", str(tmp_path / "a.json")]) == 0
    capsys.readouterr()
    run = _cli_subprocess("report", "--seed", "0", "--no-timings", "--json",
                          str(tmp_path / "b.json"), module="spinlab")
    assert run.returncode == 0 and "Traceback" not in run.stderr
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_signature_reads_a_huge_direction_as_its_ray():
    # 1e308 e0 overflows the symbol's products unless xi is rescaled first
    run = _cli_subprocess("signature", "--k", "2", "--xi", "1e308,0,0,0")
    assert run.returncode == 0 and "Traceback" not in run.stderr
    assert run.stdout.splitlines()[0] == "(24, 12, 0)"


def test_a_stdout_closed_by_its_reader_exits_1_without_a_traceback():
    # the pipe's read end is closed before the child starts, so its first print fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        run = _cli_subprocess("signature", "--k", "0", stdout=write_end)
    finally:
        os.close(write_end)
    assert run.returncode == 1
    assert "Traceback" not in run.stderr and "Exception ignored" not in run.stderr


def test_evolve_names_an_extent_whose_packet_momentum_is_infinite(tmp_path):
    # 2 pi 4 / 1e-310 leaves the float range: the refusal names the extent, not an inf p
    cfg_path = tmp_path / "tiny.json"
    cfg_path.write_text(json.dumps({"mass": 1, "k": 0, "l": 0, "extent": 1e-310,
                                    "points": 8, "dt": 1e-311, "steps": 2}))
    out_path = tmp_path / "out.json"
    run = _cli_subprocess("evolve", "--config", str(cfg_path), "--out", str(out_path))
    assert run.returncode == 2
    assert run.stderr == ("error: extent = 1e-310 makes the packet momentum "
                          "2 pi 4 / extent infinite\n")
    assert not out_path.exists()


def test_evolve_runs_a_packet_whose_momentum_cancels_omega_minus_p(tmp_path):
    # the packet's momentum 2 pi 4 / extent is 1.26e4, where s omega - p
    # cancels; the profile's on-shell gate scales with omega
    cfg_path = tmp_path / "fast.json"
    cfg_path.write_text(json.dumps({"mass": 1, "k": 0, "l": 0, "extent": 0.002,
                                    "points": 8, "dt": 0.0002, "steps": 2}))
    out_path = tmp_path / "out.json"
    run = _cli_subprocess("evolve", "--config", str(cfg_path), "--out", str(out_path))
    assert run.returncode == 0 and run.stderr == ""
    assert run.stdout.startswith("evolved 2 steps; slice-product drift ")
    cfg, time, data = ev.snapshot_from_json(json.loads(out_path.read_text()))
    assert cfg.steps == 2 and time == pytest.approx(0.0004) and data.shape == (8, 4)


def test_green_runs_a_negative_mass(tmp_path):
    out_path = tmp_path / "green.json"
    run = _cli_subprocess("green", "--m", "-1", "--points", "512", "--out", str(out_path))
    assert run.returncode == 0 and run.stderr == ""
    assert run.stdout.startswith("green demo: mass=-1.0 points=512 residual=")
    assert out_path.exists()


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


def test_green_refuses_an_overflowing_mass_and_writes_nothing(tmp_path):
    # m dz sqrt(q) overflows at mass 1e308: a usage error before any overflow
    # warning, not a hang in J0's node count, so the run has a timeout
    out = tmp_path / "huge-mass.json"
    run = _cli_subprocess("green", "--m", "1e308", "--points", "64", "--out", str(out))
    assert run.returncode == 2
    assert run.stderr.startswith("error:") and "Traceback" not in run.stderr
    assert not out.exists()


def test_green_refuses_a_mass_whose_residual_overflows_and_writes_nothing(tmp_path):
    # at mass 1e300 the kernel's arguments are finite, but the residual
    # multiplies G f, which carries m u, by m again: exit 2 naming the level,
    # not a traceback from numpy's overflow warning under the CI filter
    out = tmp_path / "huge-residual.json"
    run = _cli_subprocess("green", "--m", "1e300", "--points", "64", "--out", str(out))
    assert run.returncode == 2
    assert run.stderr.startswith("error:") and "overflows at level" in run.stderr
    assert "Traceback" not in run.stderr
    assert not out.exists()


def _cap_address_space():
    # 768 MiB holds the interpreter and numpy but not one 10^8-point grid, so
    # the run touches little memory before it fails; the first grid-sized
    # array green builds is its (steps + 1, points, 4) complex source
    limit = 768 << 20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def test_the_rank_seven_references_fit_the_capped_address_space():
    # the unit-basis references run in bounded chunks: whole, each sector block of the
    # basis is F x 2^15 complex numbers, 128 MiB at k = l = 7, and failed to allocate here.
    # The random-pair rows fail at this rank (their round-off passes 1e-12), so it exits 1
    run = _cli_subprocess("verify", "symbols", "--k", "7", "--l", "7", "--no-timings",
                          preexec_fn=_cap_address_space)
    assert run.returncode == 1 and "Traceback" not in run.stderr
    assert "[PASS] symbols/closed-form-k7-l7" in run.stdout
    assert "residual=0.000e+00" in run.stdout.split("closed-form-k7-l7")[1].splitlines()[0]


@pytest.mark.parametrize("command", ["signature", "green", "evolve"])
def test_a_size_too_large_to_allocate_exits_two_and_writes_nothing(tmp_path, command):
    # every size lies beyond the 128 TiB user address space, and the child's
    # address space is capped besides, so no run can really allocate it. At
    # k = 10000 the pairing's binomial weights overflow before any allocation;
    # green's error names the shape of its source, not of a time or z grid
    out = tmp_path / "huge-points.json"
    config = tmp_path / "huge-config.json"
    config.write_text(json.dumps({"mass": 1.0, "k": 0, "l": 0, "extent": 16.0,
                                  "points": 10**16, "dt": 1e-15, "steps": 8}))
    argv, named = {
        "signature": (["signature", "--k", "10000"], "C(10000, 5000)"),
        "green": (["green", "--m", "1", "--points", "100000000", "--out", str(out)],
                  "(50000001, 100000000, 4)"),
        "evolve": (["evolve", "--config", str(config), "--out", str(out)],
                   "Unable to allocate"),
    }[command]
    run = _cli_subprocess(*argv, preexec_fn=_cap_address_space)
    assert run.returncode == 2
    assert run.stderr.startswith("error:") and "Traceback" not in run.stderr
    assert named in run.stderr
    assert not out.exists()


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


def test_report_writes_its_json_when_a_signature_study_raises(tmp_path, capsys, monkeypatch):
    # the study runs inside its rows, so its error is a row's, not a traceback
    real = hs.gram_signature

    def planted(k, xi=None, require_future=True):
        if k == 2 and xi is not None and np.array_equal(xi.components, [1, 0, 0, 0]):
            raise RuntimeError("planted")
        return real(k, xi, require_future)

    monkeypatch.setattr(hs, "gram_signature", planted)
    out = tmp_path / "report.json"
    assert cli.run(["report", "--seed", "0", "--no-timings", "--json", str(out)]) == 1
    assert "[ERROR] signature/signature-k2-witnesses" in capsys.readouterr().out
    report = json.loads(out.read_text())
    errors = sorted(row["id"] for suite in report["suites"] for row in suite["checks"]
                    if row["status"] == "error")
    assert errors == ["signature-boost-invariance-k2", "signature-k2-witnesses"]
    assert report["summary"]["failed"] == 2


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


@pytest.mark.parametrize("argv", [
    ["report", "--seed", "-1", "--no-timings", "--json", "bad.json"],
    ["verify", "algebra", "--seed", "-5", "--no-timings"],
    ["signature", "--k", "1", "--seed", "-2", "--no-timings"],
], ids=["report", "verify", "signature"])
def test_a_negative_seed_is_a_usage_error(monkeypatch, tmp_path, capsys, argv):
    # numpy's generators refuse a negative seed with a traceback
    monkeypatch.chdir(tmp_path)
    assert cli.run(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: the seed must be nonnegative, got -")
    assert captured.out == ""
    assert not (tmp_path / "bad.json").exists()


def test_a_payload_holding_a_nan_is_not_written(tmp_path):
    out = tmp_path / "nan.json"
    message = f"cannot write {out}: it holds a NaN or infinity"
    with pytest.raises(ValueError) as raised:
        cli._write_json(str(out), {"values": [1.0, float("nan")]})
    assert str(raised.value) == message
    assert not out.exists()


@pytest.mark.parametrize("exc, err", [(MemoryError(), "error: out of memory\n"),
                                      (ValueError(), "error: \n")], ids=["memory", "value"])
def test_only_an_empty_memory_error_reads_out_of_memory(monkeypatch, tmp_path, capsys, exc, err):
    def refuse(mass, n_pts):
        raise exc

    monkeypatch.setattr(checks, "green_pulse", refuse)
    out = tmp_path / "green.json"
    assert cli.run(["green", "--m", "1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == err
    assert not out.exists()


@pytest.mark.parametrize("knob", [["--seed", "3"], ["--no-timings"]], ids=["seed", "no-timings"])
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


def test_no_command_reads_the_seed_variable(monkeypatch, tmp_path, capsys):
    # --seed is the only way to set the seed: a leftover variable changes nothing
    out = tmp_path / "green.json"
    argvs = [
        ["verify", "symbols", "--k", "0", "--l", "0", "--no-timings"],
        ["signature", "--k", "0", "--no-timings"],
        ["green", "--m", "1", "--points", "128", "--out", str(out)],
    ]
    monkeypatch.delenv("SPINLAB_SEED", raising=False)
    plain = [(cli.run(argv), capsys.readouterr()) for argv in argvs]
    monkeypatch.setenv("SPINLAB_SEED", "abc")
    for argv, (status, captured) in zip(argvs, plain):
        assert cli.run(argv) == status == 0
        assert capsys.readouterr() == captured
        assert captured.err == ""
    assert all("(seed=0)" in captured.out for _, captured in plain[:2])
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


def test_spinlab_runs_without_loading_scipy(tmp_path):
    # scipy is a test reference only: importing it costs about 0.4 s per run
    code = (
        "import json, sys, spinlab, spinlab.cli\n"
        "codes = [spinlab.cli.run(['verify', 'algebra', '--no-timings']),\n"
        "         spinlab.cli.run(['green', '--m', '1', '--points', '128', '--out', sys.argv[1]])]\n"
        "loaded = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "print(json.dumps([codes, loaded]))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(spinlab.__file__)))
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path / "green.json")], env=env,
                         capture_output=True, text=True, check=True, timeout=300)
    assert json.loads(out.stdout.splitlines()[-1]) == [[0, 0], []]
