"""Batch verification front end: argument parsing, dispatch and output.

Subcommands run named check suites (``verify algebra``, ``verify symbols``),
query Gram signatures (``signature``), drive the evolver and the retarded
Green operator on field files (``evolve``, ``green``), and write the full
machine-readable report (``report``). The suites themselves, the report
document and its schema live in :mod:`spinlab.checks`; this module only
selects suites, prints their rows and writes files. Exit status is 0 only
when all selected checks pass and 1 when a check fails or errors. A command
refuses its input by raising a typed error (a ``ValueError``, ``KeyError``,
``OverflowError`` or, for a size too large to allocate, ``MemoryError``);
:func:`run` alone turns it into ``error: <message>`` and exit 2. Every file is
written last, so a refused run writes none. When the reader of stdout closes it
early, :func:`main` exits 1 quietly, and a file not yet written is not written.

All randomness flows from one 64-bit seed (``--seed``, default 0), so reports
are reproducible; with ``--no-timings`` the JSON output is byte-identical
between runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import checks
from . import evolution as ev
from . import higher_spin as hs
from . import minkowski as mk


def print_suite(report: dict, seed: int) -> None:
    for check in report["checks"]:
        name = f"{report['suite']}/{check['id']:<34s}"
        if check["status"] == "error":
            print(f"[ERROR] {name} {check['error']}  ({check['paper_anchor']})")
            continue
        marker = "PASS" if check["status"] == "pass" else "FAIL"
        rel = "<=" if check["direction"] == "below" else ">="
        print(
            f"[{marker}] {name} "
            f"residual={check['residual']:.3e} {rel} tol={check['tolerance']:.3e}  "
            f"({check['paper_anchor']})"
        )
    summary = report["summary"]
    print(
        f"suite {report['suite']}: {summary['passed']}/{summary['total']} passed (seed={seed})"
    )


def _write_json(path: str, payload: dict) -> None:
    """Write the payload; raise ValueError ``cannot write …`` on failure.

    A payload that holds a NaN or infinity fails before the file is opened.
    """
    try:
        text = checks.stable_json(payload)
    except ValueError:
        raise ValueError(f"cannot write {path}: it holds a NaN or infinity") from None
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror or exc}") from None


def _run_suites(args, select: dict[str, dict] | None = None) -> dict:
    """Build the report document of the selected suites and print each suite."""
    report = checks.build_report(args.seed, not args.no_timings, select)
    for suite_report in report["suites"]:
        print_suite(suite_report, args.seed)
    return report


def _exit_status(report: dict) -> int:
    return 0 if report["summary"]["status"] == "pass" else 1


def cmd_verify(args) -> int:
    selection = {}
    if args.target == "symbols" and (args.k is not None or args.l is not None):
        if args.k is None or args.l is None:
            raise ValueError("provide both --k and --l or neither")
        hs.fiber_dim(args.k, args.l)  # refuses a negative rank
        selection = {"pairs": [(args.k, args.l)]}
    report = _run_suites(args, {args.target: selection})
    if args.json:
        _write_json(args.json, report)
    return _exit_status(report)


def cmd_signature(args) -> int:
    xi = mk.basis_vector(0, covariant=True)
    if args.xi is not None:
        try:  # a wrong count fails LorentzVector's shape check
            comps = [float(part) for part in args.xi.split(",")]
            xi = mk.LorentzVector(np.array(comps), covariant=True)
        except ValueError:
            raise ValueError("--xi expects four comma-separated numbers") from None
        if not np.all(np.isfinite(xi.components)):
            raise ValueError(f"--xi components must be finite, got {args.xi}")
    triple = hs.gram_signature(args.k, xi)
    print(f"({triple[0]}, {triple[1]}, {triple[2]})")
    return _exit_status(_run_suites(args, {"signature": {"ks": (args.k,)}}))


def cmd_evolve(args) -> int:
    try:
        with open(args.config, encoding="utf-8") as handle:
            obj = json.load(handle)
    except (OSError, ValueError) as exc:  # ValueError covers malformed JSON
        raise ValueError(f"cannot read config: {exc}") from None
    final = None

    def levels():  # the run's levels; the last one stays in ``final``
        nonlocal final
        for final in ev.leapfrog(initial, cfg):
            yield final

    t0 = 0.0
    if isinstance(obj, dict) and "values" in obj:
        cfg, t0, initial = ev.snapshot_from_json(obj)
    else:
        cfg = ev.config_from_json(obj.get("config", obj) if isinstance(obj, dict) else obj)
        momentum = 2 * np.pi * 4 / cfg.extent
        if not np.isfinite(momentum):
            raise ValueError(
                f"extent = {cfg.extent} makes the packet momentum 2 pi 4 / extent infinite")
        wave = ev.plane_wave(momentum, cfg.mass, cfg.k, cfg.l)
        initial = checks.packet_initial(cfg, wave.u, cfg.extent / 8, 4)
    if cfg.k == cfg.l:
        drift = ev.conservation_fold(cfg, levels())["drift"]
    else:
        final, drift = ev.final_level(initial, cfg), None
    # a restart continues the clock of its snapshot
    _write_json(args.out, ev.snapshot_to_json(cfg, final, cfg.steps * cfg.dt + t0))
    if drift is None:
        print(f"evolved {cfg.steps} steps")
    else:
        print(f"evolved {cfg.steps} steps; slice-product drift {drift:.3e}")
    return 0


def cmd_green(args) -> int:
    result, residual, leak = checks.green_pulse(args.m, args.points)
    cfg = result.config
    _write_json(args.out, ev.snapshot_to_json(cfg, result.data[-1], cfg.steps * cfg.dt))
    print(f"green demo: mass={args.m} points={args.points} residual={residual:.3e} "
          f"support-leak={leak:.3e}")
    return 0 if residual <= checks.GREEN_RESIDUAL_TOL and leak <= checks.GREEN_SUPPORT_TOL else 1


def cmd_report(args) -> int:
    report = _run_suites(args)
    print(f"flags: {[flag['id'] for flag in report['flags']]}")
    summary = report["summary"]
    print(f"total: {summary['passed']}/{summary['total']} passed -> {summary['status']}")
    _write_json(args.json, report)
    return _exit_status(report)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinlab",
        description="verification suites for two-spinor calculus and 1+1D evolution",
    )
    # the knobs of the check suites; evolve and green run none, so they take none
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="RNG seed (default: 0)")
    common.add_argument("--no-timings", action="store_true",
                        help="zero runtime_ms fields for byte-stable output")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", parents=[common], help="run a check suite")
    p_verify.add_argument("target", choices=["algebra", "symbols"])
    p_verify.add_argument("--k", type=int, default=None, help="twist rank k (symbols)")
    p_verify.add_argument("--l", type=int, default=None, help="twist rank l (symbols)")
    p_verify.add_argument("--json", default=None, help="also write the suite report here")
    p_verify.set_defaults(func=cmd_verify)

    p_sig = sub.add_parser("signature", parents=[common], help="Gram signature of the xi-form")
    p_sig.add_argument("--k", type=int, required=True)
    p_sig.add_argument("--xi", default=None,
                       help="covariant components t,x,y,z (default: time direction)")
    p_sig.set_defaults(func=cmd_signature)

    p_evolve = sub.add_parser("evolve", help="run the Cauchy evolver")
    p_evolve.add_argument("--config", required=True, help="JSON file: config or full snapshot")
    p_evolve.add_argument("--out", required=True, help="output snapshot JSON")
    p_evolve.set_defaults(func=cmd_evolve)

    p_green = sub.add_parser("green", help="retarded Green demo on a built-in pulse")
    p_green.add_argument("--m", type=float, required=True, help="mass parameter")
    p_green.add_argument("--out", required=True, help="output snapshot JSON")
    p_green.add_argument("--points", type=int, default=256)
    p_green.set_defaults(func=cmd_green)

    p_report = sub.add_parser("report", parents=[common], help="write the full JSON report")
    p_report.add_argument("--json", required=True, help="output path")
    p_report.set_defaults(func=cmd_report)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if getattr(args, "seed", 0) < 0:  # numpy's generators take none
            raise ValueError(f"the seed must be nonnegative, got {args.seed}")
        return args.func(args)
    except (ValueError, KeyError, OverflowError, MemoryError) as exc:
        # a typed refusal, or a size numpy cannot allocate; every file is written last
        message = str(exc)
        if not message and isinstance(exc, MemoryError):
            message = "out of memory"
        print(f"error: {message}", file=sys.stderr)
        return 2


def main() -> None:
    try:
        status = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull so the interpreter's last flush stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 1
    sys.exit(status)


if __name__ == "__main__":
    main()
