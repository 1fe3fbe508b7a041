"""One benchmark iteration of one workload, in a fresh interpreter.

``run.py`` starts this script once per iteration, because a ``spinlab
report`` user pays for cold module caches on every run. The script imports
spinlab from ``<root>/src``, generates the workload's inputs from the seed
(set-up), runs the workload call once (timed, optionally traced), checks
every operation's output and prints one JSON object on its last stdout line.

    python3 perfbench/worker.py --root . --workload cauchy --seed 3 \
        --iteration 0 --t0 <time.perf_counter() of the parent at spawn>

Inputs are built here from public spinlab functions only, never from
``cli`` helpers, so refactoring the CLI cannot change a workload.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import inspect
import json
import math
import os
import resource
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import tracer

# cauchy: (k = l, points, steps) at mass 1 on a periodic domain of EXTENT
CAUCHY_RUNS = ((0, 4096, 1000), (1, 2048, 400), (2, 1024, 400))
CAUCHY_EXTENT = 32.0
CAUCHY_MASS = 1.0
DRIFT_TOL = 1e-5
DIVERGENCE_TOL = 5e-3

# green: points x mass on the aligned dt = dz grid with steps = points / 2
GREEN_POINTS = (256, 512, 1024)
GREEN_MASSES = (0.0, 1.0)
GREEN_EXTENT = 16.0
GREEN_RESIDUAL_TOL = 5e-2
GREEN_LEAK_TOL = 1e-8
GREEN_REFINE_TOL = 0.99


def bump(x: np.ndarray) -> np.ndarray:
    """Smooth bump supported on (-1, 1) with peak 1; exactly zero outside."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    inside = np.abs(x) < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - x[inside] ** 2))
    return out


def below(name: str, value: float, tol: float) -> dict:
    """An operation check that passes when ``value <= tol``; margin tol/value."""
    ok = bool(math.isfinite(value) and value <= tol)
    margin = tol / value if value > 0 else math.inf
    return {"name": name, "ok": ok, "value": value, "tol": tol, "margin": margin}


def op(name: str, checks: list[dict] | None = None, error: str | None = None) -> dict:
    """One operation: it passes when it raised nothing and every check holds."""
    checks = checks or []
    ok = error is None and all(c["ok"] for c in checks)
    margins = [c["margin"] for c in checks if math.isfinite(c["margin"])]
    failed = [c for c in checks if not c["ok"]]
    return {
        "name": name,
        "ok": ok,
        "margin": min(margins) if margins else None,
        "error": error,
        "failed_checks": failed,
    }


def describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------------
# report: the user's `spinlab report` run, one operation per check row


def report_prepare(spinlab, seed: int, scratch: Path) -> dict:
    # imported during set-up so the CLI module is loaded before tracing starts
    from spinlab import cli

    out = str(scratch.with_suffix(".json"))
    return {"cli": cli, "argv": ["report", "--seed", str(seed), "--no-timings", "--json", out]}


def report_call(spinlab, inputs: dict) -> dict:
    try:
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            return {"rc": inputs["cli"].run(inputs["argv"])}
    except Exception as exc:  # a raising run is one failed operation
        return {"error": describe(exc)}


def report_check(inputs: dict, outcome: dict) -> tuple[list[dict], str | None]:
    """One operation per check row, plus one for the exit status and summary.

    The exit status must agree with the rows (0 only when every row passes,
    1 otherwise) and the summary must count the rows it lists.
    """
    if "error" in outcome:
        return [op("report", error=outcome["error"])], None
    path = Path(inputs["argv"][-1])
    ops = []
    try:
        raw = path.read_bytes()
        report = json.loads(raw)
        rows = [row for suite in report["suites"] for row in suite["checks"]]
        for row in rows:
            value, tol = float(row["residual"]), float(row["tolerance"])
            if row["direction"] == "above":
                margin = value / tol if tol > 0 else math.inf
            else:
                margin = tol / value if value > 0 else math.inf
            ops.append(op(row["id"], [{"name": "status", "ok": row["status"] == "pass",
                                       "value": value, "tol": tol, "margin": margin}]))
        passed = sum(o["ok"] for o in ops)
        summary = report["summary"]
        consistent = (
            outcome["rc"] == (0 if passed == len(rows) else 1)
            and (summary["total"], summary["passed"]) == (len(rows), passed)
        )
    except (OSError, ValueError, KeyError, TypeError) as exc:  # unreadable report
        return [op("report", error=describe(exc))], None
    finally:
        path.unlink(missing_ok=True)
    ops.append(op("exit-status-and-summary", error=None if consistent else (
        f"run() returned {outcome['rc']}, summary {summary}, {passed}/{len(rows)} rows passed")))
    return ops, hashlib.sha256(raw).hexdigest()


# ---------------------------------------------------------------------------
# cauchy: leapfrog runs with their conservation, divergence and causality audits


def cauchy_prepare(spinlab, seed: int, scratch: Path | None = None) -> list[dict]:
    rng = np.random.default_rng(seed)
    runs = []
    for k, points, steps in CAUCHY_RUNS:
        centre = CAUCHY_EXTENT / 2 + rng.uniform(-2.0, 2.0)
        width = rng.uniform(3.8, 4.0)
        mode = int(rng.integers(7, 9))
        dz = CAUCHY_EXTENT / points
        cfg = spinlab.EvolutionConfig(
            mass=CAUCHY_MASS, k=k, l=k, extent=CAUCHY_EXTENT, points=points,
            dt=0.5 * dz, steps=steps,
        )
        momentum = 2 * np.pi * mode / CAUCHY_EXTENT
        if k == 0:
            fiber = spinlab.plane_wave(momentum, CAUCHY_MASS).u
        else:
            (plus, _), _ = spinlab.witness_pair(k)
            fiber = spinlab.pack(plus)
        z = cfg.zgrid()
        envelope = bump((z - centre) / width) * np.exp(1j * momentum * z)
        runs.append({"name": f"k{k}-n{points}-s{steps}", "cfg": cfg,
                     "u0": envelope[:, None] * fiber[None, :]})
    return runs


def cauchy_call(spinlab, runs: list[dict]) -> list[dict]:
    outcomes = []
    for run in runs:
        try:
            field = spinlab.evolve(run["u0"], run["cfg"])
            drift = spinlab.conservation_report(field)["drift"]
            divergence = spinlab.divergence_check(field, field)
            del field
            audit = spinlab.causal_support_check(run["u0"], run["cfg"])
            outcomes.append({"drift": drift, "divergence": divergence,
                             "exact_outside": audit["exact_outside"]})
        except Exception as exc:  # recorded as a failed operation, run continues
            outcomes.append({"error": describe(exc)})
    return outcomes


def cauchy_check(runs: list[dict], outcomes: list[dict]) -> tuple[list[dict], None]:
    ops = []
    for run, out in zip(runs, outcomes):
        if "error" in out:
            ops.append(op(run["name"], error=out["error"]))
            continue
        exact = float(out["exact_outside"])
        ops.append(op(run["name"], [
            below("drift", float(out["drift"]), DRIFT_TOL),
            {"name": "exact_outside", "ok": exact == 0.0, "value": exact, "tol": 0.0,
             "margin": math.inf},
            below("divergence", float(out["divergence"]), DIVERGENCE_TOL),
        ]))
    return ops, None


# ---------------------------------------------------------------------------
# green: retarded Green operator on a compact (t, z) pulse, with refinement


def green_prepare(spinlab, seed: int, scratch: Path | None = None) -> list[dict]:
    rng = np.random.default_rng(seed)
    half_width = GREEN_EXTENT / 8
    # The solution fills the cone over the pulse; with the pulse starting
    # `delay` late it may shift by up to `delay` in z and still end inside
    # the non-periodic z-window at the last time level.
    delay = rng.uniform(0.0, 0.5)
    t_centre = GREEN_EXTENT / 4 + delay
    z_centre = GREEN_EXTENT / 2 + delay * rng.uniform(-1.0, 1.0)
    cases = []
    for points in GREEN_POINTS:
        dz = GREEN_EXTENT / points
        for mass in GREEN_MASSES:
            cfg = spinlab.EvolutionConfig(
                mass=mass, k=0, l=0, extent=GREEN_EXTENT, points=points, dt=dz,
                steps=points // 2,
            )
            tt, zz = np.meshgrid(cfg.times(), cfg.zgrid(), indexing="ij")
            profile = bump((tt - t_centre) / half_width) * bump((zz - z_centre) / half_width)
            data = np.zeros((cfg.steps + 1, points, 4), dtype=complex)
            data[:, :, 0] = profile
            data[:, :, 3] = 0.5j * profile
            cases.append({"name": f"n{points}-m{mass:g}", "points": points, "mass": mass,
                          "cfg": cfg, "source": spinlab.GridField(cfg, data)})
    return cases


def green_call(spinlab, cases: list[dict]) -> list[dict]:
    outcomes = []
    for case in cases:
        try:
            source = case["source"]
            result = spinlab.retarded_green_apply(source, case["cfg"])
            residual = spinlab.green_residual(result, source)
            first = int(np.nonzero(np.max(np.abs(source.data), axis=(1, 2)))[0][0])
            peak = float(np.max(np.abs(result.data)))
            before = float(np.max(np.abs(result.data[: first - 1]))) if first > 1 else 0.0
            outcomes.append({"residual": residual, "leak": before / peak})
        except Exception as exc:  # recorded as a failed operation, run continues
            outcomes.append({"error": describe(exc)})
    return outcomes


def green_check(cases: list[dict], outcomes: list[dict]) -> tuple[list[dict], None]:
    ops = []
    residuals: dict[float, dict[int, float]] = {m: {} for m in GREEN_MASSES}
    for case, out in zip(cases, outcomes):
        if "error" in out:
            ops.append(op(case["name"], error=out["error"]))
            continue
        residuals[case["mass"]][case["points"]] = float(out["residual"])
        ops.append(op(case["name"], [
            below("residual", float(out["residual"]), GREEN_RESIDUAL_TOL),
            below("support_leak", float(out["leak"]), GREEN_LEAK_TOL),
        ]))
    for mass, by_points in residuals.items():
        name = f"refine-m{mass:g}"
        if len(by_points) != len(GREEN_POINTS):
            ops.append(op(name, error="a refinement level failed"))
            continue
        res = [by_points[n] for n in GREEN_POINTS]
        ratio = max(fine / coarse for coarse, fine in zip(res, res[1:]))
        ops.append(op(name, [below("refinement_ratio", ratio, GREEN_REFINE_TOL)]))
    return ops, None


# workload -> (prepare(spinlab, seed, scratch), call(spinlab, inputs),
#              check(inputs, outcome) -> (operations, digest of the output or None))
WORKLOADS = {
    "report": (report_prepare, report_call, report_check),
    "cauchy": (cauchy_prepare, cauchy_call, cauchy_check),
    "green": (green_prepare, green_call, green_check),
}


# ---------------------------------------------------------------------------
# environment and tracing


def blas_info() -> dict:
    """BLAS library name and the thread count it reports, where it can."""
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    info = {"name": blas.get("name", "unknown"), "version": blas.get("version", "unknown"),
            "threads": None}
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                return info
    return info


def trace_hooks(spinlab, counts: dict):
    """Hooks for the derived counts of the traced run."""
    seen: set = set()
    signature = inspect.signature(spinlab.symbol_matrix)

    def symbol_matrix(args, kwargs, result):
        bound = signature.bind(*args, **kwargs).arguments
        xi = bound["xi"].lowered().components
        key = (bound["k"], bound["l"], bytes(np.asarray(xi)))
        counts["symbol_matrix_calls"] += 1
        counts["symbol_matrix_repeats"] += key in seen
        seen.add(key)

    def evolve(args, kwargs, result):
        cfg = result.config
        counts["cell_updates"] += cfg.steps * cfg.points * cfg.fiber
        counts["field_bytes"] = max(counts["field_bytes"], int(result.data.nbytes))

    return {"higher_spin.symbol_matrix": symbol_matrix, "evolution.evolve": evolve}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True, type=Path)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--iteration", required=True, type=int)
    parser.add_argument("--t0", required=True, type=float,
                        help="parent's time.perf_counter() when it started this process")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    root = args.root.resolve()
    import spinlab

    source = Path(spinlab.__file__).resolve()
    if root / "src" not in source.parents:
        print(f"error: spinlab imported from {source}, not from {root / 'src'}", file=sys.stderr)
        return 2
    work = root / ".perfbench_work"
    prepare, call, check = WORKLOADS[args.workload]
    scratch = work / f"{args.workload}-seed{args.seed}-it{args.iteration}-pid{os.getpid()}"
    inputs = prepare(spinlab, args.seed, scratch)
    result = {"setup_s": time.perf_counter() - args.t0}
    if not args.setup_only:
        counts = {"symbol_matrix_calls": 0, "symbol_matrix_repeats": 0,
                  "cell_updates": 0, "field_bytes": 0}
        spans = tracer.Tracer(hooks=trace_hooks(spinlab, counts), iteration=args.iteration)
        if args.trace:
            spans.install()
        start = time.perf_counter()
        try:
            outcome = call(spinlab, inputs)
        finally:
            wall_s = time.perf_counter() - start
            spans.remove()
        ops, digest = check(inputs, outcome)
        result.update({"wall_s": wall_s, "ops": ops, "digest": digest})
        if args.trace:
            span_path = work / f"spans-{args.workload}-seed{args.seed}.json"
            span_path.write_text(json.dumps({"fields": ["name", "start", "end", "parent",
                                                        "iteration"],
                                             "spans": spans.spans}))
            result["trace"] = {"layers": tracer.layer_totals(spans.spans), "counts": counts,
                               "spans_file": str(span_path.relative_to(root))}
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["env"] = {"python": sys.version.split()[0], "numpy": np.__version__,
                     "scipy": scipy.__version__, "blas": blas_info()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
