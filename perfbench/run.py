"""spinlab benchmark: end-to-end and traced per-layer runs of three workloads.

    python3 perfbench/run.py --workload {report,cauchy,green,all} --seed N \
        --seconds S --trace {0,1}

Run from anywhere; the repository root is the parent of this directory and
spinlab is imported from ``<root>/src``. Every iteration runs in a fresh
child interpreter (``worker.py``), one after the other (a closed loop with
one caller). Iterations repeat until the next one would overrun ``--seconds``
and at least ``MIN_ITERATIONS`` have run; set-up-only children then top the
set-up samples up to ``SETUP_SAMPLES``. With ``--trace 1`` one more, traced,
iteration follows and the per-layer metrics are reported instead of the
end-to-end ones. The last stdout line is the JSON result; the lines before
it give each metric with its unit and sample count, and the environment.
Scratch files go to ``<root>/.perfbench_work``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("report", "cauchy", "green")
# One BLAS thread on every machine: identical across runs and never above nproc.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# report needs two iterations to compare its byte-stable JSON across them
MIN_ITERATIONS = {"report": 2, "cauchy": 3, "green": 3}
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 150

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "pass_ratio": "ratio",
    "worst_margin": "ratio",
}


class ChildFailed(RuntimeError):
    """A worker process crashed, timed out or printed no result."""


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in BLAS_ENV:
        env[var] = str(BLAS_THREADS)
    return env


def run_child(workload: str, seed: int, iteration: int, trace=False, setup_only=False) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "worker.py"), "--root", str(ROOT),
           "--workload", workload, "--seed", str(seed), "--iteration", str(iteration)]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], env=child_env(), cwd=ROOT,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{workload} iteration {iteration} timed out after {exc.timeout} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{workload} iteration {iteration} exited {proc.returncode}:\n"
                          f"{proc.stderr[-2000:]}")
    try:
        return json.loads(lines[-1])
    except ValueError as exc:
        raise ChildFailed(f"{workload} iteration {iteration} printed no result: {exc}")


def commit_id() -> str | None:
    """HEAD of the checkout's git directory, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "spinlab").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; return the contract result plus a readable record."""
    start = time.perf_counter()
    runs: list[dict] = []
    while True:
        began = time.perf_counter()
        runs.append(run_child(workload, seed, len(runs)))
        last = time.perf_counter() - began
        if len(runs) >= MIN_ITERATIONS[workload] and time.perf_counter() - start + last > seconds:
            break
    traced = run_child(workload, seed, len(runs), trace=True) if trace else None
    children = runs + ([traced] if traced else [])
    setups = [child["setup_s"] for child in children]
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_child(workload, seed, len(setups), setup_only=True)["setup_s"])

    if any(child["digest"] is not None for child in children):
        # the output must be byte-identical across the iterations of one seed
        reference = children[0]["digest"]
        for child in children:
            same = child["digest"] is not None and child["digest"] == reference
            child["ops"].append({"name": "byte-stable-output", "ok": same, "margin": None,
                                 "error": None if same else "output differs from iteration 0",
                                 "failed_checks": []})
    ops = [op for child in children for op in child["ops"]]
    failed = [op for op in ops if not op["ok"]]
    margins = [op["margin"] for op in ops if op["margin"] is not None]
    walls = [child["wall_s"] for child in runs]
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": max(child["peak_rss_mb"] for child in runs),
        "pass_ratio": (len(ops) - len(failed)) / len(ops),
        "worst_margin": min(margins) if margins else 0.0,
    }
    if trace:
        metrics = layer_metrics(traced, values["wall_s"])
    else:
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    env = dict(runs[0]["env"])
    env.update({
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads_set": BLAS_THREADS,
        "commit": commit_id(),
        "source_sha256": source_digest(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "samples": {"wall_s": len(walls), "setup_s": len(setups), "traced": int(trace)},
    })
    return {
        "result": {"correct": not failed, "attempted": len(ops), "failed": len(failed),
                   "metrics": metrics},
        "values": values,
        "samples_s": {"wall": walls, "setup": setups},
        "env": env,
        "failed_ops": failed,
        "spans_file": traced["trace"]["spans_file"] if traced else None,
    }


def layer_metrics(traced: dict, untraced_wall: float) -> dict:
    """Per-layer metrics of the traced iteration, every target included."""
    trace = traced["trace"]
    metrics = {}
    for key, totals in trace["layers"].items():
        metrics[f"{key}.self_s"] = {"value": totals["self_s"], "unit": "s"}
        metrics[f"{key}.calls"] = {"value": totals["calls"], "unit": "count"}
    counts = trace["counts"]
    calls = counts["symbol_matrix_calls"]
    metrics["higher_spin.symbol_matrix.repeat_ratio"] = {
        "value": counts["symbol_matrix_repeats"] / calls if calls else 0.0, "unit": "ratio"}
    metrics["evolution.evolve.cell_updates"] = {"value": counts["cell_updates"], "unit": "count"}
    metrics["evolution.evolve.field_bytes"] = {"value": counts["field_bytes"],
                                               "unit": "B-computed"}
    module_self = sum(trace["layers"][mod]["self_s"] for mod in tracer.TARGETS)
    wall = traced["wall_s"]
    metrics["trace.wall_s"] = {"value": wall, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": wall - untraced_wall, "unit": "s"}
    metrics["trace.unattributed_s"] = {"value": wall - module_self, "unit": "s"}
    return metrics


def describe(workload: str, outcome: dict) -> list[str]:
    """Readable lines: each metric by name with unit and sample count."""
    result, values, env = outcome["result"], outcome["values"], outcome["env"]
    samples = env["samples"]
    failed_ratio = result["failed"] / result["attempted"]
    lines = [
        f"{workload} seed={env['seed']}: {result['attempted']} operations, "
        f"{result['failed']} failed, failed_ratio {failed_ratio:g}",
        f"  setup_s       {values['setup_s']:.4f} s   (median of {samples['setup_s']})",
        f"  wall_s        {values['wall_s']:.4f} s   (median of {samples['wall_s']})",
        f"  peak_rss_mb   {values['peak_rss_mb']:.1f} MB  (max of {samples['wall_s']})",
        f"  pass_ratio    {values['pass_ratio']:g}        (1 - failed_ratio)",
        f"  worst_margin  {values['worst_margin']:.4g}     (min tol/residual over operations)",
    ]
    if outcome["spans_file"]:
        layer = outcome["result"]["metrics"]
        lines.append(f"  traced wall {layer['trace.wall_s']['value']:.4f} s, overhead "
                     f"{layer['trace.overhead_s']['value']:.4f} s, spans in "
                     f"{outcome['spans_file']}")
    for op in outcome["failed_ops"][:10]:
        lines.append(f"  FAILED {op['name']}: {op['error'] or op['failed_checks']}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="spinlab benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "spinlab" / "__init__.py").is_file():
        print(f"error: no spinlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    outcomes = {}
    try:
        for name in names:
            outcomes[name] = measure(name, args.seed, args.seconds, bool(args.trace))
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, outcome in outcomes.items():
        print("\n".join(describe(name, outcome)))
        print("environment: " + json.dumps(outcome["env"], sort_keys=True))
        record = WORK / f"result-{name}-seed{args.seed}-trace{args.trace}.json"
        record.write_text(json.dumps(outcome, indent=1, default=str))
    if len(outcomes) == 1:
        final = outcomes[names[0]]["result"]
    else:
        final = {
            "correct": all(o["result"]["correct"] for o in outcomes.values()),
            "attempted": sum(o["result"]["attempted"] for o in outcomes.values()),
            "failed": sum(o["result"]["failed"] for o in outcomes.values()),
            "metrics": {f"{name}.{metric}": value for name, o in outcomes.items()
                        for metric, value in o["result"]["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
