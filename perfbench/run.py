"""nsfsim benchmark: one seeded workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload box128 --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
With ``--trace 0`` the workload's operation is repeated for ``--seconds``
and the end-to-end metrics are printed.  With ``--trace 1`` the operation
runs twice with spans recorded at every layer boundary (see ``tracing.py``),
the wrappers are removed and checked gone, and untraced repeats for
``--seconds`` give the tracing overhead; the per-layer metrics are printed.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Metric names and units
must match ``BENCHMARK.json``.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools to one thread before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MIN_OPS = 2            # the determinism check compares two operations
IMPORT_SAMPLES = 5
# Times `import nsfsim` in a fresh interpreter, then the speed kernel there.
IMPORT_PROBE = ("import sys, time; sys.path[:0] = sys.argv[1:3]; "
                "t = time.perf_counter(); import nsfsim; "
                "dt = time.perf_counter() - t; import speed; "
                "print(dt, speed.snapshot())")

END_TO_END_UNITS = {
    "wall_s": "s", "setup_s": "s", "us_per_step": "us", "steps": "count",
    "attempts_per_step": "ratio", "peak_rss_mb": "MB", "checks_passed": "ratio",
}
PER_LAYER_UNITS = {
    "thermo.calls_per_step": "calls/step", "thermo.cells_per_step": "cells/step",
    "thermo.self_s": "s", "thermo.share": "ratio", "thermo.ns_per_cell": "ns",
    "thermo.newton_iters_per_step": "iters/step", "thermo.fallback_calls": "count",
    "solver.self_s": "s", "solver.share": "ratio", "solver.stable_dt_s": "s",
    "solver.rhs_evals": "count", "solver.rhs_evals_per_step": "evals/step",
    "solver.accept_ratio": "ratio",
    "budgets.self_s": "s", "budgets.share": "ratio", "budgets.audit_calls": "count",
    "budgets.us_per_window": "us",
    "scenario.export_s": "s", "scenario.export_bytes": "B", "scenario.share": "ratio",
    "relent.self_s": "s", "relent.calls": "count",
    "scenario.parse_s": "s", "boundary.self_s": "s", "boundary.calls": "count",
    "mms.build_s": "s", "mms.probe_s": "s", "mms.source_calls": "count",
    "mms.source_s": "s", "mms.share": "ratio",
    "studies.self_s": "s",
    "trace.overhead": "ratio", "trace.spans": "count",
}
# Counts that must repeat exactly across the two traced operations.
REPEATED_COUNTS = ("steps", "rejects", "solver.rhs_evals", "thermo.calls_per_step",
                   "thermo.newton_iters_per_step")


def check_spec(spec: dict) -> None:
    """The metrics this script prints are exactly those BENCHMARK.json lists."""
    for key, units in (("end_to_end", END_TO_END_UNITS), ("per_layer", PER_LAYER_UNITS)):
        listed = {m["name"]: m["unit"] for m in spec[key]}
        if listed != units:
            raise SystemExit(f"BENCHMARK.json {key} does not match the printed metrics: "
                             f"listed {listed}, printed {units}")


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def machine_facts(args) -> dict:
    import numpy
    import scipy
    import sympy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction" and level in ("2", "3"):
                caches[f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return {
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "cpu_model": cpu, "l2": caches.get("L2", "unknown"),
        "l3": caches.get("L3", "unknown"),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "sympy": sympy.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_commit": _git_commit(), "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
    }


def import_seconds() -> tuple:
    """Median time of `import nsfsim` in fresh interpreters, scaled to the
    reference speed by kernel snapshots taken just before each import (here)
    and just after it (in the importing process), and as measured."""
    scaled, measured = [], []
    for _ in range(IMPORT_SAMPLES):
        before = speed.snapshot()
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC), str(HERE)],
                              capture_output=True, text=True, timeout=120, check=True)
        import_s, after = (float(v) for v in done.stdout.split())
        measured.append(import_s)
        scaled.append(import_s * speed.REFERENCE_S / (0.5 * (before + after)))
    return statistics.median(scaled), statistics.median(measured)


def repeat_ops(op, docs, seconds: float, probe=None) -> list:
    """Run the operation until `seconds` have passed and at least MIN_OPS ran.

    With a speed probe running, the operation times itself in seconds at the
    probe's reference speed, and `measured_s` keeps its wall time as measured.
    """
    results = []
    t0 = time.perf_counter()
    while len(results) < MIN_OPS or time.perf_counter() - t0 < seconds:
        if probe:
            start = probe.clock()
            r = op(docs, probe.scaled_clock)
            r.measured_s = probe.clock() - start
        else:
            r = op(docs)
            r.measured_s = r.wall_s
        results.append(r)
    return results


def checks_of(ops: list, extra: dict) -> dict:
    """Named checks, each passing only if it passed on every operation."""
    checks = dict(extra)
    checks["deterministic_rerun"] = len({r.fingerprint for r in ops}) == 1
    for r in ops:
        for name, ok in {**r.integrity, **r.verdicts}.items():
            checks[name] = checks.get(name, True) and ok
    return checks


def end_to_end(ops: list, import_s: float, checks: dict) -> dict:
    steps = ops[0].steps
    return {
        "wall_s": statistics.median(r.wall_s for r in ops),
        "setup_s": import_s + statistics.median(r.setup_s for r in ops),
        "us_per_step": (sum(r.solve_s for r in ops) * 1e6
                        / max(sum(r.steps for r in ops), 1)),
        "steps": steps,
        "attempts_per_step": (steps + ops[0].rejects) / max(steps, 1),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "checks_passed": sum(checks.values()) / len(checks),
    }


def traced(op, docs, n: int = 2):
    """n traced operations; returns (results, spans), wrappers removed after."""
    tracer = tracing.Tracer()
    results, spans = [], []
    tracer.install()
    try:
        for _ in range(n):
            root = tracer.open("bench.op")
            try:
                results.append(op(docs))
            finally:
                tracer.close(root)
            spans.append(tracer.take())
    finally:
        tracer.remove()
    return results, spans


def per_layer(traced_ops, spans, untraced_ops) -> tuple:
    """Per-layer metrics (mean of the traced operations) and the count self-tests:
    counts repeat exactly, and solver.step spans equal the accepted steps."""
    rows = [tracing.layer_metrics(s, r.steps, r.rejects, r.export_bytes)
            for s, r in zip(spans, traced_ops)]
    for row, r in zip(rows, traced_ops):
        row["steps"], row["rejects"] = r.steps, r.rejects
    repeat = all(rows[0][k] == row[k] for row in rows[1:] for k in REPEATED_COUNTS)
    consistent = all(s.count("solver.step") == r.steps for s, r in zip(spans, traced_ops))
    metrics = {k: statistics.fmean(row[k] for row in rows) for k in PER_LAYER_UNITS
               if k != "trace.overhead"}
    untraced_s = statistics.median(r.measured_s for r in untraced_ops)
    metrics["trace.overhead"] = statistics.median(s.wall for s in spans) / untraced_s - 1.0
    return metrics, repeat, consistent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "nsfsim" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}/nsfsim; run from a checkout",
              file=sys.stderr)
        return 2
    check_spec(json.loads((ROOT / "BENCHMARK.json").read_text()))
    sys.path.insert(0, str(SRC))
    import nsfsim
    if Path(nsfsim.__file__).resolve().parent != (SRC / "nsfsim").resolve():
        print(f"error: imported nsfsim from {nsfsim.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {wl.WORKLOADS}",
              file=sys.stderr)
        return 2
    wl.OUT.mkdir(exist_ok=True)
    facts = machine_facts(args)
    print("machine:", json.dumps(facts, sort_keys=True), flush=True)

    op = wl.OPS[args.workload]
    docs = wl.DOCS[args.workload](args.seed)
    extra = {"generator_deterministic": (wl.document_bytes(args.workload, args.seed)
                                         == wl.document_bytes(args.workload, args.seed))}
    tracing.assert_unwrapped()
    measured = {}
    if args.trace:
        traced_ops, spans = traced(op, docs)
        tracing.assert_unwrapped()
        untraced_ops = repeat_ops(op, docs, args.seconds)
        metrics, extra["counts_repeat"], extra["steps_match_spans"] = per_layer(
            traced_ops, spans, untraced_ops)
        for i, s in enumerate(spans):
            s.write(wl.OUT / f"spans-{args.workload}-{args.seed}-{i}.csv")
        ops, units = traced_ops + untraced_ops, PER_LAYER_UNITS
        checks = checks_of(ops, extra)
    else:
        import_s, import_measured_s = import_seconds()
        with speed.SpeedProbe() as probe:
            ops = repeat_ops(op, docs, args.seconds, probe)
        units = END_TO_END_UNITS
        checks = checks_of(ops, extra)
        metrics = end_to_end(ops, import_s, checks)
        measured = {"wall_s": statistics.median(r.measured_s for r in ops),
                    "import_s": import_measured_s,
                    "probe_s": statistics.median(probe.samples)}

    for name, ok in checks.items():
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    if measured:
        print("as measured:", json.dumps(measured))
    # an operation failed if it did not run to a valid result or did not
    # reproduce the first operation's output
    failed = sum(not r.ok or r.fingerprint != ops[0].fingerprint for r in ops)
    correct = failed == 0 and all(extra.values())
    result = {"correct": correct, "attempted": len(ops), "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}
    name = f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    with open(wl.OUT / name, "w") as fh:
        json.dump({"machine": facts, "checks": checks, "measured": measured, **result},
                  fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
