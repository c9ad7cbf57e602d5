"""Self-test of the benchmark's own machinery.

    python3 perfbench/selftest.py [n_seeds]

Checks, from the root of a checkout:

* the generator gives byte-identical documents for a seed, and every
  generated scenario passes ``parse_scenario`` with every inflow face
  strictly inside ``admissibility_margin``;
* ``BENCHMARK.json`` lists exactly the workloads and metric names and units
  that ``run.py`` prints;
* the stage-time step counter of the ``verify`` workload on synthetic logs;
* two traced ``box128`` operations repeat their counts exactly, the solver
  step spans match the accepted steps, and the wrappers are gone after.

Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import sys

import run

sys.path.insert(0, str(run.SRC))

import nsfsim  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402


def check_generator(n_seeds: int) -> None:
    for workload in wl.WORKLOADS:
        for seed in range(1, n_seeds + 1):
            first = wl.document_bytes(workload, seed)
            assert first == wl.document_bytes(workload, seed), (workload, seed)
            assert first != wl.document_bytes(workload, seed + 1) or workload == "verify"
            docs = json.loads(first)
            if workload == "verify":
                assert docs["case"] == "thermal_relaxation"
                continue
            for name, doc in docs.items():
                scn = nsfsim.parse_scenario(doc, name=name)   # raises on any issue
                for face in scn.boundary.faces:
                    if face.kind is nsfsim.FaceKind.IN:
                        margin = nsfsim.admissibility_margin(scn.eos, face.rho_b,
                                                             face.u_dot_n, face.F_ib)
                        assert margin < 0.0, (workload, seed, margin)
    print(f"PASS  generator: {n_seeds} seeds per workload, byte-identical and admissible")


def check_spec() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    run.check_spec(spec)
    assert tuple(w["name"] for w in spec["workloads"]) == wl.WORKLOADS
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert m["unit"], m
    print("PASS  BENCHMARK.json matches the printed metric names and units")


def check_stage_log() -> None:
    cases = {
        (0.0, 0.1, 0.1, 0.2): (2, 0),                  # two accepted steps
        (0.0, 0.0, 0.05, 0.05, 0.1): (2, 1),           # stage 1 rejected once
        (0.0, 0.1, 0.0, 0.05, 0.05, 0.1): (2, 1),      # stage 2 rejected once
        (0.0, 0.1, 0.1, 0.2, 0.0, 0.1): (3, 0),        # a second run restarts at 0
    }
    for times, expected in cases.items():
        log = wl.StageLog(None)
        log.times = list(times)
        assert log.counts() == expected, (times, log.counts(), expected)
    print("PASS  stage-time step counter")


def check_trace_counts() -> None:
    docs = wl.DOCS["box128"](1)
    results, spans = run.traced(wl.OPS["box128"], docs)
    tracing.assert_unwrapped()
    untraced = run.repeat_ops(wl.OPS["box128"], docs, 0.0)
    metrics, repeat, consistent = run.per_layer(results, spans, untraced)
    assert repeat, "traced counts differ between two identical operations"
    assert consistent, "solver.step spans differ from the accepted steps"
    assert metrics["solver.rhs_evals_per_step"] == 2.0, metrics
    print(f"PASS  traced counts repeat ({results[0].steps} steps, "
          f"{int(metrics['solver.rhs_evals'])} rhs evaluations) and wrappers are removed")


if __name__ == "__main__":
    check_spec()
    check_stage_log()
    check_generator(int(sys.argv[1]) if len(sys.argv) > 1 else 20)
    check_trace_counts()
