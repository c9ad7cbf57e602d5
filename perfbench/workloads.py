"""Seeded workload documents and the timed operations of the benchmark.

Each workload turns a seed into scenario documents (plain JSON-able dicts)
and runs one operation on them through the package's public functions, the
same ones the CLI calls.  The program sees only the generated documents.

Why these four workloads:

* ``box128``: closed insulated box, iconic EOS, no regularization, n = 128.
  Isolates the per-step Python/numpy overhead of the stepper (thermo and
  solver self time), which is flat in n.
* ``channel512``: inflow/outflow channel on the tabulated Third-law EOS with
  epsilon = delta = 1e-3 at n = 512.  The viscous/acoustic dt gap grows with
  n, so step-count changes move this workload most; it is also the only one
  on the tabulated EOS, so iconic-only changes must leave it unchanged.
* ``series``: the regularized iconic channel at n = 128 with 201 evenly
  spaced outputs, audited window by window, traced against an n = 32
  companion run and exported to CSV.  Budgets dominate it; it is the only
  workload that exercises ``relent`` and the exports.
* ``verify``: the ``thermal_relaxation`` manufactured study at n = 32, 64,
  128 with its residual probe.  The only workload that runs ``mms`` and
  ``studies``; the sympy build of the case is its set-up.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import sympy

import nsfsim.budgets
import nsfsim.mms
import nsfsim.scenario
import nsfsim.studies
from nsfsim.solver import RunAborted

WORKLOADS = ("box128", "channel512", "series", "verify")
# Results, spans and the series exports go here, inside the checkout.
OUT = Path(__file__).resolve().parent / "out"

# Sizes of the timed operations (end times of the simulated windows).
BOX_T_END = 0.015
CHANNEL_T_END = 0.002
SERIES_T_END = 0.04
SERIES_OUTPUTS = 201
SERIES_COMPANION_N = 32
VERIFY_T_END = 0.01
VERIFY_RESOLUTIONS = (32, 64, 128)

# Acceptance gates of the MMS study, as `nsfsim converge` applies them.
PROBE_TOL = 1e-6
ORDER_LO, ORDER_HI = 0.8, 1.5

# The 25-knot Third-law table of the test suite: P(Z) = Z + Z^(5/3) + Z^(5/3)/(1+Z).
TABLE_Z = [float(z) for z in np.geomspace(0.02, 400.0, 25)]
TABLE_P = [z + z ** (5.0 / 3.0) + z ** (5.0 / 3.0) / (1.0 + z) for z in TABLE_Z]
# Inflow margin -(F_ib/|u_b| + 1.5 p_inf rho_b^(5/3)) of the shipped throughflow
# scenarios (F_ib = -2 at u_b = 0.5, rho_b = 1); draws stay within 5% of it.
INFLOW_MARGIN = 2.5
# Perturbation amplitude of the channels.  Kept small so each draw stays near
# the shipped channel: at 2% the sign of the epsilon-level entropy error (see
# README.md) changes with the seed, and the checks would follow the seed
# instead of the code.
CHANNEL_AMP = 5e-4


def _modes(rng: random.Random, basis: str, amp: float, kmax: int = 3) -> str:
    """Sum of kmax Fourier modes basis(k pi x) whose |coefficients| sum to amp."""
    weights = [0.5 + rng.random() for _ in range(kmax)]
    total = sum(weights)
    terms = []
    for k, w in enumerate(weights, start=1):
        coeff = amp * w / total * (1.0 if rng.random() < 0.5 else -1.0)
        terms.append(f"{coeff!r}*{basis}({k}*pi*x)")
    return " + ".join(terms)


def _inflow_face(rng: random.Random, u_in: float) -> dict:
    """Inflow face with F_ib strictly inside the admissibility margin:
    F_ib/|u_b| + 1.5 p_inf rho_b^(5/3) = -tau < 0."""
    rho_b = 1.0 + 0.02 * (rng.random() - 0.5)
    tau = INFLOW_MARGIN * (1.0 + 0.1 * (rng.random() - 0.5))
    f_ib = -u_in * (1.5 * rho_b ** (5.0 / 3.0) + tau)
    return {"pos": 0.0, "u_b": u_in, "rho_b": rho_b, "F_ib": f_ib}


def _channel_doc(rng: random.Random, n: int, eos: dict, t_end: float,
                 output_times: list) -> dict:
    u_in = 0.5 * (1.0 + 0.04 * (rng.random() - 0.5))
    inflow = _inflow_face(rng, u_in)
    return {
        "mesh": {"x0": 0.0, "x1": 1.0, "n": n},
        "eos": eos,
        "transport": {"lambda_exp": 0.5, "mu_scale": 0.05, "eta_scale": 0.0,
                      "kappa_scale": 0.1},
        "boundary": {"faces": [inflow, {"pos": 1.0, "u_b": u_in}]},
        "config": {"epsilon": 1e-3, "delta": 1e-3, "Gamma": 4.0, "d": 3,
                   "cfl": 0.4, "t_end": t_end},
        # sin modes vanish at both faces, so the traces match the face data
        "initial": {"rho": f"{inflow['rho_b']!r} + " + _modes(rng, "sin", CHANNEL_AMP),
                    "u": f"{u_in!r} + " + _modes(rng, "sin", CHANNEL_AMP),
                    "theta": "1 + 0.2*x^2*(3 - 2*x) + " + _modes(rng, "sin", CHANNEL_AMP)},
        "output_times": output_times,
    }


def box128_docs(seed: int) -> dict:
    rng = random.Random(f"box128:{seed}")
    doc = {
        "mesh": {"x0": 0.0, "x1": 1.0, "n": 128},
        "eos": {"shape": "iconic", "a": 1.0, "p_inf": 1.0, "entropy_const": 0.0,
                "third_law": False},
        "transport": {"lambda_exp": 0.5, "mu_scale": 0.2, "eta_scale": 0.0,
                      "kappa_scale": 0.2},
        "boundary": {"faces": [{"pos": 0.0, "u_b": 0.0, "wall": True},
                               {"pos": 1.0, "u_b": 0.0, "wall": True}]},
        "config": {"epsilon": 0.0, "delta": 0.0, "Gamma": 4.0, "d": 3, "cfl": 0.4,
                   "t_end": BOX_T_END},
        # cos modes have zero slope and sin modes zero value at the walls
        "initial": {"rho": "1 + " + _modes(rng, "cos", 0.05),
                    "u": _modes(rng, "sin", 0.1),
                    "theta": "1 + " + _modes(rng, "cos", 0.05)},
        "output_times": [0.0, BOX_T_END / 2.0, BOX_T_END],
    }
    return {"main": doc}


def channel512_docs(seed: int) -> dict:
    rng = random.Random(f"channel512:{seed}")
    eos = {"shape": "table", "a": 1.0, "p_inf": 1.0, "entropy_const": 0.0,
           "third_law": True, "table": {"z": TABLE_Z, "p": TABLE_P}}
    times = [0.0, CHANNEL_T_END / 2.0, CHANNEL_T_END]
    return {"main": _channel_doc(rng, 512, eos, CHANNEL_T_END, times)}


def series_docs(seed: int) -> dict:
    rng = random.Random(f"series:{seed}")
    eos = {"shape": "iconic", "a": 1.0, "p_inf": 1.0, "entropy_const": 0.0,
           "third_law": False}
    times = [SERIES_T_END * i / (SERIES_OUTPUTS - 1) for i in range(SERIES_OUTPUTS)]
    main = _channel_doc(rng, 128, eos, SERIES_T_END, times)
    companion = json.loads(json.dumps(main))
    companion["mesh"]["n"] = SERIES_COMPANION_N
    return {"main": main, "companion": companion}


def verify_docs(seed: int) -> dict:
    # The manufactured case has no free inputs: every seed runs the same study.
    return {"case": "thermal_relaxation", "resolutions": list(VERIFY_RESOLUTIONS),
            "t_end": VERIFY_T_END}


DOCS = {"box128": box128_docs, "channel512": channel512_docs,
        "series": series_docs, "verify": verify_docs}


def document_bytes(workload: str, seed: int) -> bytes:
    """Canonical bytes of every document a workload feeds the program."""
    return json.dumps(DOCS[workload](seed), sort_keys=True).encode()


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


@dataclass
class OpResult:
    """What one timed operation produced.

    Times come from the clock the operation was given; ``measured_s`` is
    the operation's wall time as measured.  ``integrity`` holds checks that
    the operation ran to a valid result; a failure there means the operation
    failed.  ``verdicts`` holds the program's own acceptance verdicts on it.
    """

    wall_s: float = 0.0
    setup_s: float = 0.0
    solve_s: float = 0.0
    steps: int = 0
    rejects: int = 0
    export_bytes: int = 0
    fingerprint: str = ""
    measured_s: float = 0.0
    integrity: dict = field(default_factory=dict)
    verdicts: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(self.integrity.values())


def _state_digest(h, state) -> bool:
    """Feed a final state into the digest; returns whether it is finite."""
    finite = True
    for arr in (state.rho, state.u, state.theta):
        arr = np.ascontiguousarray(arr, dtype=float)
        h.update(arr.tobytes())
        finite &= bool(np.all(np.isfinite(arr)))
    return finite


def _verdicts(report, prefix: str = "") -> dict:
    return {f"{prefix}{name}_verdict": bool(v["passed"])
            for name, v in report.verdicts.items()}


def _run_scenario(doc: dict, name: str, res: OpResult, clock):
    """Parse (timed as set-up) and run one document; returns the trajectory or None."""
    t0 = clock()
    scn = nsfsim.scenario.parse_scenario(doc, name=name)
    t1 = clock()
    res.setup_s += t1 - t0
    try:
        traj = scn.run()
    except RunAborted as err:
        res.solve_s += clock() - t1
        res.integrity["no_abort"] = False
        if err.trajectory is not None:
            res.steps += err.trajectory.n_steps
            res.rejects += err.trajectory.n_rejects
        return None
    res.solve_s += clock() - t1
    res.steps += traj.n_steps
    res.rejects += traj.n_rejects
    res.integrity.setdefault("no_abort", True)
    return traj


def op_box(docs: dict, clock=time.perf_counter) -> OpResult:
    """Parse, run and audit one scenario over its whole window."""
    res = OpResult()
    t0 = clock()
    traj = _run_scenario(docs["main"], "main", res, clock)
    if traj is not None:
        h = hashlib.sha256()
        res.integrity["finite_state"] = _state_digest(h, traj.final_state)
        res.fingerprint = h.hexdigest()
        res.verdicts.update(_verdicts(nsfsim.budgets.audit(traj)))
    res.wall_s = clock() - t0
    return res


def op_series(docs: dict, clock=time.perf_counter) -> OpResult:
    """Run, audit every output window, trace against the companion, export."""
    res = OpResult()
    t0 = clock()
    traj = _run_scenario(docs["main"], "main", res, clock)
    companion = _run_scenario(docs["companion"], "companion", res, clock)
    if traj is None or companion is None:
        res.wall_s = clock() - t0
        return res
    h = hashlib.sha256()
    res.integrity["finite_state"] = (_state_digest(h, traj.final_state)
                                     & _state_digest(h, companion.final_state))

    audit = nsfsim.budgets.audit
    res.verdicts.update(_verdicts(audit(traj), prefix="whole_"))
    rows = [audit(traj, window=w) for w in zip(traj.times[:-1], traj.times[1:])]
    for name in ("mass", "energy", "entropy"):
        res.verdicts[f"windows_{name}_verdict"] = all(
            r.verdicts[name]["passed"] for r in rows)

    trace, (eta, rate) = nsfsim.budgets.weak_strong_trace(companion, traj)
    integrals = np.asarray(trace.integrals, dtype=float)
    h.update(integrals.tobytes())
    res.integrity["finite_trace"] = bool(np.all(np.isfinite(integrals))
                                         and math.isfinite(eta) and math.isfinite(rate))

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="exports-", dir=OUT) as tmp:
        paths = nsfsim.scenario.export_timeseries(traj, Path(tmp) / "run")
        budget_csv = Path(tmp) / "budgets.csv"
        nsfsim.scenario.export_budget_csv(rows, budget_csv)
        paths.append(budget_csv)
        for p in paths:
            data = p.read_bytes()
            res.export_bytes += len(data)
            h.update(data)
        n_rows = budget_csv.read_text().count("\n") - 1
    res.integrity["exports_complete"] = (len(paths) == len(traj.times) + 2
                                         and n_rows == len(rows))
    res.fingerprint = h.hexdigest()
    res.wall_s = clock() - t0
    return res


class StageLog:
    """Energy source that records the time of every stage evaluation.

    The convergence study keeps no trajectories, so accepted and rejected
    steps are recovered from the stage times: an SSP-RK2 attempt evaluates
    stage 1 at t and (unless stage 1 is rejected) stage 2 at t + dt; a
    rejected attempt is retried from the same t, an accepted one moves on
    to a later t, and a new run restarts at 0.
    """

    def __init__(self, fn):
        self.fn = fn
        self.times = []

    def __call__(self, t, x):
        self.times.append(t)
        return self.fn(t, x)

    def counts(self):
        """(accepted steps, rejected attempts) of the logged stage calls."""
        ts = self.times
        steps = rejects = 0
        i = 0
        while i < len(ts):
            start = ts[i]
            if i + 1 < len(ts) and ts[i + 1] > start:   # stage 2 ran
                i += 2
            else:                                       # stage 1 rejected
                i += 1
            if i < len(ts) and ts[i] == start:
                rejects += 1
            else:
                steps += 1
        return steps, rejects


def op_verify(docs: dict, clock=time.perf_counter) -> OpResult:
    """Build the manufactured case, probe it and run the convergence study."""
    res = OpResult()
    # Clear sympy's cache so every operation pays the full symbolic build,
    # as a fresh `nsfsim converge` process does.
    sympy.core.cache.clear_cache()
    t0 = clock()
    case = nsfsim.mms.manufactured_case(docs["case"])
    res.setup_s = clock() - t0
    probe = case.residual_probe()
    res.verdicts["probe_verdict"] = max(probe.values()) < PROBE_TOL

    log = StageLog(case.energy_source_fn)
    case.energy_source_fn = log
    t1 = clock()
    try:
        study = nsfsim.studies.convergence_study(case, docs["resolutions"],
                                                 t_end=docs["t_end"])
    except RunAborted:
        res.integrity["no_abort"] = False
        study = None
    res.solve_s = clock() - t1
    res.steps, res.rejects = log.counts()
    if study is None:
        res.wall_s = clock() - t0
        return res
    res.integrity["no_abort"] = True

    errors = np.asarray([study.errors[k] for k in ("rho", "u", "theta")], dtype=float)
    res.integrity["finite_state"] = bool(np.all(np.isfinite(errors)))
    res.fingerprint = hashlib.sha256(errors.tobytes()).hexdigest()
    res.verdicts["monotone_verdict"] = all(study.monotone.values())
    res.verdicts["orders_verdict"] = all(ORDER_LO <= o <= ORDER_HI
                                         for o in study.orders.values())
    res.wall_s = clock() - t0
    return res


OPS = {"box128": op_box, "channel512": op_box, "series": op_series, "verify": op_verify}

