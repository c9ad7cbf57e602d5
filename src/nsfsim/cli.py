"""Command-line surface.

Subcommands: check-eos, audit-boundary, run, audit, converge, weak-strong.
Exit code 0 means every verdict passed.  Set NSF_SEED to pin any randomized
sampling used by demonstration scripts and tests.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import boundary as bd
from .budgets import audit as run_audit
from .mms import manufactured_case
from .relent import _write_csv
from .scenario import (Issue, ScenarioValidationError, export_budget_csv,
                       export_timeseries, load_document, load_eos_document,
                       load_scenario)
from .solver import RunAborted, SolverConfig
from .studies import (ORDER_HI, ORDER_LO, check_resolutions, convergence_study,
                      weak_strong_study)


def _cmd_check_eos(args) -> int:
    checks, issues = load_eos_document(args.file)
    for name, (passed, detail) in checks.items():
        if passed:
            print(f"PASS  {name}  ({detail})")
    for issue in issues:
        print(f"FAIL  {issue}")
    return 1 if issues else 0


def _cmd_audit_boundary(args) -> int:
    scn = load_scenario(args.scenario)
    # parse_scenario has already refused inadmissible inflow data
    report = bd.admissibility_check(scn.eos, scn.boundary)
    for f in scn.boundary.faces:
        line = f"x={f.pos:g}: {f.kind.value:>4}  u_b={f.u_b:g}"
        if f.kind is bd.FaceKind.IN:
            line += (f"  rho_b={f.rho_b:g}  F_ib={f.F_ib:g}"
                     f"  margin={report.margins[f.pos]:+.6g}")
        print(line)
    print("PASS inflow admissibility")
    return 0


def _cmd_run(args) -> int:
    scn = load_scenario(args.scenario)
    traj = scn.run()
    paths = export_timeseries(traj, args.out)
    print(f"wrote {len(paths)} files to {args.out} "
          f"({traj.n_steps} steps, {traj.n_rejects} rejected)")
    return 0


def _cmd_audit(args) -> int:
    scn = load_scenario(args.scenario)
    traj = scn.run()
    report = run_audit(traj)
    doc = {
        "scenario": scn.name,
        "window": list(report.window),
        "mass_residual": report.mass_residual,
        "energy_residual": report.energy_residual,
        "entropy_production": report.entropy_production,
        "boundary_terms": report.boundary_terms,
        "apriori": report.apriori,
        "verdicts": report.verdicts,
        "steps": traj.n_steps,
        "notes": ["raw entropy-weighted values (entropy terms, energy_sup, "
                  "outflow_ballistic) depend on the additive entropy gauge "
                  "entropy_const; residuals and production are gauge-invariant"],
    }
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
    if args.csv:
        windows = list(zip(traj.times[:-1], traj.times[1:]))
        rows = [run_audit(traj, window=w) for w in windows]
        export_budget_csv(rows, args.csv)
    for name, v in report.verdicts.items():
        print(f"{'PASS' if v['passed'] else 'FAIL'}  {name}: "
              f"value={v['value']:.6g} tol={v['tol']:.3g}")
    return 0 if report.passed else 1


def _resolutions(text: str, check) -> list:
    """The cell counts of a --resolutions value; one ``resolutions`` issue if
    a count is not an integer or ``check`` raises ValueError on them."""
    try:
        resolutions = [int(n) for n in text.split(",")]
        check(resolutions)
    except ValueError as err:
        raise ScenarioValidationError([Issue("--resolutions", "resolutions", str(err))]) from None
    return resolutions


def _pairs_to_compare(resolutions) -> None:
    if len(resolutions) < 2:
        raise ValueError("need at least 2 resolutions to compare")


def _cmd_converge(args) -> int:
    ns = _resolutions(args.resolutions, check_resolutions)
    try:
        SolverConfig(t_end=args.t_end)
    except ValueError as err:
        raise ScenarioValidationError([Issue("--t-end", "t-end", str(err))]) from None
    case = manufactured_case(args.case)
    probe = case.residual_probe()
    print("manufactured residual probe:",
          {k: f"{v:.3g}" for k, v in probe.items()})
    study = convergence_study(case, ns, t_end=args.t_end,
                              with_energy_budget=args.csv is not None)
    if args.csv:
        Path(args.csv).parent.mkdir(parents=True, exist_ok=True)
        _write_csv(args.csv, ["n", "err_rho", "err_u", "err_theta", "energy_residual"],
                   [study.resolutions, *(study.errors[f] for f in ("rho", "u", "theta")),
                    study.energy_residuals])
    ok = max(probe.values()) < 1e-6
    for f in ("rho", "u", "theta"):
        errs = "  ".join(f"{e:.4e}" for e in study.errors[f])
        print(f"{f:>6}: errors {errs}  order {study.orders[f]:.2f}")
        ok &= ORDER_LO <= study.orders[f] <= ORDER_HI
    if study.flagged:
        print("FLAG: non-monotone error sequence", study.monotone)
        ok = False
    print("PASS" if ok else "FAIL",
          f"observed orders within [{ORDER_LO}, {ORDER_HI}]")
    return 0 if ok else 1


def _cmd_weak_strong(args) -> int:
    ns = _resolutions(args.resolutions, _pairs_to_compare)
    results = weak_strong_study(load_document(args.scenario), ns,
                                name=Path(args.scenario).stem)
    finals = []
    for n, trace, (eta, rate) in results:
        finals.append(trace.integrals[-1])
        print(f"n={n:>4}: E(t_end)={trace.integrals[-1]:.6e}  "
              f"envelope eta={eta:.3e} rate={rate:.3f}")
        if args.out:
            outdir = Path(args.out)
            outdir.mkdir(parents=True, exist_ok=True)
            trace.to_csv(outdir / f"relenergy_n{n}.csv")
    ok = all(b < a for a, b in zip(finals, finals[1:]))
    print("PASS" if ok else "FAIL", "relative energy decreases under refinement")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="nsfsim", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-eos", help="validate an eos.json document")
    p.add_argument("file")
    p.set_defaults(func=_cmd_check_eos)

    p = sub.add_parser("audit-boundary", help="face classification and admissibility")
    p.add_argument("scenario")
    p.set_defaults(func=_cmd_audit_boundary)

    p = sub.add_parser("run", help="integrate a scenario and export time series")
    p.add_argument("scenario")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("audit", help="run and audit the budget identities")
    p.add_argument("scenario")
    p.add_argument("--out", default=None, help="budget report JSON path")
    p.add_argument("--csv", default=None, help="windowed budget CSV path")
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("converge", help="manufactured-solution convergence study")
    p.add_argument("--case", default="thermal_relaxation",
                   choices=["thermal_relaxation", "acoustic_smooth", "throughflow"])
    p.add_argument("--resolutions", default="32,64,128")
    p.add_argument("--t-end", type=float, default=0.15, dest="t_end")
    p.add_argument("--csv", default=None,
                   help="per-resolution errors and energy residual CSV path")
    p.set_defaults(func=_cmd_converge)

    p = sub.add_parser("weak-strong", help="coarse-vs-fine relative energy study")
    p.add_argument("scenario")
    p.add_argument("--resolutions", default="32,64,128")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_weak_strong)
    return ap


def main(argv=None) -> int:
    """Run one subcommand; refused input is one FAIL line per issue, and an
    aborted run one FAIL line, each with exit 1."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ScenarioValidationError as err:
        for issue in err.issues:
            print(f"FAIL  {issue}")
        return 1
    except RunAborted as err:
        print(f"FAIL  run aborted: {err}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
