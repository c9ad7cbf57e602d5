"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
The sampling seed honors the NSF_SEED environment variable.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from nsfsim import boundary as bdy
from nsfsim import budgets as bg
from nsfsim import mms, relent, scenario as sc, solver as sv, studies
from nsfsim import thermo as th
from nsfsim.mesh import Mesh1D

from conftest import SEED, make_table_eos

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"
SHIPPED = ["closed_box", "acoustic_box", "throughflow", "throughflow_regularized"]


def _verdict(name: str, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {'PASS' if ok else 'FAIL'}  {name}" +
          (f"  [{detail}]" if detail else ""))
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def shipped_runs():
    """Every shipped scenario run as shipped, plus the smooth ones re-run at
    the (1e-3, 1e-3) regularization level."""
    runs = {}
    for name in SHIPPED:
        doc = json.loads((SCENARIO_DIR / f"{name}.json").read_text())
        t0 = time.perf_counter()
        traj = sc.parse_scenario(doc, name=name).run()
        runs[name] = (traj, time.perf_counter() - t0)
        if doc["config"]["epsilon"] == 0.0 and doc["config"]["delta"] == 0.0:
            reg = json.loads(json.dumps(doc))
            reg["config"]["epsilon"] = 1e-3
            reg["config"]["delta"] = 1e-3
            t0 = time.perf_counter()
            traj_reg = sc.parse_scenario(reg, name=name + "+reg").run()
            runs[name + "+reg"] = (traj_reg, time.perf_counter() - t0)
    return runs


@pytest.fixture(scope="module")
def thermal_study():
    case = mms.manufactured_case("thermal_relaxation")
    t0 = time.perf_counter()
    study = studies.convergence_study(case, [32, 64, 128], t_end=0.15,
                                      with_energy_budget=True)
    return case, study, time.perf_counter() - t0


def test_eos_consistency():
    """Gibbs residual < 1e-10 at 1e4 states, iconic and tabulated, < 5 s."""
    rng = np.random.default_rng(SEED)
    rho = rng.uniform(0.1, 10.0, 10_000)
    theta = rng.uniform(0.1, 10.0, 10_000)
    t0 = time.perf_counter()
    worst = 0.0
    for eos in (th.iconic_eos(), make_table_eos(third_law=True)):
        r1, r2 = th.gibbs_residual(eos, rho, theta)
        worst = max(worst, float(np.max(np.abs(r1))), float(np.max(np.abs(r2))))
    elapsed = time.perf_counter() - t0
    _verdict("eos-consistency", worst < 1e-10 and elapsed < 5.0,
             f"max residual {worst:.2e}, {elapsed:.2f} s")


def test_internal_energy_convexity_and_extension():
    """Midpoint convexity at 1e4 interior pairs (tol 1e-9); +inf off the
    closure; vacuum values in both Third-law modes."""
    rng = np.random.default_rng(SEED + 1)
    eos = th.iconic_eos()
    rho = rng.uniform(0.1, 5.0, 20_000)
    theta = rng.uniform(0.1, 5.0, 20_000)
    S = rho * np.asarray(th.specific_entropy(eos, rho, theta))

    def energy(r, s):
        t = th.temperature_from_entropy(eos, r, s)
        return r * np.asarray(th.specific_internal_energy(eos, r, t))

    xr, xs, yr, ys = rho[:10_000], S[:10_000], rho[10_000:], S[10_000:]
    ex, ey = energy(xr, xs), energy(yr, ys)
    worst = -np.inf
    for lam in (0.25, 0.5, 0.75):
        em = energy(lam * xr + (1 - lam) * yr, lam * xs + (1 - lam) * ys)
        gap = (em - (lam * ex + (1 - lam) * ey)) / (1.0 + np.abs(ex) + np.abs(ey))
        worst = max(worst, float(np.max(gap)))
    convex_ok = worst <= 1e-9

    table = make_table_eos(third_law=True)
    ext_ok = (th.extended_internal_energy(table, 1.0, -1.0) == math.inf
              and th.extended_internal_energy(table, -1.0, 1.0) == math.inf
              and th.extended_internal_energy(eos, -0.1, 0.0) == math.inf)
    rr_ok = (th.extended_internal_energy(table, 0.0, 0.0) == 0.0
             and abs(th.extended_internal_energy(eos, 0.0, -2.0)) < 1e-4)
    for e in (eos, table):
        s0 = 1.7
        expect = e.a * (3.0 * s0 / (4.0 * e.a)) ** (4.0 / 3.0)
        rr_ok &= abs(th.extended_internal_energy(e, 0.0, s0) - expect) < 1e-4 * expect
    _verdict("internal-energy-convexity",
             convex_ok and ext_ok and rr_ok,
             f"worst normalized convexity gap {worst:.2e}")


def test_bregman_equivalence():
    """Standard and conservative relative energies agree to rel 1e-9 on 1e3
    pairs; Bregman three-point identity to 1e-9."""
    rng = np.random.default_rng(SEED + 2)
    eos = th.iconic_eos()
    worst_eq = 0.0
    for _ in range(1000):
        a = th.ThermoState(rng.uniform(0.2, 4), rng.uniform(-2, 2), rng.uniform(0.2, 4))
        b = th.ThermoState(rng.uniform(0.2, 4), rng.uniform(-2, 2), rng.uniform(0.2, 4))
        es = relent.relative_energy_standard(eos, a, b).value
        ec = relent.relative_energy_conservative(
            eos, th.to_conservative(eos, a), th.to_conservative(eos, b)).value
        worst_eq = max(worst_eq, abs(es - ec) / (1.0 + abs(es)))
    worst_tp = 0.0
    for _ in range(200):
        x, y, z = (th.to_conservative(eos, th.ThermoState(
            rng.uniform(0.3, 3), rng.uniform(-1, 1), rng.uniform(0.3, 3)))
            for _ in range(3))
        dxz = relent.relative_energy_conservative(eos, x, z).value
        dxy = relent.relative_energy_conservative(eos, x, y).value
        dyz = relent.relative_energy_conservative(eos, y, z).value
        gy, gz = relent.total_energy_gradient(eos, y), relent.total_energy_gradient(eos, z)
        cross = ((gy[0] - gz[0]) * (x.rho - y.rho)
                 + float((gy[1] - gz[1])[0]) * float((x.m - y.m)[0])
                 + (gy[2] - gz[2]) * (x.S - y.S))
        worst_tp = max(worst_tp, abs(dxz - (dxy + dyz + cross)) / (1.0 + abs(dxz)))
    _verdict("bregman-equivalence", worst_eq < 1e-9 and worst_tp < 1e-9,
             f"cross-form {worst_eq:.2e}, three-point {worst_tp:.2e}")


def test_ballistic_minimum():
    """Minimum over a 1e4-point grid lands at the true temperature within
    grid tolerance for 1e3 random (rho_b, theta)."""
    rng = np.random.default_rng(SEED + 3)
    eos = th.iconic_eos()
    n_grid = 10_000
    worst = 0.0
    for start in range(0, 1000, 100):
        rho_b = rng.uniform(0.2, 3.0, 100)[:, None]
        theta = rng.uniform(0.2, 3.0, 100)[:, None]
        grid = theta * np.linspace(0.5, 2.0, n_grid)[None, :]
        vals = np.asarray(relent.ballistic_free_energy(eos, rho_b, grid, theta))
        arg = grid[np.arange(100), np.argmin(vals, axis=1)]
        spacing = 1.5 * theta[:, 0] / (n_grid - 1)
        worst = max(worst, float(np.max(np.abs(arg - theta[:, 0]) / spacing)))
    _verdict("ballistic-minimum", worst <= 1.5 + 1e-9,
             f"worst offset {worst:.2f} grid cells (grid tol 1e-4 of the span)")


def test_admissibility_gate():
    """The PASS/FAIL margin examples reproduce exactly, borderline included."""
    eos = th.iconic_eos()

    def channel(f_ib):
        return bdy.make_boundary(u_b_left=1.0, u_b_right=1.0, rho_b_left=1.0,
                                 F_ib_left=f_ib)

    rep_pass = bdy.admissibility_check(eos, channel(-2.0))
    rep_fail = bdy.admissibility_check(eos, channel(-1.0))
    rep_sign = bdy.admissibility_check(eos, channel(1.0))
    cold, f_tau = bdy.cold_heat_flux_split(eos, 1.0, -1.0, -2.0)
    rep_edge = bdy.admissibility_check(eos, channel(cold))
    ok = (rep_pass.passed and rep_pass.margins[0.0] == pytest.approx(-0.5)
          and not rep_fail.passed and rep_fail.margins[0.0] == pytest.approx(0.5)
          and not rep_sign.passed and not rep_sign.influx_negative[0.0]
          and cold == pytest.approx(-1.5) and f_tau == pytest.approx(0.5)
          and not rep_edge.passed)
    _verdict("admissibility-gate", ok,
             "margins -0.5 PASS / +0.5 FAIL / sign FAIL / borderline FAIL")


def test_discrete_mass_identity(shipped_runs):
    """Mass residual within 1e-11 per step on every shipped scenario,
    each run < 30 s."""
    ok = True
    details = []
    for name, (traj, elapsed) in shipped_runs.items():
        res = abs(bg.mass_budget(traj))
        bound = 1e-11 * max(1, traj.n_steps)
        ok &= res <= bound and elapsed < 30.0
        details.append(f"{name}: {res:.1e} ({traj.n_steps} steps, {elapsed:.0f}s)")
    _verdict("discrete-mass-identity", ok, "; ".join(details))


def test_entropy_inequality(shipped_runs):
    """Entropy production >= -1e-8 (scaled by measure and horizon) on the
    smooth shipped runs, both unregularized and at (1e-3, 1e-3)."""
    ok = True
    details = []
    for name, (traj, _) in shipped_runs.items():
        production, _ = bg.entropy_budget(traj)
        tol = 1e-8 * traj.mesh.measure * (traj.times[-1] - traj.times[0])
        ok &= production >= -tol
        details.append(f"{name}: {production:+.2e}")
    _verdict("entropy-inequality", ok, "; ".join(details))


def test_energy_budget_refinement(thermal_study):
    """Total-energy residual decreases at observed order >= 1 under
    simultaneous (h, dt) halving across three levels."""
    _, study, _ = thermal_study
    res = study.energy_residuals
    order = float(-np.polyfit(np.log2(study.resolutions), np.log2(res), 1)[0])
    # observed orders carry a +-0.05 fit tolerance
    ok = order >= 0.95 and all(b < a for a, b in zip(res, res[1:]))
    _verdict("energy-budget-refinement", ok,
             f"residuals {['%.2e' % r for r in res]}, order {order:.2f}")


def test_comparison_principle():
    """100 random ordered pairs stay ordered for 200 steps at n <= 64;
    temperatures stay inside the configured uniform bounds."""
    rng = np.random.default_rng(SEED + 4)
    eos = th.iconic_eos()
    ts = th.TransportSpec()
    n = 48
    mesh = Mesh1D(0.0, 1.0, n)
    x = mesh.centers
    walls = bdy.make_boundary()
    cfg = sv.SolverConfig(t_end=1.0, cfl=0.3)

    def smooth(lo, hi, modes=3):
        c = rng.uniform(-1, 1, modes)
        f = sum(ci * np.cos((k + 1) * np.pi * x + rng.uniform(0, 2 * np.pi))
                for k, ci in enumerate(c))
        f = (f - f.min()) / (np.ptp(f) + 1e-300)
        return lo + (hi - lo) * f

    ordered = True
    bounded = True
    for pair in range(100):
        rho = smooth(0.5, 2.0)
        u = smooth(-0.3, 0.3) if pair % 2 else np.zeros(n)
        t_lo = smooth(0.5, 1.0)
        t_hi = t_lo + 0.1 + smooth(0.0, 0.8)
        lo_b, hi_b = 0.5 * t_lo.min(), 2.0 * t_hi.max()  # configured bounds
        dt = 0.5 * min(
            sv.stable_dt(sv.FieldState(rho=rho, u=u, theta=t_lo), mesh, eos, ts, cfg),
            sv.stable_dt(sv.FieldState(rho=rho, u=u, theta=t_hi), mesh, eos, ts, cfg))
        a, b = t_lo.copy(), t_hi.copy()
        for _ in range(200):
            a = sv.euler_step(
                sv.FieldState(rho=rho, u=u, theta=a), mesh, eos, ts, cfg, walls, dt)[2]
            b = sv.euler_step(
                sv.FieldState(rho=rho, u=u, theta=b), mesh, eos, ts, cfg, walls, dt)[2]
            if np.any(a > b + 1e-12):
                ordered = False
                break
            if a.min() < lo_b - 1e-12 or b.max() > hi_b + 1e-12:
                bounded = False
                break
        if not (ordered and bounded):
            break
    _verdict("comparison-principle", ordered and bounded,
             f"100 pairs x 200 steps at n={n}")


def test_weak_strong_surrogate():
    """Relative energy against a 4x reference at t_end = 0.25 decreases
    monotonically over n in {32, 64, 128}; envelope rate is nonnegative."""
    doc = json.loads((SCENARIO_DIR / "throughflow.json").read_text())
    doc["output_times"] = [0.0, 0.05, 0.1, 0.15, 0.2, 0.25]
    results = studies.weak_strong_study(doc, [32, 64, 128], ratio=4)
    finals = [trace.integrals[-1] for _, trace, _ in results]
    etas = [eta for _, _, (eta, _) in results]
    rates = [rate for _, _, (_, rate) in results]
    ok = (all(b < a for a, b in zip(finals, finals[1:]))
          and all(r >= 0.0 for r in rates)
          and all(b < a for a, b in zip(etas, etas[1:])))
    _verdict("weak-strong-surrogate", ok,
             f"E(t_end) {['%.2e' % v for v in finals]}, eta {['%.1e' % v for v in etas]}")


def test_mms_convergence(thermal_study):
    """Observed L1 orders within [0.8, 1.5] for all three fields on the
    damped-relaxation case at n in {32, 64, 128}; total runtime < 2 min."""
    case, study, elapsed = thermal_study
    probe = case.residual_probe(n=1024)
    ok = max(probe.values()) < 1e-6 and elapsed < 120.0 and not study.flagged
    for field in ("rho", "u", "theta"):
        ok &= 0.8 <= study.orders[field] <= 1.5
    _verdict("mms-convergence", ok,
             f"orders {ps(study.orders)}, probe {max(probe.values()):.1e}, {elapsed:.0f}s")


def ps(d):
    return {k: round(v, 2) for k, v in d.items()}
