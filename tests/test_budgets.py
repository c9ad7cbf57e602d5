import numpy as np
import pytest

from nsfsim import budgets as bg
from nsfsim import solver as sv
from nsfsim import thermo as th
from nsfsim import boundary as bd
from nsfsim.mesh import Mesh1D


# ---------------------------------------------------------------------------
# mass budget
# ---------------------------------------------------------------------------


def test_closed_box_mass_residual(closed_box_traj):
    assert abs(bg.mass_budget(closed_box_traj)) < 1e-12


def test_steady_uniform_throughflow_hand_balance(eos, transport):
    # rho = rho_b, u = u_b, theta uniform: the state is an exact discrete
    # steady state and the two-face balance closes analytically
    n = 16
    mesh = Mesh1D(0.0, 1.0, n)
    u_in = 0.5
    f_ib = -u_in * float(th.specific_internal_energy(eos, 1.0, 1.0))
    bspec = bd.make_boundary(u_b_left=u_in, u_b_right=u_in, rho_b_left=1.0,
                             F_ib_left=f_ib)
    cfg = sv.SolverConfig(t_end=0.01)
    state = sv.FieldState(rho=np.ones(n), u=np.full(n, u_in), theta=np.ones(n))
    traj = sv.run(mesh, eos, transport, cfg, bspec, state)
    np.testing.assert_allclose(traj.final_state.rho, 1.0, atol=1e-13)
    acc = traj.accums[-1]
    assert acc["mass_in_conv"] == pytest.approx(-u_in * cfg.t_end, rel=1e-12)
    assert acc["mass_out_conv"] == pytest.approx(u_in * cfg.t_end, rel=1e-12)
    assert bg.mass_budget(traj) == pytest.approx(0.0, abs=1e-13)


def test_mass_budget_window_additivity(closed_box_traj, throughflow_traj):
    for traj in (closed_box_traj, throughflow_traj):
        t0, tm, t1 = traj.times[0], traj.times[len(traj.times) // 2], traj.times[-1]
        whole = bg.mass_budget(traj, (t0, t1))
        split = bg.mass_budget(traj, (t0, tm)) + bg.mass_budget(traj, (tm, t1))
        assert whole == pytest.approx(split, abs=1e-12)


# ---------------------------------------------------------------------------
# energy budget
# ---------------------------------------------------------------------------


def test_rest_equilibrium_energy_terms_vanish(eos, transport):
    mesh = Mesh1D(0.0, 1.0, 16)
    cfg = sv.SolverConfig(t_end=0.01)
    state = sv.FieldState(rho=np.ones(16), u=np.zeros(16), theta=np.ones(16))
    traj = sv.run(mesh, eos, transport, cfg, bd.make_boundary(), state)
    residual, terms = bg.energy_budget(traj)
    assert residual == pytest.approx(0.0, abs=1e-13)
    for val in terms.values():
        assert val == pytest.approx(0.0, abs=1e-13)


def test_insulated_energy_drift_first_order_under_refinement(eos, transport):
    # with u_b = 0 the balance reduces to the insulated budget; the residual
    # is the scheme's energy drift and shrinks at least first order under
    # simultaneous (h, dt) refinement (dt follows h through the CFL bound)
    walls = bd.make_boundary()
    res = []
    for n in (16, 32, 64):
        mesh = Mesh1D(0.0, 1.0, n)
        x = mesh.centers
        initial = sv.FieldState(rho=1 + 0.08 * np.cos(np.pi * x),
                                u=0.05 * np.sin(np.pi * x),
                                theta=1 + 0.08 * np.cos(np.pi * x))
        cfg = sv.SolverConfig(t_end=0.01)
        traj = sv.run(mesh, eos, transport, cfg, walls, initial)
        res.append(abs(bg.energy_budget(traj)[0]))
    assert res[1] < 0.65 * res[0]
    assert res[2] < 0.65 * res[1]


def test_energy_budget_delta_terms_activate(eos, transport, throughflow_setup):
    mesh, ts, _, bspec, initial = throughflow_setup
    cfg = sv.SolverConfig(delta=1e-2, t_end=0.01)
    traj = sv.run(mesh, eos, ts, cfg, bspec, initial)
    _, terms = bg.energy_budget(traj)
    assert terms["outflow_delta_pressure"] > 0.0  # outflow carries u_b.n > 0
    assert terms["rhs:regularization_sources"] != 0.0
    assert terms["rhs:inflow_delta_reference"] != 0.0


def test_energy_budget_window_additivity(throughflow_traj):
    t0, tm, t1 = throughflow_traj.times
    whole, _ = bg.energy_budget(throughflow_traj, (t0, t1))
    a, _ = bg.energy_budget(throughflow_traj, (t0, tm))
    b, _ = bg.energy_budget(throughflow_traj, (tm, t1))
    assert whole == pytest.approx(a + b, abs=1e-12)


# ---------------------------------------------------------------------------
# entropy budget
# ---------------------------------------------------------------------------


def test_rest_equilibrium_entropy_production_zero(eos, transport):
    mesh = Mesh1D(0.0, 1.0, 16)
    cfg = sv.SolverConfig(t_end=0.01)
    state = sv.FieldState(rho=np.ones(16), u=np.zeros(16), theta=np.ones(16))
    traj = sv.run(mesh, eos, transport, cfg, bd.make_boundary(), state)
    production, _ = bg.entropy_budget(traj)
    assert production == pytest.approx(0.0, abs=1e-13)


def test_two_plateau_conduction_produces_entropy(eos, transport):
    mesh = Mesh1D(0.0, 1.0, 64)
    x = mesh.centers
    # well-resolved transition between two temperature plateaus
    theta = 1.0 + 0.4 / (1.0 + np.exp(-12 * (x - 0.5)))
    state = sv.FieldState(rho=np.ones(64), u=np.zeros(64), theta=theta)
    cfg = sv.SolverConfig(t_end=0.01)
    traj = sv.run(mesh, eos, transport, cfg, bd.make_boundary(), state)
    production, terms = bg.entropy_budget(traj)
    assert production > 0.0
    assert terms["dissipation"] > 0.0


def test_entropy_budget_window_additivity(closed_box_traj):
    times = closed_box_traj.times
    whole, _ = bg.entropy_budget(closed_box_traj, (times[0], times[-1]))
    parts = sum(bg.entropy_budget(closed_box_traj, w)[0]
                for w in zip(times[:-1], times[1:]))
    assert whole == pytest.approx(parts, abs=1e-12)


def test_throughflow_entropy_production_nonnegative(throughflow_traj):
    production, _ = bg.entropy_budget(throughflow_traj)
    tol = 1e-8 * throughflow_traj.mesh.measure * throughflow_traj.times[-1]
    assert production >= -tol


def test_regularized_entropy_production_is_gauge_free(transport):
    # the Robin inflow mass flux carries entropy: the production must not
    # move with the additive entropy constant
    n = 32
    mesh = Mesh1D(0.0, 1.0, n)
    x = mesh.centers
    bspec = bd.make_boundary(u_b_left=0.5, u_b_right=0.5, rho_b_left=1.05,
                             F_ib_left=-2.5)
    cfg = sv.SolverConfig(epsilon=1e-3, delta=1e-3, t_end=0.005)
    initial = sv.FieldState(rho=1 + 0.02 * np.sin(np.pi * x), u=np.full(n, 0.5),
                            theta=1 + 0.2 * x ** 2 * (3 - 2 * x))
    prods = [bg.entropy_budget(sv.run(mesh, th.iconic_eos(entropy_const=c), transport,
                                      cfg, bspec, initial))[0]
             for c in (0.0, 5.0, -5.0)]
    assert prods[1] == pytest.approx(prods[0], rel=1e-9)
    assert prods[2] == pytest.approx(prods[0], rel=1e-9)


# ---------------------------------------------------------------------------
# a priori monitors
# ---------------------------------------------------------------------------


def test_rest_state_at_reference_temperature_has_zero_dissipation(eos, transport):
    mesh = Mesh1D(0.0, 1.0, 16)
    cfg = sv.SolverConfig(t_end=0.01, theta_bar=1.0)
    state = sv.FieldState(rho=np.ones(16), u=np.zeros(16), theta=np.ones(16))
    traj = sv.run(mesh, eos, transport, cfg, bd.make_boundary(), state)
    monitors = bg.apriori_monitor(traj)
    assert monitors["dissipation_integral"] == pytest.approx(0.0, abs=1e-14)


def test_monitors_finite_and_nondecreasing(eos, transport, throughflow_setup):
    mesh, ts, _, bspec, initial = throughflow_setup
    cfg = sv.SolverConfig(epsilon=1e-3, delta=1e-3, t_end=0.04)
    traj = sv.run(mesh, eos, ts, cfg, bspec, initial,
                  output_times=[0.0, 0.02, 0.04])
    full = bg.apriori_monitor(traj)
    assert all(np.isfinite(v) for v in full.values())
    # cumulative quantities grow with the horizon
    acc_half = traj.accum_at(0.02)
    acc_full = traj.accum_at(0.04)
    for key in ("dissipation_no_delta", "theta5", "inv_theta3",
                "apriori_in_coercive"):
        assert acc_full[key] >= acc_half[key] - 1e-14


def test_monitor_reweighting_is_linear(eos, transport, throughflow_setup):
    mesh, ts, _, bspec, initial = throughflow_setup
    cfg = sv.SolverConfig(epsilon=1e-3, delta=1e-3, t_end=0.02)
    traj = sv.run(mesh, eos, ts, cfg, bspec, initial)
    base = bg.apriori_monitor(traj)
    halved = bg.apriori_monitor(traj, epsilon=cfg.epsilon / 2, delta=cfg.delta / 2)
    for key in ("delta_inv_theta3", "eps_theta5", "delta_boundary"):
        assert halved[key] == pytest.approx(0.5 * base[key], rel=1e-12)
    assert halved["eps_delta_grad_rho"] == pytest.approx(
        0.25 * base["eps_delta_grad_rho"], rel=1e-12)


def test_audit_report_shape(throughflow_traj):
    report = bg.audit(throughflow_traj)
    assert set(report.verdicts) == {"mass", "energy", "entropy"}
    assert report.passed
    assert report.verdicts["entropy"]["passed"] == (
        report.entropy_production >= -report.verdicts["entropy"]["tol"])


# ---------------------------------------------------------------------------
# weak-strong trace
# ---------------------------------------------------------------------------


def test_weak_strong_identical_inputs_zero_trace(closed_box_traj):
    trace, (eta, rate) = bg.weak_strong_trace(closed_box_traj, closed_box_traj)
    assert np.all(trace.integrals == 0.0)
    assert eta == 0.0 and rate == 0.0


def test_weak_strong_requires_compatible_meshes(eos, transport, closed_box_traj):
    mesh = Mesh1D(0.0, 1.0, 96)  # 2x: neither identical nor >= 4x
    x = mesh.centers
    cfg = sv.SolverConfig(t_end=0.04)
    initial = sv.FieldState(rho=1 + 0.1 * np.cos(np.pi * x), u=np.zeros(96),
                            theta=1 + 0.1 * np.cos(np.pi * x))
    fine = sv.run(mesh, eos, transport, cfg, bd.make_boundary(), initial,
                  output_times=[0.0, 0.01, 0.02, 0.03, 0.04])
    with pytest.raises(ValueError):
        bg.weak_strong_trace(closed_box_traj, fine)


def test_weak_strong_refinement_decreases_distance(eos, transport):
    mesh_kw = dict(x_left=0.0, x_right=1.0)
    walls = bd.make_boundary()
    finals = []
    for n in (16, 32):
        coarse_mesh = Mesh1D(n_cells=n, **mesh_kw)
        fine_mesh = Mesh1D(n_cells=4 * n, **mesh_kw)
        runs = []
        for mesh in (coarse_mesh, fine_mesh):
            x = mesh.centers
            initial = sv.FieldState(rho=1 + 0.1 * np.cos(np.pi * x),
                                    u=np.zeros(mesh.n_cells),
                                    theta=1 + 0.1 * np.cos(np.pi * x))
            cfg = sv.SolverConfig(t_end=0.02)
            runs.append(sv.run(mesh, eos, transport, cfg, walls, initial,
                               output_times=[0.0, 0.01, 0.02]))
        trace, (eta, rate) = bg.weak_strong_trace(*runs)
        assert rate >= 0.0
        finals.append(trace.integrals[-1])
    assert finals[1] < finals[0]


def test_gronwall_envelope_fits_trace():
    times = np.linspace(0.0, 1.0, 6)
    values = 0.5 * np.exp(2.0 * times)
    eta, rate = bg.gronwall_envelope(times, values)
    assert rate == pytest.approx(2.0, rel=1e-6)
    assert np.all(values <= (values[0] + eta) * np.exp(rate * times) + 1e-12)
