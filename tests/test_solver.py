import dataclasses
import inspect
import warnings

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from nsfsim import boundary as bd
from nsfsim import solver as sv
from nsfsim import thermo as th
from nsfsim.mesh import Mesh1D

from conftest import SEED


def _uniform_state(n, rho=1.0, u=0.0, theta=1.0):
    return sv.FieldState(rho=np.full(n, rho), u=np.full(n, u), theta=np.full(n, theta))


@pytest.fixture
def box():
    return Mesh1D(0.0, 1.0, 32), bd.make_boundary()


# ---------------------------------------------------------------------------
# constitutive building blocks
# ---------------------------------------------------------------------------


def test_viscous_stress_examples():
    cfg = sv.SolverConfig(t_end=1.0)
    one = lambda t: np.ones_like(np.asarray(t, dtype=float))
    ts = th.TransportSpec(mu_fn=one)
    assert float(sv.viscous_stress(ts, cfg, 1.0, 1.0)) == pytest.approx(4.0 / 3.0)
    assert float(sv.viscous_stress(ts, cfg, 1.0, 0.0)) == 0.0
    ts2 = th.TransportSpec(mu_fn=one, eta_fn=one)
    cfg2 = sv.SolverConfig(d=2, t_end=1.0)
    assert float(sv.viscous_stress(ts2, cfg2, 1.0, 1.0)) == pytest.approx(2.0)


def test_viscous_stress_delta_term():
    cfg = sv.SolverConfig(delta=0.5, t_end=1.0)
    ts = th.TransportSpec(mu_fn=lambda t: np.ones_like(np.asarray(t, dtype=float)))
    # (1 + 0.5 * 2) * 4/3
    assert float(sv.viscous_stress(ts, cfg, 2.0, 1.0)) == pytest.approx(2.0 * 4.0 / 3.0)


def test_heat_flux_examples(transport):
    cfg = sv.SolverConfig(t_end=1.0)
    assert float(sv.heat_flux(transport, cfg, 1.0, 1.0)) == pytest.approx(-2.0)
    assert float(sv.heat_flux(transport, cfg, 1.0, 0.0)) == 0.0
    cfg3 = sv.SolverConfig(delta=1.0, Gamma=3.0, t_end=1.0)
    assert float(sv.heat_flux(transport, cfg3, 1.0, 1.0)) == pytest.approx(-4.0)


# ---------------------------------------------------------------------------
# convective fluxes
# ---------------------------------------------------------------------------


def test_upwind_takes_upstream_cell(eos, transport):
    mesh = Mesh1D(0.0, 1.0, 4)
    bspec = bd.make_boundary()
    state = sv.FieldState(rho=np.array([1.0, 2.0, 3.0, 4.0]),
                          u=np.full(4, 0.5), theta=np.ones(4))
    cfg = sv.SolverConfig(t_end=1.0)
    f_mass, _, _, u_face, _ = sv.convective_fluxes(state, mesh, bspec, eos, cfg)
    # interior face 1 sits between cells 0 and 1; u > 0 picks the left donor
    assert f_mass[1] == pytest.approx(1.0 * u_face[1])
    assert f_mass[2] == pytest.approx(2.0 * u_face[2])


def test_inflow_face_donates_prescribed_density(eos):
    mesh = Mesh1D(0.0, 1.0, 4)
    bspec = bd.make_boundary(u_b_left=1.0, u_b_right=1.0, rho_b_left=2.0,
                             F_ib_left=-9.0)
    state = _uniform_state(4, rho=1.0, u=1.0)
    cfg = sv.SolverConfig(t_end=1.0)
    f_mass, _, _, _, _ = sv.convective_fluxes(state, mesh, bspec, eos, cfg)
    # outward-normal flux at the left face: rho_b u_b . n = -2
    assert -f_mass[0] == pytest.approx(2.0 * (1.0 * -1.0))


def test_uniform_closed_state_has_flat_fluxes(eos):
    mesh = Mesh1D(0.0, 1.0, 8)
    state = _uniform_state(8, rho=1.3, u=0.0, theta=0.9)
    cfg = sv.SolverConfig(t_end=1.0)
    f_mass, f_mom, f_energy, _, _ = sv.convective_fluxes(
        state, mesh, bd.make_boundary(), eos, cfg)
    for f in (f_mass, f_mom, f_energy):
        assert np.all(f == f[0])


# ---------------------------------------------------------------------------
# individual balance updates
# ---------------------------------------------------------------------------


def test_continuity_uniform_box_unchanged(eos, transport, box):
    mesh, walls = box
    state = _uniform_state(32, rho=1.7)
    cfg = sv.SolverConfig(t_end=1.0)
    rho_new = sv.euler_step(state, mesh, eos, transport, cfg, walls, 1e-4)[0]
    np.testing.assert_array_equal(rho_new, state.rho)


def test_robin_flux_vanishes_at_matched_density(eos, transport):
    mesh = Mesh1D(0.0, 1.0, 16)
    bspec = bd.make_boundary(u_b_left=0.5, u_b_right=0.5, rho_b_left=1.0,
                             F_ib_left=-2.0)
    state = _uniform_state(16, rho=1.0, u=0.5)
    base = sv.SolverConfig(t_end=1.0)
    reg = sv.SolverConfig(epsilon=0.1, t_end=1.0)
    r0 = sv.euler_step(state, mesh, eos, transport, base, bspec, 1e-4)[0]
    r1 = sv.euler_step(state, mesh, eos, transport, reg, bspec, 1e-4)[0]
    np.testing.assert_allclose(r0, r1, atol=1e-15)


def test_robin_flux_booked_only_with_mass_diffusion(throughflow_traj):
    # at epsilon = 0 no Robin flux enters the update, so none is booked
    acc = throughflow_traj.accums[-1]
    conv_in, conv_out = acc["mass_in_conv"], acc["mass_out_conv"]
    assert acc["mass_robin"] == 0.0
    # the two convective terms nearly cancel; rounding scales with their size
    assert acc["mass_bdry"] == pytest.approx(conv_in + conv_out, rel=0.0,
                                             abs=1e-13 * (abs(conv_in) + abs(conv_out)))


def test_mass_change_telescopes_to_boundary_fluxes(eos, transport, rng):
    mesh = Mesh1D(0.0, 1.0, 24)
    bspec = bd.make_boundary(u_b_left=0.4, u_b_right=0.4, rho_b_left=1.1,
                             F_ib_left=-2.5)
    state = sv.FieldState(rho=1 + 0.2 * rng.random(24), u=0.4 + 0.1 * rng.random(24),
                          theta=1 + 0.2 * rng.random(24))
    cfg = sv.SolverConfig(epsilon=1e-3, t_end=1.0)
    dt = 0.5 * sv.stable_dt(state, mesh, eos, transport, cfg)
    new_state, dt_used, inc, _ = sv.step(state, mesh, eos, transport, cfg, bspec, dt)
    dmass = mesh.integrate(new_state.rho) - mesh.integrate(state.rho)
    assert dmass == pytest.approx(-inc["mass_bdry"], abs=1e-12)


def test_hydrostatic_rest_keeps_zero_momentum(eos, transport, box):
    mesh, walls = box
    state = _uniform_state(32, rho=1.2, theta=0.8)
    cfg = sv.SolverConfig(t_end=1.0)
    m_new = sv.euler_step(state, mesh, eos, transport, cfg, walls, 1e-4)[1]
    np.testing.assert_array_equal(m_new, np.zeros(32))


def test_momentum_update_matches_hand_assembled_operator(eos):
    # uniform rho/theta (hence uniform pressure), linear velocity profile,
    # constant transport coefficients: the update must equal the hand-built
    # upwind-convection + viscous tridiagonal operator applied to u
    n = 16
    mesh = Mesh1D(0.0, 1.0, n)
    h = mesh.h
    x = mesh.centers
    one = lambda t: np.ones_like(np.asarray(t, dtype=float))
    ts = th.TransportSpec(mu_fn=one, eta_fn=lambda t: 0.0 * np.asarray(t, dtype=float))
    cfg = sv.SolverConfig(t_end=1.0)
    u = 0.3 * x + 0.1
    state = sv.FieldState(rho=np.ones(n), u=u.copy(), theta=np.ones(n))
    bspec = bd.make_boundary(u_b_left=u[0], u_b_right=u[-1], rho_b_left=1.0,
                             F_ib_left=-3.0)
    dm = sv.euler_step(state, mesh, eos, ts, cfg, bspec, 1.0)[1] - state.rho * u

    u_pad = np.concatenate([[u[0]], u, [u[-1]]])  # inflow ghost u_b, outflow copy
    u_face = 0.5 * (u_pad[:-1] + u_pad[1:])
    u_face[0], u_face[-1] = u[0], u[-1]
    donor = np.where(u_face >= 0, np.concatenate([[1.0 * u_pad[0]], u]),
                     np.concatenate([u, [u_pad[-1]]]))
    conv = -(np.diff(donor * u_face * 1.0)) / h
    visc_coeff = 1.0 * (4.0 / 3.0)
    stress = visc_coeff * np.diff(u_pad) / h
    stress[0] = visc_coeff * (u[0] - u_pad[0]) / h
    visc = np.diff(stress) / h
    np.testing.assert_allclose(dm, conv + visc, atol=1e-12)


def test_delta_pressure_gradient_vanishes_for_uniform_density(eos, transport, box):
    mesh, walls = box
    state = _uniform_state(32, rho=1.5, theta=1.1)
    plain = sv.SolverConfig(t_end=1.0)
    reg = sv.SolverConfig(delta=0.3, t_end=1.0)
    m0 = sv.euler_step(state, mesh, eos, transport, plain, walls, 1e-4)[1]
    m1 = sv.euler_step(state, mesh, eos, transport, reg, walls, 1e-4)[1]
    np.testing.assert_allclose(m0, m1, atol=1e-14)


def test_closed_insulated_internal_energy_constant(eos, transport, box):
    mesh, walls = box
    x = mesh.centers
    state = sv.FieldState(rho=1 + 0.1 * np.cos(np.pi * x), u=np.zeros(32),
                          theta=1 + 0.1 * np.cos(np.pi * x))
    cfg = sv.SolverConfig(t_end=1.0)
    dt = 1e-5
    theta_new = sv.euler_step(state, mesh, eos, transport, cfg, walls, dt)[2]
    w_old = state.rho * np.asarray(th.specific_internal_energy(eos, state.rho, state.theta))
    w_new = state.rho * np.asarray(th.specific_internal_energy(eos, state.rho, theta_new))
    assert mesh.integrate(w_new) == pytest.approx(mesh.integrate(w_old), abs=1e-12)


def test_delta_source_heats_uniform_box(eos, transport, box):
    mesh, walls = box
    state = _uniform_state(32)
    cfg = sv.SolverConfig(delta=0.2, t_end=1.0)
    dt = 1e-5
    theta_new = sv.euler_step(state, mesh, eos, transport, cfg, walls, dt)[2]
    w_old = state.rho * (np.asarray(th.specific_internal_energy(eos, 1.0, 1.0))
                         + cfg.delta * 1.0)
    w_new = state.rho * (np.asarray(th.specific_internal_energy(eos, state.rho, theta_new))
                         + cfg.delta * theta_new)
    # the delta/theta^2 source adds delta * dt per unit volume at theta = 1
    np.testing.assert_allclose(w_new - w_old, cfg.delta * dt, rtol=1e-8)


@pytest.mark.parametrize("channel", [False, True])
def test_stage_evaluates_each_closure_once(eos, transport, monkeypatch, channel):
    n = 16
    mesh = Mesh1D(0.0, 1.0, n)
    x = mesh.centers
    if channel:
        bspec = bd.make_boundary(u_b_left=0.5, u_b_right=0.5, rho_b_left=1.1,
                                 F_ib_left=-2.5)
        cfg = sv.SolverConfig(epsilon=1e-3, delta=1e-3, t_end=1.0)
        u = 0.5 + 0.05 * np.sin(np.pi * x)
    else:
        bspec = bd.make_boundary()
        cfg = sv.SolverConfig(t_end=1.0)
        u = 0.05 * np.sin(np.pi * x)
    state = sv.FieldState(rho=1 + 0.1 * np.cos(np.pi * x), u=u,
                          theta=1 + 0.1 * np.cos(np.pi * x))
    calls = _count_thermo_calls(monkeypatch)
    sv._stage_rhs(mesh, eos, transport, cfg, bspec, 0.0, state)
    assert calls == {"stage_closures": 1}


def _count_thermo_calls(monkeypatch, log=None):
    """Count the thermo functions the solver calls, by name; ``log`` gets
    the (name, args) of each call."""
    calls = {}
    for name, fn in list(vars(sv).items()):
        if inspect.isfunction(fn) and fn.__module__ == th.__name__:
            def counted(*args, _fn=fn, _name=name, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                if log is not None:
                    log.append((_name, args))
                return _fn(*args, **kwargs)
            monkeypatch.setattr(sv, name, counted)
    return calls


def _log_newton_iterates(monkeypatch, log):
    """Log ("iterate", (theta,)) for each evaluation of every residual the
    solver builds."""
    build = sv.energy_density_residual

    def logged_build(*args, **kwargs):
        residual = build(*args, **kwargs)

        def logged(theta):
            log.append(("iterate", (theta,)))
            return residual(theta)
        return logged
    monkeypatch.setattr(sv, "energy_density_residual", logged_build)


def _count_shape_calls(monkeypatch, eos):
    """Count the pressure-shape evaluations of ``eos``, by method name."""
    calls = {}
    shape = eos.shape_fn
    for name in ("p", "dp", "p_dp", "entropy_shape", "entropy_shape_slope"):
        def counted(*args, _fn=getattr(shape, name), _name=name):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args)
        monkeypatch.setattr(shape, name, counted)
    return calls


@pytest.mark.parametrize("delta", [0.0, 1e-3])
@pytest.mark.parametrize("eos_name", ["eos", "eos_table"])
def test_recover_theta_one_fused_call_per_newton_iterate(eos_name, delta, monkeypatch,
                                                         request):
    # one residual build per recovery; a Newton iterate makes one p_dp on the
    # table and no EOS call at all on the iconic quartic
    eos = request.getfixturevalue(eos_name)
    cfg = sv.SolverConfig(delta=delta, t_end=1.0)
    x = np.linspace(0.0, 1.0, 16)
    rho = 1.0 + 0.1 * np.cos(np.pi * x)
    theta_true = 1.0 + 0.1 * np.sin(np.pi * x)
    w = rho * cfg.internal_energy(eos, rho, theta_true)
    log = []
    calls = _count_thermo_calls(monkeypatch, log)
    _log_newton_iterates(monkeypatch, log)
    shape_calls = _count_shape_calls(monkeypatch, eos)
    theta = sv._recover_theta(eos, cfg, rho, w, 1.05 * theta_true)
    np.testing.assert_allclose(theta, theta_true, rtol=1e-12)
    iterates = [args[0] for name, args in log if name == "iterate"]
    assert len(iterates) >= 2
    assert calls == {"energy_density_residual": 1, "specific_internal_energy": 1}
    assert all(args[3] == delta for name, args in log if name == "energy_density_residual")
    per_iterate = {"p_dp": len(iterates)} if eos.shape == "table" else {}
    assert shape_calls == {**per_iterate, "p": 1}  # p: the final residual check
    # each call is a new Newton iterate, and the residual check sees the last one
    assert all(not np.array_equal(a, b) for a, b in zip(iterates, iterates[1:]))
    assert log[-1][0] == "specific_internal_energy"


def test_step_thermo_calls_do_not_grow_with_newton_iterates(eos, transport, box,
                                                            monkeypatch):
    mesh, walls = box
    x = mesh.centers
    state = sv.FieldState(rho=1 + 0.1 * np.cos(np.pi * x), u=0.05 * np.sin(np.pi * x),
                          theta=1 + 0.1 * np.cos(np.pi * x))
    cfg = sv.SolverConfig(t_end=1.0)
    dt0 = sv.stable_dt(state, mesh, eos, transport, cfg)
    # two stages of one (p, e, s) pass; two recoveries, each one residual
    # build and one residual check through e
    expected = {"stage_closures": 2, "specific_internal_energy": 2,
                "energy_density_residual": 2}
    iterates = []
    for dt in (1e-9 * dt0, dt0):
        log = []
        with monkeypatch.context() as mp:
            calls = _count_thermo_calls(mp, log)
            _log_newton_iterates(mp, log)
            assert sv.step(state, mesh, eos, transport, cfg, walls, dt)[3] == 0
        assert calls == expected
        iterates.append(sum(name == "iterate" for name, _ in log))
    assert iterates[0] < iterates[1]


@pytest.mark.parametrize("delta", [0.0, 1e-3])
def test_iconic_recovery_matches_generic_residual(eos, delta, rng):
    # reference: the bracketed solve through the table-style residual
    # (Z, then P and P', then the closure formulas) written out
    cfg = sv.SolverConfig(delta=delta, t_end=1.0)
    rho = rng.uniform(0.1, 10.0, 64)
    theta_true = rng.uniform(0.1, 10.0, 64)
    w = rho * cfg.internal_energy(eos, rho, theta_true)

    def generic(theta):
        p, dp = eos.shape_fn.p_dp(th._zvar(rho, theta))
        return (rho * (th._energy(eos, rho, theta, p) + delta * theta) - w,
                rho * (th._energy_theta(eos, rho, theta, p, dp) + delta))

    reference = th._solve_monotone_theta(generic, 1e-10, 1e9)
    np.testing.assert_allclose(sv._recover_theta(eos, cfg, rho, w, 1.05 * theta_true),
                               reference, rtol=1e-13)
    np.testing.assert_allclose(th.temperature_from_energy_density(eos, rho, w, delta),
                               reference, rtol=1e-13)


@pytest.mark.parametrize("delta", [0.0, 1e-3])
@pytest.mark.parametrize("eos_name", ["eos", "eos_table"])
def test_recover_theta_falls_back_to_bisection(eos_name, delta, monkeypatch, request):
    # from 1e8 theta the damped Newton contracts by about 3/4 per iterate and
    # cannot arrive within its 40 iterates: the bracketed solve takes over
    eos = request.getfixturevalue(eos_name)
    cfg = sv.SolverConfig(delta=delta, t_end=1.0)
    x = np.linspace(0.0, 1.0, 16)
    rho = 1.0 + 0.1 * np.cos(np.pi * x)
    theta_true = 1.0 + 0.1 * np.sin(np.pi * x)
    w = rho * cfg.internal_energy(eos, rho, theta_true)
    calls = _count_thermo_calls(monkeypatch)
    theta = sv._recover_theta(eos, cfg, rho, w, 1e8 * theta_true)
    assert calls["temperature_from_energy_density"] == 1
    np.testing.assert_allclose(theta, theta_true, rtol=1e-12)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
@pytest.mark.parametrize("eos_name", ["eos", "eos_table"])
def test_recover_theta_names_nonfinite_energy_density(eos_name, bad, request):
    eos = request.getfixturevalue(eos_name)
    cfg = sv.SolverConfig(t_end=1.0)
    rho = np.ones(8)
    theta = np.ones(8)
    w = rho * cfg.internal_energy(eos, rho, theta)
    w[3] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(sv.StepRejected, match="energy density is not finite at cell 3"):
            sv._recover_theta(eos, cfg, rho, w, theta)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
@pytest.mark.parametrize("eos_name", ["eos", "eos_table"])
def test_recover_theta_names_nonfinite_density(eos_name, bad, request):
    # NaN passes a `rho < floor` test; it must reject the step, not recover
    eos = request.getfixturevalue(eos_name)
    cfg = sv.SolverConfig(t_end=1.0)
    rho = np.ones(8)
    theta = np.ones(8)
    w = rho * cfg.internal_energy(eos, rho, theta)
    rho[3] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(sv.StepRejected, match="^density is not finite at cell 3$"):
            sv._recover_theta(eos, cfg, rho, w, theta)


def test_euler_step_floor_rejects_nan_density(eos, transport, box, monkeypatch):
    mesh, walls = box
    state = _uniform_state(32)
    drho = np.zeros(32)
    drho[3] = np.nan
    stage = sv._stage_rhs(mesh, eos, transport, sv.SolverConfig(t_end=1.0), walls, 0.0, state)
    monkeypatch.setattr(sv, "_stage_rhs", lambda *a: (drho,) + stage[1:])
    with pytest.raises(sv.StepRejected, match="density fell below its floor"):
        sv.euler_step(state, mesh, eos, transport, sv.SolverConfig(t_end=1.0), walls, 1e-4)


def _newton_to_old_rule(residual, theta):
    """The recovery's Newton iteration, stopped by the former rule: after a
    step below 1e-14 theta."""
    for _ in range(40):
        f, df = residual(theta)
        step = f / df
        theta_new = theta - step
        theta = np.where(theta_new > 0.1 * theta, theta_new, 0.1 * theta)
        if np.max(np.abs(step) / theta) < 1e-14:
            break
    return theta


@seed(SEED)
@settings(max_examples=200, deadline=None)
@given(rho=st.floats(1e-2, 1e2), theta=st.floats(1e-2, 1e2), delta=st.floats(0.0, 0.1),
       offset=st.floats(-0.3, 0.3), table=st.booleans())
def test_recover_theta_stop_rule_property(eos, eos_table, rho, theta, delta, offset, table):
    # stopping after a step below 1e-8 theta omits only the next step, which
    # quadratic convergence puts near 1e-16 theta.  A table residual also
    # rounds about ten terms of size w, which no stop rule resolves below
    # 16 eps |w| / (d w / d theta)
    eos = eos_table if table else eos
    cfg = sv.SolverConfig(delta=delta, t_end=1.0)
    rho = np.array([rho])
    w = rho * cfg.internal_energy(eos, rho, np.array([theta]))
    guess = np.array([theta * (1.0 + offset)])
    residual = th.energy_density_residual(eos, rho, w, delta)
    reference = _newton_to_old_rule(residual, guess)
    tol = 1e-15 * reference
    if table:
        tol = tol + 16.0 * np.finfo(float).eps * w / residual(reference)[1]
    assert np.abs(sv._recover_theta(eos, cfg, rho, w, guess) - reference) <= tol


def test_box_recovery_takes_at_most_two_residual_evaluations(eos, transport, monkeypatch):
    # a box128-like step: the stage's change of theta is small, so the first
    # Newton step is below 1e-8 theta or the second one is
    mesh = Mesh1D(0.0, 1.0, 128)
    x = mesh.centers
    state = sv.FieldState(rho=1 + 0.03 * np.cos(np.pi * x) - 0.02 * np.cos(3 * np.pi * x),
                          u=0.06 * np.sin(np.pi * x) + 0.04 * np.sin(2 * np.pi * x),
                          theta=1 + 0.05 * np.cos(2 * np.pi * x))
    cfg = sv.SolverConfig(t_end=1.0)
    dt = sv.stable_dt(state, mesh, eos, transport, cfg)
    log = []
    _log_newton_iterates(monkeypatch, log)
    build = sv.energy_density_residual
    monkeypatch.setattr(sv, "energy_density_residual",
                        lambda *a, **k: log.append(("build", ())) or build(*a, **k))
    sv.step(state, mesh, eos, transport, cfg, bd.make_boundary(), dt)
    names = "".join("b" if name == "build" else "i" for name, _ in log)
    assert names.count("b") == 2
    assert all(1 <= len(run) <= 2 for run in names.split("b")[1:]), names


def test_recover_theta_checks_guess_once(eos):
    cfg = sv.SolverConfig(t_end=1.0)
    with pytest.raises(th.EosDomainError, match="temperature must be positive"):
        sv._recover_theta(eos, cfg, np.ones(3), np.full(3, 4.0), np.array([1.0, 0.0, 1.0]))


@pytest.mark.parametrize("channel", [False, True])
def test_stage_scalars_are_one_stacked_quadrature(eos, transport, monkeypatch, channel):
    # every volume scalar comes from one (K, n) reduction, bitwise equal to
    # the midpoint quadrature of the cell integrand
    n = 16
    mesh = Mesh1D(0.0, 1.0, n)
    x = mesh.centers
    if channel:
        bspec = bd.make_boundary(u_b_left=0.5, u_b_right=0.7, rho_b_left=1.1,
                                 F_ib_left=-2.5)
        cfg = sv.SolverConfig(epsilon=1e-3, delta=1e-3, t_end=1.0,
                              energy_source=lambda t, x: 0.1 * np.sin(np.pi * x))
        u = 0.5 + 0.2 * x + 0.05 * np.sin(np.pi * x)
    else:
        bspec = bd.make_boundary()
        cfg = sv.SolverConfig(t_end=1.0)
        u = 0.05 * np.sin(np.pi * x)
    state = sv.FieldState(rho=1 + 0.1 * np.cos(np.pi * x), u=u,
                          theta=1 + 0.1 * np.cos(np.pi * x))
    reductions = []
    integrate = Mesh1D.integrate
    monkeypatch.setattr(Mesh1D, "integrate",
                        lambda self, v: reductions.append(v) or integrate(self, v))
    _, _, _, rec = sv._stage_rhs(mesh, eos, transport, cfg, bspec, 0.0, state)
    assert reductions == []
    sc = rec.scalars
    assert sc["S_grad_u"] == integrate(mesh, rec.cells["dissipation"])
    assert sc["p_div_u"] == integrate(mesh, rec.cells["p_div_u"])
    assert all(type(sc[k]) is float for k in ("S_grad_u", "p_div_u", "dissipation",
                                               "theta5", "rho_g_rel_u"))
    active = {"S_grad_ub", "conv_p_grad_ub", "rho_u_grad_ub2", "eps_mom_ub",
              "mms_energy_source", "mms_energy_source_over_theta"}
    assert all((sc[k] != 0.0) == channel for k in active)
    if channel:
        mms = 0.1 * np.sin(np.pi * x)
        assert sc["mms_energy_source"] == integrate(mesh, mms)
        assert sc["mms_energy_source_over_theta"] == integrate(mesh, mms / state.theta)


def test_uniform_compression_source(eos, transport):
    # u = -x gives div u = -1, so the pressure-work source is +p per cell
    n = 16
    mesh = Mesh1D(0.0, 1.0, n)
    x = mesh.centers
    state = sv.FieldState(rho=np.ones(n), u=-x, theta=np.ones(n))
    bspec = bd.make_boundary(u_b_left=0.0, u_b_right=-1.0, rho_b_left=None,
                             F_ib_left=None, rho_b_right=1.0, F_ib_right=-5.0)
    cfg = sv.SolverConfig(t_end=1.0)
    _, _, _, rec = sv._stage_rhs(mesh, eos, transport, cfg, bspec, 0.0, state)
    p = float(th.pressure(eos, 1.0, 1.0))
    np.testing.assert_allclose(rec.cells["p_div_u"][1:-1], -p, rtol=1e-12)


# ---------------------------------------------------------------------------
# stable_dt
# ---------------------------------------------------------------------------


def test_stable_dt_parabolic_scaling(eos, transport):
    cfg = sv.SolverConfig(t_end=1.0)
    dts = []
    for n in (32, 64):
        mesh = Mesh1D(0.0, 1.0, n)
        dts.append(sv.stable_dt(_uniform_state(n), mesh, eos, transport, cfg))
    assert dts[0] / dts[1] == pytest.approx(4.0, rel=1e-12)


def test_stable_dt_acoustic_limit(eos):
    # vanishing transport coefficients leave the acoustic constraint
    tiny = lambda t: 1e-12 * np.ones_like(np.asarray(t, dtype=float))
    ts = th.TransportSpec(mu_fn=tiny, kappa_fn=tiny)
    cfg = sv.SolverConfig(t_end=1.0)
    mesh = Mesh1D(0.0, 1.0, 32)
    dt = sv.stable_dt(_uniform_state(32), mesh, eos, ts, cfg)
    cs = float(np.sqrt(th.sound_speed_sq(eos, 1.0, 1.0)))
    assert dt == pytest.approx(cfg.cfl * mesh.h / cs, rel=1e-6)


@pytest.mark.parametrize("delta", [0.0, 1e-3])
@pytest.mark.parametrize("eos_name", ["eos", "eos_table"])
def test_stable_dt_makes_one_thermo_call(eos_name, delta, transport, monkeypatch, request):
    eos = request.getfixturevalue(eos_name)
    cfg = sv.SolverConfig(delta=delta, t_end=1.0)
    mesh = Mesh1D(0.0, 1.0, 32)
    x = mesh.centers
    rho, u, theta = 1 + 0.1 * np.cos(np.pi * x), 0.3 * np.sin(np.pi * x), 1 + 0.2 * x
    calls = _count_thermo_calls(monkeypatch)
    dt = sv.stable_dt(sv.FieldState(rho=rho, u=u, theta=theta), mesh, eos, transport, cfg)
    assert calls == {"sound_speed_sq_and_energy_slope": 1}
    # bitwise the limit written out with the separate closures
    h = mesh.h
    cs = np.sqrt(th.sound_speed_sq(eos, rho, theta))
    nu = cfg.viscosity(transport, theta) / rho
    chi = cfg.conductivity(transport, theta) / (rho * (th.energy_theta_slope(eos, rho, theta)
                                                       + delta))
    assert dt == cfg.cfl * float(min(h / np.max(np.abs(u) + cs),
                                     h * h / (2.0 * max(np.max(nu), 1e-300)),
                                     h * h / (2.0 * max(np.max(chi), 1e-300))))


def test_sound_speed_margin_oracle(eos_a0):
    # c^2 = dp/drho + p_theta^2 theta / (rho^2 e_theta), via the margins and
    # a finite-difference p_theta at the iconic a = 0 state (1, 1)
    h = 1e-6
    p_t = (th.pressure(eos_a0, 1.0, 1.0 + h) - th.pressure(eos_a0, 1.0, 1.0 - h)) / (2 * h)
    dp, de = th.stability_margins(eos_a0, 1.0, 1.0)
    cs2 = float(dp) + float(p_t) ** 2 / float(de)
    assert float(th.sound_speed_sq(eos_a0, 1.0, 1.0)) == pytest.approx(cs2, rel=1e-8)
    assert cs2 == pytest.approx(8.0 / 3.0 + 2.0 / 3.0, rel=1e-6)


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------


def test_rest_equilibrium_is_fixed_point(eos, transport, box):
    mesh, walls = box
    state = _uniform_state(32, rho=1.1, theta=0.9)
    cfg = sv.SolverConfig(t_end=1.0)
    dt = sv.stable_dt(state, mesh, eos, transport, cfg)
    new, _, _, _ = sv.step(state, mesh, eos, transport, cfg, walls, dt)
    assert np.max(np.abs(new.rho - state.rho)) < 1e-13
    assert np.max(np.abs(new.u)) < 1e-13
    assert np.max(np.abs(new.theta - state.theta)) < 1e-13


def test_two_half_steps_richardson(eos, transport, box):
    mesh, walls = box
    x = mesh.centers
    state = sv.FieldState(rho=1 + 0.05 * np.cos(np.pi * x),
                          u=0.05 * np.sin(np.pi * x),
                          theta=1 + 0.05 * np.cos(np.pi * x))
    cfg = sv.SolverConfig(t_end=1.0)
    base_dt = 0.25 * sv.stable_dt(state, mesh, eos, transport, cfg)
    diffs = []
    for dt in (base_dt, base_dt / 2.0):
        full, _, _, _ = sv.step(state, mesh, eos, transport, cfg, walls, dt)
        half, _, _, _ = sv.step(state, mesh, eos, transport, cfg, walls, dt / 2)
        half, _, _, _ = sv.step(half, mesh, eos, transport, cfg, walls, dt / 2, t=dt / 2)
        diffs.append(np.max(np.abs(full.theta - half.theta)))
    # second-order stages: the one-step vs two-half-step gap shrinks ~ dt^3
    assert diffs[1] < diffs[0] / 6.0


def test_reversing_boundary_velocity_swaps_roles(eos):
    mesh = Mesh1D(0.0, 1.0, 8)
    fwd = bd.make_boundary(u_b_left=1.0, u_b_right=1.0, rho_b_left=1.0, F_ib_left=-3.0)
    rev = bd.make_boundary(u_b_left=-1.0, u_b_right=-1.0, rho_b_right=1.0, F_ib_right=-3.0)
    assert fwd.left.kind is bd.FaceKind.IN and fwd.right.kind is bd.FaceKind.OUT
    assert rev.left.kind is bd.FaceKind.OUT and rev.right.kind is bd.FaceKind.IN
    # mirror symmetry: reversed flow on mirrored data yields mirrored fluxes
    state = sv.FieldState(rho=np.linspace(1.0, 2.0, 8), u=np.full(8, 1.0),
                          theta=np.linspace(0.9, 1.1, 8))
    mirror = sv.FieldState(rho=state.rho[::-1].copy(), u=-state.u[::-1].copy(),
                           theta=state.theta[::-1].copy())
    cfg = sv.SolverConfig(t_end=1.0)
    f1, _, e1, _, _ = sv.convective_fluxes(state, mesh, fwd, eos, cfg)
    f2, _, e2, _, _ = sv.convective_fluxes(mirror, mesh, rev, eos, cfg)
    np.testing.assert_allclose(f1, -f2[::-1], atol=1e-14)
    np.testing.assert_allclose(e1, -e2[::-1], atol=1e-14)


def test_stage_rhs_mirror_symmetry(eos, transport):
    # a regularized channel with inflow on the left, and its mirror image
    # (x -> 1 - x, u -> -u) with inflow on the right: the whole stage, face
    # pass included, must give mirrored rates and the same budget scalars
    n = 24
    mesh = Mesh1D(0.0, 1.0, n)
    x = mesh.centers
    cfg = sv.SolverConfig(epsilon=1e-3, delta=1e-3, t_end=1.0)
    fwd = bd.make_boundary(u_b_left=0.5, u_b_right=0.7, rho_b_left=1.1, F_ib_left=-2.5)
    rev = bd.make_boundary(u_b_left=-0.7, u_b_right=-0.5, rho_b_right=1.1,
                           F_ib_right=-2.5)
    state = sv.FieldState(rho=1 + 0.1 * np.cos(np.pi * x) + 0.05 * x,
                          u=0.5 + 0.2 * x + 0.05 * np.sin(np.pi * x),
                          theta=1 + 0.2 * x ** 2 * (3 - 2 * x))
    mirror = sv.FieldState(rho=state.rho[::-1], u=-state.u[::-1], theta=state.theta[::-1])
    drho1, dm1, dW1, rec1 = sv._stage_rhs(mesh, eos, transport, cfg, fwd, 0.0, state)
    drho2, dm2, dW2, rec2 = sv._stage_rhs(mesh, eos, transport, cfg, rev, 0.0, mirror)
    np.testing.assert_array_equal(drho2, drho1[::-1])
    np.testing.assert_array_equal(dm2, -dm1[::-1])
    np.testing.assert_array_equal(dW2, dW1[::-1])
    assert list(rec2.scalars) == list(rec1.scalars)
    for key, value in rec1.scalars.items():
        assert rec2.scalars[key] == pytest.approx(value, rel=1e-14, abs=0.0), key
    for key in ("mass_in_conv", "mass_robin", "mass_out_conv", "energy_bdry_in",
                "entropy_in_robin", "apriori_out_ballistic"):
        assert rec1.scalars[key] != 0.0, key


def test_step_rejection_and_abort(eos, transport, box):
    mesh, walls = box
    x = mesh.centers
    state = sv.FieldState(rho=np.ones(32), u=2.0 * np.sin(np.pi * x),
                          theta=np.full(32, 0.2))
    cfg = sv.SolverConfig(t_end=1.0, max_rejects=0)
    huge = 5.0  # far beyond any stability limit
    with pytest.raises(sv.RunAborted) as err:
        sv.step(state, mesh, eos, transport, cfg, walls, huge)
    assert err.value.state is state
    cfg_ok = sv.SolverConfig(t_end=1.0, max_rejects=20)
    new, dt_used, _, rejects = sv.step(state, mesh, eos, transport, cfg_ok, walls, huge)
    assert rejects > 0 and dt_used < huge
    assert np.all(new.theta >= cfg_ok.theta_floor)


def test_step_evaluates_first_stage_once_per_step(eos, transport, box, monkeypatch):
    # the stage at t does not depend on dt: rejected attempts reuse it, and
    # the step equals one Heun step at the accepted dt from a fresh stage
    mesh, walls = box
    x = mesh.centers
    state = sv.FieldState(rho=np.ones(32), u=2.0 * np.sin(np.pi * x),
                          theta=np.full(32, 0.2))
    cfg = sv.SolverConfig(t_end=1.0, max_rejects=20)
    t0 = 0.25
    reference_stage = sv._stage_rhs(mesh, eos, transport, cfg, walls, t0, state)
    times = []
    stage = sv._stage_rhs
    monkeypatch.setattr(sv, "_stage_rhs", lambda *a: times.append(a[5]) or stage(*a))
    new, dt_used, inc, rejects = sv.step(state, mesh, eos, transport, cfg, walls, 5.0, t=t0)
    assert rejects > 0
    assert times.count(t0) == 1 and times[0] == t0
    assert 2 <= len(times) <= rejects + 2  # stage 2 runs only on attempts that reach it
    ref_state, ref_inc = sv._heun_step(mesh, eos, transport, cfg, walls, t0, state,
                                       dt_used, reference_stage)
    for name in ("rho", "u", "theta"):
        assert np.array_equal(getattr(new, name), getattr(ref_state, name))
    assert inc == ref_inc


@pytest.mark.parametrize("name, cell, bad", [("rho", 0, np.inf), ("u", 5, np.nan),
                                             ("theta", 31, -np.inf)])
def test_step_names_nonfinite_state(eos, transport, box, monkeypatch, name, cell, bad):
    mesh, walls = box
    state = _uniform_state(32)
    getattr(state, name)[cell] = bad
    attempts = []
    heun = sv._heun_step
    monkeypatch.setattr(sv, "_heun_step", lambda *a: attempts.append(1) or heun(*a))
    with pytest.raises(sv.RunAborted, match=rf"{name} is not finite at cell {cell} ") as err:
        sv.step(state, mesh, eos, transport, sv.SolverConfig(t_end=1.0), walls, 1e-4)
    assert err.value.state is state
    assert attempts == []


def test_trajectory_index_lookup(closed_box_traj):
    traj = closed_box_traj
    assert traj.times == [0.0, 0.01, 0.02, 0.03, 0.04]
    for i in (0, 2, 4):
        assert traj._index(traj.times[i]) == i
    assert traj._index(0.02 + 1e-12) == 2
    assert traj._index(0.02 - 1e-12) == 2
    assert traj.state_at(0.03 + 1e-12) is traj.states[3]
    for t in (0.015, -0.01, 0.05):
        with pytest.raises(KeyError, match="not recorded"):
            traj._index(t)
    # equidistant recorded times within the tolerance resolve to the lower one
    tied = dataclasses.replace(traj, times=[0.0, 2e-10, 1.0])
    assert tied._index(1e-10) == 0


# ---------------------------------------------------------------------------
# temperature subproblem: comparison principle and uniform bounds
# ---------------------------------------------------------------------------


def _smooth(rng, x, lo, hi, modes=3):
    c = rng.uniform(-1, 1, modes)
    f = sum(ci * np.cos((k + 1) * np.pi * x + rng.uniform(0, 2 * np.pi))
            for k, ci in enumerate(c))
    f = (f - f.min()) / (np.ptp(f) + 1e-300)
    return lo + (hi - lo) * f


def test_constant_temperature_unchanged_without_sources(eos, transport, box):
    mesh, walls = box
    state = _uniform_state(32, rho=1.3, theta=0.7)
    cfg = sv.SolverConfig(t_end=1.0)
    theta = sv.euler_step(state, mesh, eos, transport, cfg, walls, 1e-4)[2]
    np.testing.assert_allclose(theta, 0.7, atol=1e-14)


def test_comparison_principle_ordering(eos, transport, rng):
    n = 48
    mesh = Mesh1D(0.0, 1.0, n)
    x = mesh.centers
    walls = bd.make_boundary()
    cfg = sv.SolverConfig(t_end=1.0, cfl=0.3)
    for _ in range(10):
        rho = _smooth(rng, x, 0.5, 2.0)
        u = _smooth(rng, x, -0.3, 0.3)
        t_lo = _smooth(rng, x, 0.5, 1.0)
        t_hi = t_lo + 0.1 + _smooth(rng, x, 0.0, 0.8)
        lo_state = sv.FieldState(rho=rho, u=u, theta=t_lo)
        hi_state = sv.FieldState(rho=rho, u=u, theta=t_hi)
        dt = 0.5 * min(sv.stable_dt(lo_state, mesh, eos, transport, cfg),
                       sv.stable_dt(hi_state, mesh, eos, transport, cfg))
        a, b = t_lo.copy(), t_hi.copy()
        for _ in range(60):
            a = sv.euler_step(
                sv.FieldState(rho=rho, u=u, theta=a), mesh, eos, transport, cfg, walls, dt)[2]
            b = sv.euler_step(
                sv.FieldState(rho=rho, u=u, theta=b), mesh, eos, transport, cfg, walls, dt)[2]
            assert np.all(a <= b + 1e-12)


def test_uniform_bounds_pure_conduction(eos, transport, rng):
    # frozen u = 0 in a closed box: the discrete update obeys the max principle
    n = 48
    mesh = Mesh1D(0.0, 1.0, n)
    x = mesh.centers
    walls = bd.make_boundary()
    cfg = sv.SolverConfig(t_end=1.0, cfl=0.3)
    rho = _smooth(rng, x, 0.5, 2.0)
    theta = _smooth(rng, x, 0.6, 1.8)
    lo0, hi0 = theta.min(), theta.max()
    state_theta = theta.copy()
    dt = 0.5 * sv.stable_dt(sv.FieldState(rho=rho, u=np.zeros(n), theta=state_theta),
                            mesh, eos, transport, cfg)
    for _ in range(100):
        state_theta = sv.euler_step(
            sv.FieldState(rho=rho, u=np.zeros(n), theta=state_theta),
            mesh, eos, transport, cfg, walls, dt)[2]
        assert state_theta.min() >= lo0 - 1e-10
        assert state_theta.max() <= hi0 + 1e-10


# ---------------------------------------------------------------------------
# run control
# ---------------------------------------------------------------------------


def test_run_rejects_nonfinite_initial_data(eos, transport, box):
    mesh, walls = box
    state = _uniform_state(32)
    state.u[3] = np.nan
    with pytest.raises(ValueError, match="initial u is not finite in 1 of 32 cells"):
        sv.run(mesh, eos, transport, sv.SolverConfig(t_end=0.01), walls, state)


def test_zero_horizon_returns_initial(eos, transport, box):
    mesh, walls = box
    state = _uniform_state(32)
    cfg = sv.SolverConfig(t_end=0.0)
    traj = sv.run(mesh, eos, transport, cfg, walls, state)
    assert traj.times == [0.0]
    np.testing.assert_array_equal(traj.final_state.rho, state.rho)


def test_rest_equilibrium_run(eos, transport, box):
    mesh, walls = box
    state = _uniform_state(32, rho=1.2, theta=1.1)
    cfg = sv.SolverConfig(t_end=1.0)
    traj = sv.run(mesh, eos, transport, cfg, walls, state)
    assert np.max(np.abs(traj.final_state.rho - 1.2)) < 1e-10
    assert np.max(np.abs(traj.final_state.theta - 1.1)) < 1e-10


def test_positivity_after_accepted_steps(closed_box_traj):
    cfg = closed_box_traj.config
    for st in closed_box_traj.states:
        assert np.all(st.rho >= cfg.rho_floor)
        assert np.all(st.theta >= cfg.theta_floor)


def test_rest_state_conservation_with_regularization(eos, transport, box):
    # all-wall rest state: mass exact; total energy moves only through the
    # delta/epsilon volume sources, matched by their recorded integrals
    mesh, walls = box
    state = _uniform_state(32)
    cfg = sv.SolverConfig(epsilon=1e-3, delta=1e-3, t_end=0.02)
    traj = sv.run(mesh, eos, transport, cfg, walls, state)
    assert mesh.integrate(traj.final_state.rho) == pytest.approx(
        mesh.integrate(state.rho), abs=1e-14)
    w = lambda s: mesh.integrate(
        s.rho * (np.asarray(th.specific_internal_energy(eos, s.rho, s.theta))
                 + cfg.delta * s.theta)
        + 0.5 * s.rho * s.u ** 2)
    acc = traj.accums[-1]
    sources = cfg.delta * acc["inv_theta2"] - cfg.epsilon * acc["theta5"]
    assert w(traj.final_state) - w(state) == pytest.approx(sources, abs=1e-10)


def test_regularized_runs_converge_to_target(eos, transport):
    # L1 distance between the (eps, delta) and (0, 0) runs shrinks
    # monotonically along a geometric schedule
    mesh = Mesh1D(0.0, 1.0, 32)
    x = mesh.centers
    walls = bd.make_boundary()
    initial = sv.FieldState(rho=1 + 0.1 * np.cos(np.pi * x), u=np.zeros(32),
                            theta=1 + 0.1 * np.cos(np.pi * x))
    base_cfg = sv.SolverConfig(t_end=0.02)
    base = sv.run(mesh, eos, transport, base_cfg, walls, initial).final_state
    dists = []
    for k in (3, 4, 5):
        lvl = 2.0 ** -k
        cfg = sv.SolverConfig(epsilon=lvl, delta=lvl, t_end=0.02)
        final = sv.run(mesh, eos, transport, cfg, walls, initial).final_state
        dists.append(mesh.integrate(np.abs(final.rho - base.rho))
                     + mesh.integrate(np.abs(final.theta - base.theta)))
    assert dists[1] < dists[0] and dists[2] < dists[1]
