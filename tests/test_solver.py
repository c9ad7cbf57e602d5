import copy
import dataclasses
import inspect
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from nsfsim import boundary as bd
from nsfsim.budgets import audit
from nsfsim import solver as sv
from nsfsim import thermo as th
from nsfsim.mesh import Mesh1D

from conftest import SEED, _solve_monotone_theta


def _uniform_state(n, rho=1.0, u=0.0, theta=1.0):
    return sv.FieldState(rho=np.full(n, rho), u=np.full(n, u), theta=np.full(n, theta))


@pytest.fixture
def box():
    return Mesh1D(0.0, 1.0, 32), bd.make_boundary()


# ---------------------------------------------------------------------------
# constitutive building blocks
# ---------------------------------------------------------------------------


def test_viscosity_examples():
    cfg = sv.SolverConfig(t_end=1.0)
    # mu(1) = eta(1) = 1 at scale 0.5
    ts = th.TransportSpec(mu_scale=0.5)
    assert float(cfg.viscosity(ts, 1.0)) == pytest.approx(4.0 / 3.0)
    ts2 = th.TransportSpec(mu_scale=0.5, eta_scale=0.5)
    cfg2 = sv.SolverConfig(d=2, t_end=1.0)
    assert float(cfg2.viscosity(ts2, 1.0)) == pytest.approx(2.0)


def test_zero_weights_form_no_terms(eos, transport, monkeypatch):
    # at delta = 0, eta_scale = 0 and epsilon = 0 the viscosity and the
    # stage's mass flux skip their terms, with the bits of the full formulas
    # (the closures' delta terms: test_stage_closures_carry_the_delta_terms)
    x = np.linspace(0.0, 1.0, 16)
    rho, theta = 1 + 0.1 * np.cos(np.pi * x), 1 + 0.2 * x
    cfg = sv.SolverConfig(t_end=1.0)
    full = (transport.mu(theta) + 0.0 * theta) * cfg.deviatoric_factor + transport.eta(theta)
    with monkeypatch.context() as mp:
        mp.setattr(th.TransportSpec, "eta", _past_checks)
        assert np.array_equal(cfg.viscosity(transport, theta), full)
    reg, ts = sv.SolverConfig(delta=1e-3, t_end=1.0), th.TransportSpec(eta_scale=0.3)
    assert np.array_equal(reg.viscosity(ts, theta),
                          (ts.mu(theta) + 1e-3 * theta) * reg.deviatoric_factor + ts.eta(theta))
    mesh = Mesh1D(0.0, 1.0, 16)
    bspec = bd.make_boundary(u_b_left=0.5, u_b_right=0.5, rho_b_left=1.1, F_ib_left=-2.5)
    state = sv.FieldState(rho=rho, u=0.5 + 0.05 * np.sin(np.pi * x), theta=theta)
    plan = sv._step_plan(mesh, bspec)
    f_mass = sv.convective_fluxes(state, mesh, plan, eos, cfg)[0]
    mass_flux = f_mass + np.zeros(17)
    drho = sv._stage_rhs(mesh, eos, cfg, plan, 0.0, state)[0]
    assert np.array_equal(drho, -(mass_flux[1:] - mass_flux[:-1]) / mesh.h)


def test_viscosity_delta_term():
    cfg = sv.SolverConfig(delta=0.5, t_end=1.0)
    ts = th.TransportSpec(mu_scale=0.5)
    # (mu(2) + 0.5 * 2) * 4/3
    assert float(cfg.viscosity(ts, 2.0)) == pytest.approx((float(ts.mu(2.0)) + 1.0) * 4.0 / 3.0)


def test_conductivity_examples(transport):
    cfg = sv.SolverConfig(t_end=1.0)
    assert float(cfg.conductivity(transport, 1.0)) == pytest.approx(2.0)
    # kappa(1) + delta (1^Gamma + 1/1)
    cfg3 = sv.SolverConfig(delta=1.0, Gamma=3.0, t_end=1.0)
    assert float(cfg3.conductivity(transport, 1.0)) == pytest.approx(4.0)


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
    # upwind convection followed by the hand-built backward-Euler viscous
    # matrix solve
    n = 16
    mesh = Mesh1D(0.0, 1.0, n)
    h = mesh.h
    x = mesh.centers
    ts = th.TransportSpec(mu_scale=0.5)  # mu(1) = 1, eta = 0
    cfg = sv.SolverConfig(t_end=1.0)
    u = 0.3 * x + 0.1
    state = sv.FieldState(rho=np.ones(n), u=u.copy(), theta=np.ones(n))
    bspec = bd.make_boundary(u_b_left=u[0], u_b_right=u[-1], rho_b_left=1.0,
                             F_ib_left=-3.0)
    dt = 1.0
    m_new = sv.euler_step(state, mesh, eos, ts, cfg, bspec, dt)[1]

    u_pad = np.concatenate([[u[0]], u, [u[-1]]])  # inflow ghost u_b, outflow copy
    u_face = 0.5 * (u_pad[:-1] + u_pad[1:])
    u_face[0], u_face[-1] = u[0], u[-1]
    donor = np.where(u_face >= 0, np.concatenate([[1.0 * u_pad[0]], u]),
                     np.concatenate([u, [u_pad[-1]]]))
    conv = -(np.diff(donor * u_face * 1.0)) / h
    rho1 = 1.0 - dt * np.diff(u_face) / h  # unit density donated on every face
    # rho1 u1 - dt d/dx(nu du1/dx) = m + dt conv with nu = 1 * (4/3): the
    # inflow face sees the ghost u_b, the outflow face carries no stress
    c = dt * (4.0 / 3.0) / h ** 2
    matrix = np.diag(rho1) + c * (2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1))
    matrix[-1, -1] -= c
    rhs = state.rho * u + dt * conv
    rhs[0] += c * u[0]
    np.testing.assert_allclose(m_new, rho1 * np.linalg.solve(matrix, rhs), atol=1e-12)


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
    sv._stage_rhs(mesh, eos, cfg, sv._step_plan(mesh, bspec), 0.0, state)
    # at epsilon > 0 the stage also forms g from its closures, with no EOS pass
    assert calls == {"stage_closures": 1, **({"_energy_density_rho_slope": 1} if channel else {})}


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
    """Log ("iterate", (theta,)) for each Newton evaluation of every residual
    the solver builds, and ("check", (theta,)) for each evaluation of its
    value alone."""
    build = sv.energy_density_residual

    def logged_build(*args, **kwargs):
        residual = build(*args, **kwargs)

        def logged(theta, slope=True):
            log.append(("iterate" if slope else "check", (theta,)))
            return residual(theta, slope=slope)
        return logged
    monkeypatch.setattr(sv, "energy_density_residual", logged_build)


def _count_shape_calls(monkeypatch, eos):
    """Count the pressure-shape evaluations of ``eos`` as ``evaluate`` and
    a table's piece lookups as ``_locate``."""
    calls = {}
    shape = eos.shape_fn
    for name in ("evaluate",) + (("_locate",) if eos.shape == "table" else ()):
        def counted(*args, _fn=getattr(shape, name), _name=name):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args)
        monkeypatch.setattr(shape, name, counted)
    return calls


@pytest.mark.parametrize("delta", [0.0, 1e-3])
@pytest.mark.parametrize("eos_name", ["eos", "eos_table"])
def test_recover_theta_one_fused_call_per_newton_iterate(eos_name, delta, monkeypatch,
                                                         request):
    # one residual build per recovery; a Newton iterate makes no EOS call at
    # all on the iconic quartic, and on the table no shape method call: the
    # residual binds every Z's spline piece at its first call and evaluates
    # P and P' from the bound rows, locating again only at a call where some
    # Z has left its piece; the final check is one value of that residual at
    # the returned theta, from the same binding
    eos = request.getfixturevalue(eos_name)
    cfg = sv.SolverConfig(delta=delta, t_end=1.0)
    x = np.linspace(0.0, 1.0, 16)
    rho = 1.0 + 0.1 * np.cos(np.pi * x)
    theta_true = 1.0 + 0.1 * np.sin(np.pi * x)
    w = rho * th.stage_closures(eos, rho, theta_true, delta=cfg.delta)[1]
    log = []
    calls = _count_thermo_calls(monkeypatch, log)
    _log_newton_iterates(monkeypatch, log)
    shape_calls = _count_shape_calls(monkeypatch, eos)
    theta = sv._recover_theta(eos, cfg, rho, w, 1.05 * theta_true)[0]
    np.testing.assert_allclose(theta, theta_true, rtol=1e-12)
    iterates = [args[0] for name, args in log if name == "iterate"]
    assert len(iterates) >= 2
    assert calls == {"energy_density_residual": 1}
    assert all(args[3] == delta for name, args in log if name == "energy_density_residual")
    if eos.shape == "table":
        # the pieces of each call's Z: this data crosses the knot at
        # Z = 0.82 once, so the recovery locates twice
        knots = eos.shape_fn._inner_knots
        pieces = [np.searchsorted(knots, th._theta_powers(rho, args[0]).z, side="right")
                  for name, args in log if name in ("iterate", "check")]
        moves = sum(not np.array_equal(a, b) for a, b in zip(pieces, pieces[1:]))
        assert moves == 1
        assert shape_calls == {"_locate": 1 + moves}
    else:
        assert shape_calls == {}
    # each call is a new Newton iterate, and the check is the last call
    assert all(not np.array_equal(a, b) for a, b in zip(iterates, iterates[1:]))
    assert [name for name, _ in log].count("check") == 1
    assert log[-1][0] == "check" and log[-1][1][0] is theta


def _lookups_per_recovery(monkeypatch, eos, log):
    """Log ("locate", ()) for each piece lookup of ``eos``'s table; returns
    a function giving, from ``log``, the lookups of each recovery, counted
    from its residual build to the next thermo call."""
    shape = eos.shape_fn
    locate = shape._locate
    monkeypatch.setattr(shape, "_locate",
                        lambda z, names: log.append(("locate", ())) or locate(z, names))

    def per_recovery():
        counts, inside = [], False
        for name, _ in log:
            if name == "locate":
                if inside:
                    counts[-1] += 1
            elif name not in ("iterate", "check"):
                inside = name == "energy_density_residual"
                if inside:
                    counts.append(0)
        return counts
    return per_recovery


def test_channel_recoveries_locate_the_pieces_once(eos_table, monkeypatch):
    # a table channel at n = 512 with the benchmark's channel512 flow: Newton
    # moves Z by about 1e-4 relative, inside pieces about 50% wide, so each
    # recovery of a step looks its pieces up once, Newton iterates and
    # check included
    n = 512
    mesh = Mesh1D(0.0, 1.0, n)
    x = mesh.centers
    u_in = 0.5
    bspec = bd.make_boundary(u_b_left=u_in, u_b_right=u_in, rho_b_left=1.0,
                             F_ib_left=-u_in * (1.5 + 2.5))
    cfg = sv.SolverConfig(epsilon=1e-3, delta=1e-3, t_end=1.0)
    ts = th.TransportSpec(mu_scale=0.05, kappa_scale=0.1)
    state = sv.FieldState(rho=np.ones(n) + 5e-4 * np.sin(np.pi * x), u=u_in * np.ones(n),
                          theta=1 + 0.2 * x ** 2 * (3 - 2 * x))
    log = []
    _count_thermo_calls(monkeypatch, log)
    _log_newton_iterates(monkeypatch, log)
    per_recovery = _lookups_per_recovery(monkeypatch, eos_table, log)
    for _ in range(3):
        dt = sv.stable_dt(state, mesh, eos_table, ts, cfg)
        state = sv.step(state, mesh, eos_table, ts, cfg, bspec, dt)[0]
    assert per_recovery() == [1] * 6
    assert [name for name, _ in log].count("iterate") >= 12


def test_recover_theta_rejects_a_nan_temperature_on_the_table(eos_table, monkeypatch):
    # a NaN guess fails the positivity check: the recovery refuses it before
    # it builds a residual, so no Newton iterate and no table pass runs
    x = np.linspace(0.0, 1.0, 16)
    rho = 1.0 + 0.1 * np.cos(np.pi * x)
    theta_true = 1.0 + 0.1 * np.sin(np.pi * x)
    w = rho * th.stage_closures(eos_table, rho, theta_true)[1]
    guess = theta_true.copy()
    guess[7] = np.nan
    log = []
    _count_thermo_calls(monkeypatch, log)
    _log_newton_iterates(monkeypatch, log)
    _lookups_per_recovery(monkeypatch, eos_table, log)
    with pytest.raises(th.EosDomainError, match="temperature must be positive"):
        sv._recover_theta(eos_table, sv.SolverConfig(t_end=1.0), rho, w, guess)
    # no thermo call, Newton evaluation or spline lookup was logged
    assert log == []


def test_step_thermo_calls_do_not_grow_with_newton_iterates(eos, transport, box,
                                                            monkeypatch):
    mesh, walls = box
    x = mesh.centers
    state = sv.FieldState(rho=1 + 0.1 * np.cos(np.pi * x), u=0.05 * np.sin(np.pi * x),
                          theta=1 + 0.1 * np.cos(np.pi * x))
    cfg = sv.SolverConfig(t_end=1.0)
    dt0 = sv.stable_dt(state, mesh, eos, transport, cfg)
    # two stages of one (p, e, s) pass; two recoveries, each one residual
    # build whose value alone checks the returned theta
    expected = {"stage_closures": 2, "energy_density_residual": 2}
    iterates = []
    for dt in (1e-9 * dt0, dt0):
        log = []
        with monkeypatch.context() as mp:
            calls = _count_thermo_calls(mp, log)
            _log_newton_iterates(mp, log)
            new, _, _, rejects = sv.step(state, mesh, eos, transport, cfg, walls, dt)
        assert rejects == 0 and calls == expected
        checks = [args[0] for name, args in log if name == "check"]
        assert len(checks) == 2 and checks[-1] is new.theta
        iterates.append(sum(name == "iterate" for name, _ in log))
    assert iterates[0] < iterates[1]


@pytest.mark.parametrize("channel", [False, True])
def test_run_makes_four_thermo_calls_and_two_rhs_evaluations_per_step(
        eos, eos_table, transport, monkeypatch, channel):
    # the EOS budget of a step: one pass per stage, the first with the
    # slopes that also give run its dt (no sound_speed_sq pass), and one
    # residual build per recovery, whose value also checks it; the implicit
    # solves add no EOS pass
    mesh = Mesh1D(0.0, 1.0, 32)
    x = mesh.centers
    if channel:  # a channel512-like run: table EOS, eps = delta = 1e-3
        bspec = bd.make_boundary(u_b_left=0.5, u_b_right=0.5, rho_b_left=1.0, F_ib_left=-4.0)
        cfg, eos, u = sv.SolverConfig(epsilon=1e-3, delta=1e-3, t_end=0.02), eos_table, 0.5
    else:
        bspec, cfg, u = bd.make_boundary(), sv.SolverConfig(t_end=0.02), 0.0
    state = sv.FieldState(rho=1 + 0.05 * np.cos(np.pi * x), u=u + 0.05 * np.sin(np.pi * x),
                          theta=1 + 0.05 * np.cos(np.pi * x))
    calls = _count_thermo_calls(monkeypatch)
    rhs = []
    fluxes = sv.convective_fluxes
    monkeypatch.setattr(sv, "convective_fluxes", lambda *a: rhs.append(1) or fluxes(*a))
    traj = sv.run(mesh, eos, transport, cfg, bspec, state)
    k = traj.n_steps
    assert traj.n_rejects == 0 and k > 1
    # at epsilon > 0 each stage also forms g from its closures, with no EOS pass
    g_calls = {"_energy_density_rho_slope": 2 * k} if channel else {}
    assert calls == {"stage_closures": 2 * k, "energy_density_residual": 2 * k, **g_calls}
    assert sum(calls.values()) - sum(g_calls.values()) == 4 * k and len(rhs) == 2 * k


@pytest.mark.parametrize("delta", [0.0, 1e-3])
def test_iconic_recovery_matches_generic_residual(eos, delta, rng):
    # reference: the bracketed solve through the table-style residual
    # (Z, then P and P', then the closure formulas) written out
    cfg = sv.SolverConfig(delta=delta, t_end=1.0)
    rho = rng.uniform(0.1, 10.0, 64)
    theta_true = rng.uniform(0.1, 10.0, 64)
    w = rho * th.stage_closures(eos, rho, theta_true, delta=cfg.delta)[1]

    def generic(theta):
        pw = th._theta_powers(rho, theta)
        p, dp = eos.shape_fn.evaluate(pw.z, "p", "dp")
        return (rho * (th._energy(eos, rho, pw, p) + delta * theta) - w,
                rho * (th._energy_theta(eos, rho, pw, p, dp) + delta))

    reference = _solve_monotone_theta(generic, 1e-10, 1e9)
    np.testing.assert_allclose(sv._recover_theta(eos, cfg, rho, w, 1.05 * theta_true)[0],
                               reference, rtol=1e-13)


@pytest.mark.parametrize("delta", [0.0, 1e-3])
@pytest.mark.parametrize("eos_name", ["eos", "eos_table"])
def test_recover_theta_rejects_unconverged_newton(eos_name, delta, request):
    # from 1e8 theta the damped Newton contracts by about 3/4 per iterate and
    # cannot arrive within its 40 iterates: the step is rejected, and
    # ``step`` retries with half the dt
    eos = request.getfixturevalue(eos_name)
    cfg = sv.SolverConfig(delta=delta, t_end=1.0)
    x = np.linspace(0.0, 1.0, 16)
    rho = 1.0 + 0.1 * np.cos(np.pi * x)
    theta_true = 1.0 + 0.1 * np.sin(np.pi * x)
    w = rho * th.stage_closures(eos, rho, theta_true, delta=cfg.delta)[1]
    with pytest.raises(sv.StepRejected, match="^temperature recovery failed"):
        sv._recover_theta(eos, cfg, rho, w, 1e8 * theta_true)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("eos_name", ["eos", "eos_table"])
def test_recover_theta_names_nonfinite_energy_density(eos_name, bad, request):
    eos = request.getfixturevalue(eos_name)
    cfg = sv.SolverConfig(t_end=1.0)
    rho = np.ones(8)
    theta = np.ones(8)
    w = rho * th.stage_closures(eos, rho, theta, delta=cfg.delta)[1]
    w[3] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(sv.StepRejected, match="energy density is not finite at cell 3"):
            sv._recover_theta(eos, cfg, rho, w, theta)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("eos_name", ["eos", "eos_table"])
def test_recover_theta_names_nonfinite_density(eos_name, bad, request):
    # NaN passes a `rho < floor` test; it must reject the step, not recover
    eos = request.getfixturevalue(eos_name)
    cfg = sv.SolverConfig(t_end=1.0)
    rho = np.ones(8)
    theta = np.ones(8)
    w = rho * th.stage_closures(eos, rho, theta, delta=cfg.delta)[1]
    rho[3] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(sv.StepRejected, match="^density is not finite at cell 3$"):
            sv._recover_theta(eos, cfg, rho, w, theta)


@pytest.mark.parametrize("eos_name", ["eos", "eos_table_nolaw"])
def test_recover_theta_rejects_below_the_floors(eos_name, request):
    # a density below its floor rejects before Newton, and an energy density
    # whose temperature lies below its floor after it
    eos = request.getfixturevalue(eos_name)
    cfg = sv.SolverConfig(t_end=1.0)
    rho = np.ones(4)
    theta = np.array([1.0, 1.0, 0.01 * sv.THETA_FLOOR, 1.0])
    w = rho * th.stage_closures(eos, rho, theta)[1]
    with pytest.raises(sv.StepRejected, match="^temperature fell below its floor$"):
        sv._recover_theta(eos, cfg, rho, w, np.ones(4))
    rho[1] = 0.5 * sv.RHO_FLOOR
    with pytest.raises(sv.StepRejected, match="^density fell below its floor$"):
        sv._recover_theta(eos, cfg, rho, w, np.ones(4))


class _PastChecks(Exception):
    """Raised by a stand-in for what follows a check: the data passed it."""


def _past_checks(*args, **kwargs):
    raise _PastChecks


@pytest.mark.parametrize("fields", ["rho", "w", "rho and w"])
def test_recover_theta_passes_finite_cells_whose_sum_overflows(eos, monkeypatch, fields):
    # two cells of 1e308, whose sum overflows, are finite: they pass the
    # finiteness checks without a warning, and the floor check too
    rho, w, theta = np.ones(8), np.full(8, 4.0), np.ones(8)
    for name, values in (("rho", rho), ("w", w)):
        if name in fields:
            values[[2, 5]] = 1e308
    monkeypatch.setattr(sv, "energy_density_residual", _past_checks)
    with pytest.raises(_PastChecks):
        sv._recover_theta(eos, sv.SolverConfig(t_end=1.0), rho, w, theta)


def test_euler_step_floor_rejects_nan_density(eos, transport, box, monkeypatch):
    mesh, walls = box
    state = _uniform_state(32)
    drho = np.zeros(32)
    drho[3] = np.nan
    stage = sv._stage_rhs(mesh, eos, sv.SolverConfig(t_end=1.0), sv._step_plan(mesh, walls),
                          0.0, state)
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
    w = rho * th.stage_closures(eos, rho, np.array([theta]), delta=cfg.delta)[1]
    guess = np.array([theta * (1.0 + offset)])
    residual = th.energy_density_residual(eos, rho, w, delta)
    reference = _newton_to_old_rule(residual, guess)
    tol = 1e-15 * reference
    if table:
        tol = tol + 16.0 * np.finfo(float).eps * w / residual(reference)[1]
    assert np.abs(sv._recover_theta(eos, cfg, rho, w, guess)[0] - reference) <= tol


@pytest.mark.parametrize("channel", [False, True], ids=["box", "channel"])
def test_recovery_takes_two_newton_evaluations_per_solve(eos, eos_table, transport,
                                                         monkeypatch, channel):
    # three steps at the acoustic dt of a box128-like state (iconic, walls,
    # n = 128) and of a channel512-like one (table, eps = delta = 1e-3,
    # n = 512, inflow near its matched energy flux): both recoveries start
    # from a linearised guess, so each takes two Newton evaluations with
    # slope (a first step of 6e-8 to 2e-6 theta, a second below the 1e-8
    # stop) and then checks its theta by one value of the residual
    n = 512 if channel else 128
    mesh = Mesh1D(0.0, 1.0, n)
    x = mesh.centers
    if channel:
        bspec = bd.make_boundary(u_b_left=0.5, u_b_right=0.5, rho_b_left=1.0, F_ib_left=-2.5)
        cfg, eos, u = sv.SolverConfig(epsilon=1e-3, delta=1e-3, t_end=1.0), eos_table, 0.5
    else:
        bspec, cfg, u = bd.make_boundary(), sv.SolverConfig(t_end=1.0), 0.0
    state = sv.FieldState(rho=1 + 0.03 * np.cos(np.pi * x) - 0.02 * np.cos(3 * np.pi * x),
                          u=u + 0.06 * np.sin(np.pi * x) + 0.04 * np.sin(2 * np.pi * x),
                          theta=1 + 0.05 * np.cos(2 * np.pi * x))
    log = []
    _log_newton_iterates(monkeypatch, log)
    build = sv.energy_density_residual
    monkeypatch.setattr(sv, "energy_density_residual",
                        lambda *a, **k: log.append(("build", ())) or build(*a, **k))
    for _ in range(3):
        dt = sv.stable_dt(state, mesh, eos, transport, cfg)
        state, _, _, rejects = sv.step(state, mesh, eos, transport, cfg, bspec, dt)
        assert rejects == 0
    names = "".join(name[0] for name, _ in log)
    assert names == "biic" * 6, names


def test_nonfinite_or_nonpositive_guess_falls_back_to_the_old_start():
    # theta0 + (dw - w_rho drho) / w_theta where that is finite and positive,
    # theta0 in the other cells, with no warning (the suite makes warnings
    # errors)
    theta0 = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    dw = np.array([0.5, np.nan, np.inf, -np.inf, -10.0])
    start = sv._linear_start(theta0, dw, 1.0, 0.25, np.full(5, 2.0))
    assert np.array_equal(start, [1.125, 2.0, 3.0, 4.0, 5.0])
    guess = sv._linear_start(theta0, np.full(5, 0.5), 1.0, 0.25, np.full(5, 2.0))
    assert np.array_equal(guess, theta0 + 0.125)


def test_step_starts_from_theta_n_where_the_guess_fails(eos, transport, box, monkeypatch):
    # a first stage whose w_theta is NaN gives a NaN guess in every cell:
    # the predictor's Newton then starts from theta^n, the former start
    mesh, walls = box
    x = mesh.centers
    state = sv.FieldState(rho=1 + 0.1 * np.cos(np.pi * x), u=0.05 * np.sin(np.pi * x),
                          theta=1 + 0.1 * np.cos(np.pi * x))
    cfg = sv.SolverConfig(t_end=1.0)
    plan = sv._step_plan(mesh, walls)
    drho, dm, dW, rec = sv._stage_rhs(mesh, eos, cfg, plan, 0.0, state)
    rec = dataclasses.replace(rec, w_theta=np.full(mesh.n_cells, np.nan))
    log = []
    _log_newton_iterates(monkeypatch, log)
    dt = sv.stable_dt(state, mesh, eos, transport, cfg)
    sv._heun_step(mesh, eos, transport, cfg, plan, 0.0, state, dt, (drho, dm, dW, rec))
    assert log[0][0] == "iterate" and np.array_equal(log[0][1][0], state.theta)


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
    _, _, _, rec = sv._stage_rhs(mesh, eos, cfg, sv._step_plan(mesh, bspec), 0.0, state)
    assert reductions == []
    sc = rec.scalars
    assert all(type(sc[k]) is float for k in ("S_grad_ub", "rho_g_rel_u"))
    # the step books the stress term
    assert sc["S_grad_ub"] == 0.0
    # the epsilon and delta rows carry their weight and are booked only
    # where it is nonzero, so at epsilon = delta = 0 every one reads 0.0
    weighted = {"delta_energy_out", "delta_energy_in_gamma_breg", "delta_energy_in_rho_sq",
                "delta_energy_in_rho_b_gamma", "eps_mom_ub", "eps_grad_rho_grad_g",
                "delta_heating", "delta_heating_over_theta",
                "eps_delta_grad_rho_heating_over_theta", "eps_radiation",
                "eps_radiation_over_theta"}
    mms_rows = {"mms_energy_source", "mms_energy_source_over_theta"}
    active = {"conv_p_grad_ub", "rho_u_grad_ub2"} | weighted | mms_rows
    if not channel:
        assert sc["conv_p_grad_ub"] == sc["rho_u_grad_ub2"] == 0.0
        assert (weighted | mms_rows).isdisjoint(sc)
        return
    assert all(sc[k] != 0.0 for k in active)
    # each source row is its rate q, or q / theta, weighted and integrated
    rho, theta = state.rho, state.theta
    eps, dlt, gm = cfg.epsilon, cfg.delta, cfg.Gamma
    rho_p = np.concatenate([[1.1], rho, rho[-1:]])  # inflow rho_b, outflow trace
    grad_rho = (rho_p[2:] - rho_p[:-2]) / (2.0 * mesh.h)
    mms = 0.1 * np.sin(np.pi * x)
    heating = dlt / theta ** 2
    grad_rho_heating = eps * dlt * (gm * rho ** (gm - 2.0) + 2.0) * grad_rho ** 2
    radiation = -(eps * theta ** 5)
    assert sc["mms_energy_source"] == integrate(mesh, mms)
    assert sc["mms_energy_source_over_theta"] == integrate(mesh, mms / theta)
    assert sc["delta_heating"] == integrate(mesh, heating)
    assert sc["delta_heating_over_theta"] == integrate(mesh, heating / theta)
    assert sc["eps_delta_grad_rho_heating_over_theta"] == integrate(mesh, grad_rho_heating / theta)
    assert sc["eps_radiation"] == integrate(mesh, radiation)
    assert sc["eps_radiation_over_theta"] == integrate(mesh, radiation / theta)


def test_uniform_compression_source(eos, transport):
    # u = -x gives div u = -1 on a uniform state, so the energy rate of a cell
    # is w from the transport -d/dx(w u) plus p from the pressure-work source
    n = 16
    mesh = Mesh1D(0.0, 1.0, n)
    x = mesh.centers
    state = sv.FieldState(rho=np.ones(n), u=-x, theta=np.ones(n))
    bspec = bd.make_boundary(u_b_left=0.0, u_b_right=-1.0, rho_b_left=None,
                             F_ib_left=None, rho_b_right=1.0, F_ib_right=-5.0)
    cfg = sv.SolverConfig(t_end=1.0)
    _, _, dW, _ = sv._stage_rhs(mesh, eos, cfg, sv._step_plan(mesh, bspec), 0.0, state)
    p = float(th.pressure(eos, 1.0, 1.0))
    w = float(th.specific_internal_energy(eos, 1.0, 1.0))
    np.testing.assert_allclose(dW[1:-1], w + p, rtol=1e-12)


# ---------------------------------------------------------------------------
# stable_dt
# ---------------------------------------------------------------------------


def test_stable_dt_scales_with_h(eos, transport):
    # the stress and the heat flux are implicit: only the acoustic limit,
    # proportional to h, is left at epsilon = 0
    cfg = sv.SolverConfig(t_end=1.0)
    dts = []
    for n in (32, 64):
        mesh = Mesh1D(0.0, 1.0, n)
        dts.append(sv.stable_dt(_uniform_state(n), mesh, eos, transport, cfg))
    assert dts[0] / dts[1] == pytest.approx(2.0, rel=1e-12)


def test_stable_dt_acoustic_limit(eos):
    # vanishing transport coefficients leave the acoustic constraint
    ts = th.TransportSpec(mu_scale=5e-13, kappa_scale=5e-13)  # mu(1) = kappa(1) = 1e-12
    cfg = sv.SolverConfig(t_end=1.0)
    mesh = Mesh1D(0.0, 1.0, 32)
    dt = sv.stable_dt(_uniform_state(32), mesh, eos, ts, cfg)
    cs = float(np.sqrt(th.sound_speed_sq(eos, 1.0, 1.0)))
    assert dt == pytest.approx(cfg.cfl * mesh.h / cs, rel=1e-6)


@pytest.mark.parametrize("channel", [False, True])
def test_run_takes_the_dt_of_stable_dt(eos, eos_table, transport, monkeypatch, channel):
    # one dt formula: run takes its dt from the first stage's sound speed,
    # bitwise the dt of stable_dt at the step's start state, or the time
    # left to the next output where that is shorter
    mesh = Mesh1D(0.0, 1.0, 32)
    x = mesh.centers
    if channel:  # table EOS, eps = delta = 1e-3
        bspec = bd.make_boundary(u_b_left=0.5, u_b_right=0.5, rho_b_left=1.0, F_ib_left=-2.5)
        cfg, eos, u = sv.SolverConfig(epsilon=1e-3, delta=1e-3, t_end=0.02), eos_table, 0.5
    else:
        bspec, cfg, u = bd.make_boundary(), sv.SolverConfig(t_end=0.02), 0.0
    state = sv.FieldState(rho=1 + 0.05 * np.cos(np.pi * x), u=u + 0.05 * np.sin(np.pi * x),
                          theta=1 + 0.05 * np.cos(np.pi * x))
    taken = []
    step = sv.step

    def recorded(state, *args, t, stage1):
        taken.append((state, args[-1], t))
        return step(state, *args, t=t, stage1=stage1)
    monkeypatch.setattr(sv, "step", recorded)
    outs = (0.01, 0.02)
    traj = sv.run(mesh, eos, transport, cfg, bspec, state, output_times=outs)
    assert len(taken) == traj.n_steps > 2 and traj.n_rejects == 0
    uncut = 0
    for start, dt, t in taken:
        limit = sv.stable_dt(start, mesh, eos, transport, cfg)
        target = min(o for o in outs if t < o - 1e-14 * (1.0 + o))
        assert dt == min(limit, target - t)
        uncut += dt == limit
    assert uncut > 0


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
    assert calls == {"sound_speed_sq": 1}
    # bitwise the acoustic limit: the stress and the heat flux are implicit
    cs = np.sqrt(th.sound_speed_sq(eos, rho, theta))
    assert dt == cfg.cfl * float(mesh.h / np.max(np.abs(u) + cs))


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


def _one_vs_two_half_steps(eos, ts, box):
    """max |theta| gap between one step and two half steps, at two dt."""
    mesh, walls = box
    x = mesh.centers
    state = sv.FieldState(rho=1 + 0.05 * np.cos(np.pi * x),
                          u=0.05 * np.sin(np.pi * x),
                          theta=1 + 0.05 * np.cos(np.pi * x))
    cfg = sv.SolverConfig(t_end=1.0)
    base_dt = 0.25 * sv.stable_dt(state, mesh, eos, ts, cfg)
    diffs = []
    for dt in (base_dt, base_dt / 2.0):
        full, _, _, _ = sv.step(state, mesh, eos, ts, cfg, walls, dt)
        half, _, _, _ = sv.step(state, mesh, eos, ts, cfg, walls, dt / 2)
        half, _, _, _ = sv.step(half, mesh, eos, ts, cfg, walls, dt / 2, t=dt / 2)
        diffs.append(np.max(np.abs(full.theta - half.theta)))
    return diffs


def test_two_half_steps_richardson(eos, box):
    # at mu(1) = kappa(1) = 1e-12 the implicit solves are the identity to
    # rounding, so this sees the second-order stages: the gap shrinks ~ dt^3
    diffs = _one_vs_two_half_steps(eos, th.TransportSpec(mu_scale=5e-13, kappa_scale=5e-13),
                                   box)
    assert diffs[1] < diffs[0] / 6.0


def test_two_half_steps_viscous_split_is_first_order(eos, transport, box):
    # the implicit stress is first order in time: the gap shrinks ~ dt^2
    diffs = _one_vs_two_half_steps(eos, transport, box)
    assert diffs[1] < diffs[0] / 3.0


def _spd_tridiagonal(rng, n):
    """Diagonal, off-diagonal and right-hand side of a random strictly
    diagonally dominant symmetric tridiagonal system."""
    e = rng.uniform(-1.0, 1.0, n - 1)
    bound = np.concatenate([[0.0], np.abs(e)]) + np.concatenate([np.abs(e), [0.0]])
    return bound + rng.uniform(0.1, 2.0, n), e, rng.uniform(-1.0, 1.0, n)


@pytest.mark.skipif(sv._dptsv is None, reason="no LAPACK dptsv symbol in numpy's library")
@pytest.mark.parametrize("n", [1, 2, 3, 128, 2048])
def test_dptsv_matches_reference_sweep(rng, n):
    for _ in range(10):
        d, e, b = _spd_tridiagonal(rng, n)
        reference = sv._ldlt_solve(d, e, b)
        # dptsv solves in one buffer holding d, e and b, as _diffusion_solve
        # lays them out, and returns b's view; the sweep leaves its
        # arguments alone
        buf = np.concatenate([d, e, b])
        x = sv._dptsv(buf)
        assert x.shape == (n,) and np.shares_memory(x, buf[2 * n - 1:])
        np.testing.assert_allclose(x, reference, rtol=1e-14, atol=0.0)
        matrix = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
        np.testing.assert_allclose(matrix @ reference, b, rtol=0.0, atol=1e-13)


def _assert_fallback_run_matches_lapack(monkeypatch, mesh, eos, ts, cfg, walls, state):
    """A run with the pure-Python sweep forced matches the LAPACK run."""
    lapack = sv.run(mesh, eos, ts, cfg, walls, state)
    monkeypatch.setattr(sv, "_dptsv", None)
    fallback = sv.run(mesh, eos, ts, cfg, walls, state)
    assert fallback.n_steps == lapack.n_steps
    for name in ("rho", "u", "theta"):
        ref = getattr(lapack.final_state, name)
        np.testing.assert_allclose(getattr(fallback.final_state, name), ref,
                                   rtol=0.0, atol=1e-12 * np.max(np.abs(ref)))
    assert list(fallback.accums[-1]) == list(lapack.accums[-1])
    for key, value in lapack.accums[-1].items():
        assert fallback.accums[-1][key] == pytest.approx(value, rel=1e-12, abs=1e-300), key
    assert audit(fallback).passed


def test_viscous_solve_fallback_run_matches_lapack(eos, transport, box, monkeypatch):
    mesh, walls = box
    x = mesh.centers
    state = sv.FieldState(rho=1 + 0.1 * np.cos(np.pi * x), u=0.1 * np.sin(np.pi * x),
                          theta=1 + 0.1 * np.cos(np.pi * x))
    _assert_fallback_run_matches_lapack(monkeypatch, mesh, eos, transport,
                                        sv.SolverConfig(t_end=0.02), walls, state)


def test_stiff_viscosity_runs_at_the_parabolic_free_limit(eos, box):
    # mu_scale = 100: the acoustic dt is about 17 000 times the explicit
    # viscous dt h^2 / (2 max nu/rho), which would take about 55 000 steps
    mesh = Mesh1D(0.0, 1.0, 64)
    x = mesh.centers
    ts = th.TransportSpec(mu_scale=100.0)
    cfg = sv.SolverConfig(t_end=0.01)
    state = sv.FieldState(rho=np.ones(64), u=0.1 * np.sin(np.pi * x), theta=np.ones(64))
    explicit_dt = mesh.h ** 2 / (2.0 * np.max(cfg.viscosity(ts, state.theta) / state.rho))
    acoustic_dt = mesh.h / np.max(np.abs(state.u) + np.sqrt(th.sound_speed_sq(
        eos, state.rho, state.theta)))
    assert acoustic_dt > 15000.0 * explicit_dt
    traj = sv.run(mesh, eos, ts, cfg, bd.make_boundary(), state)
    assert traj.n_rejects == 0 and traj.n_steps < 100
    report = audit(traj)
    assert report.passed, report.verdicts


def _stiff_conduction():
    """A box at n = 64 with kappa_scale = 100 and a temperature gradient."""
    mesh = Mesh1D(0.0, 1.0, 64)
    x = mesh.centers
    state = sv.FieldState(rho=np.ones(64), u=0.1 * np.sin(np.pi * x),
                          theta=1 + 0.1 * np.cos(np.pi * x))
    return mesh, th.TransportSpec(kappa_scale=100.0), sv.SolverConfig(t_end=0.01), state


def test_stiff_conduction_runs_at_the_acoustic_limit(eos):
    # kappa_scale = 100: the acoustic dt is about 2 450 times the explicit
    # thermal dt h^2 / (2 max kappa/(rho e_theta)), which would take about
    # 8 000 steps
    mesh, ts, cfg, state = _stiff_conduction()
    chi = cfg.conductivity(ts, state.theta) / (
        state.rho * th.energy_theta_slope(eos, state.rho, state.theta))
    explicit_dt = mesh.h ** 2 / (2.0 * np.max(chi))
    acoustic_dt = mesh.h / np.max(np.abs(state.u) + np.sqrt(th.sound_speed_sq(
        eos, state.rho, state.theta)))
    assert acoustic_dt > 2000.0 * explicit_dt
    traj = sv.run(mesh, eos, ts, cfg, bd.make_boundary(), state)
    assert traj.n_rejects == 0 and traj.n_steps < 10
    report = audit(traj)
    assert report.passed, report.verdicts


def test_conduction_solve_fallback_run_matches_lapack(eos, monkeypatch):
    mesh, ts, cfg, state = _stiff_conduction()
    _assert_fallback_run_matches_lapack(monkeypatch, mesh, eos, ts, cfg, bd.make_boundary(),
                                        state)


def test_step_books_viscous_terms_with_weight_dt(eos, transport):
    # a channel with u_b varying: S_grad_ub comes from the solve with weight
    # dt, the dissipation integrands (viscous part diss / theta) at the step's
    # end theta; the heat part is the summation by parts of
    # h sum d/dx(heat) / theta
    n = 16
    mesh = Mesh1D(0.0, 1.0, n)
    x = mesh.centers
    bspec = bd.make_boundary(u_b_left=0.5, u_b_right=0.7, rho_b_left=1.1, F_ib_left=-2.5)
    cfg = sv.SolverConfig(t_end=1.0)
    state = sv.FieldState(rho=1 + 0.1 * np.cos(np.pi * x),
                          u=0.5 + 0.2 * x + 0.05 * np.sin(np.pi * x),
                          theta=1 + 0.1 * np.cos(np.pi * x))
    plan = sv._step_plan(mesh, bspec)
    stage1 = sv._stage_rhs(mesh, eos, cfg, plan, 0.0, state)
    dt = sv.stable_dt(state, mesh, eos, transport, cfg)
    new, inc = sv._heun_step(mesh, eos, transport, cfg, plan, 0.0, state, dt, stage1)
    rho1, m1, w1 = sv._predictor(state.rho, state.rho * state.u, stage1, dt)
    rec1 = stage1[3]
    start = sv._linear_start(state.theta, dt * stage1[2], dt * stage1[0], rec1.w_rho,
                             rec1.w_theta)
    theta1, capacity = sv._recover_theta(eos, cfg, rho1, w1, start)
    rec2 = sv._stage_rhs(mesh, eos, cfg, plan, dt,
                         sv.FieldState(rho=rho1, u=m1 / rho1, theta=theta1))[3]
    _, stress, diss, _, heat, _ = sv._implicit_solves(
        mesh, transport, cfg, plan, rec1.theta_face, rho1, m1, theta1, capacity, dt)
    stages = {k: 0.5 * dt * (rec1.scalars[k] + rec2.scalars[k]) for k in rec1.scalars}
    assert list(inc) == list(stages)
    assert stages["S_grad_ub"] == 0.0 and diss.min() > 0.0
    integrate = mesh.integrate
    assert inc["S_grad_ub"] == pytest.approx(  # grad u_b = 0.2
        dt * integrate(0.5 * (stress[:-1] + stress[1:])) * 0.2, rel=1e-14)
    inv_theta = 1.0 / new.theta
    by_parts = float((heat[1:-1] * (inv_theta[:-1] - inv_theta[1:])).sum())
    assert heat[0] == heat[-1] == 0.0 and by_parts > 0.0
    assert by_parts == pytest.approx(integrate(np.diff(heat) / mesh.h * inv_theta), rel=1e-12)
    assert inc["dissipation_no_delta"] == pytest.approx(
        stages["dissipation_no_delta"] + dt * (integrate(diss / new.theta) + by_parts), rel=1e-14)
    viscous = ("S_grad_ub", "dissipation_no_delta")
    assert all(inc[k] == stages[k] for k in stages if k not in viscous)


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
    drho1, dm1, dW1, rec1 = sv._stage_rhs(mesh, eos, cfg, sv._step_plan(mesh, fwd), 0.0,
                                          state)
    drho2, dm2, dW2, rec2 = sv._stage_rhs(mesh, eos, cfg, sv._step_plan(mesh, rev), 0.0,
                                          mirror)
    np.testing.assert_array_equal(drho2, drho1[::-1])
    np.testing.assert_array_equal(dm2, -dm1[::-1])
    np.testing.assert_array_equal(dW2, dW1[::-1])
    assert list(rec2.scalars) == list(rec1.scalars)
    for key, value in rec1.scalars.items():
        assert rec2.scalars[key] == pytest.approx(value, rel=1e-14, abs=0.0), key
    for key in ("mass_in_conv", "mass_robin", "mass_out_conv", "energy_bdry_in",
                "entropy_in_robin", "apriori_out_ballistic"):
        assert rec1.scalars[key] != 0.0, key


def test_step_rejection_and_abort(eos, transport, box, monkeypatch):
    mesh, walls = box
    x = mesh.centers
    state = sv.FieldState(rho=np.ones(32), u=2.0 * np.sin(np.pi * x),
                          theta=np.full(32, 0.2))
    cfg = sv.SolverConfig(t_end=1.0)
    huge = 5.0  # far beyond any stability limit
    new, dt_used, _, rejects = sv.step(state, mesh, eos, transport, cfg, walls, huge)
    assert 0 < rejects <= sv.MAX_REJECTS and dt_used < huge
    assert np.all(new.theta >= sv.THETA_FLOOR)
    # a step whose every attempt is rejected aborts after MAX_REJECTS halvings
    attempts = []

    def reject(*args):
        attempts.append(args[7])
        raise sv.StepRejected("forced")

    monkeypatch.setattr(sv, "_heun_step", reject)
    with pytest.raises(sv.RunAborted, match="rejected 21 times") as err:
        sv.step(state, mesh, eos, transport, cfg, walls, huge)
    assert err.value.state is state
    assert attempts == [huge * 0.5 ** k for k in range(sv.MAX_REJECTS + 1)]


def test_step_evaluates_first_stage_once_per_step(eos, transport, box, monkeypatch):
    # the stage at t does not depend on dt: rejected attempts reuse it, and
    # the step equals one Heun step at the accepted dt from a fresh stage
    mesh, walls = box
    x = mesh.centers
    state = sv.FieldState(rho=np.ones(32), u=2.0 * np.sin(np.pi * x),
                          theta=np.full(32, 0.2))
    cfg = sv.SolverConfig(t_end=1.0)
    t0 = 0.25
    plan = sv._step_plan(mesh, walls)
    reference_stage = sv._stage_rhs(mesh, eos, cfg, plan, t0, state)
    times = []
    stage = sv._stage_rhs
    monkeypatch.setattr(sv, "_stage_rhs", lambda *a: times.append(a[4]) or stage(*a))
    new, dt_used, inc, rejects = sv.step(state, mesh, eos, transport, cfg, walls, 5.0, t=t0)
    assert rejects > 0
    assert times.count(t0) == 1 and times[0] == t0
    assert 2 <= len(times) <= rejects + 2  # stage 2 runs only on attempts that reach it
    ref_state, ref_inc = sv._heun_step(mesh, eos, transport, cfg, plan, t0, state,
                                       dt_used, reference_stage)
    for name in ("rho", "u", "theta"):
        assert np.array_equal(getattr(new, name), getattr(ref_state, name))
    assert inc == ref_inc


def _logged(log, name, fn):
    def logged(t, x):
        log.append((name, t))
        return fn(t, x)
    return logged


@pytest.mark.parametrize("rejecting", [False, True])
def test_step_calls_each_source_once_per_stage(eos, transport, box, monkeypatch,
                                               rejecting):
    # benchmarks count steps from the energy-source calls: g and the source
    # are called once per stage evaluation, stage 1 once per step and
    # stage 2 once per attempt that reaches it
    mesh, walls = box
    x = mesh.centers
    log, stages = [], []
    cfg = sv.SolverConfig(
        t_end=0.01, g=_logged(log, "g", lambda t, x: 1e-3 * np.cos(np.pi * x)),
        energy_source=_logged(log, "source", lambda t, x: 1e-3 * np.sin(np.pi * x)))
    stage = sv._stage_rhs
    monkeypatch.setattr(sv, "_stage_rhs", lambda *a: stages.append(a[4]) or stage(*a))
    if rejecting:  # the state of test_step_rejection_and_abort
        state = sv.FieldState(rho=np.ones(32), u=2.0 * np.sin(np.pi * x),
                              theta=np.full(32, 0.2))
        _, _, _, rejects = sv.step(state, mesh, eos, transport, cfg, walls, 5.0, t=0.25)
        assert rejects == 7
        assert stages[0] == 0.25 and stages.count(0.25) == 1
        assert 2 <= len(stages) <= rejects + 2
    else:
        state = sv.FieldState(rho=1 + 0.05 * np.cos(np.pi * x),
                              u=0.05 * np.sin(np.pi * x),
                              theta=1 + 0.05 * np.cos(np.pi * x))
        traj = sv.run(mesh, eos, transport, cfg, walls, state)
        assert traj.n_rejects == 0 and len(stages) == 2 * traj.n_steps
    assert log == [(name, t) for t in stages for name in ("g", "source")]


@pytest.mark.parametrize("g", [0.0, -0.7])
def test_constant_body_force_matches_callable(eos, transport, g):
    # a constant g is the float itself, which broadcasts to the values a
    # callable returning that constant gives
    mesh = Mesh1D(0.0, 1.0, 16)
    x = mesh.centers
    bspec = bd.make_boundary(u_b_left=0.5, u_b_right=0.7, rho_b_left=1.1, F_ib_left=-2.5)
    state = sv.FieldState(rho=1 + 0.1 * np.cos(np.pi * x),
                          u=0.5 + 0.2 * x + 0.05 * np.sin(np.pi * x),
                          theta=1 + 0.1 * np.cos(np.pi * x))
    stages = []
    for force in (g, lambda t, x: g):
        cfg = sv.SolverConfig(epsilon=1e-3, delta=1e-3, t_end=1.0, g=force)
        stages.append(sv._stage_rhs(mesh, eos, cfg, sv._step_plan(mesh, bspec), 0.3, state))
    assert type(sv.SolverConfig(g=g).body_force(0.3, x)) is float
    (*const, rec), (*call, ref) = stages
    assert [a.tobytes() for a in const] == [a.tobytes() for a in call]
    assert ([(k, v.hex()) for k, v in rec.scalars.items()]
            == [(k, v.hex()) for k, v in ref.scalars.items()])
    assert all(getattr(rec, k).tobytes() == getattr(ref, k).tobytes() for k in ("w", "theta_face"))


class _StackLog:
    """numpy, with a log of the shapes of the arrays ``array`` builds."""

    def __init__(self, shapes):
        self.shapes = shapes

    def __getattr__(self, name):
        return getattr(np, name)

    def array(self, *args, **kwargs):
        out = np.array(*args, **kwargs)
        self.shapes.append(out.shape)
        return out


@pytest.mark.parametrize("g", [0.0, -0.7])
def test_zero_constant_body_force_books_no_row(eos, monkeypatch, g):
    # on a closed box at epsilon = delta = 0 the work of g is the stage's only
    # volume row: a constant g = 0 books it as 0.0 and stacks nothing, a
    # nonzero g stacks that one row
    mesh, walls = Mesh1D(0.0, 1.0, 16), bd.make_boundary()
    x = mesh.centers
    state = sv.FieldState(rho=1 + 0.1 * np.cos(np.pi * x), u=0.05 * np.sin(np.pi * x),
                          theta=1 + 0.1 * np.cos(np.pi * x))
    shapes = []
    monkeypatch.setattr(sv, "np", _StackLog(shapes))
    rec = sv._stage_rhs(mesh, eos, sv.SolverConfig(t_end=1.0, g=g),
                        sv._step_plan(mesh, walls), 0.3, state)[3]
    work = rec.scalars["rho_g_rel_u"]
    assert type(work) is float
    if g == 0.0:
        assert work == 0.0 and shapes == []
    else:
        assert shapes == [(1, 16)] and work == mesh.integrate(state.rho * g * state.u)


@pytest.mark.parametrize("g", [None, "0.5", [0.0]])
def test_body_force_must_be_number_or_callable(g):
    with pytest.raises(ValueError, match="g must be a number or a callable"):
        sv.SolverConfig(g=g)


def test_mesh_centers_computed_once():
    mesh = Mesh1D(-0.5, 2.0, 37)
    centers = mesh.centers
    assert mesh.centers is centers and not centers.flags.writeable
    assert centers.tobytes() == (-0.5 + (np.arange(37) + 0.5) * mesh.h).tobytes()
    twin = Mesh1D(-0.5, 2.0, 37)
    assert twin == mesh and hash(twin) == hash(mesh) and twin.centers is not centers
    assert Mesh1D(-0.5, 2.0, 38) != mesh
    assert repr(mesh) == "Mesh1D(x_left=-0.5, x_right=2.0, n_cells=37)"
    assert dataclasses.replace(mesh, n_cells=4).centers.tolist() == [-0.1875, 0.4375,
                                                                      1.0625, 1.6875]


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                   lambda m: pickle.loads(pickle.dumps(m))],
                         ids=["copy", "deepcopy", "pickle"])
def test_mesh_copies_keep_centers_read_only(clone):
    mesh = Mesh1D(-0.5, 2.0, 37)
    twin = clone(mesh)
    assert twin == mesh and not twin.centers.flags.writeable
    assert twin.centers.tobytes() == mesh.centers.tobytes()


@pytest.mark.parametrize("kw, name", [
    ({"rho_floor": 0.0}, "rho_floor"), ({"rho_floor": -1e-3}, "rho_floor"),
    ({"rho_floor": float("nan")}, "rho_floor"), ({"theta_floor": 0.0}, "theta_floor"),
    ({"theta_floor": -1.0}, "theta_floor"), ({"max_rejects": -3}, "max_rejects")])
def test_config_rejects_bad_floors_and_reject_budget(kw, name):
    # the floors and the reject budget are the module constants RHO_FLOOR,
    # THETA_FLOOR and MAX_REJECTS: a config refuses any value for them, the
    # bad ones included
    with pytest.raises(TypeError, match=name):
        sv.SolverConfig(**kw)


@pytest.mark.parametrize("name, cell, bad", [("rho", 0, np.inf), ("u", 5, np.nan),
                                             ("theta", 31, -np.inf), ("u", 12, -np.inf)])
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


def test_step_passes_finite_cells_whose_sum_overflows(eos, transport, box, monkeypatch):
    # two cells of 1e308 in u, whose sum overflows, are finite: the step
    # goes on to its first stage without a warning
    mesh, walls = box
    state = _uniform_state(32)
    state.u[[3, 4]] = 1e308
    monkeypatch.setattr(sv, "_stage_rhs", _past_checks)
    with pytest.raises(_PastChecks):
        sv.step(state, mesh, eos, transport, sv.SolverConfig(t_end=1.0), walls, 1e-4)


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


@pytest.mark.parametrize("t", [np.nan, -0.1])
def test_run_rejects_output_times_outside_the_horizon(eos, transport, box, t):
    # refused before any step: no time is recorded with a stale state
    mesh, walls = box
    with pytest.raises(ValueError, match=r"output times must lie in \[0, t_end\], got "):
        sv.run(mesh, eos, transport, sv.SolverConfig(t_end=0.01), walls, _uniform_state(32),
               output_times=[t])


def test_run_attaches_the_partial_trajectory_on_abort(eos, transport, box, monkeypatch):
    # every attempt after k accepted steps is rejected: the run aborts with
    # the trajectory of the steps it took
    mesh, walls = box
    k = 3
    heun = sv._heun_step
    accepted = []

    def heun_then_reject(*args):
        if len(accepted) == k:
            raise sv.StepRejected("forced")
        accepted.append(args[7])
        return heun(*args)

    monkeypatch.setattr(sv, "_heun_step", heun_then_reject)
    with pytest.raises(sv.RunAborted, match="rejected 21 times") as err:
        sv.run(mesh, eos, transport, sv.SolverConfig(t_end=1.0), walls, _uniform_state(32))
    traj = err.value.trajectory
    assert (traj.n_steps, traj.n_rejects, traj.times) == (k, 0, [0.0])


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
    for st in closed_box_traj.states:
        assert np.all(st.rho >= sv.RHO_FLOOR)
        assert np.all(st.theta >= sv.THETA_FLOOR)


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
    sources = acc["delta_heating"] + acc["eps_radiation"]
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


def test_run_refuses_a_non_finite_time_step_before_any_attempt(monkeypatch):
    # at a = 1e308 the closures hold at theta = 1 but c^2 is inf/inf: the
    # NaN dt used to be halved 21 times into "density fell below its floor"
    eos = th.EosSpec(a=1e308)
    mesh = Mesh1D(0.0, 1.0, 16)
    state = sv.FieldState(rho=np.ones(16), u=np.zeros(16), theta=np.ones(16))
    attempts = []
    heun = sv._heun_step
    monkeypatch.setattr(sv, "_heun_step", lambda *a: attempts.append(a) or heun(*a))
    with np.errstate(all="ignore"), pytest.raises(
            sv.RunAborted, match=r"t=0: the time step nan is not a positive finite number") as err:
        sv.run(mesh, eos, th.TransportSpec(), sv.SolverConfig(t_end=0.01), bd.make_boundary(),
               state)
    assert attempts == [] and err.value.trajectory.n_steps == 0
