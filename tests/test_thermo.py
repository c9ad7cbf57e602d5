import gc
import itertools
import math
import re
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from nsfsim import boundary as bd
from nsfsim import relent as rl
from nsfsim import scenario as sc
from nsfsim import thermo as th

from conftest import SEED, _solve_monotone_theta, make_table_eos

FT = 5.0 / 3.0


# ---------------------------------------------------------------------------
# closed-form values
# ---------------------------------------------------------------------------


def test_pressure_iconic_reference_value(eos):
    assert th.pressure(eos, 1.0, 1.0) == pytest.approx(7.0 / 3.0, abs=1e-14)


def test_pressure_vacuum_is_pure_radiation(eos, eos_table):
    for e in (eos, eos_table):
        assert th.pressure(e, 0.0, 1.0) == pytest.approx(e.a / 3.0, abs=1e-9)


def test_pressure_iconic_no_radiation(eos_a0):
    assert th.pressure(eos_a0, 2.0, 1.0) == pytest.approx(2.0 + 2.0 ** FT, rel=1e-14)


def test_pressure_rejects_nonpositive_temperature(eos):
    with pytest.raises(th.EosDomainError):
        th.pressure(eos, 1.0, 0.0)
    with pytest.raises(th.EosDomainError):
        th.pressure(eos, 1.0, -1.0)


def test_energy_iconic_reference_value(eos):
    assert th.specific_internal_energy(eos, 1.0, 1.0) == pytest.approx(4.0, abs=1e-14)


def test_energy_iconic_no_radiation(eos_a0):
    assert th.specific_internal_energy(eos_a0, 1.0, 2.0) == pytest.approx(4.5, rel=1e-14)


def test_energy_rejects_vacuum(eos):
    with pytest.raises(th.EosDomainError):
        th.specific_internal_energy(eos, 0.0, 1.0)


def test_energy_density_split_matches_iconic_closed_form(eos, rng):
    # rho e = (3/2) rho theta + (3/2) p_inf rho^{5/3} + a theta^4
    rho = rng.uniform(0.1, 10.0, 200)
    theta = rng.uniform(0.1, 10.0, 200)
    lhs = rho * np.asarray(th.specific_internal_energy(eos, rho, theta))
    rhs = 1.5 * rho * theta + 1.5 * eos.p_inf * rho ** FT + eos.a * theta ** 4
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12)


def test_entropy_iconic_reference_value(eos):
    assert th.specific_entropy(eos, 1.0, 1.0) == pytest.approx(4.0 / 3.0, abs=1e-14)


def test_entropy_iconic_pure_gas(eos_a0):
    theta = math.exp(2.0 / 3.0)
    assert th.specific_entropy(eos_a0, 1.0, theta) == pytest.approx(1.0, rel=1e-12)


def test_entropy_shape_is_decreasing(eos, eos_table):
    for e in (eos, eos_table):
        s2 = e.shape_fn.evaluate(np.array([2.0]), "s")[0][0]
        s1 = e.shape_fn.evaluate(np.array([1.0]), "s")[0][0]
        assert s2 < s1


def test_entropy_rejects_domain_violations(eos):
    with pytest.raises(th.EosDomainError):
        th.specific_entropy(eos, 0.0, 1.0)
    with pytest.raises(th.EosDomainError):
        th.specific_entropy(eos, 1.0, 0.0)


# ---------------------------------------------------------------------------
# Gibbs consistency and stability
# ---------------------------------------------------------------------------


def test_gibbs_residual_at_unit_state(eos):
    r1, r2 = th.gibbs_residual(eos, 1.0, 1.0)
    assert abs(r1) < 1e-12 and abs(r2) < 1e-12


def test_gibbs_residual_random_box(eos, eos_table, eos_table_nolaw, rng):
    rho = rng.uniform(0.1, 10.0, 10_000)
    theta = rng.uniform(0.1, 10.0, 10_000)
    for e in (eos, eos_table, eos_table_nolaw):
        r1, r2 = th.gibbs_residual(e, rho, theta)
        assert np.max(np.abs(r1)) < 1e-10
        assert np.max(np.abs(r2)) < 1e-10


def test_gibbs_residual_ignores_entropy_gauge(rng):
    rho = rng.uniform(0.1, 10.0, 64)
    theta = rng.uniform(0.1, 10.0, 64)
    base = th.gibbs_residual(th.iconic_eos(entropy_const=0.0), rho, theta)
    skew = th.gibbs_residual(th.iconic_eos(entropy_const=17.3), rho, theta)
    np.testing.assert_array_equal(base[0], skew[0])
    np.testing.assert_array_equal(base[1], skew[1])


def test_stability_margin_values(eos, eos_a0):
    assert th.stability_margins(eos, 1.0, 1.0)[1] == pytest.approx(5.5, rel=1e-12)
    assert th.stability_margins(eos_a0, 1.0, 1.0)[0] == pytest.approx(8.0 / 3.0, rel=1e-12)


def test_stability_margins_positive_everywhere(eos, eos_table, rng):
    rho = rng.uniform(0.05, 20.0, 10_000)
    theta = rng.uniform(0.05, 20.0, 10_000)
    for e in (eos, eos_table):
        dp, de = th.stability_margins(e, rho, theta)
        assert np.all(np.asarray(dp) > 0.0)
        assert np.all(np.asarray(de) > 0.0)


def test_pressure_increases_with_density(eos, rng):
    theta = 1.3
    rho = np.sort(rng.uniform(0.01, 10.0, 100))
    p = np.asarray(th.pressure(eos, rho, theta))
    assert np.all(np.diff(p) > 0.0)


def test_entropy_slope_matches_defining_ode(eos, eos_table):
    # S'(Z) = -(3/2)((5/3)P - P'Z)/Z^2, checked by central differences of S
    for e in (eos, eos_table):
        sh = e.shape_fn
        z = np.geomspace(0.01, 100.0, 211)
        if e.shape == "table":
            # stay a few steps away from the interpolation knots
            knots = np.asarray(e.table_z)
            keep = np.min(np.abs(z[:, None] - knots[None, :]), axis=1) > 1e-3 * z
            z = z[keep]
        h = 1e-5 * z
        fd = (sh.evaluate(z + h, "s")[0] - sh.evaluate(z - h, "s")[0]) / (2 * h)
        ode = -1.5 * (FT * sh.evaluate(z, "p")[0] - sh.evaluate(z, "p_rho")[0] * z) / z ** 2
        np.testing.assert_allclose(fd, ode, rtol=1e-6, atol=1e-9)


def test_pressure_shape_ratio_nonincreasing(eos, eos_table):
    z = np.geomspace(1e-3, 1e3, 400)
    for e in (eos, eos_table):
        g = e.shape_fn.evaluate(z, "p")[0] / z ** FT
        assert np.all(np.diff(g) <= 1e-12 * np.abs(g[:-1]))
        assert g[-1] >= e.p_inf - 1e-9


# ---------------------------------------------------------------------------
# variable transforms
# ---------------------------------------------------------------------------


def test_to_conservative_reference(eos):
    c = th.to_conservative(eos, th.ThermoState(1.0, 0.0, 1.0))
    assert c.rho == 1.0
    assert float(c.m[0]) == 0.0
    assert c.S == pytest.approx(4.0 / 3.0, abs=1e-14)


def test_momentum_scales_with_velocity(eos):
    a = th.to_conservative(eos, th.ThermoState(1.4, 0.7, 1.1))
    b = th.to_conservative(eos, th.ThermoState(1.4, 1.4, 1.1))
    assert float(b.m[0]) == pytest.approx(2.0 * float(a.m[0]), rel=1e-14)
    assert (a.rho, a.S) == (b.rho, b.S)


def test_from_conservative_reference(eos, eos_a0):
    back = th.from_conservative(eos, th.ConservativeState(1.0, 0.0, 4.0 / 3.0))
    assert back.theta == pytest.approx(1.0, abs=1e-12)
    back0 = th.from_conservative(eos_a0, th.ConservativeState(1.0, 0.0, 0.0))
    assert back0.theta == pytest.approx(1.0, abs=1e-12)


def test_transform_round_trip(eos, eos_table, rng):
    for e in (eos, eos_table):
        for _ in range(100):
            s = th.ThermoState(rng.uniform(0.1, 5.0), rng.uniform(-2, 2),
                               rng.uniform(0.1, 5.0))
            back = th.from_conservative(e, th.to_conservative(e, s))
            assert back.rho == pytest.approx(s.rho, rel=1e-12)
            assert float(back.u[0]) == pytest.approx(float(s.u[0]), rel=1e-12, abs=1e-12)
            assert back.theta == pytest.approx(s.theta, rel=1e-10)


def test_from_conservative_rejects_states_outside_domain(eos_table):
    # Third-law closure: total entropy density must be positive
    with pytest.raises(th.OutOfDomainError) as err:
        th.from_conservative(eos_table, th.ConservativeState(1.0, 0.0, -0.5))
    assert "bracket" in str(err.value)


@seed(SEED)
@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(["eos", "eos_a0", "eos_table", "eos_table_nolaw"]),
       log_rho=st.floats(-4.0, 4.0), log_theta=st.floats(-8.0, 8.0))
def test_entropy_inversion_matches_bisection_property(eos, eos_a0, eos_table, eos_table_nolaw,
                                                      name, log_rho, log_theta):
    # reference: the log-bisection with Newton polish through the closures
    e = {"eos": eos, "eos_a0": eos_a0, "eos_table": eos_table,
         "eos_table_nolaw": eos_table_nolaw}[name]
    rho, theta = 10.0 ** log_rho, 10.0 ** log_theta
    S = rho * float(th.specific_entropy(e, rho, theta))

    def f_and_slope(t):
        return (rho * th.specific_entropy(e, rho, t) - S,
                rho * th.entropy_theta_slope(e, rho, t))
    reference = float(_solve_monotone_theta(f_and_slope, 1e-10, 1e10))
    assert float(th.temperature_from_entropy(e, rho, S)) == pytest.approx(reference, rel=1e-12)


@pytest.mark.parametrize("name", ["eos", "eos_a0"])
def test_entropy_inversion_round_trip_iconic(name, request):
    # the iconic residual is closed-form in log theta, so nothing overflows
    # or underflows across the whole range
    e = request.getfixturevalue(name)
    theta = np.geomspace(1e-150, 1e30, 181)
    for rho in (1e-4, 1.0, 1e4):
        S = rho * th.specific_entropy(e, rho, theta)
        np.testing.assert_allclose(th.temperature_from_entropy(e, rho, S), theta, rtol=1e-12)


def test_temperature_identity(eos, eos_table):
    # d(rho e)/dS at fixed rho equals the recovered temperature
    h = 1e-5
    for e in (eos, eos_table):
        for rho0, s0 in ((1.3, 0.9), (0.7, 2.1)):
            ep = th.extended_internal_energy(e, rho0, s0 + h)
            em = th.extended_internal_energy(e, rho0, s0 - h)
            theta = float(th.temperature_from_entropy(e, rho0, s0))
            assert (ep - em) / (2 * h) == pytest.approx(theta, rel=1e-6)


def test_pressure_identity(eos, eos_table):
    # d(rho e)/drho at fixed S equals e - theta s + p/rho
    h = 1e-5
    for e in (eos, eos_table):
        for rho0, s0 in ((1.3, 0.9), (0.8, 1.7)):
            ep = th.extended_internal_energy(e, rho0 + h, s0)
            em = th.extended_internal_energy(e, rho0 - h, s0)
            theta = float(th.temperature_from_entropy(e, rho0, s0))
            ref = float(th.energy_density_gradient(e, rho0, theta)[0])
            assert (ep - em) / (2 * h) == pytest.approx(ref, rel=1e-6)


# ---------------------------------------------------------------------------
# extended internal energy
# ---------------------------------------------------------------------------


def test_extension_third_law_corner(eos_table):
    assert th.extended_internal_energy(eos_table, 0.0, 0.0) == 0.0


def test_extension_third_law_excludes_negative_entropy(eos_table):
    assert th.extended_internal_energy(eos_table, 1.0, -1.0) == math.inf


def test_extension_interior_value(eos):
    assert th.extended_internal_energy(eos, 1.0, 4.0 / 3.0) == pytest.approx(4.0, rel=1e-10)


def test_extension_negative_density_is_infinite(eos, eos_table):
    for e in (eos, eos_table):
        assert th.extended_internal_energy(e, -0.5, 1.0) == math.inf


def test_extension_vacuum_radiation_limit(eos, eos_table):
    # rho -> 0 at S > 0 leaves the radiation energy a (3S/4a)^{4/3}
    for e in (eos, eos_table):
        for s0 in (0.5, 2.0):
            expect = e.a * (3.0 * s0 / (4.0 * e.a)) ** (4.0 / 3.0)
            got = th.extended_internal_energy(e, 0.0, s0)
            assert got == pytest.approx(expect, rel=1e-4)


def test_extension_vacuum_cold_limit(eos):
    for s0 in (-3.0, 0.0):
        assert th.extended_internal_energy(eos, 0.0, s0) == pytest.approx(0.0, abs=1e-4)


def test_extension_cold_boundary_value(eos_table):
    # S -> 0 at rho > 0 leaves the zero-temperature compression energy
    got = th.extended_internal_energy(eos_table, 2.0, 0.0)
    assert got == pytest.approx(1.5 * eos_table.p_inf * 2.0 ** FT, rel=1e-6)


def test_extension_vacuum_radiation_closed_form(eos, eos_table, eos_table_nolaw):
    for e in (eos, eos_table, eos_table_nolaw):
        for s0 in (0.5, 2.0):
            expect = e.a * (3.0 * s0 / (4.0 * e.a)) ** (4.0 / 3.0)
            assert th.extended_internal_energy(e, 0.0, s0) == pytest.approx(expect, rel=1e-14)


def test_extension_vacuum_without_radiation(eos_a0):
    # without radiation the vacuum holds no entropy: E(0, S) is +inf for
    # S > 0 and the cold limit 0 otherwise
    for s0 in (1.0, 1.7):
        assert th.extended_internal_energy(eos_a0, 0.0, s0) == math.inf
    for s0 in (-3.0, 0.0):
        assert th.extended_internal_energy(eos_a0, 0.0, s0) == 0.0


def test_extension_hot_interior_value(eos):
    # theta = 2e9 (S = 1.07e28) is an interior point, however hot
    theta = 2e9
    S = float(th.specific_entropy(eos, 1.0, theta))
    expect = float(th.specific_internal_energy(eos, 1.0, theta))
    assert th.extended_internal_energy(eos, 1.0, S) == pytest.approx(expect, rel=1e-12)


def test_extension_without_radiation_increases_with_entropy(eos_a0):
    # dE/dS = theta > 0; at S = 40, theta is about 4e11
    assert (th.extended_internal_energy(eos_a0, 1.0, 30.0)
            < th.extended_internal_energy(eos_a0, 1.0, 40.0))


@pytest.mark.parametrize("entropy_const", [0.0, 0.7])
def test_extension_without_radiation_closed_form(entropy_const):
    # at a = 0 the iconic inversion is log theta = (2/3)(S/rho + log rho -
    # entropy_const), finite far past the bracket's hot end: at S = 400,
    # theta = e^{800/3}, about 1e116.  The reference goes through Z and the
    # shape: rho s = rho (S(Z) + entropy_const), rho e = (3/2) theta^{5/2} P(Z)
    # (the closures' radiation terms would read 0 * inf there)
    eos_a0 = th.iconic_eos(a=0.0, entropy_const=entropy_const)
    for rho, S in ((1.0, 400.0), (1.0, 40.0), (0.3, 4.0), (2.5, -3.0), (1.0, 4.0 / 3.0)):
        theta = math.exp((S / rho + math.log(rho) - entropy_const) / 1.5)
        z = rho * theta ** -1.5
        s_shape = float(eos_a0.shape_fn.evaluate(z, "s")[0])
        assert rho * (s_shape + entropy_const) == pytest.approx(S, rel=1e-14, abs=1e-14)
        expect = 1.5 * theta ** 2.5 * float(eos_a0.shape_fn.evaluate(z, "p")[0])
        assert th.extended_internal_energy(eos_a0, rho, S) == pytest.approx(expect, rel=1e-14)
    assert (th.extended_internal_energy(eos_a0, 1.0, 40.0)
            < th.extended_internal_energy(eos_a0, 1.0, 400.0) < math.inf)
    # theta itself overflows beyond S/rho of about 1065
    assert th.extended_internal_energy(eos_a0, 1.0, 4000.0) == math.inf


def test_extension_past_hot_end_overflows_with_radiation(eos):
    # past theta = 1e100 rho e exceeds a 1e400: +inf, not an inversion failure
    hot = float(th.specific_entropy(eos, 1.0, 1e100))
    assert th.extended_internal_energy(eos, 1.0, 1e301) == math.inf
    assert 1e301 > hot


_COLD_OVERFLOW_CALLS = {
    "extended_internal_energy": lambda e: th.extended_internal_energy(e, 1e300, 1.0),
    "total_energy": lambda e: rl.total_energy(e, th.ConservativeState(1e300, [0.0], 1.0)),
    "relative_energy_conservative": lambda e: rl.relative_energy_conservative(
        e, th.ConservativeState(1e300, [0.0], 1.0), th.ConservativeState(1.0, [0.0], 1.0)).value,
    "admissibility_margin": lambda e: bd.admissibility_margin(e, 1e300, -0.5, -2.0),
    "cold_heat_flux_split": lambda e: -bd.cold_heat_flux_split(e, 1e300, -0.5, -2.0)[1],
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call", _COLD_OVERFLOW_CALLS.values(), ids=_COLD_OVERFLOW_CALLS)
@pytest.mark.parametrize("name", ("eos", "eos_table", "eos_table_nolaw"))
def test_overflowing_cold_energy_is_infinite(name, call, request):
    # at rho = 1e300 the cold energy (3/2) p_inf rho^{5/3} overflows: a
    # Python float's ** raises OverflowError where an array's rounds to inf,
    # and each caller returns its +inf (the split its F_tau = -inf) silently
    eos = request.getfixturevalue(name)
    assert th.cold_energy_density(eos, 1e300) == math.inf
    assert call(eos) == math.inf
    spec = bd.make_boundary(u_b_left=0.5, u_b_right=0.5, rho_b_left=1e300, F_ib_left=-2.0)
    report = bd.admissibility_check(eos, spec)
    assert not report.passed and report.margins[0.0] == math.inf
    assert report.messages == ("x=0: inflow flux margin F_ib/|u_b.n| + 1.5 p_inf rho_b^(5/3) "
                               "overflows at rho_b = 1e+300",)


def test_extension_midpoint_convexity(eos, rng):
    rho = rng.uniform(0.1, 5.0, 2000)
    theta = rng.uniform(0.1, 5.0, 2000)
    S = rho * np.asarray(th.specific_entropy(eos, rho, theta))

    def energy(r, s):
        t = th.temperature_from_entropy(eos, r, s)
        return r * np.asarray(th.specific_internal_energy(eos, r, t))

    xr, xs = rho[:1000], S[:1000]
    yr, ys = rho[1000:], S[1000:]
    ex, ey = energy(xr, xs), energy(yr, ys)
    for lam in (0.25, 0.5, 0.75):
        em = energy(lam * xr + (1 - lam) * yr, lam * xs + (1 - lam) * ys)
        gap = em - (lam * ex + (1 - lam) * ey)
        assert np.all(gap <= 1e-9 * (1.0 + np.abs(ex) + np.abs(ey)))


# ---------------------------------------------------------------------------
# transport coefficients
# ---------------------------------------------------------------------------


def test_transport_default_values(transport):
    mu, eta, kappa = th.transport_coefficients(transport, 1.0)
    assert mu == pytest.approx(2.0)
    assert eta == 0.0
    assert th.transport_coefficients(transport, 2.0)[2] == pytest.approx(9.0)


def test_zero_bulk_viscosity_is_admissible():
    ts = th.TransportSpec(eta_scale=0.0)
    assert float(ts.eta(2.0)) == 0.0


def test_transport_bounds_and_callables_are_refused():
    # the four scales set the whole power-law family; a bound could only
    # restate a scale, and a callable law would not reach the MMS sources
    removed = ("mu_under", "mu_over", "eta_over", "kappa_under", "kappa_over")
    with pytest.raises(sc.ScenarioValidationError) as err:
        sc.parse_scenario({"transport": dict.fromkeys(removed, 1.0)})
    assert ([(i.path, i.code) for i in err.value.issues if i.path.startswith("transport")]
            == [(f"transport.{key}", "unknown-key") for key in removed])
    with pytest.raises(TypeError):
        th.TransportSpec(mu_fn=lambda t: 0.1 * np.ones_like(np.asarray(t, dtype=float)))


def test_lambda_exponent_range_enforced():
    with pytest.raises(th.EosValidationError):
        th.TransportSpec(lambda_exp=0.3)
    with pytest.raises(th.EosValidationError):
        th.TransportSpec(lambda_exp=1.2)


# ---------------------------------------------------------------------------
# specification validation
# ---------------------------------------------------------------------------


def test_iconic_cannot_claim_third_law():
    with pytest.raises(th.EosValidationError):
        th.EosSpec(third_law=True)


def test_third_law_pins_entropy_gauge():
    z = np.geomspace(0.02, 400, 25)
    p = z + z ** FT + z ** FT / (1.0 + z)
    with pytest.raises(th.EosValidationError):
        th.tabulated_eos(z, p, third_law=True, entropy_const=1.0)


def test_general_table_gauge_may_lie_in_the_tail():
    # the general mode pins S(1) = 0; here Z = 1 lies past the last knot,
    # where the tail's S is shifted like every spline piece
    z = np.geomspace(0.002, 0.8, 25)
    shape = th.tabulated_eos(z, z + z ** FT + z ** FT / (1.0 + z), third_law=False).shape_fn
    assert shape.z_hi < 1.0
    assert shape.evaluate(np.array([1.0]), "s")[0][0] == 0.0
    below, above = shape.evaluate(shape.z_hi * np.array([1.0 - 1e-12, 1.0 + 1e-12]), "s")[0]
    assert above == pytest.approx(below, abs=1e-10)


def test_general_table_gauge_on_the_spline():
    # the general mode pins S(1) = 0 where Z = 1 lies on the spline too: the
    # build evaluates S there before it shifts the offsets, and a later pass
    # at Z = 1 must read the shifted rows, not rows kept from that pass
    shape = make_table_eos(third_law=False).shape_fn
    assert shape.z_lo < 1.0 < shape.z_hi
    assert shape.evaluate(np.array([1.0]), "s")[0][0] == pytest.approx(0.0, abs=1e-14)


def test_nonmonotone_table_rejected():
    z = np.geomspace(0.1, 10, 8)
    p = z.copy()
    p[3] = p[4] + 1.0
    with pytest.raises(th.EosValidationError):
        th.tabulated_eos(z, p)


def test_table_must_dominate_asymptote():
    z = np.geomspace(0.1, 10, 8)
    p = 0.5 * z ** FT + 1e-3 * z  # ratio falls below p_inf = 1
    with pytest.raises(th.EosValidationError):
        th.tabulated_eos(z, p, p_inf=1.0)


def _table_with(key, k, value):
    """The 25-knot Third-law table with entry ``k`` of column ``key`` set."""
    eos = make_table_eos(third_law=True)
    columns = {"z": list(eos.table_z), "p": list(eos.table_p)}
    columns[key][k] = value
    return th.tabulated_eos(columns["z"], columns["p"])


@pytest.mark.parametrize("make, message", [
    (lambda: th.TransportSpec(mu_scale=math.nan), "shear viscosity scale must be positive"),
    (lambda: th.TransportSpec(eta_scale=math.nan), "bulk viscosity scale must be nonnegative"),
    (lambda: th.TransportSpec(kappa_scale=math.nan), "conductivity scale must be positive"),
    (lambda: th.EosSpec(p_inf=math.nan), "p_inf must be positive, got nan"),
    (lambda: th.EosSpec(a=math.nan), "radiation constant a must be nonnegative, got nan"),
    (lambda: _table_with("z", 12, math.nan), "knots z must be positive and strictly"),
    (lambda: _table_with("p", 12, math.nan), "values p must be positive and strictly"),
    # z^(5/3) of the last knot overflows; it warned and was refused as a
    # table end ratio of 0
    (lambda: _table_with("z", 24, 1e308), r"knot z\[24\] = 1e\+308 overflows z\^\(5/3\)"),
    # a NaN u_b.n compared false with both signs and classified a wall
    (lambda: bd.BoundaryFace(pos=0.0, normal=-1.0, u_b=math.nan), "u_b . n is NaN"),
    (lambda: bd.BoundaryFace(pos=0.0, normal=-1.0, u_b=1.0, rho_b=math.nan, F_ib=-2.0),
     "inflow density must be positive, got rho_b=nan")],
    ids=["mu_scale", "eta_scale", "kappa_scale", "p_inf", "a", "table-z", "table-p",
         "table-z-overflow", "u_b", "rho_b"])
def test_nan_and_overflowing_parameters_are_refused(make, message):
    # each sign check read x <= 0, which a NaN passes
    with pytest.raises(ValueError, match=message):
        make()


def test_check_eos_invariants_pass(eos, eos_table, eos_table_nolaw):
    # a steep admissible table: P(Z) ~ 2000 Z near 0, so P(0) is probed at 0
    z = np.geomspace(0.02, 400, 25)
    steep = th.tabulated_eos(z, 2000 * z + z ** FT + z ** FT / (1 + z))
    for e in (eos, eos_table, eos_table_nolaw, steep):
        results = th.check_eos_invariants(e)
        assert all(ok for ok, _ in results.values()), results


@settings(max_examples=50, deadline=None)
@given(rho=st.floats(0.1, 10.0), theta=st.floats(0.1, 10.0))
def test_sound_speed_positive_property(rho, theta):
    eos = th.iconic_eos()
    assert float(th.sound_speed_sq(eos, rho, theta)) > 0.0


def test_sound_speed_theta_slope_cross_check(eos_a0):
    # p_theta by finite differences against the closed form, then the full
    # sound speed from the margin formulas
    rho0, th0, h = 1.0, 1.0, 1e-6
    fd = (th.pressure(eos_a0, rho0, th0 + h) - th.pressure(eos_a0, rho0, th0 - h)) / (2 * h)
    assert float(th.pressure_theta_slope(eos_a0, rho0, th0)) == pytest.approx(float(fd), rel=1e-8)
    dp, de = th.stability_margins(eos_a0, rho0, th0)
    cs2 = float(dp) + float(fd) ** 2 * th0 / (rho0 ** 2 * float(de))
    assert float(th.sound_speed_sq(eos_a0, rho0, th0)) == pytest.approx(cs2, rel=1e-8)


# ---------------------------------------------------------------------------
# fused closures: bitwise parity with the separate closures
# ---------------------------------------------------------------------------

PARITY_EOS = ("eos", "eos_table", "eos_table_nolaw")


def _parity_z(eos_table):
    """Z in the table head, on every spline knot (z_lo and z_hi exactly),
    between knots, and in the tail."""
    knots = np.asarray(eos_table.table_z[1:-1])
    shape = eos_table.shape_fn
    assert knots[0] == shape.z_lo and knots[-1] == shape.z_hi
    return np.concatenate([knots[0] * np.geomspace(1e-3, 0.9, 4), knots,
                           np.sqrt(knots[:-1] * knots[1:]),
                           knots[-1] * np.geomspace(1.1, 1e3, 4)])


@pytest.mark.parametrize("name", PARITY_EOS)
def test_shape_p_dp_matches_separate_calls(name, eos_table, request):
    # names evaluated together equal names evaluated apart, for every set
    # of names, on the mixed array (the masked path on a table) and one Z
    # at a time on head, z_lo, z_hi and tail
    shape = request.getfixturevalue(name).shape_fn
    z = _parity_z(eos_table)
    names = ("p", "p_rho", "s", "ds")
    for zk in (z, z[0], eos_table.shape_fn.z_lo, eos_table.shape_fn.z_hi, z[-1]):
        apart = {n: shape.evaluate(zk, n)[0] for n in names}
        for k in range(2, len(names) + 1):
            for chosen in itertools.combinations(names, k):
                together = shape.evaluate(zk, *chosen)
                assert all(map(np.array_equal, together, (apart[n] for n in chosen)))


@pytest.mark.parametrize("name", PARITY_EOS)
def test_gibbs_and_invariants_evaluate_the_shape_once(name, request, monkeypatch):
    # the Gibbs terms take P, P' and S' at their Z from one evaluation, and
    # the invariant checks take them on their Z grid from one
    eos = request.getfixturevalue(name)
    shape = eos.shape_fn
    evaluate, calls = type(shape).evaluate, []

    def logged(self, z, *names):
        if self is shape:
            calls.append((np.size(z), names))
        return evaluate(self, z, *names)
    # the class is patched, so that the shared shape keeps no method of its own
    monkeypatch.setattr(type(shape), "evaluate", logged)
    th.gibbs_residual(eos, np.array([0.003, 1.0, 2000.0]), np.full(3, 1.3))
    assert calls == [(3, ("p", "p_rho", "ds"))]
    calls.clear()
    assert all(ok for ok, _ in th.check_eos_invariants(eos).values())
    assert [names for size, names in calls if size == 400] == [("p", "p_rho", "ds")]


@pytest.mark.parametrize("case", [(1.0, 1.0), (2.5, 0.3), "eos_table", "eos_table_nolaw"],
                         ids=["1.0-1.0", "2.5-0.3", "eos_table", "eos_table_nolaw"])
def test_iconic_theta_slopes_hold_down_to_the_coldest_states(case, request):
    # by the Maxwell relation p_theta = Pi_theta + (4a/3) theta^3 and
    # (rho e)_theta = 1.5 Pi_theta + 4a theta^3, where the PowerShape region
    # that holds Z gives Pi_theta = b rho + 2.5 c theta^{3/2} + 4 d theta^3/rho
    # with no p_inf term: the closures and the stage pass hold them to 1e-13
    # at rho = 1, on the iconic shape (Pi_theta = rho) from theta = 1e-12
    # (where the form 2.5 theta^{3/2} P - 1.5 rho P' read 1.1e-2 high) to
    # 10, and on a table's tail from 1e-12 until Z reaches z_hi (where that
    # form read -2.6e11 relative on the Third-law tail and 7.5e-6 on the
    # general one)
    if isinstance(case, str):
        eos = request.getfixturevalue(case)
        region = eos.shape_fn.tail
        theta = np.geomspace(1e-12, 0.999 * eos.shape_fn.z_hi ** (-2.0 / 3.0), 131)
        assert np.all(1.0 / theta ** 1.5 > eos.shape_fn.z_hi)
    else:
        eos = th.iconic_eos(p_inf=case[0], a=case[1])
        region = eos.shape_fn
        theta = np.geomspace(1e-12, 10.0, 131)
    a, b, c, d = eos.a, region.b, region.c, region.d
    rho = np.ones_like(theta)
    pi_theta = b * rho + 2.5 * c * theta ** 1.5 + 4.0 * d * theta ** 3 / rho
    p_theta = pi_theta + (4.0 * a / 3.0) * theta ** 3
    w_theta = 1.5 * pi_theta + 4.0 * a * theta ** 3
    *_, stage_w_theta, stage_p_theta = th.stage_closures(eos, rho, theta, True)
    for got, expected in ((th.pressure_theta_slope(eos, rho, theta), p_theta),
                          (stage_p_theta, p_theta),
                          (rho * th.energy_theta_slope(eos, rho, theta), w_theta),
                          (stage_w_theta, w_theta)):
        np.testing.assert_allclose(got, expected, rtol=1e-13, atol=0.0)


def test_power_shape_state_forms_match_the_z_view(eos_table, eos_table_nolaw):
    # a member with a, b, c and d all nonzero, over Z from 1e-2 to 1e2, and
    # both tables on head, spline and tail Z: the (rho, theta) entry against
    # the Z view of the same names times the power of theta each carries,
    # Pi = theta^{5/2} P, Pi_rho = theta P', Pi_theta = theta^{3/2} P_theta
    # and S, for theta from 1e-2 to 1e2; the view's P_theta is 2.5 P
    # - 1.5 Z P' to the rounding of those terms, and at theta = 1 the entry
    # is the view bit for bit
    member = th.PowerShape(0.7, 1.3, 0.4, 0.25)
    member.s0 = -0.6
    names = ("p", "p_rho", "p_theta", "s")
    for shape, z_grid in ((member, np.geomspace(1e-2, 1e2, 21)),
                          (eos_table.shape_fn, _parity_z(eos_table)),
                          (eos_table_nolaw.shape_fn, _parity_z(eos_table))):
        z, theta = (g.ravel() for g in np.meshgrid(z_grid, np.geomspace(1e-2, 1e2, 17)))
        rho = z * theta ** 1.5
        p, dp, p_theta, s = shape.evaluate(z, *names)
        pi, pi_rho, pi_theta, s_state = shape.evaluate_state(rho, theta, *names)
        np.testing.assert_allclose(pi, theta ** 2.5 * p, rtol=1e-13)
        np.testing.assert_allclose(pi_rho, theta * dp, rtol=1e-13)
        np.testing.assert_allclose(pi_theta, theta ** 1.5 * p_theta, rtol=1e-13)
        np.testing.assert_allclose(s_state, s, rtol=1e-12, atol=1e-13)
        terms = 2.5 * np.abs(p) + 1.5 * np.abs(z * dp)
        assert np.all(np.abs(p_theta - (2.5 * p - 1.5 * z * dp))
                      <= 4 * np.finfo(float).eps * terms)
        at_one = shape.evaluate_state(z, np.ones_like(z), *names)
        assert all(map(np.array_equal, at_one, (p, dp, p_theta, s)))


@pytest.mark.parametrize("name", PARITY_EOS)
def test_stage_slopes_match_finite_differences(name, request):
    # w_rho = d(rho e)/drho at fixed theta and w_theta = d(rho e)/dtheta at
    # fixed rho against central differences of rho e, on head, spline and
    # tail Z
    eos = request.getfixturevalue(name)
    rho = np.array([0.003, 0.5, 2.0, 40.0, 2000.0])
    theta = np.full_like(rho, 1.3)
    # (and p_theta = dp/dtheta at fixed rho against those of p)
    _, _, _, _, w_rho, w_theta, p_theta = th.stage_closures(eos, rho, theta, True)

    def rho_e(r, t):
        return r * th.specific_internal_energy(eos, r, t)
    h = 1e-6
    fd_rho = (rho_e(rho * (1 + h), theta) - rho_e(rho * (1 - h), theta)) / (2 * h * rho)
    fd_theta = (rho_e(rho, theta * (1 + h)) - rho_e(rho, theta * (1 - h))) / (2 * h * theta)
    fd_p = (th.pressure(eos, rho, theta * (1 + h)) - th.pressure(eos, rho, theta * (1 - h))) / (
        2 * h * theta)
    np.testing.assert_allclose(w_rho, fd_rho, rtol=1e-7)
    np.testing.assert_allclose(w_theta, fd_theta, rtol=1e-7)
    np.testing.assert_allclose(p_theta, fd_p, rtol=1e-7)


@pytest.mark.parametrize("name", PARITY_EOS)
def test_shape_entropy_at_zero_is_silent(name, request):
    # S = +inf and S' = -inf at Z = 0 on both shapes, with no warning (the
    # suite makes warnings errors); P(0) = 0
    shape = request.getfixturevalue(name).shape_fn
    z = np.array([0.0, 1.0])
    p, s = shape.evaluate(z, "p", "s")
    assert p[0] == 0.0 and s[0] == np.inf and np.isfinite(s[1])
    s = shape.evaluate(z, "s")[0]
    assert s[0] == np.inf and np.isfinite(s[1])
    slope = shape.evaluate(z, "ds")[0]
    assert slope[0] == -np.inf and np.isfinite(slope[1])


def test_power_shape_slopes_match_the_family_and_the_gap_formula():
    # a member with a, b, c and d all nonzero, unlike any shipped region: P'
    # and S' against central differences of P and S, and S' against the gap
    # formula -(3/2)((5/3)P - P'Z)/Z^2 to the rounding of the formula's terms
    # (far out it cancels the Z^{5/3} terms of P)
    shape = th.PowerShape(0.7, 1.3, 0.4, 0.25)
    shape.s0 = -0.6
    z = np.geomspace(1e-3, 1e3, 200)
    p, dp, s, ds = shape.evaluate(z, "p", "p_rho", "s", "ds")
    np.testing.assert_array_equal(p, z * (0.7 * z ** (2 / 3) + 1.3) + 0.4 + 0.25 / z)
    h = 1e-5
    p_up, s_up = shape.evaluate(z * (1 + h), "p", "s")
    p_dn, s_dn = shape.evaluate(z * (1 - h), "p", "s")
    np.testing.assert_allclose(dp, (p_up - p_dn) / (2 * h * z), rtol=1e-8)
    np.testing.assert_allclose(ds, (s_up - s_dn) / (2 * h * z), rtol=1e-8)
    gap = -1.5 * (FT * p - dp * z) / (z * z)
    terms = 1.5 * (FT * p + dp * z) / (z * z)
    assert np.all(np.abs(ds - gap) <= 16 * np.finfo(float).eps * terms)


@pytest.mark.parametrize("theta0", (1.0, 4.0))
@pytest.mark.parametrize("name", PARITY_EOS)
def test_fused_closures_match_separate_calls(name, theta0, eos_table, request):
    eos = request.getfixturevalue(name)
    z = _parity_z(eos_table)
    theta = np.full_like(z, theta0)
    rho = z * theta0 ** 1.5
    assert np.array_equal(th._theta_powers(rho, theta).z, z)  # the probe hits the intended Z
    e = th.specific_internal_energy(eos, rho, theta)
    de = th.energy_theta_slope(eos, rho, theta)
    # the stage's one (p, e, s) pass and its pass with slopes, on the mixed
    # array (the masked path on a table), on head, spline and tail alone,
    # and one Z at a time
    shape = eos_table.shape_fn
    parts = (z < shape.z_lo, (z >= shape.z_lo) & (z <= shape.z_hi), z > shape.z_hi)
    for sel in (slice(None),) + parts + tuple(range(z.size)):
        r, t = rho[sel], theta[sel]
        p_s, e_s, s_s = th.stage_closures(eos, r, t)
        assert np.array_equal(p_s, th.pressure(eos, r, t))
        assert np.array_equal(e_s, th.specific_internal_energy(eos, r, t))
        assert np.array_equal(s_s, th.specific_entropy(eos, r, t))
        *closures, c2, w_rho, w_theta, p_theta = th.stage_closures(eos, r, t, True)
        assert all(map(np.array_equal, closures, (p_s, e_s, s_s)))
        assert np.array_equal(c2, th.sound_speed_sq(eos, r, t))
        assert np.array_equal(w_rho, 1.5 * th.pressure_rho_slope(eos, r, t))
        assert np.array_equal(w_theta, r * th.energy_theta_slope(eos, r, t))
        assert np.array_equal(p_theta, th.pressure_theta_slope(eos, r, t))
    if eos.shape == "table":
        # the table residual is the separate closures, operation for operation
        w = 0.5 * rho
        f, df = th.energy_density_residual(eos, rho, w)(theta)
        assert np.array_equal(f, rho * (e + 0.0 * theta) - w)
        assert np.array_equal(df, rho * (de + 0.0))
        f_d, df_d = th.energy_density_residual(eos, rho, w, 1e-3)(theta)
        assert np.array_equal(f_d, rho * (e + 1e-3 * theta) - w)
        assert np.array_equal(df_d, rho * (de + 1e-3))
    else:
        _assert_quartic_matches_closures(eos, rho, theta, 0.0)
        _assert_quartic_matches_closures(eos, rho, theta, 1e-3)
    # the composite the sound speed was built from before its slopes shared Z
    p_t = th.pressure_theta_slope(eos, rho, theta)
    reference = (th.pressure_rho_slope(eos, rho, theta)
                 + p_t * p_t * theta / (rho * rho * th.energy_theta_slope(eos, rho, theta)))
    assert np.array_equal(th.sound_speed_sq(eos, rho, theta), reference)


@pytest.mark.parametrize("name", ("eos_table", "eos_table_nolaw"))
def test_table_kernel_matches_spline_and_per_piece_entropy(name, eos_table, request):
    # the gathered kernel against scipy's own spline (PCHIP slopes inside,
    # the closure slopes at the junctions) and a per-piece entropy loop, on
    # the whole-spline path and on the masked path of a mixed array
    from scipy.interpolate import CubicHermiteSpline, PchipInterpolator

    eos = request.getfixturevalue(name)
    shape = eos.shape_fn
    table_z, table_p = np.asarray(eos.table_z), np.asarray(eos.table_p)
    knots = table_z[1:-1]
    slopes = PchipInterpolator(table_z, table_p).derivative()(knots)
    slopes[0] = shape.head.evaluate(knots[0], "p_rho")[0]
    slopes[-1] = shape.tail.evaluate(knots[-1], "p_rho")[0]
    spline = CubicHermiteSpline(knots, table_p[1:-1], slopes)
    z = _parity_z(eos_table)
    on = (z >= shape.z_lo) & (z <= shape.z_hi)
    piece = np.clip(np.searchsorted(knots, z[on], side="right") - 1, 0, len(knots) - 2)
    s_ref = np.empty(on.sum())
    for k in np.unique(piece):
        m = piece == k
        s_ref[m] = (shape._cubic_entropy_antideriv(shape._coeffs[:, k], z[on][m])
                    + shape._offsets[k])
    for zz, sel in ((z[on], slice(None)), (z, on)):
        p, dp = shape.evaluate(zz, "p", "p_rho")
        assert np.array_equal(p[sel], spline(z[on]))
        assert np.array_equal(dp[sel], spline.derivative()(z[on]))
        assert np.array_equal(shape.evaluate(zz, "p")[0][sel], p[sel])
        assert np.array_equal(shape.evaluate(zz, "p_rho")[0][sel], dp[sel])
        assert np.array_equal(shape.evaluate(zz, "s")[0][sel], s_ref)
    # one z at a time (0-d arrays) reaches the same values
    for zk, pk in zip(z[on], spline(z[on])):
        assert shape.evaluate(np.asarray(zk), "p")[0] == pk


@pytest.mark.parametrize("name", ("eos_table", "eos_table_nolaw"))
def test_bound_pieces_match_the_unbound_pass(name, monkeypatch):
    # Newton-like calls on one fresh table, as a recovery's residual makes
    # them: Z moves inside its pieces, crosses an interior knot, lands on
    # z_hi, steps just past it into the tail, comes back, drops below z_lo
    # into the head, turns NaN; every call's P and P' (and P alone, as the
    # recovery's check) equal a fresh table's bit for bit, and a lookup is
    # made only where some Z left the piece the table kept for it or lies
    # off the spline
    def fresh():
        return make_table_eos(name == "eos_table").shape_fn
    shape = fresh()
    k = shape._knots
    lo, hi, up = shape.z_lo, shape.z_hi, math.inf
    z0 = np.array([0.5 * (k[0] + k[1]), k[6] * (1 - 1e-3), k[10], 0.5 * (k[-2] + k[-1])])
    calls = [  # (z, whether the call looks its pieces up)
        (z0, True),
        (z0 * (1 + 1e-4), False),                                 # inside every piece
        (np.array([z0[0], k[6] * (1 + 1e-3), k[10], z0[3]]), True),  # across knot 6
        (np.array([z0[0], k[6], k[10], hi]), False),               # onto knot 6 and z_hi
        (np.array([z0[0], k[6], k[10], np.nextafter(hi, up)]), True),  # the tail, masked
        (np.array([z0[0], k[6], k[10], hi]), False),               # back in the kept pieces
        (np.array([np.nextafter(lo, 0.0), k[6], k[10], hi]), True),  # the head, masked
        (np.array([lo, k[6], k[10], hi]), False),                  # knot 0, z0[0]'s piece
        (np.array([lo, k[6], np.nan, hi]), True),                  # NaN, masked
        (np.array([lo, k[6], k[10], hi]), False),
    ]
    reference = [fresh().evaluate(z, "p", "p_rho") for z, _ in calls]
    lookups = []
    locate = shape._locate
    monkeypatch.setattr(shape, "_locate",
                        lambda z, names: lookups.append(1) or locate(z, names))
    for (z, located), (p, dp) in zip(calls, reference):
        lookups.clear()
        kept_p, kept_dp = shape.evaluate(z, "p", "p_rho")
        assert kept_p.tobytes() == p.tobytes() and kept_dp.tobytes() == dp.tobytes()
        assert len(lookups) == located
        # the check's value alone reads the same kept rows: it looks up only
        # where a z lies off the spline (NaN fails both comparisons)
        assert shape.evaluate(z, "p")[0].tobytes() == p.tobytes()
        assert len(lookups) == located + (not (lo <= z.min() and z.max() <= hi))


_NAMES = ("p", "p_rho", "s", "ds")


@seed(SEED)
@settings(max_examples=60, deadline=None)
@given(third_law=st.booleans(), n=st.integers(1, 9), data=st.data())
def test_kept_pieces_match_a_fresh_table_property(third_law, n, data):
    # random sequences of calls on one long-lived table against a fresh
    # table per call: 1-d arrays of several lengths (n and n + 2 as a solver
    # step makes them, and more, so that the oldest kept length is dropped)
    # and 2-d stacks, drifting inside their pieces or across knots, with
    # knots, head, tail and NaN values; every value agrees bit for bit, at
    # most four lengths are kept, and a 2-d z is never kept
    z_tab = np.geomspace(0.02, 400, 25)
    p_tab = z_tab + z_tab ** (5.0 / 3.0) + z_tab ** (5.0 / 3.0) / (1.0 + z_tab)

    def fresh():
        return th.TabulatedShape(z_tab, p_tab, 1.0, third_law)
    shape = fresh()
    k, lo, hi = shape._knots, shape.z_lo, shape.z_hi
    specials = [lo, hi, np.nextafter(lo, 0.0), np.nextafter(hi, math.inf), 1e-3 * lo,
                1e3 * hi, math.nan, *k, *np.nextafter(k, 0.0)]
    drifting = {}
    for _ in range(data.draw(st.integers(1, 12), label="calls")):
        length = n + data.draw(st.sampled_from([0, 2, 0, 2, 1, 3, 4, 5]), label="extra")
        rows = data.draw(st.sampled_from([None, None, None, 2]), label="stack")
        shape_z = (length,) if rows is None else (rows, length)
        base = drifting.get(shape_z)
        if base is None:
            base = np.array(data.draw(st.lists(st.floats(lo, hi), min_size=length * (rows or 1),
                                               max_size=length * (rows or 1)),
                                      label="z")).reshape(shape_z)
        step = data.draw(st.sampled_from([0.0, 1e-12, 1e-4, 0.3]), label="drift")
        base = np.clip(base * (1.0 + step * np.cos(np.arange(base.size))).reshape(shape_z),
                       lo, hi)
        drifting[shape_z] = base
        z = base.copy()
        for _ in range(data.draw(st.integers(0, 2), label="specials")):
            z.flat[data.draw(st.integers(0, z.size - 1), label="cell")] = data.draw(
                st.sampled_from(specials), label="special")
        got, expected = shape.evaluate(z, *_NAMES), fresh().evaluate(z, *_NAMES)
        for name, g, e in zip(_NAMES, got, expected):
            assert g.tobytes() == e.tobytes(), (name, z)
        assert len(shape._kept) <= 4
        assert all(len(key) == 1 for key in shape._kept)


@pytest.mark.parametrize("third_law,knots", ((True, 25), (False, 25), (True, 60), (False, 60)))
def test_horner_pieces_match_polynomial_composition(third_law, knots):
    # each piece's global-basis cubic, bit for bit, against numpy's own
    # composition of its local cubic with (Z - knot)
    from numpy.polynomial import Polynomial

    shape = make_table_eos(third_law, knots).shape_fn
    reference = np.zeros_like(shape._coeffs)
    for k in range(reference.shape[1]):
        local = Polynomial(shape._c[::-1, k])
        shifted = local(Polynomial([-shape._knots[k], 1.0])).coef
        reference[: len(shifted), k] = shifted
    assert shape._coeffs.shape == (4, knots - 3)
    assert shape._coeffs.tobytes() == reference.tobytes()


@pytest.mark.parametrize("build", (th.iconic_eos, lambda: make_table_eos(True),
                                   lambda: make_table_eos(False)),
                         ids=("iconic", "table", "table_nolaw"))
def test_shape_is_freed_without_the_cycle_collector(build):
    # a shape holds no reference cycle, so the shapes a run builds never
    # accumulate for the cyclic collector's full passes
    gc.disable()
    try:
        shape = weakref.ref(build().shape_fn)
        assert shape() is None
    finally:
        gc.enable()


def test_fused_energy_closure_checks_no_domain(eos, eos_table, monkeypatch):
    # its one caller, the solver's recovery, floors rho where it forms it
    # and hands it a positive guess, so the residual builds and evaluates
    # with no domain check, to the values of the checked closures
    rho, theta, w = np.array([1.0, 0.5, 2.0]), np.array([1.2, 0.8, 1.0]), np.ones(3)
    for e in (eos, eos_table):
        w_at_theta = rho * th.specific_internal_energy(e, rho, theta)
        with monkeypatch.context() as mp:
            mp.setattr(th, "_in_domain", _unexpected_call)
            f = th.energy_density_residual(e, rho, w)(theta, slope=False)
        np.testing.assert_allclose(f, w_at_theta - w, rtol=1e-13)


def _unexpected_call(*args, **kwargs):
    raise AssertionError("unexpected call")


_ONES = np.ones(3)
_NAN_CELL = np.array([1.0, math.nan, 1.0])
# a NaN density or temperature, scalar or in one cell, fails every check
_NAN_STATES = {"rho": (math.nan, 1.0), "theta": (1.0, math.nan),
               "rho-cell": (_NAN_CELL, _ONES), "theta-cell": (_ONES, _NAN_CELL)}
_OFF_DOMAIN = ((_ONES, np.array([1.0, 0.0, 1.0])), (_ONES, -_ONES),
               (np.array([1.0, 0.0, 1.0]), _ONES), (-_ONES, _ONES),
               (np.array([1.0, -1.0, 1.0]), np.array([1.0, 1.0, 0.0])), (1.0, -1.0), (-1.0, 1.0),
               *_NAN_STATES.values())


@pytest.mark.parametrize("name", PARITY_EOS)
def test_stage_closures_keep_domain_checks(name, request):
    # the messages the separate closures raise first in the stage: those of e
    eos = request.getfixturevalue(name)
    for rho, theta in _OFF_DOMAIN:
        with pytest.raises(th.EosDomainError) as expected:
            th.specific_internal_energy(eos, rho, theta)
        with pytest.raises(th.EosDomainError, match="^" + re.escape(str(expected.value)) + "$"):
            th.stage_closures(eos, rho, theta)


@pytest.mark.parametrize("slope, closure", [
    (th.pressure_rho_slope, th.pressure), (th.pressure_theta_slope, th.pressure),
    (th.energy_theta_slope, th.specific_internal_energy),
    (th.entropy_theta_slope, th.specific_internal_energy),
    (th.sound_speed_sq, th.specific_internal_energy),
    (th.stability_margins, th.specific_internal_energy)])
@pytest.mark.parametrize("name", PARITY_EOS)
def test_slope_closures_keep_domain_checks(name, slope, closure, request):
    # a slope refuses what the closure it differentiates refuses, with its
    # message, and takes what it takes: rho = 0 for the slopes of p
    eos = request.getfixturevalue(name)
    for rho, theta in _OFF_DOMAIN:
        try:
            closure(eos, rho, theta)
        except th.EosDomainError as expected:
            with pytest.raises(th.EosDomainError,
                               match="^" + re.escape(str(expected)) + "$"):
                slope(eos, rho, theta)
        else:
            assert np.all(np.isfinite(slope(eos, rho, theta)))


def _unchecked(cls, **fields):
    """A ``cls`` state holding ``fields`` without its own checks: what a
    function that checks the state again may still be handed."""
    state = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(state, name, value)
    return state


def _conservative(rho):
    return _unchecked(th.ConservativeState, rho=rho, m=np.zeros(1), S=1.0)


# (site, error class, call(eos, rho, theta), scalars only); a site of one
# field reads rho * theta, which is NaN where either is
_NAN_SITES = [
    ("specific_entropy", th.EosDomainError, th.specific_entropy, False),
    ("gibbs_residual", th.EosDomainError, th.gibbs_residual, False),
    ("transport_coefficients", th.EosDomainError,
     lambda e, r, t: th.transport_coefficients(th.TransportSpec(), r * t), False),
    ("entropy_density_residual", th.OutOfDomainError,
     lambda e, r, t: th.entropy_density_residual(e, r * t, 1.0), False),
    ("ThermoState", th.EosDomainError, lambda e, r, t: th.ThermoState(r, 0.0, t), False),
    ("ConservativeState", th.EosDomainError,
     lambda e, r, t: th.ConservativeState(r * t, 0.0, 1.0), False),
    ("to_conservative", th.EosDomainError, lambda e, r, t: th.to_conservative(
        e, _unchecked(th.ThermoState, rho=r, u=np.zeros(1), theta=t)), False),
    ("from_conservative", th.OutOfDomainError,
     lambda e, r, t: th.from_conservative(e, _conservative(r * t)), False),
    ("extended_internal_energy", th.EosDomainError, th.extended_internal_energy, True),
    ("relative_energy_fields", th.EosDomainError,
     lambda e, r, t: rl.relative_energy_fields(e, r, 0.0, t, 1.0, 0.0, 1.0), False),
    ("relative_energy_fields-reference", th.EosDomainError,
     lambda e, r, t: rl.relative_energy_fields(e, 1.0, 0.0, 1.0, r, 0.0, t), False),
    ("relative_energy_conservative", th.EosDomainError,
     lambda e, r, t: rl.relative_energy_conservative(
         e, th.ConservativeState(1.0, 0.0, 1.0), _conservative(r * t)), False),
    ("total_energy_gradient", th.OutOfDomainError,
     lambda e, r, t: rl.total_energy_gradient(e, _conservative(r * t)), False),
    ("ballistic_free_energy", th.EosDomainError,
     lambda e, r, t: rl.ballistic_free_energy(e, r, t, 1.0), False),
    ("ballistic_free_energy-theta", th.EosDomainError,
     lambda e, r, t: rl.ballistic_free_energy(e, 1.0, 1.0, r * t), False),
    ("entropy_inflow_flux", bd.BoundaryDataError,
     lambda e, r, t: bd.entropy_inflow_flux(e, 1.0, r * t, -1.0, -5.0), False),
    ("entropy_inflow_flux-u_b.n", bd.BoundaryDataError,
     lambda e, r, t: bd.entropy_inflow_flux(e, 1.0, 1.0, -r * t, -5.0), True),
    ("cold_heat_flux_split-u_b.n", bd.BoundaryDataError,
     lambda e, r, t: bd.cold_heat_flux_split(e, 1.0, -r * t, -5.0), True),
    ("cold_heat_flux_split-rho_b", bd.BoundaryDataError,
     lambda e, r, t: bd.cold_heat_flux_split(e, r * t, -1.0, -5.0), True),
    ("admissibility_margin-rho_b", bd.BoundaryDataError,
     lambda e, r, t: bd.admissibility_margin(e, r * t, -1.0, -5.0), True),
]


@pytest.mark.parametrize("error, call, state", [
    pytest.param(error, call, state, id=f"{site}-{state}")
    for site, error, call, scalar in _NAN_SITES for state in _NAN_STATES
    if not (scalar and state.endswith("cell"))])
def test_every_domain_check_refuses_nan(eos, error, call, state):
    # each site raises its own error class for a NaN density or temperature,
    # instead of returning a NaN or an infinite value
    with pytest.raises(error) as err:
        call(eos, *_NAN_STATES[state])
    assert err.type is error


class _UnusedWeight(float):
    """A zero weight that fails when a term is formed with it."""

    def __mul__(self, other):
        raise AssertionError("a delta term was formed")

    __rmul__ = __mul__


@pytest.mark.parametrize("name", PARITY_EOS)
def test_stage_closures_carry_the_delta_terms(name, request):
    # e_delta = e + delta theta, s_delta = s + delta log theta, and the
    # slopes of rho e_delta, bitwise; at delta = 0 no term is formed
    eos = request.getfixturevalue(name)
    rho = np.array([0.003, 0.5, 2.0, 40.0, 2000.0])
    theta = np.linspace(0.5, 2.5, 5)
    p, e, s, c2, w_rho, w_theta, p_theta = th.stage_closures(eos, rho, theta, True)
    for delta in (0.0, 1e-3):
        expected = (p, e + delta * theta, s + delta * np.log(theta), c2,
                    w_rho + delta * theta, w_theta + delta * rho, p_theta)
        assert all(map(np.array_equal, th.stage_closures(eos, rho, theta, True, delta), expected))
        assert all(map(np.array_equal, th.stage_closures(eos, rho, theta, delta=delta),
                       expected[:3]))
    for slopes in (False, True):
        assert all(map(np.array_equal, th.stage_closures(eos, rho, theta, slopes, _UnusedWeight()),
                       th.stage_closures(eos, rho, theta, slopes)))


def _assert_quartic_matches_closures(eos, rho, theta, delta):
    """The iconic quartic against rho (e + delta theta) and rho (de/dtheta +
    delta) of the closures, and its slope against exact rational arithmetic
    of 4 a theta^3 + (3/2 + delta) rho, each at rtol 1e-14."""
    rho = np.asarray(rho, dtype=float)
    theta = np.asarray(theta, dtype=float)
    f, df = th.energy_density_residual(eos, rho, np.zeros_like(rho), delta)(theta)
    np.testing.assert_allclose(
        f, rho * (th.specific_internal_energy(eos, rho, theta) + delta * theta),
        rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(df, rho * (th.energy_theta_slope(eos, rho, theta) + delta),
                               rtol=1e-14, atol=0.0)
    for r, t, d in zip(rho.ravel(), theta.ravel(), np.ravel(df)):
        exact = 4 * Fraction(eos.a) * Fraction(t) ** 3 + (Fraction(3, 2) + Fraction(delta)) * Fraction(r)
        assert abs(Fraction(d) - exact) <= Fraction(1e-14) * exact


@seed(SEED)
@settings(max_examples=200, deadline=None)
@given(rho=st.floats(1e-2, 1e2), theta=st.floats(1e-2, 1e2), a=st.floats(0.0, 10.0),
       p_inf=st.floats(1e-2, 1e2), delta=st.floats(0.0, 0.1))
def test_quartic_residual_matches_closures_property(rho, theta, a, p_inf, delta):
    _assert_quartic_matches_closures(th.iconic_eos(p_inf=p_inf, a=a), rho, theta, delta)
