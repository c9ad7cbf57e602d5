import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsfsim import boundary as bd
from nsfsim import thermo as th


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def test_classification_signs():
    # u_b . n with u_b = +1: the left outer normal is -1, so it enters there
    assert bd.classify(1.0 * -1.0) is bd.FaceKind.IN
    assert bd.classify(1.0 * 1.0) is bd.FaceKind.OUT
    assert bd.classify(0.0) is bd.FaceKind.WALL


@settings(max_examples=100, deadline=None)
@given(u=st.floats(1e-10, 1e6), scale=st.floats(1e-3, 1e3))
def test_classification_scale_invariance(u, scale):
    # invariance holds for velocities above the wall-detection tolerance
    assert bd.classify(-u) is bd.classify(-u * scale)
    assert bd.classify(u) is bd.classify(u * scale)


def test_wall_override_tolerance():
    assert bd.classify(5e-15, wall_override=True) is bd.FaceKind.WALL
    with pytest.raises(bd.BoundaryDataError):
        bd.classify(1e-3, wall_override=True)


def test_inflow_face_requires_data():
    with pytest.raises(bd.BoundaryDataError):
        bd.BoundaryFace(pos=0.0, normal=-1.0, u_b=1.0)  # inflow, no rho_b/F_ib
    with pytest.raises(bd.BoundaryDataError) as err:
        bd.BoundaryFace(pos=0.0, normal=-1.0, u_b=1.0, rho_b=-1.0, F_ib=-2.0)
    assert "positive" in str(err.value)


# ---------------------------------------------------------------------------
# entropy inflow flux
# ---------------------------------------------------------------------------


def test_entropy_inflow_flux_reference(eos):
    val = bd.entropy_inflow_flux(eos, 1.0, 1.0, -1.0, -2.0)
    assert val == pytest.approx(2.0 / 3.0, rel=1e-12)


def test_entropy_inflow_flux_vanishes_when_balanced():
    # gauge the entropy so s = e/theta at the trace state; with F_ib = 0
    # both contributions vanish
    eos = th.iconic_eos(entropy_const=8.0 / 3.0)
    assert float(th.specific_entropy(eos, 1.0, 1.0)) == pytest.approx(4.0)
    assert bd.entropy_inflow_flux(eos, 1.0, 1.0, -1.0, 0.0) == pytest.approx(0.0, abs=1e-12)


def test_entropy_inflow_flux_linear_in_energy_flux(eos, rng):
    rho_b, theta = 1.3, 0.8
    udn = -0.7
    f0 = bd.entropy_inflow_flux(eos, rho_b, theta, udn, 0.0)
    for f_ib in rng.uniform(-5, 5, 10):
        val = bd.entropy_inflow_flux(eos, rho_b, theta, udn, f_ib)
        assert val - f0 == pytest.approx(f_ib / theta, rel=1e-12)


def test_entropy_inflow_flux_rejects_outflow(eos):
    with pytest.raises(bd.BoundaryDataError):
        bd.entropy_inflow_flux(eos, 1.0, 1.0, 0.5, -2.0)


def test_entropy_flux_composition_identity(eos, rng):
    # rho_b s u.n + (q/theta).n == S_ib whenever q.n = F_ib - rho_b e u.n
    for _ in range(200):
        rho_b = rng.uniform(0.2, 3.0)
        theta = rng.uniform(0.2, 3.0)
        udn = -rng.uniform(0.1, 2.0)
        f_ib = rng.uniform(-5.0, -0.1)
        e = float(th.specific_internal_energy(eos, rho_b, theta))
        s = float(th.specific_entropy(eos, rho_b, theta))
        q_n = f_ib - rho_b * e * udn
        lhs = rho_b * s * udn + q_n / theta
        rhs = bd.entropy_inflow_flux(eos, rho_b, theta, udn, f_ib)
        assert lhs == pytest.approx(rhs, abs=1e-12, rel=1e-12)


# ---------------------------------------------------------------------------
# admissibility
# ---------------------------------------------------------------------------


def _channel(f_ib, rho_b=1.0, u_in=1.0):
    return bd.make_boundary(u_b_left=u_in, u_b_right=u_in, rho_b_left=rho_b,
                            F_ib_left=f_ib)


def test_admissibility_pass_example(eos):
    report = bd.admissibility_check(eos, _channel(-2.0))
    assert report.passed
    assert report.margins[0.0] == pytest.approx(-0.5, abs=1e-12)


def test_admissibility_fail_example(eos):
    report = bd.admissibility_check(eos, _channel(-1.0))
    assert not report.passed
    assert report.margins[0.0] == pytest.approx(0.5, abs=1e-12)


def test_positive_influx_fails_regardless_of_margin(eos):
    # F_ib > 0 violates the sign condition even with a huge density offset
    report = bd.admissibility_check(eos, _channel(1.0, rho_b=1e-3))
    assert not report.passed
    assert not report.influx_negative[0.0]


def test_all_wall_passes_vacuously(eos):
    report = bd.admissibility_check(eos, bd.make_boundary())
    assert report.passed and not report.margins


def test_admissibility_monotone_in_flux(eos, rng):
    # making F_ib more negative never turns PASS into FAIL
    for _ in range(50):
        rho_b = rng.uniform(0.2, 2.0)
        u_in = rng.uniform(0.1, 2.0)
        f = -rng.uniform(0.1, 5.0)
        first = bd.admissibility_check(eos, _channel(f, rho_b, u_in)).passed
        second = bd.admissibility_check(eos, _channel(f - rng.uniform(0.0, 5.0),
                                                      rho_b, u_in)).passed
        assert second or not first


# ---------------------------------------------------------------------------
# cold / heat flux split
# ---------------------------------------------------------------------------


def test_split_reference_values(eos):
    cold, f_tau = bd.cold_heat_flux_split(eos, 1.0, -1.0, -2.0)
    assert cold == pytest.approx(-1.5, abs=1e-12)
    assert f_tau == pytest.approx(0.5, abs=1e-12)


def test_split_borderline_fails_strictly(eos):
    cold, _ = bd.cold_heat_flux_split(eos, 1.0, -1.0, -2.0)
    _, f_tau = bd.cold_heat_flux_split(eos, 1.0, -1.0, cold)
    assert f_tau == pytest.approx(0.0, abs=1e-12)
    assert not (f_tau > 0.0)  # strict inequality: borderline is inadmissible
    margin = bd.admissibility_margin(eos, 1.0, -1.0, cold)
    assert margin == pytest.approx(0.0, abs=1e-12)
    report = bd.admissibility_check(eos, _channel(cold))
    assert not report.passed


def test_split_density_scaling(eos):
    cold1, _ = bd.cold_heat_flux_split(eos, 1.0, -1.0, -2.0)
    cold2, _ = bd.cold_heat_flux_split(eos, 2.0 ** 0.6, -1.0, -2.0)
    assert cold2 == pytest.approx(2.0 * cold1, rel=1e-12)


def test_split_rejects_outflow(eos):
    with pytest.raises(bd.BoundaryDataError):
        bd.cold_heat_flux_split(eos, 1.0, 0.3, -2.0)


def test_split_consistent_with_margin(eos, rng):
    for _ in range(100):
        rho_b = rng.uniform(0.2, 2.0)
        udn = -rng.uniform(0.1, 2.0)
        f_ib = -rng.uniform(0.1, 5.0)
        _, f_tau = bd.cold_heat_flux_split(eos, rho_b, udn, f_ib)
        margin = bd.admissibility_margin(eos, rho_b, udn, f_ib)
        assert margin == pytest.approx(-f_tau, rel=1e-12, abs=1e-12)
