import collections
import math

import numpy as np
import pytest

from nsfsim import relent as re
from nsfsim import thermo as th
from nsfsim.mesh import Mesh1D


def _random_state(rng, lo=0.2, hi=4.0):
    return th.ThermoState(rng.uniform(lo, hi), rng.uniform(-2, 2), rng.uniform(lo, hi))


class _Fields:
    def __init__(self, rho, u, theta):
        self.rho, self.u, self.theta = (np.asarray(rho, dtype=float),
                                        np.asarray(u, dtype=float),
                                        np.asarray(theta, dtype=float))


# ---------------------------------------------------------------------------
# pointwise samples
# ---------------------------------------------------------------------------


def test_self_distance_vanishes(eos, rng):
    for _ in range(20):
        s = _random_state(rng)
        sample = re.relative_energy_standard(eos, s, s)
        assert sample.value == pytest.approx(0.0, abs=1e-12)
        assert sample.kinetic_part == 0.0


def test_velocity_only_difference_is_kinetic(eos):
    s = th.ThermoState(1.0, 1.0, 1.0)
    ref = th.ThermoState(1.0, 0.0, 1.0)
    sample = re.relative_energy_standard(eos, s, ref)
    assert sample.kinetic_part == pytest.approx(0.5, abs=1e-14)
    assert sample.bregman_part == pytest.approx(0.0, abs=1e-14)


def test_second_order_growth_near_reference(eos):
    ref = th.ThermoState(1.0, 0.2, 1.0)
    ratios = []
    for h in (1e-3, 5e-4, 2.5e-4):
        s = th.ThermoState(ref.rho + h, 0.2, 1.0)
        ratios.append(re.relative_energy_standard(eos, s, ref).value / h ** 2)
    assert ratios[-1] > 0.0
    assert ratios[0] == pytest.approx(ratios[-1], rel=1e-2)


@pytest.mark.parametrize("eos_name", ["eos", "eos_table", "eos_table_nolaw"])
def test_fields_take_one_closure_pass_per_trio(eos_name, request, rng, monkeypatch):
    eos = request.getfixturevalue(eos_name)
    # Z = rho / theta^{3/2} spans the table's head, spline and tail
    rho, rho_r = rng.uniform(0.05, 40.0, (2, 300))
    theta, theta_r = rng.uniform(0.05, 20.0, (2, 300))
    u, u_r = rng.normal(size=(2, 300))
    # the separate-closure formula
    e, s = th.specific_internal_energy(eos, rho, theta), th.specific_entropy(eos, rho, theta)
    e_r = th.specific_internal_energy(eos, rho_r, theta_r)
    s_r = th.specific_entropy(eos, rho_r, theta_r)
    p_r = th.pressure(eos, rho_r, theta_r)
    h, h_r = rho * (e - theta_r * s), rho_r * (e_r - theta_r * s_r)
    breg = h - (e_r - theta_r * s_r + p_r / rho_r) * (rho - rho_r) - h_r
    kin = 0.5 * rho * ((u - u_r) * (u - u_r))

    calls = collections.Counter()
    for name in ("stage_closures", "energy_density_gradient",
                 "specific_internal_energy", "specific_entropy"):
        monkeypatch.setattr(re, name, lambda *a, _name=name, _fn=getattr(re, name):
                            calls.update([_name]) or _fn(*a))
    got = re.relative_energy_fields(eos, rho, u, theta, rho_r, u_r, theta_r)
    assert calls == {"stage_closures": 2}
    assert [v.tobytes() for v in got] == [kin.tobytes(), breg.tobytes()]


def test_degenerate_reference_rejected(eos):
    with pytest.raises(th.EosDomainError):
        re.relative_energy_standard(eos, th.ThermoState(1, 0, 1),
                                    th.ThermoState(0.0, 0.0, 1.0))


def test_conservative_self_distance(eos, rng):
    c = th.to_conservative(eos, _random_state(rng))
    assert re.relative_energy_conservative(eos, c, c).value == pytest.approx(0.0, abs=1e-12)


def test_cross_form_equality(eos, rng):
    worst = 0.0
    for _ in range(300):
        a, b = _random_state(rng), _random_state(rng)
        es = re.relative_energy_standard(eos, a, b).value
        ec = re.relative_energy_conservative(
            eos, th.to_conservative(eos, a), th.to_conservative(eos, b)).value
        worst = max(worst, abs(es - ec) / (1.0 + abs(es)))
    assert worst < 1e-9


def test_conservative_infinite_off_closure(eos_table):
    cref = th.to_conservative(eos_table, th.ThermoState(1.0, 0.0, 1.0))
    bad = th.ConservativeState(1.0, 0.0, -2.0)  # negative entropy, Third-law mode
    assert re.relative_energy_conservative(eos_table, bad, cref).value == math.inf


def test_conservative_boundary_segment_value(eos_table):
    # a state on the cold edge of the admissible set keeps a finite distance
    cref = th.to_conservative(eos_table, th.ThermoState(1.0, 0.0, 1.0))
    edge = th.ConservativeState(2.0, 0.0, 0.0)
    val = re.relative_energy_conservative(eos_table, edge, cref).value
    e_edge = th.extended_internal_energy(eos_table, 2.0, 0.0)
    d_rho, d_s = th.energy_density_gradient(eos_table, 1.0, 1.0)
    e_ref = 1.0 * float(th.specific_internal_energy(eos_table, 1.0, 1.0))
    expect = e_edge - e_ref - float(d_rho) * 1.0 - float(d_s) * (0.0 - cref.S)
    assert val == pytest.approx(expect, rel=1e-9)
    assert math.isfinite(val)


def test_nonnegativity(eos, rng):
    for _ in range(2000):
        a, b = _random_state(rng), _random_state(rng)
        assert re.relative_energy_standard(eos, a, b).value >= -1e-12


def test_zero_iff_equal(eos, rng):
    for _ in range(100):
        b = _random_state(rng, 0.5, 2.0)
        a = th.ThermoState(b.rho + rng.uniform(-1e-7, 1e-7),
                           float(b.u[0]) + rng.uniform(-1e-7, 1e-7),
                           b.theta + rng.uniform(-1e-7, 1e-7))
        val = re.relative_energy_standard(eos, a, b).value
        if val < 1e-12:
            assert abs(a.rho - b.rho) < 1e-5
            assert abs(a.theta - b.theta) < 1e-5
            assert abs(float(a.u[0] - b.u[0])) < 1e-5


def test_three_point_identity(eos, rng):
    for _ in range(50):
        x, y, z = (th.to_conservative(eos, _random_state(rng)) for _ in range(3))
        dxz = re.relative_energy_conservative(eos, x, z).value
        dxy = re.relative_energy_conservative(eos, x, y).value
        dyz = re.relative_energy_conservative(eos, y, z).value
        gy = re.total_energy_gradient(eos, y)
        gz = re.total_energy_gradient(eos, z)
        cross = ((gy[0] - gz[0]) * (x.rho - y.rho)
                 + float((gy[1] - gz[1])[0]) * float((x.m - y.m)[0])
                 + (gy[2] - gz[2]) * (x.S - y.S))
        assert dxz == pytest.approx(dxy + dyz + cross, rel=1e-9, abs=1e-9)


def test_gradient_matches_finite_differences(eos, rng):
    h = 1e-6
    for _ in range(20):
        c = th.to_conservative(eos, _random_state(rng, 0.5, 3.0))
        g = re.total_energy_gradient(eos, c)
        for k, (dr, dm, ds) in enumerate(((h, 0, 0), (0, h, 0), (0, 0, h))):
            ep = re.total_energy(eos, th.ConservativeState(c.rho + dr, c.m + dm, c.S + ds))
            em = re.total_energy(eos, th.ConservativeState(c.rho - dr, c.m - dm, c.S - ds))
            fd = (ep - em) / (2 * h)
            an = (g[0], float(g[1][0]), g[2])[k]
            assert fd == pytest.approx(an, rel=1e-5, abs=1e-7)


# ---------------------------------------------------------------------------
# mesh integrals
# ---------------------------------------------------------------------------


def test_integral_of_identical_fields(eos):
    mesh = Mesh1D(0.0, 1.0, 16)
    f = _Fields(np.full(16, 1.2), np.full(16, 0.3), np.full(16, 0.9))
    assert re.relative_energy_integral(eos, f, f, mesh) == 0.0


def test_integral_constant_cell(eos):
    # one cell of measure 2 with pointwise value 3 integrates to 6
    mesh = Mesh1D(0.0, 2.0, 1)
    f = _Fields([1.5], [2.0], [1.0])
    ref = _Fields([1.5], [0.0], [1.0])  # kinetic part (1/2) 1.5 * 4 = 3
    assert re.relative_energy_integral(eos, f, ref, mesh) == pytest.approx(6.0, abs=1e-14)


def test_integral_mesh_mismatch_raises(eos):
    mesh = Mesh1D(0.0, 1.0, 8)
    f = _Fields(np.ones(8), np.zeros(8), np.ones(8))
    g = _Fields(np.ones(4), np.zeros(4), np.ones(4))
    with pytest.raises(ValueError):
        re.relative_energy_integral(eos, f, g, mesh)


def test_integral_refinement_consistency(eos):
    # midpoint quadrature of smooth nonperiodic fields converges at O(h^2)
    # to a dense oracle
    def fields(x):
        return _Fields(1 + 0.3 * x ** 2, 0.2 * np.exp(x), 1 + 0.2 * x ** 3)

    def ref_fields(x):
        return _Fields(np.ones_like(x), np.zeros_like(x), np.ones_like(x))

    dense = Mesh1D(0.0, 1.0, 1_000_000)
    oracle = re.relative_energy_integral(eos, fields(dense.centers),
                                         ref_fields(dense.centers), dense)
    errs = []
    for n in (32, 64, 128):
        mesh = Mesh1D(0.0, 1.0, n)
        val = re.relative_energy_integral(eos, fields(mesh.centers),
                                          ref_fields(mesh.centers), mesh)
        errs.append(abs(val - oracle))
    order = np.polyfit(np.log2([32, 64, 128]), np.log2(errs), 1)[0]
    assert -order > 1.8


# ---------------------------------------------------------------------------
# ballistic free energy
# ---------------------------------------------------------------------------


def test_ballistic_reference_value(eos):
    assert re.ballistic_free_energy(eos, 1.0, 1.0, 1.0) == pytest.approx(8.0 / 3.0, abs=1e-14)


def test_ballistic_minimum_property(eos, rng):
    rho_b = rng.uniform(0.2, 3.0, 1000)
    theta = rng.uniform(0.2, 3.0, 1000)
    at_min = np.asarray(re.ballistic_free_energy(eos, rho_b, theta, theta))
    lo = np.asarray(re.ballistic_free_energy(eos, rho_b, 0.5 * theta, theta))
    hi = np.asarray(re.ballistic_free_energy(eos, rho_b, 2.0 * theta, theta))
    assert np.all(at_min <= lo + 1e-12)
    assert np.all(at_min <= hi + 1e-12)


def test_ballistic_first_order_condition(eos, rng):
    h = 1e-6
    for _ in range(20):
        rho_b, theta = rng.uniform(0.3, 3.0, 2)
        dp = float(re.ballistic_free_energy(eos, rho_b, theta + h, theta))
        dm = float(re.ballistic_free_energy(eos, rho_b, theta - h, theta))
        assert (dp - dm) / (2 * h) == pytest.approx(0.0, abs=1e-6)


def test_trace_csv_columns(tmp_path):
    trace = re.RelEnergyTrace(times=np.array([0.0, 1.0]),
                              integrals=np.array([0.0, 2.0]),
                              kinetic=np.array([0.0, 0.5]),
                              bregman=np.array([0.0, 1.5]))
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == "t,rel_energy,kinetic,bregman"
