import math
import os

import numpy as np
import pytest

from nsfsim import (EosDomainError, FieldState, Mesh1D, OutOfDomainError, SolverConfig,
                    TransportSpec, iconic_eos, make_boundary, run, tabulated_eos)

SEED = int(os.environ.get("NSF_SEED", "20260810"))


@pytest.fixture
def rng():
    return np.random.default_rng(SEED)


@pytest.fixture(scope="session")
def eos():
    return iconic_eos()


@pytest.fixture(scope="session")
def eos_a0():
    return iconic_eos(a=0.0)


def make_table_eos(third_law: bool, knots: int = 25):
    z = np.geomspace(0.02, 400, knots)
    p = z + z ** (5.0 / 3.0) + z ** (5.0 / 3.0) / (1.0 + z)
    return tabulated_eos(z, p, p_inf=1.0, a=1.0, third_law=third_law)


def _solve_monotone_theta(f_and_slope, lo: float, hi: float):
    """Vectorized root of an increasing f(theta) via log-bisection + Newton.

    ``f_and_slope(theta) -> (f, f')``; up to 80 bisections, then 6 Newton
    steps.  Raises OutOfDomainError when the bracket does not straddle a
    root; the message carries the bracket values.
    """
    if not lo > 0.0:
        raise EosDomainError("temperature must be positive")
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        f_lo, _ = f_and_slope(lo)
        f_hi, _ = f_and_slope(hi)
        below = f_lo > 0.0
        above = f_hi < 0.0
        if np.any(below) or np.any(above):
            raise OutOfDomainError(
                "monotone solve not bracketed: "
                f"f({lo:g}) in [{np.min(f_lo):.6g}, {np.max(f_lo):.6g}], "
                f"f({hi:g}) in [{np.min(f_hi):.6g}, {np.max(f_hi):.6g}]")

        shape = np.shape(f_lo)
        a = np.full(shape, math.log(lo))
        b = np.full(shape, math.log(hi))
        x = np.exp(0.5 * (a + b))
        for _ in range(80):
            fx, _ = f_and_slope(x)
            gt = fx > 0.0
            b = np.where(gt, np.log(x), b)
            a = np.where(gt, a, np.log(x))
            x = np.exp(0.5 * (a + b))
            if np.max(b - a) < 1e-12:
                break
        for _ in range(6):
            fx, dfx = f_and_slope(x)
            step = np.where(dfx > 0.0, fx / np.where(dfx > 0.0, dfx, 1.0), 0.0)
            x_new = x - step
            # keep Newton inside the bisection bracket
            x = np.clip(x_new, np.exp(a), np.exp(b))
    return x


@pytest.fixture(scope="session")
def eos_table():
    return make_table_eos(third_law=True)


@pytest.fixture(scope="session")
def eos_table_nolaw():
    return make_table_eos(third_law=False)


@pytest.fixture(scope="session")
def transport():
    return TransportSpec()


@pytest.fixture(scope="session")
def closed_box_traj(eos, transport):
    """Small insulated-box relaxation shared by solver/budget tests."""
    mesh = Mesh1D(0.0, 1.0, 48)
    x = mesh.centers
    cfg = SolverConfig(t_end=0.04)
    initial = FieldState(rho=1 + 0.1 * np.cos(np.pi * x), u=np.zeros(48),
                         theta=1 + 0.1 * np.cos(np.pi * x))
    return run(mesh, eos, transport, cfg, make_boundary(), initial,
               output_times=[0.0, 0.01, 0.02, 0.03, 0.04])


@pytest.fixture(scope="session")
def throughflow_setup(eos):
    """Inflow/outflow channel at modest resolution for module tests."""
    from nsfsim.thermo import specific_internal_energy

    mesh = Mesh1D(0.0, 1.0, 48)
    x = mesh.centers
    u_in = 0.5
    f_ib = -u_in * float(specific_internal_energy(eos, 1.0, 1.0))
    bspec = make_boundary(u_b_left=u_in, u_b_right=u_in, rho_b_left=1.0,
                          F_ib_left=f_ib)
    ts = TransportSpec(mu_scale=0.1, kappa_scale=0.2)
    cfg = SolverConfig(t_end=0.05)
    initial = FieldState(rho=np.ones(48), u=u_in * np.ones(48),
                         theta=1 + 0.2 * x ** 2 * (3 - 2 * x))
    return mesh, ts, cfg, bspec, initial


@pytest.fixture(scope="session")
def throughflow_traj(eos, throughflow_setup):
    mesh, ts, cfg, bspec, initial = throughflow_setup
    return run(mesh, eos, ts, cfg, bspec, initial,
               output_times=[0.0, 0.025, 0.05])
