"""Relative energy as the Bregman distance of the total energy.

In conservative-entropy variables the total energy

    E(rho, m, S) = (1/2) |m|^2 / rho + rho e(rho, S)

is convex (strictly so on the interior of its domain), and the distance
between a state and a reference trio is its Bregman divergence

    D(c | cref) = E(c) - E(cref) - <grad E(cref), c - cref>.

The same quantity in standard variables (rho, u, theta) is

    (1/2) rho |u - u~|^2 + H(rho, theta) - dH/drho(ref) (rho - rho~) - H(ref),
    H(rho, theta) = rho (e(rho, theta) - theta~ s(rho, theta)),

and the two forms agree under m = rho u, S = rho s.  Both split into a
kinetic part (1/2) rho |u - u~|^2 and a Bregman remainder of the internal
energy; each part is nonnegative.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .mesh import Mesh1D
from .thermo import (ConservativeState, EosSpec, EosDomainError, OutOfDomainError,
                     ThermoState, extended_internal_energy,
                     energy_density_gradient, pressure, specific_entropy,
                     specific_internal_energy, temperature_from_entropy)


@dataclass(frozen=True)
class RelEnergySample:
    """Pointwise relative energy split into kinetic and Bregman parts."""

    value: float
    kinetic_part: float
    bregman_part: float


@dataclass(frozen=True)
class RelEnergyTrace:
    """Domain-integrated relative energy sampled along a run."""

    times: np.ndarray
    integrals: np.ndarray
    kinetic: np.ndarray
    bregman: np.ndarray
    reference_label: str = ""

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["t", "rel_energy", "kinetic", "bregman"])
            for t, v, k, b in zip(self.times, self.integrals, self.kinetic, self.bregman):
                w.writerow([f"{t:.17g}", f"{v:.17g}", f"{k:.17g}", f"{b:.17g}"])


def _kinetic(rho, u, u_ref):
    du = np.asarray(u, dtype=float) - np.asarray(u_ref, dtype=float)
    if du.ndim > np.ndim(rho):
        sq = np.sum(du * du, axis=-1)
    else:
        sq = du * du
    return 0.5 * np.asarray(rho, dtype=float) * sq


def relative_energy_fields(eos: EosSpec, rho, u, theta, rho_ref, u_ref, theta_ref):
    """Vectorized standard-variable relative energy; returns (kinetic, bregman)."""
    rho = np.asarray(rho, dtype=float)
    theta = np.asarray(theta, dtype=float)
    rho_ref = np.asarray(rho_ref, dtype=float)
    theta_ref = np.asarray(theta_ref, dtype=float)
    if np.any(rho_ref <= 0.0) or np.any(theta_ref <= 0.0):
        raise EosDomainError("reference trio must be interior: rho~ > 0, theta~ > 0")
    kin = _kinetic(rho, u, u_ref)

    e = specific_internal_energy(eos, rho, theta)
    s = specific_entropy(eos, rho, theta)
    h = rho * (e - theta_ref * s)
    e_r = specific_internal_energy(eos, rho_ref, theta_ref)
    s_r = specific_entropy(eos, rho_ref, theta_ref)
    p_r = pressure(eos, rho_ref, theta_ref)
    h_r = rho_ref * (e_r - theta_ref * s_r)
    dh_r = e_r - theta_ref * s_r + p_r / rho_ref
    breg = h - dh_r * (rho - rho_ref) - h_r
    return kin, breg


def relative_energy_standard(eos: EosSpec, state: ThermoState,
                             ref: ThermoState) -> RelEnergySample:
    """Pointwise relative energy in standard variables against an interior reference."""
    if ref.rho <= 0.0 or ref.theta <= 0.0:
        raise EosDomainError("reference trio must be interior: rho~ > 0, theta~ > 0")
    kin, breg = relative_energy_fields(
        eos, state.rho, state.u, state.theta, ref.rho, ref.u, ref.theta)
    kin = float(kin)
    breg = float(breg)
    return RelEnergySample(value=kin + breg, kinetic_part=kin, bregman_part=breg)


def relative_energy_conservative(eos: EosSpec, c: ConservativeState,
                                 cref: ConservativeState) -> RelEnergySample:
    """Bregman divergence of the total energy at c against the plane at cref.

    States off the closure of the admissible set carry an infinite internal
    part, which propagates as +inf (a legitimate extended value).
    """
    if cref.rho <= 0.0:
        raise EosDomainError("reference state must be interior, rho~ > 0")
    theta_ref = float(temperature_from_entropy(eos, cref.rho, cref.S))
    u_ref = cref.m / cref.rho

    # at vacuum m = 0 and the kinetic part vanishes
    kin = float(_kinetic(c.rho, c.m / c.rho, u_ref)) if c.rho > 0.0 else 0.0

    e_int = extended_internal_energy(eos, c.rho, c.S)
    if not np.isfinite(e_int):
        return RelEnergySample(value=np.inf, kinetic_part=kin, bregman_part=np.inf)
    d_rho, d_s = energy_density_gradient(eos, cref.rho, theta_ref)
    e_int_ref = cref.rho * float(specific_internal_energy(eos, cref.rho, theta_ref))
    breg = (e_int - e_int_ref - float(d_rho) * (c.rho - cref.rho)
            - float(d_s) * (c.S - cref.S))
    return RelEnergySample(value=kin + breg, kinetic_part=kin, bregman_part=breg)


def total_energy_gradient(eos: EosSpec, c: ConservativeState):
    """grad E(rho, m, S) = (dE/drho, dE/dm, dE/dS) at an interior state."""
    if c.rho <= 0.0:
        raise OutOfDomainError("gradient needs rho > 0")
    theta = float(temperature_from_entropy(eos, c.rho, c.S))
    u = c.m / c.rho
    d_rho_int, d_s = energy_density_gradient(eos, c.rho, theta)
    d_rho = float(d_rho_int) - 0.5 * float(np.dot(u, u))
    return d_rho, u.copy(), float(d_s)


def total_energy(eos: EosSpec, c: ConservativeState) -> float:
    """E(rho, m, S), extended value."""
    kin = 0.0 if c.rho == 0.0 else 0.5 * float(np.dot(c.m, c.m)) / c.rho
    return kin + extended_internal_energy(eos, c.rho, c.S)


def relative_energy_integral(eos: EosSpec, fields, ref_fields, mesh: Mesh1D) -> float:
    """Midpoint-rule integral of the pointwise relative energy over the mesh.

    ``fields`` and ``ref_fields`` expose per-cell arrays rho, u, theta on the
    same mesh; the reference is assumed compatible with the boundary data.
    """
    rho, u, theta = fields.rho, fields.u, fields.theta
    rr, ur, tr = ref_fields.rho, ref_fields.u, ref_fields.theta
    for a, b in ((rho, rr), (u, ur), (theta, tr)):
        if np.shape(a) != (mesh.n_cells,) or np.shape(b) != (mesh.n_cells,):
            raise ValueError("fields and reference must be per-cell arrays on the given mesh")
    kin, breg = relative_energy_fields(eos, rho, u, theta, rr, ur, tr)
    return mesh.integrate(kin + breg)


def ballistic_free_energy(eos: EosSpec, rho_b, theta_tilde, theta):
    """e(rho_b, theta~) - theta s(rho_b, theta~); minimized over theta~ at theta.

    The minimum property (at fixed rho_b, theta) is what controls inflow
    boundary terms in the stability argument; the minimum value itself
    depends on the entropy gauge.
    """
    rho_b = np.asarray(rho_b, dtype=float)
    theta_tilde = np.asarray(theta_tilde, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if np.any(rho_b <= 0.0) or np.any(theta_tilde <= 0.0) or np.any(theta <= 0.0):
        raise EosDomainError("ballistic free energy needs positive arguments")
    return (specific_internal_energy(eos, rho_b, theta_tilde)
            - theta * specific_entropy(eos, rho_b, theta_tilde))
