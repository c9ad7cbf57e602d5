"""Boundary data model for open 1D domains.

Each boundary face carries a prescribed velocity ``u_b``; its class follows
the sign of ``u_b . n`` (n the outer normal): inflow for negative, outflow
for positive, wall at zero.  Inflow faces additionally carry the upstream
density ``rho_b > 0`` and the total energy flux ``F_ib`` with the
outward-normal sign convention, so energy flowing *into* the domain means
``F_ib < 0``.  Walls and outflow faces are thermally insulated (zero normal
heat flux); outflow transports interior traces.

Admissibility of the prescribed inflow energy flux is the strict condition

    sup over inflow faces of  F_ib / |u_b . n| + (3/2) p_inf rho_b^{5/3} < 0,

equivalently positivity of the heat-flux component after removing the cold
(zero-temperature) part of the energy carried by the entering mass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from .thermo import (EosSpec, _in_domain, cold_energy_density, specific_entropy,
                     specific_internal_energy)

WALL_TOL = 1e-14


class FaceKind(str, Enum):
    IN = "in"
    OUT = "out"
    WALL = "wall"


class BoundaryDataError(ValueError):
    """Inconsistent or misused boundary data."""


def classify(u_b_dot_n: float, wall_override: bool = False) -> FaceKind:
    """Classify one face by the sign of u_b . n.

    ``wall_override`` forces Wall for configured walls whose velocity may
    carry rounding noise below ``WALL_TOL``.  A NaN is no sign and is refused.
    """
    if math.isnan(u_b_dot_n):
        raise BoundaryDataError("u_b . n is NaN")
    if wall_override:
        if not abs(u_b_dot_n) <= WALL_TOL:
            raise BoundaryDataError(
                f"face marked wall but |u_b . n| = {abs(u_b_dot_n):.3g} exceeds {WALL_TOL:g}")
        return FaceKind.WALL
    if u_b_dot_n < -WALL_TOL:
        return FaceKind.IN
    if u_b_dot_n > WALL_TOL:
        return FaceKind.OUT
    return FaceKind.WALL


@dataclass(frozen=True)
class BoundaryFace:
    """One boundary face: position, outer normal, velocity, inflow data."""

    pos: float
    normal: float
    u_b: float
    rho_b: Optional[float] = None
    F_ib: Optional[float] = None
    wall: bool = False
    kind: FaceKind = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "kind", classify(self.u_b * self.normal, self.wall))
        if self.kind is FaceKind.IN:
            if self.rho_b is None or self.F_ib is None:
                raise BoundaryDataError(
                    f"inflow face at x={self.pos:g} needs rho_b and F_ib")
            if not self.rho_b > 0.0:  # NaN fails too
                raise BoundaryDataError(
                    f"inflow density must be positive, got rho_b={self.rho_b:g} at x={self.pos:g}")
        elif self.rho_b is not None or self.F_ib is not None:
            raise BoundaryDataError(
                f"rho_b/F_ib are inflow data; the face at x={self.pos:g} is "
                f"{self.kind.value} (walls and outflow are insulated)")

    @property
    def u_dot_n(self) -> float:
        return self.u_b * self.normal


@dataclass(frozen=True)
class BoundarySpec:
    """Boundary data for a 1D interval: a left and a right face."""

    left: BoundaryFace
    right: BoundaryFace

    def __post_init__(self):
        if self.left.normal != -1.0 or self.right.normal != 1.0:
            raise BoundaryDataError("1D boundary normals must be -1 (left) and +1 (right)")

    @property
    def faces(self):
        return (self.left, self.right)


def make_boundary(u_b_left: float = 0.0, u_b_right: float = 0.0,
                  x_left: float = 0.0, x_right: float = 1.0,
                  rho_b_left: Optional[float] = None, F_ib_left: Optional[float] = None,
                  rho_b_right: Optional[float] = None,
                  F_ib_right: Optional[float] = None) -> BoundarySpec:
    """The faces of [x_left, x_right], each classified by the sign of u_b . n; a face
    that is a wall whatever rounding u_b carries is a ``BoundaryFace(wall=True)``."""
    return BoundarySpec(
        left=BoundaryFace(pos=x_left, normal=-1.0, u_b=u_b_left,
                          rho_b=rho_b_left, F_ib=F_ib_left),
        right=BoundaryFace(pos=x_right, normal=1.0, u_b=u_b_right,
                           rho_b=rho_b_right, F_ib=F_ib_right),
    )


def entropy_inflow_flux(eos: EosSpec, rho_b: float, theta: float,
                        u_b_dot_n: float, F_ib: float) -> float:
    """Entropy flux implied on an inflow face by the prescribed energy flux.

    Returns F_ib/theta + (s(rho_b, theta) - e(rho_b, theta)/theta) rho_b u_b.n
    for the interior temperature trace ``theta``.
    """
    if not u_b_dot_n < 0.0:  # NaN fails too
        raise BoundaryDataError("entropy inflow flux is defined only where u_b . n < 0")
    _in_domain(theta, "temperature trace", BoundaryDataError)
    s = float(specific_entropy(eos, rho_b, theta))
    e = float(specific_internal_energy(eos, rho_b, theta))
    return F_ib / theta + (s - e / theta) * rho_b * u_b_dot_n


def cold_heat_flux_split(eos: EosSpec, rho_b: float, u_b_dot_n: float,
                         F_ib: float) -> tuple[float, float]:
    """Split F_ib into the cold flux carried by the entering mass and the rest.

    cold_flux = (3/2) p_inf rho_b^{5/3} u_b.n;  F_tau solves
    F_ib = cold_flux + F_tau u_b.n.  Admissibility is equivalent to the
    strict inequality F_tau > 0.
    """
    if not u_b_dot_n < 0.0:  # NaN fails too
        raise BoundaryDataError("the flux split is defined only where u_b . n < 0")
    _in_domain(rho_b, "inflow density", BoundaryDataError)
    cold = cold_energy_density(eos, rho_b)
    return cold * u_b_dot_n, F_ib / u_b_dot_n - cold


def admissibility_margin(eos: EosSpec, rho_b: float, u_b_dot_n: float,
                         F_ib: float) -> float:
    """Per-face margin F_ib/|u_b.n| + (3/2) p_inf rho_b^{5/3}; strictly negative passes."""
    _in_domain(rho_b, "inflow density", BoundaryDataError)
    return F_ib / abs(u_b_dot_n) + cold_energy_density(eos, rho_b)


@dataclass(frozen=True)
class AdmissibilityReport:
    passed: bool
    margins: dict          # face pos -> margin (inflow faces only)
    influx_negative: dict  # face pos -> bool, the F_ib < 0 check
    messages: tuple


def admissibility_check(eos: EosSpec, spec: BoundarySpec) -> AdmissibilityReport:
    """Verdict on the inflow energy-flux data: margins plus strict-sign checks.

    PASS requires, on every inflow face, F_ib < 0 and a strictly negative
    margin F_ib/|u_b.n| + (3/2) p_inf rho_b^{5/3}.  Domains without inflow
    pass vacuously.
    """
    margins = {}
    signs = {}
    messages = []
    ok = True
    for f in spec.faces:
        if f.kind is not FaceKind.IN:
            continue
        m = admissibility_margin(eos, f.rho_b, f.u_dot_n, f.F_ib)
        margins[f.pos] = m
        signs[f.pos] = f.F_ib < 0.0
        if not signs[f.pos]:
            ok = False
            messages.append(
                f"x={f.pos:g}: inflow energy flux must be negative (outward-normal "
                f"convention), got F_ib={f.F_ib:g}")
        if not (m < 0.0):
            ok = False
            messages.append(
                f"x={f.pos:g}: inflow flux margin F_ib/|u_b.n| + 1.5 p_inf rho_b^(5/3) "
                f"= {m:g} must be strictly negative")
    return AdmissibilityReport(passed=ok, margins=margins, influx_negative=signs,
                               messages=tuple(messages))
