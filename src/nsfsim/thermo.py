"""Gibbs-consistent constitutive closures for a heat-conducting compressible gas.

The pressure law has the scaling form

    p(rho, theta) = theta^{5/2} * P(Z) + (a/3) theta^4,   Z = rho / theta^{3/2},

with a radiation term weighted by ``a > 0``.  Internal energy and entropy are
derived from the same shape function ``P`` so that Gibbs' relation
``theta ds = de + p d(1/rho)`` holds identically:

    e(rho, theta) = (3/2) (theta^{5/2}/rho) P(Z) + (a/rho) theta^4
    s(rho, theta) = S(Z) + (4a/3) theta^3 / rho,
    S'(Z) = -(3/2) ((5/3) P(Z) - P'(Z) Z) / Z^2.

Two shapes are built in:

* ``"iconic"``: P(Z) = Z + p_inf * Z^{5/3}, for which S(Z) = -log Z + const.
* ``"table"``: a monotone piecewise-cubic interpolant of user knots (Z_i, P_i)
  with a linear head below the first knot and an asymptote-matched tail above
  the last one.  The tail selects the low-temperature entropy limit: a constant
  offset from p_inf * Z^{5/3} makes S(Z) -> 0 (Third-law mode), a linear
  correction reproduces the logarithmically divergent limit of the iconic gas.

Admissibility of a shape means: P(0) = 0, P' > 0, the stability gap
((5/3) P - P' Z)/Z positive and bounded, and P/Z^{5/3} nonincreasing with a
positive limit ``p_inf``.

All state functions broadcast over numpy arrays in (rho, theta).  Shapes
give ``p_dp`` = (P, P') and ``p_entropy`` = (P, S), the table from one piece
lookup, and the closures apply formulas written once in (rho, theta, P, P',
S).  ``stage_closures`` is a solver stage's one EOS pass: (p, e, s) from one
Z and one (P, S) pass, bitwise equal to the separate closures.
``energy_density_residual`` builds the residual of both temperature
inversions once per solve (a quartic in theta on the iconic shape, one
(P, P') pass per iterate on a table), ``sound_speed_sq_and_energy_slope``
serves the step limits, and ``gibbs_residual`` keeps independent routes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np


class EosDomainError(ValueError):
    """A state function was evaluated outside its admissible domain."""


class EosValidationError(ValueError):
    """An equation-of-state specification violates a structural hypothesis."""


class OutOfDomainError(EosDomainError):
    """A (rho, S) pair lies outside the image of the (rho, theta) quadrant."""


_FIVE_THIRDS = 5.0 / 3.0


# ---------------------------------------------------------------------------
# pressure shape functions
# ---------------------------------------------------------------------------


class IconicShape:
    """P(Z) = Z + p_inf Z^{5/3}; molecular + electron-degeneracy pressure."""

    third_law_compatible = False

    def __init__(self, p_inf: float):
        if p_inf <= 0.0:
            raise EosValidationError(f"p_inf must be positive, got {p_inf}")
        self.p_inf = float(p_inf)

    def p(self, z):
        z = np.asarray(z, dtype=float)
        return z + self.p_inf * z ** _FIVE_THIRDS

    def dp(self, z):
        z = np.asarray(z, dtype=float)
        return 1.0 + _FIVE_THIRDS * self.p_inf * z ** (2.0 / 3.0)

    def p_dp(self, z):
        return self.p(z), self.dp(z)

    def p_entropy(self, z):
        return self.p(z), self.entropy_shape(z)

    def entropy_shape(self, z):
        # S'(Z) = -1/Z for this shape; normalized so S(1) = 0.
        z = np.asarray(z, dtype=float)
        with np.errstate(divide="ignore"):
            return -np.log(z)

    def entropy_shape_slope(self, z):
        z = np.asarray(z, dtype=float)
        with np.errstate(divide="ignore"):
            return -1.0 / z


class TabulatedShape:
    """Monotone piecewise-cubic P(Z) from knots, with admissible head and tail.

    The interpolant keeps its shape-preserving end slopes; the head and
    tail closures carry two parameters each so value and slope match at the
    junctions and P stays C^1:

    * head (Z < Z_0): ``alpha Z + beta Z^{5/3}``; the Z^{5/3} direction is
      neutral for the stability gap, which equals the constant (2/3) alpha.
    * tail (Z > Z_N), Third-law mode: ``p_inf Z^{5/3} + c + gamma / Z``; the
      entropy shape then decays like 1/Z and is normalized to vanish.
    * tail, general mode: ``p_inf Z^{5/3} + k Z + gamma``; the entropy shape
      diverges like -k log Z, matching the iconic low-temperature behaviour.

    The entropy shape is integrated exactly piece by piece (cubic pieces
    have elementary antiderivatives under the defining ODE).

    scipy builds the spline; evaluation gathers each z's piece coefficients
    from (4, pieces) arrays after one ``searchsorted`` over the interior
    knots, summing in scipy's order, so P and P' equal the spline's own
    values bitwise.  When every z lies on the spline the pieces run on the
    whole array; otherwise head, spline and tail run under one mask pass,
    and the cubic never sees a head or tail z (far out it overflows).
    """

    def __init__(self, z: Sequence[float], p: Sequence[float], p_inf: float,
                 third_law: bool):
        z = np.asarray(z, dtype=float)
        p = np.asarray(p, dtype=float)
        if z.ndim != 1 or z.shape != p.shape or z.size < 6:
            raise EosValidationError("table needs matching 1-d z/p arrays with >= 6 knots")
        if np.any(z <= 0.0) or np.any(np.diff(z) <= 0.0):
            raise EosValidationError("table knots z must be positive and strictly increasing")
        if np.any(p <= 0.0) or np.any(np.diff(p) <= 0.0):
            raise EosValidationError("table values p must be positive and strictly increasing")
        g = p / z ** _FIVE_THIRDS
        if np.any(np.diff(g) >= 0.0):
            raise EosValidationError("p/z^{5/3} must be strictly decreasing across the table")
        if g[-1] <= p_inf:
            raise EosValidationError(
                f"table end value p/z^{{5/3}}={g[-1]:.6g} must exceed the asymptote p_inf={p_inf:.6g}")

        self.p_inf = float(p_inf)
        self.third_law_compatible = bool(third_law)
        # Head/tail interpolate the two outermost knots on each side; the
        # spline spans the interior knots and inherits the closure slopes at
        # the junctions, keeping P globally C^1.
        self.z_lo = float(z[1])
        self.z_hi = float(z[-2])

        # head alpha Z + beta Z^{5/3} through (z0, p0), (z1, p1)
        det = z[0] * z[1] ** _FIVE_THIRDS - z[1] * z[0] ** _FIVE_THIRDS
        self.head_lin = float((p[0] * z[1] ** _FIVE_THIRDS - p[1] * z[0] ** _FIVE_THIRDS) / det)
        self.head_pow = float((z[0] * p[1] - z[1] * p[0]) / det)
        if self.head_lin <= 0.0:
            raise EosValidationError(
                "table start is too steep: the stability gap would close below the first knots")
        d_lo = self.head_lin + _FIVE_THIRDS * self.head_pow * z[1] ** (2.0 / 3.0)
        if d_lo <= 0.0:
            raise EosValidationError("head closure is not increasing at the junction")

        # tail through (z[-2], p[-2]), (z[-1], p[-1])
        r_a = p[-2] - p_inf * z[-2] ** _FIVE_THIRDS
        r_b = p[-1] - p_inf * z[-1] ** _FIVE_THIRDS
        if third_law:
            self.tail_gamma = float((r_a - r_b) / (1.0 / z[-2] - 1.0 / z[-1]))
            self.tail_const = float(r_b - self.tail_gamma / z[-1])
            self.tail_lin = 0.0
            if self.tail_const <= 0.0:
                raise EosValidationError(
                    "Third-law tail needs a positive constant offset from the asymptote; "
                    "extend the table to larger Z or lower p_inf")
            if _FIVE_THIRDS * self.tail_const + (8.0 / 3.0) * self.tail_gamma / z[-2] <= 0.0:
                raise EosValidationError("tail closure closes the stability gap near the last knots")
            d_hi = _FIVE_THIRDS * p_inf * z[-2] ** (2.0 / 3.0) - self.tail_gamma / z[-2] ** 2
        else:
            self.tail_lin = float((r_b - r_a) / (z[-1] - z[-2]))
            self.tail_gamma = float(r_b - self.tail_lin * z[-1])
            self.tail_const = self.tail_gamma
            if self.tail_lin <= 0.0:
                raise EosValidationError(
                    "table end is too shallow: the stability gap would close beyond the last knots")
            if 2.0 * self.tail_lin * z[-2] / 3.0 + _FIVE_THIRDS * self.tail_gamma <= 0.0:
                raise EosValidationError("tail closure closes the stability gap near the last knots")
            d_hi = _FIVE_THIRDS * p_inf * z[-2] ** (2.0 / 3.0) + self.tail_lin
        if d_hi <= 0.0:
            raise EosValidationError("tail closure is not increasing at the junction")

        from scipy.interpolate import CubicHermiteSpline, PchipInterpolator

        zin, pin = z[1:-1], p[1:-1]
        slopes = PchipInterpolator(z, p).derivative()(zin)
        slopes[0] = d_lo
        slopes[-1] = d_hi
        self._spline = CubicHermiteSpline(zin, pin, slopes)
        self._dspline = self._spline.derivative()
        self._knots = zin
        self._inner_knots = zin[1:-1]
        self._build_entropy_pieces()
        self._validate_gap()

    # -- construction helpers ------------------------------------------------

    def _global_coeffs(self, k: int) -> np.ndarray:
        """Expand piece k of the spline into global-basis cubic coefficients."""
        zk = self._spline.x[k]
        local = self._spline.c[:, k][::-1]  # ascending in (Z - zk)
        poly = np.polynomial.Polynomial(local)
        shifted = poly(np.polynomial.Polynomial([-zk, 1.0]))
        out = np.zeros(4)
        out[: len(shifted.coef)] = shifted.coef
        return out  # c0 + c1 Z + c2 Z^2 + c3 Z^3

    @staticmethod
    def _cubic_entropy_antideriv(c: np.ndarray, z):
        # Antiderivative of -(3/2)((5/3)P - P'Z)/Z^2 for P cubic in Z.
        return 2.5 * c[0] / z - c[1] * np.log(z) + 0.5 * c[2] * z + c[3] * z * z

    def _build_entropy_pieces(self) -> None:
        n_pieces = len(self._spline.x) - 1
        self._coeffs = np.stack([self._global_coeffs(k) for k in range(n_pieces)], axis=1)
        offs = np.zeros(n_pieces)
        # Anchor at the tail and chain constants backwards for continuity.
        if self.third_law_compatible:
            s_hi = 2.5 * self.tail_const / self.z_hi + 2.0 * self.tail_gamma / self.z_hi ** 2
        else:
            s_hi = -self.tail_lin * math.log(self.z_hi) + 2.5 * self.tail_gamma / self.z_hi
        s_right = s_hi
        for k in range(n_pieces - 1, -1, -1):
            c = self._coeffs[:, k]
            zl, zr = self._spline.x[k], self._spline.x[k + 1]
            offs[k] = s_right - self._cubic_entropy_antideriv(c, zr)
            s_right = self._cubic_entropy_antideriv(c, zl) + offs[k]
        self._offsets = offs
        self._head_off = s_right + self.head_lin * math.log(self.z_lo)
        if not self.third_law_compatible:
            shift = float(self.entropy_shape(np.array([1.0]))[0])
            self._head_off -= shift
            self._offsets -= shift
            self._tail_shift = -shift
        else:
            self._tail_shift = 0.0

    def _validate_gap(self) -> None:
        zg = np.concatenate([
            np.geomspace(self.z_lo * 1e-3, self.z_lo, 40),
            np.geomspace(self.z_lo, self.z_hi, 400)[1:],
            np.geomspace(self.z_hi, self.z_hi * 1e3, 40)[1:],
        ])
        gap = (_FIVE_THIRDS * self.p(zg) - self.dp(zg) * zg) / zg
        if np.any(gap <= 0.0):
            raise EosValidationError("interpolated table violates the stability gap ((5/3)P - P'Z)/Z > 0")
        if np.any(self.dp(zg) <= 0.0):
            raise EosValidationError("interpolated table is not strictly increasing")

    # -- evaluation ------------------------------------------------------------

    def _branch(self, z, *pieces):
        """Evaluate each (head, spline, tail) triple on z; spline pieces take
        (z, k, s) with k the piece of each z and s = z - knot[k]."""
        z = np.asarray(z, dtype=float)
        lo = z < self.z_lo
        hi = z > self.z_hi
        if not (lo.any() or hi.any()):
            loc = self._locate(z)
            return [piece[1](*loc) for piece in pieces]
        outs = [np.empty_like(z) for _ in pieces]
        for k, m in enumerate((lo, ~(lo | hi), hi)):
            if m.any():
                zm = z[m]
                args = self._locate(zm) if k == 1 else (zm,)
                for out, piece in zip(outs, pieces):
                    out[m] = piece[k](*args)
        return outs

    def _locate(self, z):
        k = np.searchsorted(self._inner_knots, z, side="right")
        return z, k, z - self._knots[k]

    def _spline_p(self, z, k, s):
        c = self._spline.c.take(k, axis=1)
        s2 = s * s
        return c[3] + c[2] * s + c[1] * s2 + c[0] * (s2 * s)

    def _spline_dp(self, z, k, s):
        c = self._dspline.c.take(k, axis=1)
        return c[2] + c[1] * s + c[0] * (s * s)

    def _p_pieces(self):
        if self.third_law_compatible:
            tail = lambda v: (self.p_inf * v ** _FIVE_THIRDS + self.tail_const
                              + self.tail_gamma / v)
        else:
            tail = lambda v: (self.p_inf * v ** _FIVE_THIRDS + self.tail_lin * v
                              + self.tail_gamma)
        return (lambda v: self.head_lin * v + self.head_pow * v ** _FIVE_THIRDS,
                self._spline_p, tail)

    def _dp_pieces(self):
        if self.third_law_compatible:
            tail = lambda v: (_FIVE_THIRDS * self.p_inf * v ** (2.0 / 3.0)
                              - self.tail_gamma / (v * v))
        else:
            tail = lambda v: _FIVE_THIRDS * self.p_inf * v ** (2.0 / 3.0) + self.tail_lin
        return (lambda v: self.head_lin + _FIVE_THIRDS * self.head_pow * v ** (2.0 / 3.0),
                self._spline_dp, tail)

    def p(self, z):
        return self._branch(z, self._p_pieces())[0]

    def dp(self, z):
        return self._branch(z, self._dp_pieces())[0]

    def p_dp(self, z):
        return tuple(self._branch(z, self._p_pieces(), self._dp_pieces()))

    def p_entropy(self, z):
        return tuple(self._branch(z, self._p_pieces(), self._entropy_pieces()))

    def _entropy_mid(self, z, k, s):
        return self._cubic_entropy_antideriv(self._coeffs.take(k, axis=1), z) + self._offsets[k]

    def _entropy_pieces(self):
        if self.third_law_compatible:
            tail = lambda v: 2.5 * self.tail_const / v + 2.0 * self.tail_gamma / (v * v)
        else:
            tail = lambda v: (-self.tail_lin * np.log(v) + 2.5 * self.tail_gamma / v
                              + self._tail_shift)
        return (lambda v: -self.head_lin * np.log(v) + self._head_off,
                self._entropy_mid, tail)

    def entropy_shape(self, z):
        return self._branch(z, self._entropy_pieces())[0]

    def entropy_shape_slope(self, z):
        zz = np.asarray(z, dtype=float)
        p, dp = self.p_dp(zz)
        return -1.5 * (_FIVE_THIRDS * p - dp * zz) / (zz * zz)


# ---------------------------------------------------------------------------
# specifications and states
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EosSpec:
    """Constitutive closure: shape of P, radiation constant, entropy gauge.

    ``third_law`` asserts that the entropy shape S(Z) decays to zero for
    Z -> infinity.  The iconic shape cannot satisfy it (its S diverges to
    -infinity), so Third-law mode is only accepted for tabulated shapes,
    where the tail construction enforces the decay.
    """

    p_inf: float = 1.0
    a: float = 1.0
    entropy_const: float = 0.0
    third_law: bool = False
    shape: str = "iconic"
    table_z: Optional[tuple] = None
    table_p: Optional[tuple] = None
    _shape_fn: object = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.p_inf <= 0.0:
            raise EosValidationError(f"p_inf must be positive, got {self.p_inf}")
        if self.a < 0.0:
            raise EosValidationError(f"radiation constant a must be nonnegative, got {self.a}")
        if self.shape == "iconic":
            if self.third_law:
                raise EosValidationError(
                    "the iconic shape has S(Z) ~ -log Z and cannot satisfy the Third law; "
                    "use a tabulated shape for Third-law mode")
            fn = IconicShape(self.p_inf)
        elif self.shape == "table":
            if self.table_z is None or self.table_p is None:
                raise EosValidationError("tabulated shape requires table_z and table_p")
            if self.third_law and self.entropy_const != 0.0:
                raise EosValidationError("Third-law mode pins the entropy gauge; entropy_const must be 0")
            fn = TabulatedShape(self.table_z, self.table_p, self.p_inf, self.third_law)
        else:
            raise EosValidationError(f"unknown pressure shape {self.shape!r}")
        object.__setattr__(self, "_shape_fn", fn)

    @property
    def shape_fn(self):
        return self._shape_fn


def iconic_eos(p_inf: float = 1.0, a: float = 1.0, entropy_const: float = 0.0) -> EosSpec:
    return EosSpec(p_inf=p_inf, a=a, entropy_const=entropy_const)


def tabulated_eos(z, p, p_inf: float = 1.0, a: float = 1.0,
                  third_law: bool = True, entropy_const: float = 0.0) -> EosSpec:
    return EosSpec(p_inf=p_inf, a=a, entropy_const=entropy_const,
                   third_law=third_law, shape="table",
                   table_z=tuple(float(v) for v in z),
                   table_p=tuple(float(v) for v in p))


@dataclass(frozen=True)
class TransportSpec:
    """Temperature-dependent transport coefficients with growth envelopes.

    Defaults give mu = mu_scale (1 + theta^lambda_exp), eta = eta_scale
    (same growth), kappa = kappa_scale (1 + theta^3).  Callables override
    the built-in power laws; envelope bounds are used by validation only.
    """

    lambda_exp: float = 0.5
    mu_scale: float = 1.0
    eta_scale: float = 0.0
    kappa_scale: float = 1.0
    mu_under: float = None
    mu_over: float = None
    eta_over: float = None
    kappa_under: float = None
    kappa_over: float = None
    mu_fn: Optional[Callable] = None
    eta_fn: Optional[Callable] = None
    kappa_fn: Optional[Callable] = None

    def __post_init__(self):
        if not (0.4 < self.lambda_exp <= 1.0):
            raise EosValidationError(
                f"lambda_exp must lie in (2/5, 1], got {self.lambda_exp}")
        defaults = {
            "mu_under": self.mu_scale, "mu_over": self.mu_scale,
            "eta_over": max(self.eta_scale, 0.0),
            "kappa_under": self.kappa_scale, "kappa_over": self.kappa_scale,
        }
        for name, val in defaults.items():
            if getattr(self, name) is None:
                object.__setattr__(self, name, float(val))
        if self.mu_scale <= 0.0 and self.mu_fn is None:
            raise EosValidationError("shear viscosity scale must be positive")
        if self.kappa_scale <= 0.0 and self.kappa_fn is None:
            raise EosValidationError("conductivity scale must be positive")
        if self.eta_scale < 0.0:
            raise EosValidationError("bulk viscosity scale must be nonnegative")

    def mu(self, theta):
        if self.mu_fn is not None:
            return self.mu_fn(theta)
        return self.mu_scale * (1.0 + np.asarray(theta, dtype=float) ** self.lambda_exp)

    def eta(self, theta):
        if self.eta_fn is not None:
            return self.eta_fn(theta)
        return self.eta_scale * (1.0 + np.asarray(theta, dtype=float) ** self.lambda_exp)

    def kappa(self, theta):
        if self.kappa_fn is not None:
            return self.kappa_fn(theta)
        return self.kappa_scale * (1.0 + np.asarray(theta, dtype=float) ** 3)

    def envelope_violations(self, thetas=None) -> list[str]:
        """Check the growth envelopes on a sample grid; returns messages."""
        if thetas is None:
            thetas = np.geomspace(1e-3, 1e3, 200)
        thetas = np.asarray(thetas, dtype=float)
        msgs = []
        grow = 1.0 + thetas ** self.lambda_exp
        mu = np.asarray(self.mu(thetas), dtype=float)
        if np.any(mu < self.mu_under * grow - 1e-12) or np.any(mu > self.mu_over * grow + 1e-12):
            msgs.append("shear viscosity leaves its (1 + theta^lambda) envelope")
        eta = np.asarray(self.eta(thetas), dtype=float)
        if np.any(eta < -1e-12) or np.any(eta > self.eta_over * grow + 1e-12):
            msgs.append("bulk viscosity leaves [0, eta_over (1 + theta^lambda)]")
        cub = 1.0 + thetas ** 3
        kap = np.asarray(self.kappa(thetas), dtype=float)
        if np.any(kap < self.kappa_under * cub - 1e-12) or np.any(kap > self.kappa_over * cub + 1e-12):
            msgs.append("conductivity leaves its (1 + theta^3) envelope")
        return msgs


@dataclass(frozen=True)
class ThermoState:
    """Fluid state in standard variables (rho, u, theta)."""

    rho: float
    u: np.ndarray
    theta: float

    def __post_init__(self):
        object.__setattr__(self, "u", np.atleast_1d(np.asarray(self.u, dtype=float)))
        if self.rho < 0.0:
            raise EosDomainError(f"density must be nonnegative, got {self.rho}")
        if self.theta <= 0.0:
            raise EosDomainError(f"temperature must be positive, got {self.theta}")


@dataclass(frozen=True)
class ConservativeState:
    """Fluid state in conservative-entropy variables (rho, m, S)."""

    rho: float
    m: np.ndarray
    S: float

    def __post_init__(self):
        object.__setattr__(self, "m", np.atleast_1d(np.asarray(self.m, dtype=float)))
        if self.rho < 0.0:
            raise EosDomainError(f"density must be nonnegative, got {self.rho}")
        if self.rho == 0.0 and np.any(self.m != 0.0):
            raise EosDomainError("momentum must vanish where density vanishes")


# ---------------------------------------------------------------------------
# state functions
# ---------------------------------------------------------------------------


def _zvar(rho, theta):
    return np.asarray(rho, dtype=float) * np.asarray(theta, dtype=float) ** -1.5


# Closure formulas in (rho, theta) and the shape values (P, P', S) at Z.


def _pressure(eos: EosSpec, theta, p):
    return theta ** 2.5 * p + (eos.a / 3.0) * theta ** 4


def _entropy(eos: EosSpec, rho, theta, s_shape):
    return s_shape + eos.entropy_const + (4.0 * eos.a / 3.0) * theta ** 3 / rho


def _energy(eos: EosSpec, rho, theta, p):
    return 1.5 * theta ** 2.5 / rho * p + eos.a * theta ** 4 / rho


def _energy_theta(eos: EosSpec, rho, theta, p, dp):
    return 3.75 * theta ** 1.5 / rho * p - 2.25 * dp + 4.0 * eos.a * theta ** 3 / rho


def _pressure_rho(theta, dp):
    return theta * dp


def _pressure_theta(eos: EosSpec, rho, theta, p, dp):
    return 2.5 * theta ** 1.5 * p - 1.5 * rho * dp + (4.0 * eos.a / 3.0) * theta ** 3


def _positive_density(rho):
    """rho as an array, after the density check of e."""
    rho = np.asarray(rho, dtype=float)
    if (rho <= 0.0).any():
        raise EosDomainError(
            "density must be positive; use extended_internal_energy for the rho = 0 closure")
    return rho


def _positive_temperature(theta):
    """theta as an array, after the temperature check of e."""
    theta = np.asarray(theta, dtype=float)
    if (theta <= 0.0).any():
        raise EosDomainError("temperature must be positive")
    return theta


def pressure(eos: EosSpec, rho, theta):
    """p(rho, theta); strictly increasing in rho at fixed theta."""
    theta = _positive_temperature(theta)
    rho = np.asarray(rho, dtype=float)
    if (rho < 0.0).any():
        raise EosDomainError("density must be nonnegative")
    return _pressure(eos, theta, eos.shape_fn.p(_zvar(rho, theta)))


def specific_internal_energy(eos: EosSpec, rho, theta):
    """e(rho, theta); strictly increasing in theta at fixed rho."""
    theta = _positive_temperature(theta)
    rho = _positive_density(rho)
    return _energy(eos, rho, theta, eos.shape_fn.p(_zvar(rho, theta)))


def stage_closures(eos: EosSpec, rho, theta):
    """(p, e, s) at (rho, theta) from one Z and one (P, S) shape pass.

    Checks theta > 0 and then rho > 0 once, with the messages of
    ``specific_internal_energy``; each value equals its own closure's bitwise.
    """
    theta = _positive_temperature(theta)
    rho = _positive_density(rho)
    p, s_shape = eos.shape_fn.p_entropy(_zvar(rho, theta))
    return (_pressure(eos, theta, p), _energy(eos, rho, theta, p),
            _entropy(eos, rho, theta, s_shape))


def energy_density_residual(eos: EosSpec, rho, w, delta: float = 0.0):
    """theta -> (rho e_delta - w, d(rho e_delta)/dtheta) at fixed (rho, w),
    with e_delta = e + delta theta: the residual of the temperature inversions.

    rho > 0 is checked once, here; callers keep theta positive.  On the
    iconic shape rho e_delta = a theta^4 + (3/2 + delta) rho theta
    + (3/2) p_inf rho^{5/3}, a quartic whose coefficients are set up once,
    so an iterate evaluates no Z, no shape and no domain check.  Other
    shapes evaluate one Z and one (P, P') per iterate.
    """
    rho = _positive_density(rho)
    w = np.asarray(w, dtype=float)
    if eos.shape == "iconic":
        a, b = eos.a, (1.5 + delta) * rho
        c = _cold_energy_density(eos, rho) - w

        def quartic(theta):
            a_theta3 = a * (theta * theta * theta)
            return (a_theta3 + b) * theta + c, 4.0 * a_theta3 + b
        return quartic

    def residual(theta):
        theta = np.asarray(theta, dtype=float)
        p, dp = eos.shape_fn.p_dp(_zvar(rho, theta))
        return (rho * (_energy(eos, rho, theta, p) + delta * theta) - w,
                rho * (_energy_theta(eos, rho, theta, p, dp) + delta))
    return residual


def specific_entropy(eos: EosSpec, rho, theta):
    """s(rho, theta) = S(rho/theta^{3/2}) + (4a/3) theta^3 / rho."""
    theta = _positive_temperature(theta)
    rho = np.asarray(rho, dtype=float)
    if (rho <= 0.0).any():
        raise EosDomainError("density must be positive")
    return _entropy(eos, rho, theta, eos.shape_fn.entropy_shape(_zvar(rho, theta)))


def pressure_rho_slope(eos: EosSpec, rho, theta):
    """dp/drho at fixed theta ( = theta P'(Z) )."""
    theta = np.asarray(theta, dtype=float)
    return _pressure_rho(theta, eos.shape_fn.dp(_zvar(rho, theta)))


def pressure_theta_slope(eos: EosSpec, rho, theta):
    """dp/dtheta at fixed rho."""
    rho = np.asarray(rho, dtype=float)
    theta = np.asarray(theta, dtype=float)
    p, dp = eos.shape_fn.p_dp(_zvar(rho, theta))
    return _pressure_theta(eos, rho, theta, p, dp)


def energy_theta_slope(eos: EosSpec, rho, theta):
    """de/dtheta at fixed rho (specific-heat-like, positive by stability)."""
    rho = np.asarray(rho, dtype=float)
    theta = np.asarray(theta, dtype=float)
    p, dp = eos.shape_fn.p_dp(_zvar(rho, theta))
    return _energy_theta(eos, rho, theta, p, dp)


def entropy_theta_slope(eos: EosSpec, rho, theta):
    """ds/dtheta at fixed rho ( = de/dtheta / theta, by Gibbs)."""
    rho = np.asarray(rho, dtype=float)
    theta = np.asarray(theta, dtype=float)
    z = _zvar(rho, theta)
    return (-1.5 * z / theta * eos.shape_fn.entropy_shape_slope(z)
            + 4.0 * eos.a * theta ** 2 / rho)


def gibbs_residual(eos: EosSpec, rho, theta):
    """Residuals of Gibbs' relation, (theta s_theta - e_theta,
    theta s_rho - e_rho + p/rho^2).

    Both components vanish identically for a consistent closure.  The
    radiation monomials are common subexpressions of both routes and cancel
    exactly; the returned residuals probe the P / S(Z) derivation, with the
    entropy route going through S'(Z) and the energy route through direct
    differentiation of theta^{5/2} P(Z).
    """
    rho = np.asarray(rho, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if np.any(theta <= 0.0) or np.any(rho <= 0.0):
        raise EosDomainError("gibbs_residual needs rho > 0 and theta > 0")
    z = _zvar(rho, theta)
    pz = eos.shape_fn.p(z)
    dpz = eos.shape_fn.dp(z)
    sz = eos.shape_fn.entropy_shape_slope(z)

    # theta * d(S(Z))/dtheta  vs  d/dtheta of the P-part of e
    s_route_1 = -1.5 * z * sz
    e_route_1 = 3.75 * theta ** 1.5 / rho * pz - 2.25 * dpz
    r1 = s_route_1 - e_route_1

    # theta * d(S(Z))/drho  vs  d/drho of the P-part of (e - p/rho)
    s_route_2 = sz * theta ** -0.5
    e_route_2 = 1.5 * (theta * dpz / rho - theta ** 2.5 * pz / rho ** 2)
    p_route_2 = theta ** 2.5 * pz / rho ** 2
    r2 = s_route_2 - e_route_2 + p_route_2
    return r1, r2


def stability_margins(eos: EosSpec, rho, theta):
    """(dp/drho|_theta, de/dtheta|_rho); both positive for admissible closures."""
    return pressure_rho_slope(eos, rho, theta), energy_theta_slope(eos, rho, theta)


def sound_speed_sq(eos: EosSpec, rho, theta):
    """Adiabatic sound speed squared, dp/drho|_theta + (dp/dtheta)^2 theta / (rho^2 de/dtheta)."""
    return sound_speed_sq_and_energy_slope(eos, rho, theta)[0]


def sound_speed_sq_and_energy_slope(eos: EosSpec, rho, theta):
    """(sound speed squared, de/dtheta) from one Z and one (P, P') pass: the
    closures of the acoustic and thermal step limits."""
    rho = np.asarray(rho, dtype=float)
    theta = np.asarray(theta, dtype=float)
    p, dp = eos.shape_fn.p_dp(_zvar(rho, theta))
    p_t = _pressure_theta(eos, rho, theta, p, dp)
    e_t = _energy_theta(eos, rho, theta, p, dp)
    return _pressure_rho(theta, dp) + p_t * p_t * theta / (rho * rho * e_t), e_t


def transport_coefficients(ts: TransportSpec, theta):
    """(mu, eta, kappa) at temperature theta."""
    theta = np.asarray(theta, dtype=float)
    if np.any(theta <= 0.0):
        raise EosDomainError("temperature must be positive")
    return ts.mu(theta), ts.eta(theta), ts.kappa(theta)


# ---------------------------------------------------------------------------
# variable transforms
# ---------------------------------------------------------------------------


def total_entropy_density(eos: EosSpec, rho, theta):
    return np.asarray(rho, dtype=float) * specific_entropy(eos, rho, theta)


def _solve_monotone_theta(f_and_slope, lo: float, hi: float, x0=None,
                          n_bisect: int = 80, n_newton: int = 6):
    """Vectorized root of an increasing f(theta) via log-bisection + Newton.

    ``f_and_slope(theta) -> (f, f')``.  Raises OutOfDomainError when the
    bracket does not straddle a root; the message carries the bracket values.
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

        shape = np.broadcast_shapes(np.shape(f_lo), () if x0 is None else np.shape(x0))
        a = np.full(shape, math.log(lo))
        b = np.full(shape, math.log(hi))
        if x0 is not None:
            # Warm start: shrink the bracket around x0 first via a few probes.
            x = np.clip(np.asarray(x0, dtype=float), lo * 2.0, hi * 0.5)
        else:
            x = np.exp(0.5 * (a + b))
        for _ in range(n_bisect):
            fx, _ = f_and_slope(x)
            gt = fx > 0.0
            b = np.where(gt, np.log(x), b)
            a = np.where(gt, a, np.log(x))
            x = np.exp(0.5 * (a + b))
            if np.max(b - a) < 1e-12:
                break
        for _ in range(n_newton):
            fx, dfx = f_and_slope(x)
            step = np.where(dfx > 0.0, fx / np.where(dfx > 0.0, dfx, 1.0), 0.0)
            x_new = x - step
            # keep Newton inside the bisection bracket
            x = np.clip(x_new, np.exp(a), np.exp(b))
    return x


def temperature_from_entropy(eos: EosSpec, rho, S, lo: float = 1e-8,
                             hi: float = 1e8, x0=None):
    """Solve rho s(rho, theta) = S for theta (unique by stability)."""
    rho = np.asarray(rho, dtype=float)
    S = np.asarray(S, dtype=float)
    if np.any(rho <= 0.0):
        raise OutOfDomainError("entropy inversion needs rho > 0")

    def f_and_slope(theta):
        f = rho * specific_entropy(eos, rho, theta) - S
        df = rho * entropy_theta_slope(eos, rho, theta)
        return f, df

    return _solve_monotone_theta(f_and_slope, lo, hi, x0=x0)


def temperature_from_energy_density(eos: EosSpec, rho, w, delta: float = 0.0,
                                    lo: float = 1e-10, hi: float = 1e9, x0=None):
    """Solve rho (e(rho, theta) + delta theta) = w for theta."""
    return _solve_monotone_theta(energy_density_residual(eos, rho, w, delta), lo, hi, x0=x0)


def to_conservative(eos: EosSpec, state: ThermoState) -> ConservativeState:
    """(rho, u, theta) -> (rho, rho u, rho s)."""
    if state.rho <= 0.0:
        raise EosDomainError("the transform needs rho > 0")
    s = float(specific_entropy(eos, state.rho, state.theta))
    return ConservativeState(rho=state.rho, m=state.rho * state.u, S=state.rho * s)


def from_conservative(eos: EosSpec, c: ConservativeState) -> ThermoState:
    """(rho, m, S) -> (rho, m/rho, theta); theta by monotone inversion."""
    if c.rho <= 0.0:
        raise OutOfDomainError("the inverse transform needs rho > 0")
    theta = float(temperature_from_entropy(eos, c.rho, c.S))
    return ThermoState(rho=c.rho, u=c.m / c.rho, theta=theta)


# ---------------------------------------------------------------------------
# extended internal energy E(rho, S) = rho e, convex l.s.c. on the plane
# ---------------------------------------------------------------------------


def _cold_energy_density(eos: EosSpec, rho):
    # theta -> 0 limit of rho e at fixed rho; shape-independent by the
    # asymptote P(Z)/Z^{5/3} -> p_inf.
    return 1.5 * eos.p_inf * rho ** _FIVE_THIRDS


def _interior_energy_density(eos: EosSpec, rho, S):
    lo, hi = 1e-180, 1e9
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        cold_saturated = float(rho * specific_entropy(eos, rho, lo)) >= S
    if cold_saturated:
        # the required temperature underflows; rho e has saturated cold
        return _cold_energy_density(eos, rho)
    theta = temperature_from_entropy(eos, rho, S, lo=lo, hi=hi)
    with np.errstate(over="ignore", invalid="ignore"):
        w = rho * specific_internal_energy(eos, rho, theta)
    if not np.all(np.isfinite(w)):
        # theta sits at the cold end of the bracket, where the closure
        # overflows; rho e has saturated cold there
        return _cold_energy_density(eos, rho)
    return w


def _ray_limit(eos: EosSpec, rho, S, tol: float = 1e-6, max_halvings: int = 60):
    """Directional limit of rho e along a ray from a fixed interior anchor.

    Steps halve toward (rho, S) until successive values settle to ``tol``;
    the last two values are linearly extrapolated to the endpoint.
    """
    rho_a = 1.0
    s_a = float(total_entropy_density(eos, 1.0, 1.0))
    if abs(rho - rho_a) < 1e-14 and abs(S - s_a) < 1e-14:
        return float(_interior_energy_density(eos, rho_a, s_a))
    t = 0.5
    prev = None
    val = None
    for _ in range(max_halvings):
        rho_t = rho + t * (rho_a - rho)
        s_t = S + t * (s_a - S)
        try:
            val = float(_interior_energy_density(eos, rho_t, s_t))
        except OutOfDomainError:
            # fell off the bracketed band; keep the last resolved value
            break
        if prev is not None and abs(val - prev) < tol * (1.0 + abs(val)):
            # linear extrapolation to the endpoint; rho e is nonnegative
            return max(2.0 * val - prev, 0.0)
        prev = val
        t *= 0.5
    out = prev if val is None else val
    return max(out, 0.0) if out is not None else 0.0


def extended_internal_energy(eos: EosSpec, rho: float, S: float) -> float:
    """rho e as a total convex l.s.c. function of (rho, S).

    Interior points evaluate through the temperature inversion; +inf is
    returned off the closure of the admissible set; boundary values are the
    directional limits along rays from an interior anchor.  In Third-law
    mode the admissible set is {rho > 0, S > 0} with E(0, 0) = 0; otherwise
    it is {rho > 0} with limits taken for rho -> 0+ at every S.
    """
    rho = float(rho)
    S = float(S)
    if rho < 0.0:
        return math.inf
    if eos.third_law and S < 0.0:
        return math.inf
    if rho == 0.0:
        if eos.third_law and S == 0.0:
            return 0.0
        return float(_ray_limit(eos, rho, S))
    try:
        return float(_interior_energy_density(eos, rho, S))
    except OutOfDomainError:
        # the S = 0 edge of the Third-law closure (S < 0 was excluded above),
        # or attainable in the continuum but beyond the solve bracket
        return float(_ray_limit(eos, rho, S))


def energy_density_gradient(eos: EosSpec, rho, theta):
    """(d(rho e)/drho|_S, d(rho e)/dS|_rho) at an interior state.

    Equals (e - theta s + p/rho, theta); the first component is the
    chemical-potential-like coefficient of the supporting plane.
    """
    p, e, s = stage_closures(eos, rho, theta)
    return e - theta * s + p / np.asarray(rho, dtype=float), theta


# ---------------------------------------------------------------------------
# structural validation (CLI `check-eos` backend)
# ---------------------------------------------------------------------------


def check_eos_invariants(eos: EosSpec, n_grid: int = 400) -> dict:
    """Evaluate the structural hypotheses on a log grid; {name: (ok, detail)}."""
    shape = eos.shape_fn
    z = np.geomspace(1e-3, 1e3, n_grid)
    results = {}

    p0 = float(shape.p(np.array([0.0]))[0]) if eos.shape == "iconic" else float(shape.p(1e-12))
    results["P(0) = 0"] = (abs(p0) < 1e-9, f"P(0) = {p0:.3g}")

    dp = shape.dp(z)
    results["P' > 0"] = (bool(np.all(dp > 0.0)), f"min P' = {np.min(dp):.3g}")

    gap = (_FIVE_THIRDS * shape.p(z) - dp * z) / z
    results["stability gap positive"] = (bool(np.all(gap > 0.0)), f"min gap = {np.min(gap):.3g}")
    results["stability gap bounded"] = (bool(np.max(gap) < 1e6), f"max gap = {np.max(gap):.3g}")

    g = shape.p(z) / z ** _FIVE_THIRDS
    mono = bool(np.all(np.diff(g) <= 1e-12 * np.abs(g[:-1])))
    results["P/Z^{5/3} nonincreasing"] = (mono, f"max increase = {np.max(np.diff(g)):.3g}")
    results["asymptote approaches p_inf"] = (
        bool(g[-1] >= eos.p_inf - 1e-9), f"P/Z^(5/3) at Z=1e3: {g[-1]:.6g} vs p_inf {eos.p_inf:.6g}")

    sz = shape.entropy_shape_slope(z)
    results["entropy shape decreasing"] = (bool(np.all(sz < 0.0)), f"max S'(Z) = {np.max(sz):.3g}")

    r1, r2 = gibbs_residual(eos, np.full(64, 1.7), np.geomspace(0.2, 5.0, 64))
    gmax = max(np.max(np.abs(r1)), np.max(np.abs(r2)))
    results["Gibbs relation"] = (gmax < 1e-10, f"max residual = {gmax:.3g}")
    return results
