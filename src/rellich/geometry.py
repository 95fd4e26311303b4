"""Space-form quantities in geodesic polar coordinates.

Everything is radial: a simply connected space form of curvature -kappa^2
(Euclidean for kappa = 0, hyperbolic for kappa > 0) is reduced to the
half-line (0, R) carrying the volume weight omega_{n-1} * s_kappa(t)^{n-1},
where s_kappa(t) = t or sinh(kappa t)/kappa.  All functions accept floats
or numpy arrays for t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SpaceForm", "RadialTestFunction", "ct", "big_l", "s_kappa",
    "volume_weight", "sphere_area", "angular_eigenvalue",
    "radial_laplacian", "separated_laplacian", "make_bump", "make_powerlaw",
]


@dataclass(frozen=True)
class SpaceForm:
    """Dimension n, curvature parameter kappa >= 0, radial domain (0, R)."""

    n: int
    kappa: float
    R: float = math.inf

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 2:
            raise ValueError(f"dimension must be an integer >= 2, got {self.n}")
        if self.kappa < 0:
            raise ValueError(f"curvature parameter must be >= 0, got {self.kappa}")
        if not self.R > 0:
            raise ValueError(f"radial bound must be positive, got {self.R}")


def _check_positive_radius(t):
    if np.any(np.asarray(t) <= 0):
        bad = float(np.asarray(t, dtype=float).min())
        raise ValueError(f"radius must be positive, got {bad}")


def ct(sf: SpaceForm, t):
    """1/t for kappa = 0, kappa*coth(kappa*t) for kappa > 0; always > kappa."""
    _check_positive_radius(t)
    if sf.kappa == 0:
        return 1.0 / t
    return sf.kappa / np.tanh(sf.kappa * t) if isinstance(t, np.ndarray) \
        else sf.kappa / math.tanh(sf.kappa * t)


def big_l(sf: SpaceForm, t):
    """(n-1)*ct(t): the distance Laplacian coefficient."""
    return (sf.n - 1) * ct(sf, t)


def s_kappa(sf: SpaceForm, t):
    """Radial profile of the volume form: t for kappa = 0, sinh(kappa t)/kappa else."""
    _check_positive_radius(t)
    if sf.kappa == 0:
        return t * 1.0
    if isinstance(t, np.ndarray):
        with np.errstate(over="ignore"):
            return np.sinh(sf.kappa * t) / sf.kappa
    try:
        return math.sinh(sf.kappa * t) / sf.kappa
    except OverflowError:
        return math.inf


def sphere_area(n: int) -> float:
    """Surface measure of the unit (n-1)-sphere: 2*pi^(n/2)/Gamma(n/2)."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def volume_weight(sf: SpaceForm, t):
    """omega_{n-1} * s_kappa(t)^(n-1), the full radial volume density."""
    s = s_kappa(sf, t)
    with np.errstate(over="ignore"):
        return sphere_area(sf.n) * s ** (sf.n - 1)


def angular_eigenvalue(n: int, l: int) -> float:
    """Eigenvalue l(l+n-2) of the spherical Laplacian on degree-l harmonics."""
    if l < 0:
        raise ValueError("angular mode must be >= 0")
    return float(l * (l + n - 2))


def radial_laplacian(sf: SpaceForm, u: "RadialTestFunction", t):
    """u'' + L_kappa u' for a purely radial profile (l = 0 only)."""
    if getattr(u, "l", 0) != 0:
        raise ValueError("radial_laplacian requires l = 0; use separated_laplacian")
    return u.d2value(t) + big_l(sf, t) * u.dvalue(t)


def separated_laplacian(sf: SpaceForm, u: "RadialTestFunction", t):
    """phi'' + L_kappa phi' - mu_l phi / s_kappa^2 for u = phi(rho) Y_l(theta)."""
    mu = angular_eigenvalue(sf.n, getattr(u, "l", 0))
    out = u.d2value(t) + big_l(sf, t) * u.dvalue(t)
    if mu:
        out = out - mu * u.value(t) / s_kappa(sf, t) ** 2
    return out


# ---------------------------------------------------------------------------
# test functions

# C^2 quintic smoothstep on [0, 1]: S(0)=S'(0)=S''(0)=0, S(1)=1, S'(1)=S''(1)=0.


def _smoothstep(x):
    return x * x * x * (10.0 + x * (-15.0 + 6.0 * x))


def _smoothstep_d1(x):
    return 30.0 * x * x * (1.0 - x) ** 2


def _smoothstep_d2(x):
    return 60.0 * x * (1.0 - x) * (1.0 - 2.0 * x)


@dataclass(frozen=True)
class RadialTestFunction:
    """Compactly supported C^2 radial (or separated) profile.

    ``kind`` is "bump" or "powerlaw"; the profile and its first two
    derivatives are exact closed forms, vanish with u' and u'' outside
    [support_lo, support_hi], and are continuous across the transition
    knots.  ``l`` is the angular mode (0 = purely radial).
    """

    kind: str
    support_lo: float
    support_hi: float
    rise_hi: float       # end of the inner transition band
    fall_lo: float       # start of the outer transition band
    alpha: float = 0.0   # plateau exponent (0 for bumps)
    l: int = 0
    label: str = field(default="", compare=False)

    @property
    def support(self) -> tuple[float, float]:
        return (self.support_lo, self.support_hi)

    def with_mode(self, l: int) -> "RadialTestFunction":
        from dataclasses import replace

        return replace(self, l=l)

    # -- taper tau(t): 0 outside support, 1 on [rise_hi, fall_lo], C^2 --

    def _tau(self, t, deriv: int):
        t = np.asarray(t, dtype=float)
        w_in = self.rise_hi - self.support_lo
        w_out = self.support_hi - self.fall_lo
        out = np.zeros_like(t)
        inside = (t > self.support_lo) & (t < self.support_hi)
        mid = (t >= self.rise_hi) & (t <= self.fall_lo)
        if deriv == 0:
            out[mid] = 1.0
        rise = inside & (t < self.rise_hi)
        fall = inside & (t > self.fall_lo)
        if np.any(rise):
            x = (t[rise] - self.support_lo) / w_in
            f = (_smoothstep, _smoothstep_d1, _smoothstep_d2)[deriv]
            out[rise] = f(x) / w_in ** deriv
        if np.any(fall):
            x = (self.support_hi - t[fall]) / w_out
            f = (_smoothstep, _smoothstep_d1, _smoothstep_d2)[deriv]
            sign = -1.0 if deriv == 1 else 1.0
            out[fall] = sign * f(x) / w_out ** deriv
        return out

    def _plateau(self, t, deriv: int):
        if self.alpha == 0.0:
            t = np.asarray(t, dtype=float)
            return np.ones_like(t) if deriv == 0 else np.zeros_like(t)
        a = self.alpha
        if deriv == 0:
            return t ** a
        if deriv == 1:
            return a * t ** (a - 1.0)
        return a * (a - 1.0) * t ** (a - 2.0)

    def _eval(self, t, deriv: int):
        t_arr = np.asarray(t, dtype=float)
        if deriv == 0:
            out = self._plateau(t_arr, 0) * self._tau(t_arr, 0)
        elif deriv == 1:
            out = self._plateau(t_arr, 1) * self._tau(t_arr, 0) \
                + self._plateau(t_arr, 0) * self._tau(t_arr, 1)
        else:
            out = self._plateau(t_arr, 2) * self._tau(t_arr, 0) \
                + 2.0 * self._plateau(t_arr, 1) * self._tau(t_arr, 1) \
                + self._plateau(t_arr, 0) * self._tau(t_arr, 2)
        if np.isscalar(t) or getattr(t, "ndim", 1) == 0:
            return float(out)
        return out

    def value(self, t):
        return self._eval(t, 0)

    def dvalue(self, t):
        return self._eval(t, 1)

    def d2value(self, t):
        return self._eval(t, 2)


def make_bump(a: float, b: float, sf: SpaceForm, l: int = 0) -> RadialTestFunction:
    """C^2 smoothstep bump supported exactly on [a, b], == 1 on its middle third."""
    if not (0 < a < b < sf.R):
        raise ValueError(f"bump support [{a}, {b}] must satisfy 0 < a < b < R={sf.R}")
    w = (b - a) / 3.0
    return RadialTestFunction(
        kind="bump", support_lo=a, support_hi=b,
        rise_hi=a + w, fall_lo=b - w, alpha=0.0, l=l,
        label=f"bump[{a:.6g},{b:.6g}]l{l}",
    )


def make_powerlaw(alpha: float, a: float, b: float, w_in: float, w_out: float,
                  sf: SpaceForm, l: int = 0) -> RadialTestFunction:
    """Profile == t^alpha on [a, b], C^2-tapered to 0 over the transition bands."""
    if not (w_in > 0 and w_out > 0):
        raise ValueError("transition widths must be positive")
    if not (0 < a - w_in and a < b and b + w_out < sf.R):
        raise ValueError(
            f"powerlaw geometry invalid: need 0 < {a}-{w_in} and {b}+{w_out} < R={sf.R}")
    return RadialTestFunction(
        kind="powerlaw", support_lo=a - w_in, support_hi=b + w_out,
        rise_hi=a, fall_lo=b, alpha=float(alpha), l=l,
        label=f"powerlaw[a={alpha:.4g},{a:.6g},{b:.6g}]l{l}",
    )
