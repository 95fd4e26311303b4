"""Space-form quantities in geodesic polar coordinates.

Everything is radial: a simply connected space form of curvature -kappa^2
(Euclidean for kappa = 0, hyperbolic for kappa > 0) is reduced to the
half-line (0, R) carrying the volume weight omega_{n-1} * s_kappa(t)^{n-1},
where s_kappa(t) = t or sinh(kappa t)/kappa.  All functions accept floats
or numpy arrays for t.

A test profile is a plateau t^alpha times a C^2 taper; ``RadialTestFunction.jet``
evaluates both once and returns (u, u', u'') together, so a density that needs
all three (the separated Laplacian) masks and powers its nodes once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SpaceForm", "RadialTestFunction", "ct", "big_l", "s_kappa",
    "volume_weight", "sphere_area", "angular_eigenvalue",
    "separated_laplacian", "make_bump", "make_powerlaw",
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


def separated_laplacian(sf: SpaceForm, u: "RadialTestFunction", t):
    """phi'' + L_kappa phi' - mu_l phi / s_kappa^2 for u = phi(rho) Y_l(theta)
    (l = 0: the radial Laplacian), from one u.jet(t)."""
    mu = angular_eigenvalue(sf.n, u.l)
    phi, d1, d2 = u.jet(t)
    out = d2 + big_l(sf, t) * d1
    if mu:
        out = out - mu * phi / s_kappa(sf, t) ** 2
    return out


# ---------------------------------------------------------------------------
# test functions


def _smoothstep(x):
    """(S, S', S'') of the C^2 quintic smoothstep on [0, 1]:
    S(0)=S'(0)=S''(0)=0, S(1)=1, S'(1)=S''(1)=0."""
    return (x * x * x * (10.0 + x * (-15.0 + 6.0 * x)), 30.0 * x * x * (1.0 - x) ** 2,
            60.0 * x * (1.0 - x) * (1.0 - 2.0 * x))


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

    def jet(self, t):
        """(u, u', u'') at t: the plateau t^alpha (1 for bumps) times the taper
        tau, which is 0 outside the support, 1 on [rise_hi, fall_lo] and a
        smoothstep on the rise and fall bands.  Floats for a scalar t."""
        t_arr = np.asarray(t, dtype=float)
        w_in = self.rise_hi - self.support_lo
        w_out = self.support_hi - self.fall_lo
        tau0, tau1, tau2 = (np.zeros_like(t_arr) for _ in range(3))
        inside = (t_arr > self.support_lo) & (t_arr < self.support_hi)
        tau0[(t_arr >= self.rise_hi) & (t_arr <= self.fall_lo)] = 1.0
        rise = inside & (t_arr < self.rise_hi)
        fall = inside & (t_arr > self.fall_lo)
        if np.any(rise):
            s0, s1, s2 = _smoothstep((t_arr[rise] - self.support_lo) / w_in)
            tau0[rise], tau1[rise], tau2[rise] = s0, s1 / w_in, s2 / w_in ** 2
        if np.any(fall):
            s0, s1, s2 = _smoothstep((self.support_hi - t_arr[fall]) / w_out)
            tau0[fall], tau1[fall], tau2[fall] = s0, -s1 / w_out, s2 / w_out ** 2
        a = self.alpha
        if a == 0.0:
            p0, p1, p2 = np.ones_like(t_arr), np.zeros_like(t_arr), np.zeros_like(t_arr)
        else:
            p0, p1, p2 = t_arr ** a, a * t_arr ** (a - 1.0), a * (a - 1.0) * t_arr ** (a - 2.0)
        out = (p0 * tau0, p1 * tau0 + p0 * tau1,
               p2 * tau0 + 2.0 * p1 * tau1 + p0 * tau2)
        if np.isscalar(t) or getattr(t, "ndim", 1) == 0:
            return tuple(float(o) for o in out)
        return out

    def value(self, t):
        return self.jet(t)[0]

    def dvalue(self, t):
        return self.jet(t)[1]

    def d2value(self, t):
        return self.jet(t)[2]


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
