"""Space-form quantities in geodesic polar coordinates.

Everything is radial: a simply connected space form of curvature -kappa^2
(Euclidean for kappa = 0, hyperbolic for kappa > 0) is reduced to the
half-line (0, R) carrying the volume weight omega_{n-1} * s_kappa(t)^{n-1},
where s_kappa(t) = t or sinh(kappa t)/kappa.  All functions accept floats
or numpy arrays for t.

A test function is a C^2 bump: a taper that rises from 0 to 1, holds 1 and
falls back to 0.  ``RadialTestFunction.jet`` returns the taper's (u, u', u'')
together, so a density that needs all three (the separated Laplacian) masks
its nodes once.
``Profiles`` stacks the test functions of a batch into (m, 1) parameter
columns, so one jet call evaluates a 2-D t whose row i holds nodes of function
i, each row bit-identical to that function's own jet; ``take`` picks the rows
of one quadrature pass.  ``SplineProfile`` is a cubic B-spline in log t, the
profile a best-constant estimate reports, and ``Splines`` a batch of them;
``bspline_basis`` gives the pieces of its basis on one cell.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SpaceForm", "RadialTestFunction", "ct", "big_l", "s_kappa",
    "volume_weight", "sphere_area", "angular_eigenvalue",
    "angular_term", "separated_laplacian", "make_bump", "Profiles",
    "SplineProfile", "Splines", "bspline_basis",
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
        if not (self.kappa >= 0 and math.isfinite(self.kappa)):
            raise ValueError(f"curvature parameter must be finite and >= 0, got {self.kappa}")
        if not self.R > 0:
            raise ValueError(f"radial bound must be positive, got {self.R}")


def _check_positive_radius(t):
    if (np.asarray(t) <= 0).any():
        bad = float(np.asarray(t, dtype=float).min())
        raise ValueError(f"radius must be positive, got {bad}")


def ct(sf: SpaceForm, t):
    """1/t for kappa = 0, kappa*coth(kappa*t) for kappa > 0; always > kappa."""
    _check_positive_radius(t)
    if sf.kappa == 0:
        return 1.0 / t
    return sf.kappa / np.tanh(sf.kappa * t)


def big_l(sf: SpaceForm, t):
    """(n-1)*ct(t): the distance Laplacian coefficient."""
    return (sf.n - 1) * ct(sf, t)


def s_kappa(sf: SpaceForm, t):
    """Radial profile of the volume form: t for kappa = 0, sinh(kappa t)/kappa else."""
    _check_positive_radius(t)
    if sf.kappa == 0:
        return t * 1.0
    with np.errstate(over="ignore"):
        return np.sinh(sf.kappa * t) / sf.kappa


def sphere_area(n: int) -> float:
    """Surface measure of the unit (n-1)-sphere: 2*pi^(n/2)/Gamma(n/2)."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def volume_weight(sf: SpaceForm, t):
    """omega_{n-1} * s_kappa(t)^(n-1), the full radial volume density."""
    s = s_kappa(sf, t)
    with np.errstate(over="ignore"):
        return sphere_area(sf.n) * s ** (sf.n - 1)


def angular_eigenvalue(n: int, l):
    """Eigenvalue l(l+n-2) of the spherical Laplacian on degree-l harmonics;
    for an integer array of modes, the array of their eigenvalues."""
    if np.any(np.less(l, 0)):
        raise ValueError("angular mode must be >= 0")
    return np.multiply(l, l + n - 2, dtype=float)


def angular_term(sf: SpaceForm, mu, f, t):
    """mu f / s_kappa(t)^2, the angular part of a separated quantity, or None
    when every mu is 0.  mu is a float or the (m, 1) column of a Profiles
    batch; a radial row of a batch gets an exact ±0."""
    if not np.any(mu):
        return None
    return mu * f / s_kappa(sf, t) ** 2


def separated_laplacian(sf: SpaceForm, u, t):
    """phi'' + L_kappa phi' - mu_l phi / s_kappa^2 for u = phi(rho) Y_l(theta)
    (l = 0: the radial Laplacian), from one u.jet(t); u is one test function
    or a Profiles batch evaluated on a 2-D t."""
    phi, d1, d2 = u.jet(t)
    out = d2 + big_l(sf, t) * d1
    angular = angular_term(sf, angular_eigenvalue(sf.n, u.l), phi, t)
    if angular is not None:
        out = out - angular
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
    """Compactly supported C^2 radial (or separated) bump.

    The profile is a taper: 0 outside [support_lo, support_hi], 1 on
    [rise_hi, fall_lo] and a quintic smoothstep on the rise and fall bands.
    It and its first two derivatives are exact closed forms and are
    continuous across the knots.  ``l`` is the angular mode (0 = purely
    radial).
    """

    support_lo: float
    support_hi: float
    rise_hi: float       # end of the inner transition band
    fall_lo: float       # start of the outer transition band
    l: int = 0

    @property
    def support(self) -> tuple[float, float]:
        return (self.support_lo, self.support_hi)

    @property
    def edges(self) -> tuple:
        """(support_lo, rise_hi, fall_lo, support_hi): the ends of the bands on
        each of which the profile is one polynomial."""
        return (self.support_lo, self.rise_hi, self.fall_lo, self.support_hi)

    def jet(self, t):
        """(u, u', u'') of the taper at t; floats for a scalar t."""
        out = _jet(np.asarray(t, dtype=float), *self.knots())
        if np.isscalar(t) or getattr(t, "ndim", 1) == 0:
            return tuple(float(o) for o in out)
        return out

    def knots(self) -> tuple:
        """(support_lo, rise_hi, fall_lo, support_hi, w_in, w_in^2, w_out,
        w_out^2) as floats, with w_in and w_out the widths of the rise and
        fall bands."""
        w_in = self.rise_hi - self.support_lo
        w_out = self.support_hi - self.fall_lo
        return (self.support_lo, self.rise_hi, self.fall_lo, self.support_hi,
                w_in, w_in ** 2, w_out, w_out ** 2)

    def value(self, t):
        return self.jet(t)[0]

    def dvalue(self, t):
        return self.jet(t)[1]

    def d2value(self, t):
        return self.jet(t)[2]


def _jet(t, lo, rise_hi, fall_lo, hi, w_in, w_in2, w_out, w_out2):
    """RadialTestFunction.jet on the array t, for knots that are floats or
    (m, 1) columns broadcasting over the rows of t."""
    tau0, tau1, tau2 = (np.zeros_like(t) for _ in range(3))
    inside = (t > lo) & (t < hi)
    tau0[(t >= rise_hi) & (t <= fall_lo)] = 1.0
    rise = inside & (t < rise_hi)
    fall = inside & (t > fall_lo)
    if rise.any():
        start, w, w2 = _at(rise, lo, w_in, w_in2)
        s0, s1, s2 = _smoothstep((t[rise] - start) / w)
        tau0[rise], tau1[rise], tau2[rise] = s0, s1 / w, s2 / w2
    if fall.any():
        end, w, w2 = _at(fall, hi, w_out, w_out2)
        s0, s1, s2 = _smoothstep((end - t[fall]) / w)
        tau0[fall], tau1[fall], tau2[fall] = s0, -s1 / w, s2 / w2
    return tau0, tau1, tau2


def _at(mask, *knots):
    """knots (floats or (m, 1) columns) at the nodes selected by mask."""
    return [np.broadcast_to(k, mask.shape)[mask] for k in knots]


class Profiles:
    """The test functions of a batch as (m, 1) parameter columns: jet(t)
    evaluates row i of a 2-D t with function i, from the same float knots
    RadialTestFunction.jet uses, so every row is bit-identical to that
    function's own jet.  support is the pair of arrays of support ends, edges
    the (m, 4) array of band ends and l the (m, 1) column of angular modes."""

    def __init__(self, functions):
        functions = tuple(functions)
        knots = np.array([u.knots() for u in functions]).reshape(-1, 8)
        self._knots = tuple(knots[:, k:k + 1] for k in range(8))
        self.l = np.array([[u.l] for u in functions], dtype=int).reshape(-1, 1)

    @property
    def support(self) -> tuple:
        return self._knots[0][:, 0], self._knots[3][:, 0]

    @property
    def edges(self) -> np.ndarray:
        """The (m, 4) array of the functions' edges, row i function i's."""
        return np.hstack(self._knots[:4])

    def take(self, rows) -> "Profiles":
        """The batch whose row k is function rows[k] of this one; rows is an
        index array and may repeat."""
        out = object.__new__(type(self))
        out.__dict__.update(self.__dict__)
        out.l = self.l[rows]
        out._knots = tuple(k[rows] for k in self._knots)
        return out

    def jet(self, t):
        return _jet(np.asarray(t, dtype=float), *self._knots)


def make_bump(a: float, b: float, sf: SpaceForm, l: int = 0) -> RadialTestFunction:
    """C^2 smoothstep bump supported exactly on [a, b], == 1 on its middle third."""
    if not (0 < a < b < sf.R):
        raise ValueError(f"bump support [{a}, {b}] must satisfy 0 < a < b < R={sf.R}")
    w = (b - a) / 3.0
    return RadialTestFunction(support_lo=a, support_hi=b, rise_hi=a + w, fall_lo=b - w, l=l)


# ---------------------------------------------------------------------------
# cubic B-splines in s = log t

# row j: the coefficients of 1, r, r^2, r^3 of the j-th of the four uniform
# cubic B-splines that are nonzero on a cell, in the order of their supports
# (row 0 ends at the cell's right knot, row 3 starts at its left knot), with
# r in [0, 1] the position in the cell
_BSPLINE = np.array([[1.0, -3.0, 3.0, -1.0], [4.0, 0.0, -6.0, 3.0],
                     [1.0, 3.0, 3.0, -3.0], [0.0, 0.0, 0.0, 1.0]]) / 6.0


def bspline_basis(r):
    """(b, b_r, b_rr) at the cell positions r (an array): the four B-spline
    pieces nonzero on a cell and their first two derivatives in r, each of
    shape r.shape + (4,)."""
    r = np.asarray(r, dtype=float)[..., None]
    one, zero = np.ones_like(r), np.zeros_like(r)
    powers = (np.concatenate([one, r, r * r, r * r * r], axis=-1),
              np.concatenate([zero, one, 2.0 * r, 3.0 * r * r], axis=-1),
              np.concatenate([zero, zero, 2.0 * one, 6.0 * r], axis=-1))
    return tuple(p @ _BSPLINE.T for p in powers)


@dataclass(frozen=True)
class SplineProfile:
    """Radial profile u(t) = sum_j c_j B_j(log t): a uniform cubic B-spline in
    s = log t on len(coefficients) + 3 cells of [log support_lo, log
    support_hi].  The three B-splines that reach past each end are left out,
    so u, u' and u'' vanish at both ends and u is C^2 with compact support."""

    support_lo: float
    support_hi: float
    coefficients: tuple

    l = 0   # radial

    def __post_init__(self):
        if not (0 < self.support_lo < self.support_hi):
            raise ValueError(f"spline support [{self.support_lo}, {self.support_hi}] "
                             "must satisfy 0 < lo < hi")
        if not self.coefficients:
            raise ValueError("a spline profile needs at least one coefficient")

    @property
    def support(self) -> tuple[float, float]:
        return (self.support_lo, self.support_hi)

    @property
    def cells(self) -> int:
        return len(self.coefficients) + 3

    @property
    def edges(self) -> np.ndarray:
        """The cells + 1 knots in t, from support_lo to support_hi."""
        s_lo, width, _ = self._pieces
        out = np.exp(s_lo + width * np.arange(self.cells + 1))
        out[[0, -1]] = self.support
        return out

    @functools.cached_property
    def _pieces(self):
        """(log support_lo, cell width, the (4, cells) table of each cell's
        coefficients of 1, r, r^2, r^3)."""
        s_lo = math.log(self.support_lo)
        width = (math.log(self.support_hi) - s_lo) / self.cells
        c = np.concatenate([np.zeros(3), np.asarray(self.coefficients, dtype=float),
                            np.zeros(3)])
        windows = np.lib.stride_tricks.sliding_window_view(c, 4)
        return s_lo, width, (windows @ _BSPLINE).T.copy()

    def jet(self, t):
        """(u, u', u'') at t, 0 outside the support; floats for a scalar t."""
        s_lo, width, pieces = self._pieces
        out = _spline_jet(np.asarray(t, dtype=float), s_lo, width, self.cells, 0, pieces)
        if np.isscalar(t) or getattr(t, "ndim", 1) == 0:
            return tuple(float(o) for o in out)
        return out


def _spline_jet(t, s_lo, width, cells, start, pieces):
    """SplineProfile.jet on the array t, cell c of the spline being column
    start + c of pieces; the others are numbers or (m, 1) columns."""
    x = (np.log(t) - s_lo) / width
    k = np.floor(x)
    inside = (k >= 0) & (k < cells)
    k = np.where(inside, k, 0).astype(int)
    r = x - k
    p0, p1, p2, p3 = pieces[:, start + k]
    u = ((p3 * r + p2) * r + p1) * r + p0
    u_s = ((3.0 * p3 * r + 2.0 * p2) * r + p1) / width
    u_ss = (6.0 * p3 * r + 2.0 * p2) / (width * width)
    return (np.where(inside, u, 0.0), np.where(inside, u_s / t, 0.0),
            np.where(inside, (u_ss - u_s) / (t * t), 0.0))


class Splines(Profiles):
    """A batch of SplineProfiles as (m, 1) columns of log support_lo, cell
    width, cells and first knot, the index of its knots in one edge array and
    of its cells in one pieces table.  jet is _spline_jet, SplineProfile.jet's
    own, so row i is bit for bit spline i's; edges lists each one's knots."""

    def __init__(self, splines):
        splines = tuple(splines)
        cells = np.array([[u.cells] for u in splines], dtype=int).reshape(-1, 1)
        s_lo, width = np.array([u._pieces[:2] for u in splines]).reshape(-1, 2).T[:, :, None]
        self._knots = (s_lo, width, cells, (cells + 1).cumsum()[:, None] - cells - 1)
        self.l = np.zeros_like(cells)
        self._edges = np.concatenate([[], *(u.edges for u in splines)])
        # each spline's pieces and a zero column for its last knot
        self._pieces = np.concatenate([np.empty((4, 0)), *(p for u in splines for p in (
            u._pieces[2], np.zeros((4, 1))))], axis=1)

    @property
    def support(self) -> tuple:
        first, cells = self._knots[3][:, 0], self._knots[2][:, 0]
        return self._edges[first], self._edges[first + cells]

    @property
    def edges(self) -> list:
        first, cells = self._knots[3][:, 0], self._knots[2][:, 0]
        return [self._edges[f:f + c + 1] for f, c in zip(first, cells)]

    def jet(self, t):
        return _spline_jet(np.asarray(t, dtype=float), *self._knots, self._pieces)
