"""Riccati pairs, dual Riccati pairs, Bessel potentials/pairs, and their checks.

A PairSpec bundles the defining expressions of one of four object kinds:

  primal            (G, w, W):   G' + (L + w'/w) G - G^2 >= W
  dual              (H, v, V):  -H' + (L - v'/v) H - H^2 >= V
  bessel-potential  (z, Z; c):   z'' + z'/t + c Z z = 0
  bessel-pair       (y?, X, Y; C): y'' + ((n-1)/t + X'/X) y' + C Y/X y = 0

with L(t) = (n-1) ct_kappa(t).  The residual, E1 and E2 builders, the
primal<->dual change of functions, the potential-to-pair constructions, an
ODE disconjugacy certificate for "a positive solution exists", and the grid
scanner live here.  Each side condition is written once, as a list of
terms (the *_expr builders are their sums), condition_terms is the one map
from a condition's name to its terms, and the one scanner, scan_positivity,
judges the sum of a list of terms relative to 1 + sum |term| under one
tolerance; a raw function is a single term.  Every scan returns one Scan
record, whose first five fields are the report row.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import expr as ex
from .expr import Const, Expr, Param, Unary, Var
from .geometry import SpaceForm

__all__ = [
    "PairSpec", "Scan", "DisconjugacyReport", "ROLES",
    "residual_terms", "residual_expr", "e1_expr", "e2_expr", "e1_terms", "e2_terms",
    "condition_terms",
    "primal_to_dual", "dual_to_primal",
    "from_bessel_potential", "from_bessel_pair", "bessel_pairs_from_potential",
    "disconjugacy_check", "scan_positivity", "scan_range",
    "positivity_polynomial_roots", "polynomial_criterion_holds",
    "DEFAULT_RESIDUAL_TOL", "DEFAULT_GRID", "log_grid",
]

DEFAULT_RESIDUAL_TOL = 1e-9       # the scans' relative tolerance
DEFAULT_GRID = 10_000             # the scans' log-grid size
_BISECTIONS = 60                  # halvings of each sign-change bracket

ROLES = {
    "primal": ("G", "w", "W"),
    "dual": ("H", "v", "V"),
    "bessel-potential": ("z", "Z"),
    "bessel-pair": ("X", "Y"),  # y optional
}


@dataclass(frozen=True)
class PairSpec:
    """Tagged bundle of expressions with their constants and parameter bindings."""

    kind: str
    exprs: dict
    constant: float = 1.0          # c for bessel-potential, C for bessel-pair
    params: dict = field(default_factory=dict)
    allow_signed_W: bool = False   # Definitions require W, V >= 0; override flag
    note: str = ""
    # optional closed-form logarithmic derivatives (role -> expr for f'/f);
    # needed when a weight like 1/sinh^2 underflows so f'/f would be 0/0
    logd: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in ROLES:
            raise ValueError(f"unknown pair kind {self.kind!r}")
        missing = [r for r in ROLES[self.kind] if r not in self.exprs]
        if missing:
            raise ValueError(f"{self.kind} spec is missing roles {missing}")
        for role, e in self.exprs.items():
            if not isinstance(e, Expr):
                raise TypeError(f"role {role!r} must be an Expression")

    def require(self, kind: str) -> "PairSpec":
        if self.kind != kind:
            raise ValueError(f"expected a {kind} spec, got {self.kind}")
        return self

    def expr(self, role: str) -> Expr:
        return self.exprs[role]

    def bindings(self, sf: Optional[SpaceForm] = None, t=None,
                 n: Optional[int] = None) -> dict:
        """The spec's parameters plus, where given, n and kappa from sf, n on
        its own (a Bessel pair has no space form) and t."""
        b = dict(self.params)
        if sf is not None:
            b["n"] = float(sf.n)
            b["kappa"] = float(sf.kappa)
        if n is not None:
            b["n"] = float(n)
        if t is not None:
            b["t"] = t
        return b

    def with_constant(self, value: float) -> "PairSpec":
        return replace(self, constant=value)


def _big_l_expr() -> Expr:
    return (Param("n") - 1.0) * Unary("ct", Var())


def _ct_expr() -> Expr:
    return Unary("ct", Var())


def log_grid(lo: float, hi: float, size: int) -> np.ndarray:
    return np.exp(np.linspace(math.log(lo), math.log(hi), size))


# ---------------------------------------------------------------------------
# residual, E1 and E2 expressions


def _logd(p: PairSpec, role: str) -> Expr:
    """f'/f for the given role, preferring a provided closed form."""
    if role in p.logd:
        return p.logd[role]
    f = p.expr(role)
    return f.diff() / f


def residual_terms(p: PairSpec) -> list[Expr]:
    """The summands of the defining residual (used for magnitude scaling)."""
    t = Var()
    if p.kind == "primal":
        G, W = p.expr("G"), p.expr("W")
        return [G.diff(), (_big_l_expr() + _logd(p, "w")) * G, -(G * G), -W]
    if p.kind == "dual":
        H, V = p.expr("H"), p.expr("V")
        return [-H.diff(), (_big_l_expr() - _logd(p, "v")) * H, -(H * H), -V]
    if p.kind == "bessel-potential":
        z, Z = p.expr("z"), p.expr("Z")
        return [z.diff().diff(), z.diff() / t, Const(p.constant) * Z * z]
    y = p.exprs.get("y")
    if y is None:
        raise ValueError("bessel-pair spec has no explicit y; use disconjugacy_check")
    X, Y = p.expr("X"), p.expr("Y")
    return [
        y.diff().diff(),
        ((Param("n") - 1.0) / t + _logd(p, "X")) * y.diff(),
        Const(p.constant) * Y / X * y,
    ]


def _sum(terms):
    """The left-to-right sum of terms, or of their values."""
    return functools.reduce(operator.add, terms)


def residual_expr(p: PairSpec) -> Expr:
    return _sum(residual_terms(p))


def _vH_prime(p: PairSpec) -> Expr:
    H, v = p.expr("H"), p.expr("v")
    if "v" in p.logd:
        return v * (p.logd["v"] * H + H.diff())
    return (v * H).diff()


def e1_terms(p: PairSpec) -> list[Expr]:
    """(vH)' + vH (L - 2 ct): the side condition gating the radial-gradient bound."""
    H, v = p.expr("H"), p.expr("v")
    return [_vH_prime(p), v * H * _big_l_expr(), Const(-2.0) * v * H * _ct_expr()]


def e2_terms(p: PairSpec) -> list[Expr]:
    """2 (vH)' + vH (H - 2 ct): the side condition gating the full-gradient bound."""
    H, v = p.expr("H"), p.expr("v")
    return [Const(2.0) * _vH_prime(p), v * H * H, Const(-2.0) * v * H * _ct_expr()]


def e1_expr(p: PairSpec) -> Expr:
    return _sum(e1_terms(p))


def e2_expr(p: PairSpec) -> Expr:
    return _sum(e2_terms(p))


def condition_terms(p: PairSpec, name: str) -> list[Expr]:
    """The terms whose sum is >= 0 under the condition name of p: a role of p
    (one term), "residual", or "E1"/"E2" of a dual pair."""
    if name in p.exprs:
        return [p.expr(name)]
    if name == "residual":
        return residual_terms(p)
    if name in ("E1", "E2") and p.kind == "dual":
        return e1_terms(p) if name == "E1" else e2_terms(p)
    raise ValueError(f"no condition {name!r} on a {p.kind} pair")


# ---------------------------------------------------------------------------
# primal <-> dual change of functions


def primal_to_dual(p: PairSpec, sf: SpaceForm) -> PairSpec:
    """H = L - G, v = w, V = W - (v'/v) L - L'.

    The change is an exact identity: the dual residual of the image equals
    the primal residual of p pointwise.
    """
    p.require("primal")
    G, w, W = p.expr("G"), p.expr("w"), p.expr("W")
    L = _big_l_expr()
    H = L - G
    V = W - _logd(p, "w") * L - L.diff()
    logd = {"v": p.logd["w"]} if "w" in p.logd else {}
    return PairSpec(kind="dual", exprs={"H": H, "v": w, "V": V},
                    params=dict(p.params), allow_signed_W=p.allow_signed_W,
                    note=p.note, logd=logd)


def dual_to_primal(p: PairSpec, sf: SpaceForm) -> PairSpec:
    """Inverse change: G = L - H, w = v, W = V + (w'/w) L + L'."""
    p.require("dual")
    H, v, V = p.expr("H"), p.expr("v"), p.expr("V")
    L = _big_l_expr()
    G = L - H
    W = V + _logd(p, "v") * L + L.diff()
    logd = {"w": p.logd["v"]} if "v" in p.logd else {}
    return PairSpec(kind="primal", exprs={"G": G, "w": v, "W": W},
                    params=dict(p.params), allow_signed_W=p.allow_signed_W,
                    note=p.note, logd=logd)


# ---------------------------------------------------------------------------
# Bessel constructions


def _spot_scan(p: PairSpec, n: int, terms, grid: int, lo: float, hi: float,
               tol: float) -> Scan:
    """scan_positivity of terms on (lo R, hi R), R from p's parameters."""
    R = float(p.params.get("R", 1.0))
    sf = SpaceForm(n, 0.0, R)
    return scan_positivity(terms, sf, grid=grid, t_lo=lo * R, t_hi=hi * R,
                           bindings=p.bindings(sf), tol=tol)


def _check_verified(p: PairSpec, n: int) -> None:
    scan = _spot_scan(p, n, residual_terms(p), 32, 1e-3, 0.999, 1e-6)
    if not scan.equality:   # a NaN (inf - inf between terms) is not verified either
        raise ValueError(f"input {p.kind} is not verified: relative residual "
                         f"{scan.max_abs_relative:.3e} > {scan.tol:.0e}")


def from_bessel_potential(p: PairSpec, variant: str, n: int) -> PairSpec:
    """Construct the Riccati-side object generated by a verified potential.

    variant "i":   Bessel pair  y = z t^((2-n)/2), X = 1, Y = (n-2)^2/(4t^2) + c Z
    variant "ii":  primal pair  G = -z'/z + (n-2)/(2t), w = 1, W = (n-2)^2/(4t^2) + c Z
    variant "iii": dual pair    H = n/(2t) + z'/z,     v = 1, V = n^2/(4t^2) + c Z

    All three satisfy their defining relation with equality.
    """
    p.require("bessel-potential")
    _check_verified(p, n)
    t = Var()
    z, Z, c = p.expr("z"), p.expr("Z"), p.constant
    params = dict(p.params)
    if variant == "i":
        y = z * t ** Const((2.0 - n) / 2.0)
        Y = Const((n - 2) ** 2 / 4.0) / (t * t) + Const(c) * Z
        return PairSpec(kind="bessel-pair",
                        exprs={"y": y, "X": Const(1.0), "Y": Y},
                        constant=1.0, params=params, note=p.note)
    if variant == "ii":
        G = -(z.diff() / z) + Const((n - 2) / 2.0) / t
        W = Const((n - 2) ** 2 / 4.0) / (t * t) + Const(c) * Z
        return PairSpec(kind="primal", exprs={"G": G, "w": Const(1.0), "W": W},
                        params=params, note=p.note)
    if variant == "iii":
        H = Const(n / 2.0) / t + z.diff() / z
        V = Const(n ** 2 / 4.0) / (t * t) + Const(c) * Z
        return PairSpec(kind="dual", exprs={"H": H, "v": Const(1.0), "V": V},
                        params=params, note=p.note)
    raise ValueError(f"variant must be 'i', 'ii' or 'iii', got {variant!r}")


def from_bessel_pair(p: PairSpec, n: int) -> PairSpec:
    """Variant (iv): primal pair G = -y'/y, w = X, W = C Y/X, with equality."""
    p.require("bessel-pair")
    if "y" not in p.exprs:
        raise ValueError("bessel-pair spec carries no explicit y")
    _check_verified(p, n)
    y, X, Y = p.expr("y"), p.expr("X"), p.expr("Y")
    G = -(y.diff() / y)
    W = Const(p.constant) * Y / X
    return PairSpec(kind="primal", exprs={"G": G, "w": X, "W": W},
                    params=dict(p.params), note=p.note)


def bessel_pairs_from_potential(p: PairSpec, lam: float, n: int) -> tuple[PairSpec, PairSpec]:
    """The two Bessel pairs generated by a potential whose logarithmic
    derivative satisfies Z'/Z = -lam/t + f with f >= 0 and t f(t) -> 0:

      (1/t^2, (n-4)^2/(4t^4) + c Z/t^2)   with explicit  y = z t^(-(n-4)/2)
      (Z,     (n-lam-2)^2 Z/(4t^2))       certified via disconjugacy

    both with C = 1.  Raises if lam >= n-2 or the f >= 0 spot check fails.
    """
    p.require("bessel-potential")
    if lam >= n - 2:
        raise ValueError(f"need lambda < n-2, got lambda={lam}, n={n}")
    _check_verified(p, n)
    t = Var()
    z, Z, c = p.expr("z"), p.expr("Z"), p.constant
    # spot check f = Z'/Z + lam/t >= 0 (the decay of t f is the caller's assertion)
    f = _spot_scan(p, n, [Z.diff() / Z, Const(lam) / t], 64, 1e-4, 0.99, 1e-9)
    if f.verdict != "nonnegative":
        raise ValueError("condition Z'/Z = -lambda/t + f with f >= 0 fails on spot check")
    params = dict(p.params)
    first = PairSpec(
        kind="bessel-pair",
        exprs={
            "y": z * t ** Const(-(n - 4) / 2.0),
            "X": Const(1.0) / (t * t),
            "Y": Const((n - 4) ** 2 / 4.0) / (t * t * t * t) + Const(c) * Z / (t * t),
        },
        constant=1.0, params=params, note=p.note)
    second = PairSpec(
        kind="bessel-pair",
        exprs={
            "X": Z,
            "Y": Const((n - lam - 2) ** 2 / 4.0) * Z / (t * t),
        },
        constant=1.0, params=params, note=p.note)
    return first, second


# ---------------------------------------------------------------------------
# scan records


@dataclass(frozen=True)
class Scan:
    """One side-condition scan.  The first five fields are its report row."""

    target: str
    verdict: str      # "nonnegative" | "violated" | "inconclusive-near-boundary" | "inconclusive"
    min: float
    argmin: float
    boundary_limit_R: Optional[float] = None
    boundary_limit_0: Optional[float] = None
    sign_changes: tuple = ()       # refined brackets (t1, t2) with f(t1) f(t2) < 0
    max_abs_relative: Optional[float] = None   # grid scans only
    grid_size: int = 0
    tol: float = 0.0

    @property
    def equality(self) -> bool:
        """max |sum| / (1 + sum |term|) <= tol over the grid (grid scans)."""
        return self.max_abs_relative is not None and self.max_abs_relative <= self.tol


def scan_range(sf: SpaceForm) -> tuple[float, float]:
    """(1e-6 R~, R~) with R~ = min(R, 1e3): the t range every scan covers."""
    r_tilde = min(sf.R, 1e3)
    return 1e-6 * r_tilde, r_tilde


# ---------------------------------------------------------------------------
# disconjugacy certificate


@dataclass(frozen=True)
class DisconjugacyReport:
    positive_solution: bool
    first_zero: Optional[float]
    status: str                    # "ok" | "inconclusive"
    log_t_first_zero: Optional[float] = None
    steps: int = 0

    def scan(self, target: str) -> Scan:
        """The report row: nonnegative with a positive solution, violated at
        a first zero, inconclusive otherwise."""
        if self.positive_solution:
            return Scan(target, "nonnegative", 0.0, 0.0)
        if self.first_zero is not None:
            return Scan(target, "violated", -1.0, self.first_zero)
        return Scan(target, "inconclusive", -1.0, 0.0)


def _sspace_coefficients(p: PairSpec, n: Optional[int]):
    """Coefficient expressions a(s), b(s) of y_ss + a y_s + b y = 0 at t = e^s.

    For a potential, z'' + z'/t + cZz = 0 becomes z_ss + (c t^2 Z) z = 0.
    For a pair, y'' + ((n-1)/t + X'/X) y' + C Y/X y = 0 becomes
    y_ss + (n-2 + t X'/X) y_s + (C t^2 Y/X) y = 0.
    """
    t = Var()
    if p.kind == "bessel-potential":
        a = Const(0.0)
        b = Const(p.constant) * t * t * p.expr("Z")
    elif p.kind == "bessel-pair":
        if n is None:
            raise ValueError("bessel-pair disconjugacy needs the dimension n")
        X, Y = p.expr("X"), p.expr("Y")
        a = Const(float(n - 2)) + t * _logd(p, "X")
        b = Const(p.constant) * t * t * Y / X
    else:
        raise ValueError("disconjugacy_check applies to Bessel objects only")
    return a, b


_DEEP_LOG_DEPTH = 2.0e6          # potentials: start at t = R e^{-depth}
_PAIR_LOG_DEPTH = 110.0
_FLOAT_LOG_FLOOR = -120.0        # below t = e^{-120}, coefficients on ExtFloat
_ODE_RTOL = 1e-8                 # step-doubling error per step


def disconjugacy_check(p: PairSpec, interval: Optional[tuple[float, float]] = None,
                       n: Optional[int] = None, max_steps: int = 20_000) -> DisconjugacyReport:
    """Integrate the defining linear ODE and report whether the solution
    with principal (recessive-at-zero) initial data stays positive.

    The integration runs in s = log t from near the singular endpoint: a
    potential from t = R e^(-2e6), far below float range, so that the
    oscillation of super-critical potentials is actually visible, a Bessel
    pair from R e^(-110), and an explicit interval from its t0.  The state
    (y, y', s and the step) is float.  The coefficients are computed on a
    float t = e^s above e^(-120), and on an ``expr.ExtFloat`` t (a float
    mantissa with an unbounded exponent) below it or after a float
    evaluation error, then converted to float; a coefficient that is not
    finite there ends the run inconclusive.  Steps are RK4 with step-doubling
    error control, and the state is renormalized in flight, which is
    sign-safe for a linear equation.  ``steps`` counts accepted and rejected
    attempts, plus the step that holds the first zero.
    """
    a_expr, b_expr = _sspace_coefficients(p, n)
    R = float(p.params.get("R", 1.0))
    if interval is not None:
        t0, t1 = interval
        if not (0 < t0 < t1 < math.inf):
            raise ValueError(f"interval must satisfy 0 < t0 < t1 < inf, got {interval}")
        s_lo, s_hi = math.log(t0), math.log(t1)
    else:
        depth = _DEEP_LOG_DEPTH if p.kind == "bessel-potential" else _PAIR_LOG_DEPTH
        s_hi = math.log(R) + math.log1p(-1e-9)
        s_lo = math.log(R) - depth
    program = ex.Program((a_expr, b_expr))
    base = p.bindings(n=n)

    # (a, b) at s as floats: on a float t = e^s above e^(-120), else (or
    # after a float failure) on an ExtFloat t.  The stages of a step share
    # their points; the memo holds the current step's points by exact s
    memo = {}

    def coeffs(s):
        if s in memo:
            return memo[s]
        values = None
        if s > _FLOAT_LOG_FLOOR:
            try:
                values = program.evaluate(dict(base, t=math.exp(s)))
            except ex.EvaluationError:
                pass
        if values is None or not all(map(math.isfinite, values)):
            values = [float(v) for v in program.evaluate(dict(base, t=ex.ext_exp(s)))]
            if not all(map(math.isfinite, values)):
                raise ex.EvaluationError(f"ODE coefficient out of float range at log t = {s!r}")
        memo[s] = values
        return values

    def rk4(s, y, dy, h):
        def f(s_, y_, dy_):
            a_, b_ = coeffs(s_)
            return dy_, -a_ * dy_ - b_ * y_

        k1 = f(s, y, dy)
        k2 = f(s + h / 2, y + h / 2 * k1[0], dy + h / 2 * k1[1])
        k3 = f(s + h / 2, y + h / 2 * k2[0], dy + h / 2 * k2[1])
        k4 = f(s + h, y + h * k3[0], dy + h * k3[1])
        return (y + h / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0]),
                dy + h / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1]))

    y, dy, s = 1.0, 0.0, s_lo
    end_tol = 1e-9 * max(1.0, abs(s_hi))
    h = min(1.0, s_hi - s_lo)
    first_zero_s = None
    steps = 0
    status = "ok"
    while s_hi - s > end_tol:
        if steps >= max_steps:
            status = "inconclusive"
            break
        h = min(h, s_hi - s)
        start = memo.get(s)      # keep only the new start's coefficients
        memo.clear()
        if start is not None:
            memo[s] = start
        try:
            y_full, dy_full = rk4(s, y, dy, h)
            y_half, dy_half = rk4(s, y, dy, h / 2)
            y2, dy2 = rk4(s + h / 2, y_half, dy_half, h / 2)
        except (ex.EvaluationError, ZeroDivisionError):
            status = "inconclusive"
            break
        # max() drops a NaN in a later argument: a NaN y2 reaches err
        # through norm, a NaN dy2 through the first term, and a NaN err is
        # never accepted
        norm = max(abs(y2), abs(dy2), 1e-300)
        err = max(abs(dy2 - dy_full), abs(y2 - y_full)) / norm
        if not err <= _ODE_RTOL:
            if h > 1e-12 * max(1.0, abs(s)):
                h = h * max(0.2, 0.9 * (_ODE_RTOL / err) ** 0.2)
                steps += 1
                continue
            if not err <= 100.0 * _ODE_RTOL:   # step underflow: stiff failure
                status = "inconclusive"
                break
        y_new, dy_new = y2, dy2
        if y_new == 0 or (y < 0) != (y_new < 0):
            # bisect the in-step sign change on re-integrated substeps
            lo_s, hi_s = s, s + h
            y_lo, dy_lo = y, dy
            for _ in range(40):
                mid = (lo_s + hi_s) / 2
                try:
                    y_mid, dy_mid = rk4(lo_s, y_lo, dy_lo, mid - lo_s)
                except (ex.EvaluationError, ZeroDivisionError):
                    break
                if y_mid == 0 or (y_lo < 0) != (y_mid < 0):
                    hi_s = mid
                else:
                    lo_s, y_lo, dy_lo = mid, y_mid, dy_mid
                if hi_s - lo_s < 1e-9 * max(1.0, abs(hi_s)):
                    break
            first_zero_s = (lo_s + hi_s) / 2
            steps += 1
            break
        y, dy, s = y_new, dy_new, s + h
        steps += 1
        if err > 0:
            h = h * min(5.0, 0.9 * (_ODE_RTOL / err) ** 0.2)
        else:
            h = h * 5.0
        m = max(abs(y), abs(dy))
        if m > 1e80 or m < 1e-80:
            y, dy = y / m, dy / m

    if first_zero_s is not None:
        t_zero = math.exp(first_zero_s) if first_zero_s > -745.0 else 0.0
        return DisconjugacyReport(False, t_zero, "ok", log_t_first_zero=first_zero_s,
                                  steps=steps)
    return DisconjugacyReport(status == "ok", None, status, steps=steps)


# ---------------------------------------------------------------------------
# positivity scanning


def _richardson_limit(program: ex.Program, bindings: dict, points: Sequence[float]):
    """Extrapolate the sum of the terms along a geometrically converging
    sequence of points."""
    vals = []
    for t in points:
        try:
            vals.append(float(_sum(program.evaluate({**bindings, "t": t}))))
        except ex.EvaluationError:
            return None
    if any(math.isnan(v) or math.isinf(v) for v in vals):
        return None
    # detect divergence: magnitudes growing geometrically
    mags = [abs(v) for v in vals]
    if mags[-1] > 100.0 * (1.0 + mags[0]) and mags[-1] > 2.0 * mags[-2] > 0:
        return math.copysign(math.inf, vals[-1])
    table = list(vals)
    for order in range(1, len(vals)):
        fac = 2.0 ** order
        table = [(fac * table[i + 1] - table[i]) / (fac - 1.0) for i in range(len(table) - 1)]
    return table[0]


def scan_positivity(terms: Sequence[Expr], sf: SpaceForm, grid: int = DEFAULT_GRID,
                    t_lo: Optional[float] = None,
                    t_hi: Optional[float] = None, bindings: Optional[dict] = None,
                    tol: float = DEFAULT_RESIDUAL_TOL, target: str = "f") -> Scan:
    """Scan sum(terms) >= 0 on a log-spaced grid over scan_range(sf) unless
    t_lo/t_hi are given, refine sign changes by bisection, and extrapolate
    both boundary limits.  A raw function is a single term.

    The terms are compiled into one program.  Each sample is judged relative
    to its local magnitude 1 + sum |term|, so exact cancellations register as
    zero instead of as rounding noise: it is negative when the sum is below
    -tol times that magnitude or is -inf, and undecided when the sum is NaN
    (inf - inf between terms).  The verdict is sound, not complete:
    "violated" always exhibits a negative sample; "inconclusive" means some
    sample was undecided; "nonnegative" means no sample was negative and the
    t -> R limit does not look negative.  min and argmin are the sum at the
    least relative value.
    """
    if grid < 2:
        raise ValueError(f"grid must be at least 2, got {grid}")
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and >= 0, got {tol}")
    default_lo, default_hi = scan_range(sf)
    lo = t_lo if t_lo is not None else default_lo
    hi = t_hi if t_hi is not None else default_hi
    b = dict(bindings or {})
    b.setdefault("n", float(sf.n))
    b.setdefault("kappa", float(sf.kappa))
    program = ex.Program(tuple(terms))

    ts = log_grid(lo, hi, grid)
    vals = [np.broadcast_to(np.asarray(v, dtype=float), ts.shape)
            for v in program.evaluate({**b, "t": ts})]
    with np.errstate(all="ignore"):   # inf - inf and inf/inf are handled below
        total = _sum(vals)
        rel = np.where(np.isinf(total), np.sign(total),
                       total / sum((np.abs(v) for v in vals), 1.0))
    undecided = np.isnan(rel)
    i_min = int(np.argmin(np.where(undecided, np.inf, rel)))
    sign = np.where(rel > tol, 1, np.where(rel < -tol, -1, 0))

    brackets = []
    flips = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
    for i in flips[:16]:
        a_, b_ = float(ts[i]), float(ts[i + 1])
        fa = float(total[i])
        for _ in range(_BISECTIONS):
            m = 0.5 * (a_ + b_)
            fm = float(_sum(program.evaluate({**b, "t": m})))
            if fm == 0.0:
                break  # keep the last strict bracket
            if fa * fm < 0:
                b_ = m
            else:
                a_, fa = m, fm
        brackets.append((a_, b_))

    limit_R = None
    if math.isfinite(sf.R):
        limit_R = _richardson_limit(program, b, [sf.R * (1.0 - 2.0 ** (-j))
                                                 for j in range(6, 14)])
    limit_0 = _richardson_limit(program, b, [lo * 2.0 ** (-j) for j in range(0, 8)])

    if undecided.any():
        verdict = "inconclusive"
    elif (sign < 0).any():
        verdict = "violated"
    elif limit_R is not None and limit_R < -1e-6 * (1.0 + abs(limit_R)):
        verdict = "inconclusive-near-boundary"
    else:
        verdict = "nonnegative"
    return Scan(target, verdict, float(total[i_min]), float(ts[i_min]), limit_R, limit_0,
                tuple(brackets), float(np.max(np.abs(rel))), grid, tol)


# ---------------------------------------------------------------------------
# root criterion from the iterated-log positivity argument


class PolynomialRoots(NamedTuple):
    q_minus: float
    q_plus: float


def positivity_polynomial_roots(n: int) -> PolynomialRoots:
    """Roots q = (n-4)/2 -+ sqrt(3n^2-16n+14)/2 of -q^2+(n-4)q+(n^2-4n-1)/2."""
    if n < 5:
        raise ValueError("need n >= 5")
    disc = 3 * n * n - 16 * n + 14
    assert disc > 0, "discriminant is positive for all n >= 5"
    root = math.sqrt(disc) / 2.0
    mid = (n - 4) / 2.0
    return PolynomialRoots(mid - root, mid + root)


def polynomial_criterion_holds(n: int) -> bool:
    """q_minus <= -1 < 0 < q_plus, i.e. the polynomial is >= 0 on (-1, 0)."""
    q = positivity_polynomial_roots(n)
    return q.q_minus <= -1.0 < 0.0 < q.q_plus
