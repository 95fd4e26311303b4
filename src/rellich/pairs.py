"""Riccati pairs, dual Riccati pairs, Bessel potentials/pairs, and their checks.

A PairSpec bundles the defining expressions of one of four object kinds:

  primal            (G, w, W):   G' + (L + w'/w) G - G^2 >= W
  dual              (H, v, V):  -H' + (L - v'/v) H - H^2 >= V
  bessel-potential  (z, Z; c):   z'' + z'/t + c Z z = 0
  bessel-pair       (y?, X, Y; C): y'' + ((n-1)/t + X'/X) y' + C Y/X y = 0

with L(t) = (n-1) ct_kappa(t).  The residual, E1 and E2 builders, the
primal<->dual change of functions, the potential-to-pair constructions, an
ODE disconjugacy certificate for "a positive solution exists" (solve-bessel
runs it; a chain's links are primal pairs, judged by their residual scans),
and the grid scanner live here.  Each side condition is written once, as a
list of terms (the *_expr builders are their sums), condition_terms is the
one map from a condition's name to its terms, and the one scanner,
scan_positivity, judges the sum of a list of terms relative to
1 + sum |term| under one tolerance; a raw function is a single term.  Every
scan returns one Scan record, whose first five fields are the report row.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import expr as ex
from .expr import Const, Expr, Param, Unary, Var
from .geometry import SpaceForm

__all__ = [
    "PairSpec", "Scan", "DisconjugacyReport", "ROLES",
    "residual_terms", "residual_expr", "e1_expr", "e2_expr", "e1_terms", "e2_terms",
    "condition_terms",
    "primal_to_dual", "dual_to_primal", "bessel_pair_primal",
    "from_bessel_potential", "from_bessel_pair", "bessel_pairs_from_potential",
    "disconjugacy_check", "scan_positivity", "scan_range", "max_relative",
    "positivity_polynomial_roots", "polynomial_criterion_holds",
    "DEFAULT_RESIDUAL_TOL", "DEFAULT_GRID", "log_grid",
]

DEFAULT_RESIDUAL_TOL = 1e-9       # the scans' relative tolerance
DEFAULT_GRID = 10_000             # the scans' log-grid size

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


def primal_to_dual(p: PairSpec) -> PairSpec:
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


def dual_to_primal(p: PairSpec) -> PairSpec:
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


def _radius(p: PairSpec) -> float:
    """R from p's parameters (default 1), where a Bessel object's checks and
    its default ODE interval end; it must be finite and > 0."""
    R = float(p.params.get("R", 1.0))
    if not 0 < R < math.inf:
        raise ValueError(f"need 0 < R < inf, got R={R}")
    return R


def _flat(p: PairSpec, n: int) -> SpaceForm:
    """The space form of p's checks: SpaceForm(n, 0, R), R = _radius(p)."""
    return SpaceForm(n, 0.0, _radius(p))


def _check_verified(p: PairSpec, n: int) -> None:
    """Raise unless p's residual is an equality within 1e-6 on 32 points of
    (1e-3 R, 0.999 R), judged on the grid pass alone (max_relative)."""
    sf = _flat(p, n)
    worst = max_relative(residual_terms(p), p.bindings(sf), 1e-3 * sf.R, 0.999 * sf.R, 32)
    if not worst <= 1e-6:   # a NaN (inf - inf between terms) is not verified either
        raise ValueError(f"input {p.kind} is not verified: relative residual "
                         f"{worst:.3e} > 1e-06")


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


def bessel_pair_primal(p: PairSpec, G: Expr) -> PairSpec:
    """The primal pair (G, X, C Y/X) of the Bessel pair p, with p's
    parameters and note."""
    p.require("bessel-pair")
    X = p.expr("X")
    W = Const(p.constant) * p.expr("Y") / X
    return PairSpec(kind="primal", exprs={"G": G, "w": X, "W": W},
                    params=dict(p.params), note=p.note)


def from_bessel_pair(p: PairSpec, n: int) -> PairSpec:
    """Variant (iv): primal pair G = -y'/y, w = X, W = C Y/X, with equality."""
    p.require("bessel-pair")
    _check_verified(p, n)
    y = p.expr("y")
    return bessel_pair_primal(p, -(y.diff() / y))


def bessel_pairs_from_potential(p: PairSpec, lam: float, n: int, *,
                                verified: bool = False) -> tuple[PairSpec, PairSpec]:
    """The two Bessel pairs generated by a potential whose logarithmic
    derivative satisfies Z'/Z = -lam/t + f with f >= 0 and t f(t) -> 0:

      (1/t^2, (n-4)^2/(4t^4) + c Z/t^2)   with explicit  y = z t^(-(n-4)/2)
      (Z,     (n-lam-2)^2 Z/(4t^2))       without y

    both with C = 1.  A chain's link-2 is the second's bessel_pair_primal
    with G = a/t, a = (n-lam-2)/2: the primal pair (a/t, Z, a^2/t^2), whose
    residual a f/t + a (n-1)(ct - 1/t)/t is >= 0 wherever f >= 0;
    disconjugacy_check certifies its positive solution directly.  Raises if
    lam >= n-2, if p's residual check fails (verified: the caller has just
    run it, through from_bessel_potential) or the f >= 0 spot check fails.
    """
    p.require("bessel-potential")
    if lam >= n - 2:
        raise ValueError(f"need lambda < n-2, got lambda={lam}, n={n}")
    if not verified:
        _check_verified(p, n)
    t = Var()
    z, Z, c = p.expr("z"), p.expr("Z"), p.constant
    # spot check f = Z'/Z + lam/t >= 0 (the decay of t f is the caller's assertion)
    sf = _flat(p, n)
    f = scan_positivity([Z.diff() / Z, Const(lam) / t], sf, grid=64, t_lo=1e-4 * sf.R,
                        t_hi=0.99 * sf.R, bindings=p.bindings(sf), tol=1e-9)
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
    first_zero: Optional[float]
    status: str                    # "ok" | "inconclusive"
    log_t_first_zero: Optional[float] = None
    steps: int = 0

    @property
    def positive_solution(self) -> bool:
        """The run reached its end with no zero of the solution."""
        return self.status == "ok" and self.first_zero is None

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


def _s_program(a: Expr, b: Expr, kappa=None) -> ex.Program:
    """The coefficients a and b rewritten into their s-forms t^k g(s)
    (``expr.s_form``) and compiled into one program that takes s as its t
    binding: a and b as ``expr.s_flat`` gives them, then the factor and the
    summands of the sum in b's g (``_summands``) for the cancellation rule."""
    (ka, ga), (kb, gb) = ex.s_form(a, kappa), ex.s_form(b, kappa)
    return ex.Program((ex.s_flat(ka, ga), ex.s_flat(kb, gb), *_summands(gb)))


def _summands(g: Expr) -> tuple:
    """(|f|, x_1, ..., x_m) where g = f (x_1 +- ... +- x_m), m > 1, and f is
    a product of constants and signs; () when g has one summand."""
    factor = 1.0
    while True:
        if isinstance(g, Unary) and g.op == "neg":
            g = g.child
        elif isinstance(g, ex.Binary) and g.op == "*" and isinstance(g.left, Const):
            factor, g = factor * abs(g.left.value), g.right
        elif (isinstance(g, ex.Binary) and g.op in "*/" and isinstance(g.right, Const)
              and g.right.value != 0):
            c = abs(g.right.value)
            factor, g = factor * c if g.op == "*" else factor / c, g.left
        else:
            break
    terms = [x for _, x in ex.summands(g)]
    # a Const must be finite, and a product of constants can overflow
    return (Const(min(factor, 1e308)), *terms) if len(terms) > 1 else ()


_DEEP_LOG_DEPTH = 2.0e6          # potentials: start at t = R e^{-depth}
_PAIR_LOG_DEPTH = 110.0
_END_GAP = -math.log1p(-1e-9)    # default intervals end at t = R (1 - 1e-9)
_CANCELLATION = 2.0 ** 12        # b's summands against the equation, past which b is not trusted
_GRID = 512                      # steps of the first fixed-grid level
_ANGLE_TOL = 1e-6                # Pruefer-angle agreement of two levels
_MAX_STEPS = 2 ** 17             # grid steps before a run ends inconclusive
_SECTIONS = 64                   # a multisection round reads 2 _SECTIONS + 1 even points
_RK4_RANGE = 4.0                 # largest h^2 |b| of a compared level (RK4 is stable below 8)


def disconjugacy_check(p: PairSpec, interval: Optional[tuple[float, float]] = None,
                       n: Optional[int] = None) -> DisconjugacyReport:
    """Integrate the defining linear ODE and report whether the solution
    with principal (recessive-at-zero) initial data stays positive.

    The integration runs from near the singular endpoint: a potential from
    t = R e^(-2e6), far below float range, so that the oscillation of
    super-critical potentials is actually visible, a Bessel pair from
    R e^(-110), and an explicit interval from its t0.  The state is float.
    The coefficients are computed in s: a and b are rewritten once into
    t^k g(s) (``expr.s_form``), where the powers of t of c t^2 Z, t X'/X
    and C t^2 Y/X cancel, and compiled into one program (``_s_program``),
    which every batch of points runs once on numpy (``_coefficients``).
    A coefficient that is not finite (a form that keeps k < 0 overflows
    toward the deep start), or whose sum in b cancels so far that its
    rounding error is not small beside the equation the grid integrates
    (``_coefficients``), ends the run inconclusive.

    One integrator, RK4 on nested fixed grids (``_fixed_grid_run``), runs
    every interval on one of two maps.  A potential takes grids uniform in
    v = -log(A - s), s = log t, graded toward the end t = e^A: A = log R on
    the default interval, where b w^2 (w = log R - s) of the catalog
    potentials tends to a constant at both ends, and A = log t1 + _END_GAP
    on an explicit one.  A Bessel pair takes grids uniform in s.  ``steps``
    counts the grid's steps over all its levels and the step that holds the
    first zero, which is found in s by multisection on the same RK4 kernels
    (``_bisect_zero``).  Past ``_MAX_STEPS`` steps the run is inconclusive.
    """
    a_expr, b_expr = _sspace_coefficients(p, n)
    if interval is not None:
        t0, t1 = interval
        if not (0 < t0 < t1 < math.inf):
            raise ValueError(f"interval must satisfy 0 < t0 < t1 < inf, got {interval}")
        s_lo, s_hi = math.log(t0), math.log(t1)
        anchor = s_hi + _END_GAP
        w_lo = anchor - s_lo
    else:
        log_R = math.log(_radius(p))
        w_lo = _DEEP_LOG_DEPTH if p.kind == "bessel-potential" else _PAIR_LOG_DEPTH
        s_lo, s_hi, anchor = log_R - w_lo, log_R - _END_GAP, log_R
    base = p.bindings(n=n)
    program = _s_program(a_expr, b_expr, base.get("kappa"))
    if p.kind == "bessel-pair":
        grid = (s_lo, s_hi, _s_map)
    else:
        grid = (-math.log(w_lo), -math.log(_END_GAP), _v_map(anchor))
    first_zero_s, status, steps = _fixed_grid_run(program, base, *grid)
    if first_zero_s is not None:
        t_zero = math.exp(first_zero_s) if first_zero_s > -745.0 else 0.0
        return DisconjugacyReport(t_zero, "ok", log_t_first_zero=first_zero_s, steps=steps)
    return DisconjugacyReport(None, status, steps=steps)


def _coefficients(program: ex.Program, base: dict, s: np.ndarray, w=1.0,
                  rate=0.0) -> np.ndarray:
    """(A, B) = (a w - rate, b w^2) at the points s as two float rows: the
    coefficients of y_xx + A y_x + B y = 0 in a grid variable x with
    ds/dx = w and w'/w = rate (by default x = s), from one numpy run of the
    s-form program (``_s_program``) on s.  Raises EvaluationError where a
    value is not finite, or where b's summands, scaled as B is, exceed
    _CANCELLATION (1 + |A| + |B|): there they cancel past _CANCELLATION,
    and b's rounding error is not small beside the equation."""
    values = program.evaluate(dict(base, t=s))
    coef = np.empty((2, s.size))
    with np.errstate(all="ignore"):
        coef[0], coef[1] = values[0] * w - rate, values[1] * w * w
        bad = ~np.isfinite(coef).all(axis=0)
        if len(values) > 2:                     # b's summands, scaled as B is
            factor, *terms = values[2:]
            spread = factor * _sum(map(np.abs, terms)) * w * w
            bad |= spread > _CANCELLATION * (1.0 + np.abs(coef[0]) + np.abs(coef[1]))
    if bad.any():
        raise ex.EvaluationError(f"ODE coefficient not finite, or b cancelling, at log t = "
                                 f"{float(s[np.argmax(bad)])!r}")
    return coef


def _s_map(x: np.ndarray) -> tuple:
    """The grid uniform in s: (s, ds/dx, w'/w) at the points x = s."""
    return x, np.ones_like(x), 0.0


def _v_map(log_R: float):
    """The grid uniform in v = -log(log R - s): s = log R - w with w = e^-v,
    so ds/dv = w and w'/w = -1."""
    def to_s(v: np.ndarray) -> tuple:
        w = np.exp(-v)
        return log_R - w, w, -1.0
    return to_s


def _fill_coefficients(program: ex.Program, base: dict, x: np.ndarray,
                       coef: np.ndarray, to_s) -> None:
    """Set coef[:, i] to the coefficients in x at x[i] where it is NaN (not
    computed yet).  With (s, w, r) = to_s(x), w = ds/dx and r = w'/w,
    y_ss + a y_s + b y = 0 is y_xx + (a w - r) y_x + b w^2 y = 0."""
    todo = np.flatnonzero(np.isnan(coef[0]))
    coef[:, todo] = _coefficients(program, base, *to_s(x[todo]))


def _mul(p, q):
    """p q for 2x2 matrices stored as rows (m00, m01, m10, m11) of columns."""
    return np.array([p[0] * q[0] + p[1] * q[2], p[0] * q[1] + p[1] * q[3],
                     p[2] * q[0] + p[3] * q[2], p[2] * q[1] + p[3] * q[3]])


_EYE = np.array([1.0, 0.0, 0.0, 1.0])[:, None]


def _step_matrices(a: np.ndarray, b: np.ndarray, h: float) -> np.ndarray:
    """The RK4 step matrices of u_s = A u, A = [[0, 1], [-b, -a]], u = (y, y_s),
    one column per step of a uniform grid whose nodes and midpoints, in
    order, carry a and b."""
    (a0, am, a1), (b0, bm, b1) = [(v[:-1:2], v[1::2], v[2::2]) for v in (a, b)]

    def times_a(a_, b_, x):      # A x
        return np.array([x[2], x[3], -b_ * x[0] - a_ * x[2], -b_ * x[1] - a_ * x[3]])

    k1 = times_a(a0, b0, np.broadcast_to(_EYE, (4, len(a0))))
    k2 = times_a(am, bm, _EYE + h / 2 * k1)
    k3 = times_a(am, bm, _EYE + h / 2 * k2)
    k4 = times_a(a1, b1, _EYE + h * k3)
    return _EYE + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)


def _prefix_products(m: np.ndarray) -> np.ndarray:
    """Column i is m_i ... m_1 m_0, in log2 depth, up to a positive factor
    per column.  Every pass divides each partial product by its largest
    entry, so signs hold; only a first-pass product of steps above 1e154 can
    leave float range, and a column at or past one that does is not finite."""
    q = m.copy()
    d = 1
    while d < q.shape[1]:
        q[:, d:] = _mul(q[:, d:], q[:, :-d])
        q /= np.abs(q).max(axis=0)
        d *= 2
    return q


def _bisect_zero(program: ex.Program, base: dict, s, y, dy, h) -> float:
    """The first zero of y in the step (s, s + h] from the state (y, dy) at
    s, by multisection: a round integrates the bracket in _SECTIONS RK4
    substeps uniform in s, on one coefficient run and one prefix product,
    and keeps the first substep where y is 0 or changes sign (the last one
    if none does), until the bracket is below 1e-9 max(1, |log t|).  A
    coefficient that raises, or a state that is not finite, stops the
    refinement at the bracket's midpoint."""
    fractions = np.arange(2 * _SECTIONS + 1) / (2 * _SECTIONS)
    while h >= 1e-9 * max(1.0, abs(s + h)):
        try:
            coef = _coefficients(program, base, s + h * fractions)
        except ex.EvaluationError:
            break
        with np.errstate(all="ignore"):          # a state out of range is caught below
            q = _prefix_products(_step_matrices(*coef, h / _SECTIONS))
            ys, dys = q[0] * y + q[1] * dy, q[2] * y + q[3] * dy
        lost = ~(np.isfinite(ys) & np.isfinite(dys))
        hit = np.flatnonzero((ys == 0) | ((ys < 0) != (y < 0)) | lost)
        k = int(hit[0]) if hit.size else _SECTIONS - 1
        if lost[k]:
            break
        if k:
            y, dy = ys[k - 1], dys[k - 1]
        h /= _SECTIONS
        s += k * h
    return s + h / 2


def _fixed_grid_run(program: ex.Program, base: dict, x_lo: float, x_hi: float, to_s):
    """(first zero s or None, status, steps) of RK4 on grids of N = _GRID,
    2N, ... steps uniform in x from (y, y_x) = (1, 0) at x_lo, where
    to_s(x) gives s, ds/dx and the rate of ds/dx (``_s_map``, ``_v_map``).

    The coefficients do not depend on y: a level computes them on its nodes
    and midpoints that no coarser level has (the next level's nodes are
    this one's points), in one numpy run, builds every step's RK4 matrix
    in one pass and propagates by a prefix product.
    A level is accepted when its Pruefer angle atan2(y_x, y) agrees within
    _ANGLE_TOL with the previous level's at their shared nodes, up to its
    first sign change, and the previous level agreed with its own within
    16 _ANGLE_TOL, the factor by which one doubling cuts RK4's error: one
    chance agreement of two levels that are both off is not convergence.
    A level whose h^2 |b| in x exceeds _RK4_RANGE at a node or midpoint up
    to its first sign change is not compared at all: there RK4 does not
    follow the oscillation of y_xx = -b y (it is stable for h^2 b < 8),
    and two such levels can agree by chance, as Z = 1/t^2 at c = 2 from the
    deep start did 9.5 in log t above its zero.
    After a sign change the next level stops one coarse step past it.  The
    first zero is found in s by ``_bisect_zero``, from the Richardson
    extrapolation of the two levels' angles at the last shared node before
    it (there y_s = y_x / (ds/dx)).  A level that would take the steps past
    _MAX_STEPS, whose step is below 1e-12 max(1, |x|), or whose state is
    not finite before its first sign change (steps out of float range,
    which no level within the budget resolves) ends the run inconclusive;
    an interval no longer in s than the zero search's tolerance,
    1e-9 max(1, |s|) at its end, has nothing to integrate.
    """
    s_lo, s_hi = to_s(np.array([x_lo, x_hi]))[0]
    if s_hi - s_lo <= 1e-9 * max(1.0, abs(s_hi)):
        return None, "ok", 0
    span = x_hi - x_lo
    floor = 1e-12 * max(1.0, abs(x_lo), abs(x_hi))
    N = stop = _GRID                             # steps of the grid and of this level
    coef = np.empty((2, 0))                      # coefficients on a prefix of the 2N-step grid
    steps, coarse, agreed = 0, None, math.inf    # the previous level's angles and agreement
    while True:
        if steps + stop > _MAX_STEPS or span / N < floor:
            return None, "inconclusive", steps
        m = 2 * stop + 1
        if m > coef.shape[1]:
            coef = np.concatenate((coef, np.full((2, m - coef.shape[1]), np.nan)), axis=1)
        x = x_lo + np.arange(m) / (2 * N) * span
        try:
            _fill_coefficients(program, base, x, coef[:, :m], to_s)
        except ex.EvaluationError:
            return None, "inconclusive", steps
        steps += stop
        with np.errstate(all="ignore"):          # a state out of range is caught below
            q = _prefix_products(_step_matrices(*coef[:, :m], span / N))
            theta = np.concatenate(([0.0], np.arctan2(q[2], q[0])))
        lost = ~np.isfinite(q).all(axis=0)
        down = np.flatnonzero(~(q[0] > 0) | lost)
        if down.size and lost[down[0]]:
            return None, "inconclusive", steps
        flip = int(down[0]) + 1 if down.size else None
        if coarse is not None:
            end = stop if flip is None else flip
            comparable = (end >= 2 and len(coarse) > end // 2
                          and (flip is not None or stop == N and len(coarse) == N // 2 + 1)
                          and np.abs(coef[1, :2 * end + 1]).max() * (span / N) ** 2 <= _RK4_RANGE)
            diff = (np.max(np.abs(theta[:end + 1:2] - coarse[:end // 2 + 1]))
                    if comparable else math.inf)
            if diff <= _ANGLE_TOL and agreed <= 16.0 * _ANGLE_TOL:
                if flip is None:
                    return None, "ok", steps
                i = 2 * ((flip - 1) // 2)
                angle = theta[i] + (theta[i] - coarse[i // 2]) / 15.0
                s, w, _ = to_s(x[[2 * i, 2 * flip]])
                zero = _bisect_zero(program, base, float(s[0]), math.cos(angle),
                                    math.sin(angle) / float(w[0]), float(s[1] - s[0]))
                return zero, "ok", steps + 1
            agreed = diff
        coarse = theta
        N *= 2
        stop = N if flip is None else min(N, 2 * (flip + 1))
        finer = np.full((2, 2 * m - 1), np.nan)   # this level's points, finer grid
        finer[:, ::2] = coef[:, :m]
        coef = finer


# ---------------------------------------------------------------------------
# positivity scanning


def _richardson_limit(program: ex.Program, bindings: dict, points: Sequence[float]):
    """Extrapolate the sum of the terms along a geometrically converging
    sequence of points, evaluated in one call; None where a point is outside
    the domain or a sum there is not finite."""
    try:
        values = program.evaluate({**bindings, "t": np.array(points)})
    except ex.EvaluationError:
        return None
    with np.errstate(all="ignore"):   # inf - inf between terms is NaN: no limit
        vals = np.broadcast_to(_sum(values), len(points)).tolist()
    if not all(map(math.isfinite, vals)):
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


def _refine(program: ex.Program, bindings: dict, a: float, b: float, fa: float) -> tuple:
    """The sign change of the sum of the terms in (a, b), where it has fa's
    sign at a and the opposite sign at b, bracketed by multisection: a
    round evaluates the points that split the bracket into 2 _SECTIONS
    parts (the points of a _bisect_zero round) in one call and keeps the
    first part whose ends differ in sign, until the bracket is two
    neighbouring floats.  A point where the sum is an exact zero (or NaN)
    ends the refinement with the narrowest bracket around it whose ends
    have strict signs."""
    fractions = np.arange(1, 2 * _SECTIONS) / (2 * _SECTIONS)
    sign_a = math.copysign(1.0, fa)
    while True:
        ts = a + (b - a) * fractions                  # nondecreasing
        ts = ts[(np.diff(ts, prepend=a) > 0) & (ts < b)]   # each float inside once
        if not ts.size:
            return a, b                               # two neighbouring floats
        with np.errstate(all="ignore"):               # inf - inf is NaN, handled below
            side = np.sign(_sum(program.evaluate({**bindings, "t": ts}))) * sign_a
        other = np.flatnonzero(~(side > 0))           # the points without a's sign
        j = int(other[0]) if other.size else ts.size
        if j:
            a = float(ts[j - 1])
        if j == ts.size:
            continue
        if not side[j] < 0:                           # a zero (or NaN): keep a strict bracket
            past = np.flatnonzero(side[j:] < 0)
            return a, (float(ts[j + past[0]]) if past.size else b)
        b = float(ts[j])


def _grid_pass(terms: Sequence[Expr], bindings: dict, lo: float, hi: float,
               grid: int) -> tuple:
    """(program, ts, total, rel): the terms compiled into one program, the
    log grid of grid points on [lo, hi], the sum of the terms there and that
    sum relative to 1 + sum |term| (its sign where it is infinite, NaN where
    it is inf - inf)."""
    program = ex.Program(tuple(terms))
    ts = log_grid(lo, hi, grid)
    vals = [np.broadcast_to(np.asarray(v, dtype=float), ts.shape)
            for v in program.evaluate({**bindings, "t": ts})]
    with np.errstate(all="ignore"):   # inf - inf and inf/inf are handled by the caller
        total = _sum(vals)
        rel = np.where(np.isinf(total), np.sign(total),
                       total / sum((np.abs(v) for v in vals), 1.0))
    return program, ts, total, rel


def max_relative(terms: Sequence[Expr], bindings: dict, lo: float, hi: float,
                 grid: int) -> float:
    """max |sum| / (1 + sum |term|) of terms on the log grid of grid points
    on [lo, hi], NaN if a sum there is inf - inf: Scan.max_abs_relative of
    scan_positivity, from its grid pass alone (no bisection, no limits).
    The equality checks judge by it; bindings must hold n and kappa."""
    return float(np.max(np.abs(_grid_pass(terms, bindings, lo, hi, grid)[3])))


def scan_positivity(terms: Sequence[Expr], sf: SpaceForm, grid: int = DEFAULT_GRID,
                    t_lo: Optional[float] = None,
                    t_hi: Optional[float] = None, bindings: Optional[dict] = None,
                    tol: float = DEFAULT_RESIDUAL_TOL, target: str = "f") -> Scan:
    """Scan sum(terms) >= 0 on a log-spaced grid over scan_range(sf) unless
    t_lo/t_hi are given, refine sign changes by multisection, and extrapolate
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
    program, ts, total, rel = _grid_pass(terms, b, lo, hi, grid)
    undecided = np.isnan(rel)
    i_min = int(np.argmin(np.where(undecided, np.inf, rel)))
    sign = np.where(rel > tol, 1, np.where(rel < -tol, -1, 0))

    flips = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
    brackets = [_refine(program, b, float(ts[i]), float(ts[i + 1]), float(total[i]))
                for i in flips[:16]]

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
