"""Weighted radial quadrature and end-to-end inequality verification.

All integrals reduce to one dimension: for a radial density f,
integral over Omega of f(rho) dx = integral of f(t) * volume_weight(t) dt.
The quadrature is an adaptive Gauss-Kronrod (G7, K15) scheme, batched so
every pending panel is evaluated in one vectorized call, with a
t = exp(s) substitution for wide supports so power-like singular
potentials are resolved cheaply.

A verification run certifies the *sampled* necessary condition (margins
over a seeded batch of test functions) plus the sufficient side
conditions (residual and E1/E2 scans); a "pass" verdict is
certified-on-batch, not the universal statement.
"""

from __future__ import annotations

import functools
import math
import operator
import random
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from . import pairs as pr
from .catalog import ChainDescriptor
from .expr import Const, Expr
from .geometry import (RadialTestFunction, SpaceForm, angular_eigenvalue,
                       make_bump, s_kappa, separated_laplacian, volume_weight)
from .pairs import PairSpec, Scan

__all__ = [
    "QuadratureResult", "InequalityCase", "BatchSpec",
    "TestRecord", "VerificationReport", "ChainMismatchError", "NonconvergenceError",
    "Shape", "Sides", "integrate", "side", "shape_sides", "verify_case",
    "verify_chain", "check_chain_composition", "generate_batch", "batch_domain",
    "SHAPES", "DEFAULT_QUAD_TOL",
]

DEFAULT_QUAD_TOL = 1e-10

# Gauss-Kronrod 7-15 nodes and weights (symmetric half listed).
_XGK = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
])
_WGK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
])

_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])          # 15 ascending nodes
_KW = np.concatenate([_WGK[:-1], _WGK[::-1]])
_GW = np.zeros(15)
_GW[1:14:2] = np.concatenate([_WG[:-1], _WG[::-1]])        # Gauss subset


class NonconvergenceError(Exception):
    """Adaptive quadrature exceeded its subdivision cap."""


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    subintervals: int


def _adaptive_gk(f: Callable[[np.ndarray], np.ndarray], lo: float, hi: float,
                 rtol: float, atol: float, max_panels: int,
                 init: Sequence[float]) -> QuadratureResult:
    edges = np.asarray(init, dtype=float)
    a = edges[:-1].copy()
    b = edges[1:].copy()

    def eval_panels(aa, bb):
        mid = 0.5 * (aa + bb)
        half = 0.5 * (bb - aa)
        pts = mid[:, None] + half[:, None] * _NODES[None, :]
        vals = np.asarray(f(pts.ravel()), dtype=float).reshape(len(aa), 15)
        if np.any(~np.isfinite(vals)):
            raise NonconvergenceError("quadrature met a non-finite integrand value")
        k15 = (vals * _KW).sum(axis=1) * half
        g7 = (vals * _GW).sum(axis=1) * half
        return k15, np.abs(k15 - g7)

    val, err = eval_panels(a, b)
    for _ in range(60):
        total = float(val.sum())
        target = max(atol, rtol * abs(total))
        if err.sum() <= target:
            break
        if len(a) >= max_panels:
            break
        thresh = max(target / (4.0 * len(a)), 0.25 * float(err.max()))
        mask = err >= min(thresh, float(err.max()))
        mid = 0.5 * (a[mask] + b[mask])
        new_a = np.concatenate([a[~mask], a[mask], mid])
        new_b = np.concatenate([b[~mask], mid, b[mask]])
        keep_val, keep_err = val[~mask], err[~mask]
        add_val, add_err = eval_panels(np.concatenate([a[mask], mid]),
                                       np.concatenate([mid, b[mask]]))
        a, b = new_a, new_b
        val = np.concatenate([keep_val, add_val])
        err = np.concatenate([keep_err, add_err])
    total = float(val.sum())
    total_err = float(err.sum())
    # modest slack over the request: |K-G| is a conservative estimator and
    # bottoms out near rounding noise of the panel sums
    if total_err > max(atol, 8.0 * rtol * abs(total), 1e-280):
        raise NonconvergenceError(
            f"quadrature did not converge: error estimate {total_err:.3e} "
            f"with {len(a)} subintervals (target {max(atol, rtol * abs(total)):.3e})")
    return QuadratureResult(total, total_err, len(a))


def integrate(sf: SpaceForm, density: Callable, a: float, b: float,
              tol: float = DEFAULT_QUAD_TOL, max_panels: int = 4096) -> QuadratureResult:
    """integral over {a < rho < b} of density(rho) dx_kappa, i.e. the 1-D
    integral of density(t) * volume_weight(t).

    Only integrable endpoint singularities are supported; for wide ranges the
    integration runs in s = log t so t -> 0 power behavior is resolved.
    """
    if not (0 <= a < b <= sf.R):
        raise ValueError(f"integration range [{a}, {b}] outside [0, R={sf.R}]")

    def integrand(t):
        return np.asarray(density(t), dtype=float) * volume_weight(sf, t)

    if a > 0 and b / a > 32.0:
        lo, hi = math.log(a), math.log(b)

        def integrand_s(s):
            t = np.exp(s)
            return integrand(t) * t

        init = np.linspace(lo, hi, 17)
        return _adaptive_gk(integrand_s, lo, hi, tol, 0.0, max_panels, init)
    if a == 0:
        # geometric initial panels toward the origin; nodes are interior
        edges = [0.0] + [b * 2.0 ** (-j) for j in range(16, -1, -1)]
        return _adaptive_gk(integrand, a, b, tol, 0.0, max_panels, edges)
    init = np.linspace(a, b, 9)
    return _adaptive_gk(integrand, a, b, tol, 0.0, max_panels, init)


# ---------------------------------------------------------------------------
# inequality sides


class Shape(NamedTuple):
    """The pair kind a shape is stated for ("chain": a chain descriptor), the
    roles of its weight and potential (the RHS density is their product, a
    chain's is its end density), the forms of u on its two sides and the
    conditions of the pair its scans gate on (pairs.condition_terms names; a
    chain gates on its dual's delta-vs-gradrad conditions and on its links)."""

    kind: str
    weight: str
    potential: Optional[str]
    lhs: str
    rhs: str
    gates: tuple


SHAPES = {
    "delta-vs-gradrad": Shape("dual", "v", "V", "delta", "gradrad",
                              ("v", "V", "residual", "E1")),
    "delta-vs-grad": Shape("dual", "v", "V", "delta", "grad", ("v", "V", "residual", "E2")),
    "gradrad-vs-usq": Shape("primal", "w", "W", "gradrad", "usq", ("w", "W", "residual")),
    "chain": Shape("chain", "v", None, "delta", "usq", ()),
}


def side(sf: SpaceForm, weight: Expr, u: RadialTestFunction, form: str,
         bindings: Optional[dict] = None,
         tol: float = DEFAULT_QUAD_TOL) -> QuadratureResult:
    """integral of weight(rho) * q(u) dx over the support of u, with q =
    |Delta u|^2 (delta), |grad_rad u|^2 (gradrad), |grad u|^2 (grad: radial
    plus angular part) or u^2 (usq); bindings holds the weight's parameters,
    n and kappa (PairSpec.bindings(sf))."""
    if form not in ("delta", "gradrad", "grad", "usq"):
        raise ValueError(f"unknown side {form!r}")
    bindings = bindings or {}
    mu = angular_eigenvalue(sf.n, u.l)

    def density(t):
        w = np.asarray(weight.evaluate({**bindings, "t": t}), dtype=float)
        if form == "delta":
            lap = separated_laplacian(sf, u, t)
            return w * lap * lap
        if form == "usq":
            return w * u.value(t) ** 2
        q = u.dvalue(t) ** 2
        if form == "grad" and mu:
            q = q + mu * u.value(t) ** 2 / s_kappa(sf, t) ** 2
        return w * q

    lo, hi = u.support
    return integrate(sf, density, lo, hi, tol)


@dataclass(frozen=True)
class Sides:
    """The two sides of one inequality, integral of weight * lhs(u) against
    integral of density * rhs(u), with their bindings.  Built once per batch
    or estimate, so each expression compiles once."""

    weight: Expr
    lhs: str
    density: Expr
    rhs: str
    bindings: dict

    def integrals(self, sf: SpaceForm, u: RadialTestFunction,
                  tol: float = DEFAULT_QUAD_TOL) -> tuple[QuadratureResult, QuadratureResult]:
        return (side(sf, self.weight, u, self.lhs, self.bindings, tol),
                side(sf, self.density, u, self.rhs, self.bindings, tol))


def _check_pair(shape: str, pair) -> None:
    """Raise unless pair is of the kind shape is stated for: a PairSpec of
    that kind, or a chain descriptor for "chain"."""
    if shape not in SHAPES:
        raise ValueError(f"unknown shape {shape!r}")
    kind = SHAPES[shape].kind
    if kind == "chain" and not isinstance(pair, ChainDescriptor):
        raise ValueError(f"shape {shape} requires a chain descriptor")
    if kind != "chain" and not (isinstance(pair, PairSpec) and pair.kind == kind):
        raise ValueError(f"shape {shape} requires a {kind} spec")


def shape_sides(shape: str, pair, sf: SpaceForm,
                claimed: Optional[float] = None) -> Sides:
    """The sides of shape for pair, a PairSpec of the shape's kind or a chain
    descriptor; with claimed, the right side is divided by it."""
    _check_pair(shape, pair)
    row = SHAPES[shape]
    if row.kind == "chain":
        spec, factors = pair.dual, (pair.rhs_density_expr(),)
    else:
        spec, factors = pair, (pair.expr(row.weight), pair.expr(row.potential))
    if claimed is not None:
        factors = (Const(1.0 / claimed),) + factors
    return Sides(spec.expr(row.weight), row.lhs, functools.reduce(operator.mul, factors),
                 row.rhs, spec.bindings(sf))


# ---------------------------------------------------------------------------
# cases, batches, reports


@dataclass(frozen=True)
class BatchSpec:
    count: int = 50
    seed: int = 42
    family: str = "bump"
    modes: tuple = (0,)

    def __post_init__(self):
        if self.count < 0:
            raise ValueError(f"--tests must be a count >= 0, got {self.count}")
        if not self.modes or not all(isinstance(l, int) and l >= 0 for l in self.modes):
            raise ValueError("--modes must be comma-separated angular modes l >= 0, "
                             f"got {','.join(map(str, self.modes)) or 'none'!r}")


@dataclass(frozen=True)
class InequalityCase:
    """A single inequality shape with its pair (a PairSpec of the shape's kind,
    or a chain descriptor), space form and batch."""

    shape: str
    sf: SpaceForm
    batch: BatchSpec = BatchSpec()
    pair: object = None
    case_id: str = "case"

    def __post_init__(self):
        _check_pair(self.shape, self.pair)
        if self.shape == "delta-vs-grad" and not any(l >= 1 for l in self.batch.modes):
            raise ValueError("delta-vs-grad batches must include l >= 1 modes")


@dataclass(frozen=True)
class TestRecord:
    id: str
    params: dict
    lhs: float
    rhs: float
    margin: float
    budget: float

    @property
    def passed(self) -> bool:
        return self.margin >= -self.budget


# every run verifies radial/separated test functions on a ball, so margins
# certify a necessary condition of the universal statement
_DOMAIN_NOTE = ("radial/separated test functions on a geodesic ball: "
                "margins are certified-on-batch, a necessary condition")


@dataclass(frozen=True)
class VerificationReport:
    case_id: str
    sf: SpaceForm
    seed: int
    scans: tuple
    tests: tuple
    verdict: str          # "pass" | "fail" | "inconclusive"
    config: dict = field(default_factory=dict)
    notes: tuple = ()


class ChainMismatchError(Exception):
    """The dual RHS weight does not decompose into the link weights."""


def batch_domain(sf: SpaceForm) -> tuple[float, float]:
    """Support-draw interval (0.02 D, 0.98 D).  D = min(R, 1e3), additionally
    capped for kappa > 0 so the volume weight exp((n-1) kappa t) stays inside
    float range."""
    d = min(sf.R, 1e3)
    if sf.kappa > 0:
        d = min(d, 600.0 / ((sf.n - 1) * sf.kappa))
    return 0.02 * d, 0.98 * d


def generate_batch(sf: SpaceForm, batch: BatchSpec) -> list[RadialTestFunction]:
    """Seeded bump batch: endpoints drawn log-uniformly, a < b, modes cycled."""
    lo, hi = batch_domain(sf)
    rng = random.Random(batch.seed)
    out = []
    for i in range(batch.count):
        while True:
            x = math.exp(rng.uniform(math.log(lo), math.log(hi)))
            y = math.exp(rng.uniform(math.log(lo), math.log(hi)))
            a, b = min(x, y), max(x, y)
            if b >= 1.1 * a:
                break
        l = batch.modes[i % len(batch.modes)]
        out.append(make_bump(a, b, sf, l=l))
    return out


_SIGNED = "(signed-override)"


def _scans(p: PairSpec, names: Sequence[str], sf: SpaceForm, grid: int, tol: float,
           prefix: str = "") -> list[Scan]:
    """One row per condition of p in names, labelled prefix + name:
    "disconjugacy" by the ODE check, any other name by scanning its
    pairs.condition_terms over scan_range(sf).  W of a pair that allows a
    signed W is labelled W(signed-override) and does not gate."""
    b = p.bindings(sf)
    rows = []
    for name in names:
        if name == "disconjugacy":
            rows.append(pr.disconjugacy_check(p, n=sf.n).scan(prefix + name))
            continue
        label = prefix + name + (_SIGNED if name == "W" and p.allow_signed_W else "")
        rows.append(pr.scan_positivity(pr.condition_terms(p, name), sf, grid=grid,
                                       bindings=b, tol=tol, target=label))
    return rows


def _gating(scans: Sequence[Scan]) -> bool:
    return all(s.verdict == "nonnegative" for s in scans if not s.target.endswith(_SIGNED))


def verify_case(case: InequalityCase, quad_tol: float = DEFAULT_QUAD_TOL,
                grid: int = pr.DEFAULT_GRID,
                tol: float = pr.DEFAULT_RESIDUAL_TOL) -> VerificationReport:
    """Run the side-condition scans, then check the inequality on the batch.

    Verdict: "fail" if any margin < -budget; otherwise "pass" when every
    gating scan is nonnegative, else "inconclusive" (a failed side condition
    means the sufficient condition is not established, not that the
    inequality is false).
    """
    if case.shape == "chain":
        return verify_chain(case.pair, case.sf, case.batch, quad_tol=quad_tol,
                            grid=grid, tol=tol, case_id=case.case_id)
    scans = _scans(case.pair, SHAPES[case.shape].gates, case.sf, grid, tol)
    notes = (["signed-W override engaged: W positivity not gating"]
             if any(s.target.endswith(_SIGNED) for s in scans) else [])
    sides = shape_sides(case.shape, case.pair, case.sf)
    tests = [_record(f"t{i:03d}", u, *sides.integrals(case.sf, u, quad_tol))
             for i, u in enumerate(generate_batch(case.sf, case.batch))]
    return _report(case.case_id, case.sf, case.batch, scans, tests, notes,
                   {"shape": case.shape, "quad_tol": quad_tol, "scan_grid": grid})


def _report(case_id: str, sf: SpaceForm, batch: BatchSpec, scans, tests, notes,
            config: dict) -> VerificationReport:
    verdict = ("fail" if any(t.margin < -t.budget for t in tests) else
               "pass" if _gating(scans) else "inconclusive")
    return VerificationReport(
        case_id=case_id, sf=sf, seed=batch.seed, scans=tuple(scans), tests=tuple(tests),
        verdict=verdict, notes=tuple(notes) + (_DOMAIN_NOTE,),
        config={**config, "count": batch.count, "modes": list(batch.modes),
                "family": batch.family})


def _record(test_id: str, u: RadialTestFunction, lhs: QuadratureResult,
            rhs: QuadratureResult) -> TestRecord:
    return TestRecord(
        id=test_id, lhs=lhs.value, rhs=rhs.value, margin=lhs.value - rhs.value,
        budget=lhs.error_estimate + rhs.error_estimate,
        params={"family": u.kind, "support_lo": u.support_lo,
                "support_hi": u.support_hi, "alpha": u.alpha, "l": u.l})


def check_chain_composition(chain: ChainDescriptor, sf: SpaceForm) -> None:
    """Verify v V = sum_i alpha_i w_i pointwise: the chain's composition terms
    sum to zero (Scan.equality at 1e-9) on 64 points of scan_range(sf).  Raise
    naming the offending link when dropping a single link explains the
    mismatch."""
    terms = chain.composition_terms()
    b = chain.dual.bindings(sf)

    def composes(skip: Optional[int] = None) -> Scan:
        kept = [term for i, term in enumerate(terms) if i != skip]
        return pr.scan_positivity(kept, sf, grid=64, bindings=b, tol=1e-9)

    scan = composes()
    if scan.equality:
        return
    mismatch = f"chain weights do not compose (mismatch {scan.max_abs_relative:.3e})"
    if len(chain.links) == 1:
        raise ChainMismatchError(f"{mismatch}; offending link: {chain.links[0].label}")
    for i, bad in enumerate(chain.links):
        if composes(skip=i).equality:
            raise ChainMismatchError(f"{mismatch}; offending link: {bad.label}")
    raise ChainMismatchError(mismatch)


def verify_chain(chain: ChainDescriptor, sf: SpaceForm, batch: BatchSpec,
                 quad_tol: float = DEFAULT_QUAD_TOL, grid: int = pr.DEFAULT_GRID,
                 tol: float = pr.DEFAULT_RESIDUAL_TOL,
                 case_id: str = "chain") -> VerificationReport:
    """Verify every link and the end-to-end inequality
    integral v |Delta u|^2 >= sum_i alpha_i integral w_i W_i u^2 per test."""
    check_chain_composition(chain, sf)
    dual = chain.dual
    scans = _scans(dual, SHAPES["delta-vs-gradrad"].gates, sf, grid, tol)
    for link in chain.links:
        names = ("residual",) if link.spec.kind == "primal" else ("disconjugacy",)
        scans += _scans(link.spec, names, sf, grid, tol, prefix=f"{link.label}-")
    notes = [f"{link.label}: signed-W override engaged"
             for link in chain.links if link.spec.allow_signed_W]
    tests: list[TestRecord] = []
    dual_sides = shape_sides("delta-vs-gradrad", dual, sf)
    # each link is the gradrad-vs-usq step of its own weight and potential
    row = SHAPES["gradrad-vs-usq"]
    link_sides = [Sides(link.weight_expr, row.lhs, link.weight_expr * link.potential_expr,
                        row.rhs, link.spec.bindings(sf)) for link in chain.links]
    for i, u in enumerate(generate_batch(sf, batch)):
        lhs, rhs_dual = dual_sides.integrals(sf, u, quad_tol)
        tests.append(_record(f"t{i:03d}:dual", u, lhs, rhs_dual))
        end_rhs, end_err = 0.0, 0.0
        for link, sides in zip(chain.links, link_sides):
            mid, low = sides.integrals(sf, u, quad_tol)
            tests.append(_record(f"t{i:03d}:{link.label}", u, mid, low))
            end_rhs += link.alpha * low.value
            end_err += link.alpha * low.error_estimate
        tests.append(_record(f"t{i:03d}:end", u, lhs,
                             QuadratureResult(end_rhs, end_err, 0)))
    return _report(case_id, sf, batch, scans, tests, notes,
                   {"shape": "chain", "quad_tol": quad_tol, "scan_grid": grid,
                    "links": [l.label for l in chain.links], "meta": dict(chain.meta)})
