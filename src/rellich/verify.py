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

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from . import pairs as pr
from .catalog import ChainDescriptor
from .expr import Expr
from .geometry import (RadialTestFunction, SpaceForm, angular_eigenvalue,
                       make_bump, s_kappa, separated_laplacian, volume_weight)
from .pairs import PairSpec, Scan

__all__ = [
    "QuadratureResult", "InequalityCase", "BatchSpec",
    "TestRecord", "VerificationReport", "ChainMismatchError", "NonconvergenceError",
    "integrate", "lhs_delta_sq", "rhs_weighted", "verify_case",
    "verify_chain", "check_chain_composition", "generate_batch", "batch_domain",
    "SHAPES", "DEFAULT_QUAD_TOL",
]

DEFAULT_QUAD_TOL = 1e-10
SHAPES = ("delta-vs-gradrad", "delta-vs-grad", "gradrad-vs-usq", "chain")

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
            raise NonconvergenceError("non-finite integrand value")
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


def _expr_fn(e: Expr, bindings: dict) -> Callable[[np.ndarray], np.ndarray]:
    def f(t):
        return np.asarray(e.evaluate({**bindings, "t": t}), dtype=float)

    return f


def lhs_delta_sq(sf: SpaceForm, v: Expr, u: RadialTestFunction,
                 bindings: Optional[dict] = None,
                 tol: float = DEFAULT_QUAD_TOL) -> QuadratureResult:
    """integral of v(rho) |Delta u|^2 dx over the support of u; bindings
    holds v's parameters, n and kappa (PairSpec.bindings(sf))."""
    vf = _expr_fn(v, bindings or {})

    def density(t):
        lap = separated_laplacian(sf, u, t)
        return vf(t) * lap * lap

    lo, hi = u.support
    return integrate(sf, density, lo, hi, tol)


def rhs_weighted(sf: SpaceForm, weightpotential: Expr, u: RadialTestFunction,
                 which: str, bindings: Optional[dict] = None,
                 tol: float = DEFAULT_QUAD_TOL) -> QuadratureResult:
    """integral of weightpotential(rho) * q(u) dx with q = |grad_rad u|^2,
    |grad u|^2 (radial plus angular part), or u^2; bindings as for
    lhs_delta_sq."""
    if which not in ("gradrad", "grad", "usq"):
        raise ValueError(f"unknown side {which!r}")
    wf = _expr_fn(weightpotential, bindings or {})
    mu = angular_eigenvalue(sf.n, u.l)

    def density(t):
        if which == "usq":
            q = u.value(t) ** 2
        else:
            q = u.dvalue(t) ** 2
            if which == "grad" and mu:
                q = q + mu * u.value(t) ** 2 / s_kappa(sf, t) ** 2
        return wf(t) * q

    lo, hi = u.support
    return integrate(sf, density, lo, hi, tol)


# ---------------------------------------------------------------------------
# cases, batches, reports


@dataclass(frozen=True)
class BatchSpec:
    count: int = 50
    seed: int = 42
    family: str = "bump"
    modes: tuple = (0,)


@dataclass(frozen=True)
class InequalityCase:
    """A single inequality shape with its pair(s), space form and batch."""

    shape: str
    sf: SpaceForm
    batch: BatchSpec = BatchSpec()
    dual: Optional[PairSpec] = None
    primal: Optional[PairSpec] = None
    chain: Optional[ChainDescriptor] = None
    case_id: str = "case"

    def __post_init__(self):
        if self.shape not in SHAPES:
            raise ValueError(f"unknown shape {self.shape!r}")
        if self.shape in ("delta-vs-gradrad", "delta-vs-grad") and self.dual is None:
            raise ValueError(f"shape {self.shape} requires a dual spec")
        if self.shape == "gradrad-vs-usq" and self.primal is None:
            raise ValueError("shape gradrad-vs-usq requires a primal spec")
        if self.shape == "chain" and self.chain is None:
            raise ValueError("shape chain requires a chain descriptor")
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


def _scans(p: PairSpec, sf: SpaceForm, grid: int, tol: float, rows) -> list[Scan]:
    """One scan of p per (target, terms) row, all over scan_range(sf)."""
    b = p.bindings(sf)
    return [pr.scan_positivity(terms, sf, grid=grid, bindings=b, tol=tol, target=target)
            for target, terms in rows]


def _dual_scans(p: PairSpec, sf: SpaceForm, grid: int, tol: float, side: str) -> list[Scan]:
    """v, V, the residual and E1 or E2 of a dual pair."""
    side_terms = pr.e1_terms(p) if side == "E1" else pr.e2_terms(p)
    return _scans(p, sf, grid, tol, [("v", [p.expr("v")]), ("V", [p.expr("V")]),
                                     ("residual", pr.residual_terms(p)),
                                     (side, side_terms)])


def _side_condition_scans(case: InequalityCase, grid: int, tol: float):
    if case.shape in ("delta-vs-gradrad", "delta-vs-grad"):
        side = "E1" if case.shape == "delta-vs-gradrad" else "E2"
        return _dual_scans(case.dual.require("dual"), case.sf, grid, tol, side), []
    p = case.primal.require("primal")
    w_target = "W(signed-override)" if p.allow_signed_W else "W"
    scans = _scans(p, case.sf, grid, tol, [("w", [p.expr("w")]), (w_target, [p.expr("W")]),
                                           ("residual", pr.residual_terms(p))])
    notes = ["signed-W override engaged: W positivity not gating"] if p.allow_signed_W else []
    return scans, notes


def _gating(scans: Sequence[Scan]) -> bool:
    return all(s.verdict == "nonnegative" for s in scans
               if not s.target.endswith("(signed-override)"))


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
        return verify_chain(case.chain, case.sf, case.batch, quad_tol=quad_tol,
                            grid=grid, tol=tol, case_id=case.case_id)
    scans, notes = _side_condition_scans(case, grid, tol)
    tests = []
    delta = case.shape in ("delta-vs-gradrad", "delta-vs-grad")
    spec = case.dual if delta else case.primal
    bindings = spec.bindings(case.sf)
    # the weights are built once, so each compiles once for the whole batch
    weight = spec.expr("v" if delta else "w")
    product = weight * spec.expr("V" if delta else "W")
    for i, u in enumerate(generate_batch(case.sf, case.batch)):
        if delta:
            lhs = lhs_delta_sq(case.sf, weight, u, bindings, quad_tol)
            side = "gradrad" if case.shape == "delta-vs-gradrad" else "grad"
            rhs = rhs_weighted(case.sf, product, u, side, bindings, quad_tol)
        else:
            lhs = rhs_weighted(case.sf, weight, u, "gradrad", bindings, quad_tol)
            rhs = rhs_weighted(case.sf, product, u, "usq", bindings, quad_tol)
        budget = lhs.error_estimate + rhs.error_estimate
        tests.append(TestRecord(
            id=f"t{i:03d}", params=_u_params(u),
            lhs=lhs.value, rhs=rhs.value,
            margin=lhs.value - rhs.value, budget=budget))
    verdict = _verdict(tests, scans)
    return VerificationReport(
        case_id=case.case_id, sf=case.sf, seed=case.batch.seed,
        scans=tuple(scans), tests=tuple(tests), verdict=verdict,
        config={"shape": case.shape, "quad_tol": quad_tol, "scan_grid": grid,
                "count": case.batch.count, "modes": list(case.batch.modes),
                "family": case.batch.family},
        notes=tuple(notes) + (_DOMAIN_NOTE,))


def _verdict(tests, scans) -> str:
    if any(t.margin < -t.budget for t in tests):
        return "fail"
    return "pass" if _gating(scans) else "inconclusive"


def _u_params(u: RadialTestFunction) -> dict:
    return {"family": u.kind, "support_lo": u.support_lo,
            "support_hi": u.support_hi, "alpha": u.alpha, "l": u.l}


def check_chain_composition(chain: ChainDescriptor, sf: SpaceForm,
                            tol: float = 1e-9) -> None:
    """Verify v V = sum_i alpha_i w_i pointwise; raise naming the offending
    link when dropping a single link explains the mismatch."""
    lo, hi = pr.scan_range(sf)
    ts = pr.log_grid(lo, hi, 64)
    b = chain.dual.bindings(sf, ts)
    target = np.asarray(chain.dual_rhs_density_expr().evaluate(b), dtype=float)
    total = np.asarray(chain.split_density_expr().evaluate(b), dtype=float)
    scale = np.maximum(1.0, np.abs(target))
    worst = float(np.max(np.abs(total - target) / scale))
    if worst <= tol:
        return
    if len(chain.links) == 1:
        raise ChainMismatchError(
            f"chain weights do not compose (mismatch {worst:.3e}); "
            f"offending link: {chain.links[0].label}")
    for bad in chain.links:
        partial = target * 0.0
        for link in chain.links:
            if link is bad:
                continue
            lb = dict(b)
            lb.update(link.spec.params)
            lb["t"] = ts
            partial = partial + link.alpha * np.asarray(
                link.weight_expr.evaluate(lb), dtype=float)
        if float(np.max(np.abs(partial - target) / scale)) <= tol:
            raise ChainMismatchError(
                f"chain weights do not compose (mismatch {worst:.3e}); "
                f"offending link: {bad.label}")
    raise ChainMismatchError(f"chain weights do not compose (mismatch {worst:.3e})")


def verify_chain(chain: ChainDescriptor, sf: SpaceForm, batch: BatchSpec,
                 quad_tol: float = DEFAULT_QUAD_TOL, grid: int = pr.DEFAULT_GRID,
                 tol: float = pr.DEFAULT_RESIDUAL_TOL,
                 case_id: str = "chain") -> VerificationReport:
    """Verify every link and the end-to-end inequality
    integral v |Delta u|^2 >= sum_i alpha_i integral w_i W_i u^2 per test."""
    check_chain_composition(chain, sf)
    dual = chain.dual
    db = dual.bindings(sf)
    scans = _dual_scans(dual, sf, grid, tol, "E1")
    notes: list[str] = []
    for link in chain.links:
        if link.spec.kind == "primal":
            scans += _scans(link.spec, sf, grid, tol,
                            [(f"{link.label}-residual", pr.residual_terms(link.spec))])
            if link.spec.allow_signed_W:
                notes.append(f"{link.label}: signed-W override engaged")
        else:
            rep = pr.disconjugacy_check(link.spec, n=sf.n)
            scans.append(rep.scan(f"{link.label}-disconjugacy"))
    tests: list[TestRecord] = []
    # densities are built once, so each compiles once for the whole batch
    rhs_density = chain.dual_rhs_density_expr()
    link_sides = [(link, link.spec.bindings(sf),
                   link.weight_expr * link.potential_expr) for link in chain.links]
    for i, u in enumerate(generate_batch(sf, batch)):
        lhs = lhs_delta_sq(sf, dual.expr("v"), u, db, quad_tol)
        rhs_dual = rhs_weighted(sf, rhs_density, u, "gradrad", db, quad_tol)
        tests.append(TestRecord(
            id=f"t{i:03d}:dual", params=_u_params(u),
            lhs=lhs.value, rhs=rhs_dual.value,
            margin=lhs.value - rhs_dual.value,
            budget=lhs.error_estimate + rhs_dual.error_estimate))
        end_rhs, end_err = 0.0, 0.0
        for link, lb, low_density in link_sides:
            mid = rhs_weighted(sf, link.weight_expr, u, "gradrad", lb, quad_tol)
            low = rhs_weighted(sf, low_density, u, "usq", lb, quad_tol)
            tests.append(TestRecord(
                id=f"t{i:03d}:{link.label}", params=_u_params(u),
                lhs=mid.value, rhs=low.value, margin=mid.value - low.value,
                budget=mid.error_estimate + low.error_estimate))
            end_rhs += link.alpha * low.value
            end_err += link.alpha * low.error_estimate
        tests.append(TestRecord(
            id=f"t{i:03d}:end", params=_u_params(u),
            lhs=lhs.value, rhs=end_rhs, margin=lhs.value - end_rhs,
            budget=lhs.error_estimate + end_err))
    verdict = _verdict(tests, scans)
    return VerificationReport(
        case_id=case_id, sf=sf, seed=batch.seed, scans=tuple(scans),
        tests=tuple(tests), verdict=verdict,
        config={"shape": "chain", "quad_tol": quad_tol, "scan_grid": grid,
                "count": batch.count, "modes": list(batch.modes),
                "family": batch.family, "links": [l.label for l in chain.links],
                "meta": dict(chain.meta)},
        notes=tuple(notes) + (_DOMAIN_NOTE,))
