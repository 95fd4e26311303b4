"""Weighted radial quadrature and end-to-end inequality verification.

All integrals reduce to one dimension: for a radial density f,
integral over Omega of f(rho) dx = integral of f(t) * volume_weight(t) dt.
The quadrature (integrate) is an adaptive Gauss-Kronrod (G7, K15) scheme
run in lockstep over a batch of integrals on one flat panel table, each
integral refining, stopping and rounding as it would alone, from panels
between its test function's knots; wide supports use t = exp(s).  Every
side of a case, on every test function, is an integral of one such call
(integrate_sides).

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
from .geometry import (Profiles, RadialTestFunction, SpaceForm, angular_eigenvalue,
                       angular_term, jet_laplacian, make_bump, volume_weight)
from .pairs import PairSpec, Scan

__all__ = [
    "QuadratureResult", "InequalityCase", "BatchSpec",
    "TestRecord", "VerificationReport", "ChainMismatchError", "NonconvergenceError",
    "Quadratures", "Shape", "Sides", "integrate", "integrate_sides", "side", "shape_sides",
    "verify_case",
    "check_chain_composition", "generate_batch", "batch_domain",
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
    """Adaptive quadrature missed its tolerance at its subdivision cap, or
    met a non-finite integrand value."""


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    subintervals: int


class Quadratures(tuple):
    """The QuadratureResults of one batched integrate call, in batch order."""

    @property
    def subintervals(self) -> int:
        """Panels over the batch, so code that counts panels per integrate
        call (perfbench's tracer) reads a batch like one result."""
        return sum(q.subintervals for q in self)


# QUADPACK's rounding floor of a panel, per unit of its K15 rule on |f|
_ROUNDING = 50.0 * np.finfo(float).eps

# nodes per density call: 15 nodes on each of up to 546 panels, so a pass
# over many integrals (the first pass over every side of a case, or a batch
# that refines deep) is split into several calls instead of being held in
# memory at once
_MAX_NODES = 1 << 13

# panels at which an integral stops refining
_MAX_PANELS = 4096


def _kronrod(f: Callable, a: np.ndarray, b: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The (3, p) K15 values, |K15 - G7| and rounding floors of the panels
    (a[k], b[k]), from calls f(x, rows[part]) of at most _MAX_NODES nodes
    each, in panel order, where row k of x (an array f may overwrite) holds
    the 15 nodes of panel k, of integral rows[k].  The floor is QUADPACK's
    (qk15): 50 eps times the K15 rule on |f|.  A call that returns a
    non-finite value raises NonconvergenceError, and no further call is made."""
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    panels = np.empty((3, len(a)))
    step = max(1, _MAX_NODES // 15)
    for c in range(0, len(a), step):
        part = slice(c, c + step)
        vals = f(mid[part, None] + half[part, None] * _NODES, rows[part])
        if not np.isfinite(vals).all():
            raise NonconvergenceError("quadrature met a non-finite integrand value")
        k15 = (vals * _KW).sum(axis=1) * half[part]
        panels[0, part] = k15
        panels[1, part] = np.abs(k15 - (vals * _GW).sum(axis=1) * half[part])
        panels[2, part] = _ROUNDING * (np.abs(vals) * _KW).sum(axis=1) * np.abs(half[part])
    return panels


def _group_sums(x: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The (r, m) sums of the m runs of columns of the (r, P) array x, run i
    the counts[i] columns after the runs before it, each bit for bit
    x[j, s:e].sum(): pairwise, as a sum over the last axis of a C-contiguous
    array is (np.add.reduceat adds in sequence, which moves last bits).  Runs
    of one length are summed together, x reshaped when all are one length,
    else gathered by np.take (C-contiguous; x[:, index] is not)."""
    x = np.ascontiguousarray(x)
    if len(counts) and (counts == counts[0]).all():
        return x.reshape(len(x), len(counts), -1).sum(axis=2)
    out, starts = np.empty((len(x), len(counts))), counts.cumsum() - counts
    for n in set(counts.tolist()):
        runs = (counts == n).nonzero()[0]
        out[:, runs] = np.take(x, starts[runs, None] + np.arange(n), axis=1).sum(axis=2)
    return out


def _adaptive_gk(f: Callable, rtol: float, a: np.ndarray, b: np.ndarray,
                 counts: np.ndarray) -> list:
    """The QuadratureResults of m integrals, G7/K15 quadrature in lockstep
    on one flat panel table: the panels (a, b) and their _kronrod columns,
    integral i's run of counts[i] panels after the runs of those before it.
    Every pass evaluates the new panels of the unfinished integrals in one
    _kronrod call.  Each integral then stops when its error sum meets rtol
    |total|, at _MAX_PANELS or after 60 refinements, or else halves its
    panels of largest error, its run becoming its kept panels, left halves
    and right halves as alone, so its sums (_group_sums) round as alone.
    The rounding floors only enter a finished integral's error estimate."""
    out: list = [None] * len(counts)
    ids = np.arange(len(counts))         # the unfinished integrals
    cols = np.empty((3, len(a)))
    fresh = np.arange(len(a))            # the panels still to evaluate
    for refinements in range(61):
        cols[:, fresh] = _kronrod(f, a[fresh], b[fresh], ids.repeat(counts)[fresh])
        total, total_err, floor = _group_sums(cols, counts)
        target = rtol * np.abs(total)
        done = (total_err <= target) | (counts >= _MAX_PANELS) | (refinements == 60)
        finished = done.nonzero()[0]
        for i in finished:
            value, err_sum = float(total[i]), float(total_err[i])
            # at a cap an error sum within 8 times the request is accepted: |K-G|
            # bottoms out near the panel sums' rounding noise, which the floor covers
            if err_sum > max(1e-280, 8.0 * rtol * abs(value)):
                raise NonconvergenceError(
                    f"quadrature did not converge: error estimate {err_sum:.3e} "
                    f"with {counts[i]} subintervals (target {rtol * abs(value):.3e})")
            out[ids[i]] = QuadratureResult(value, err_sum + float(floor[i]), int(counts[i]))
        if len(finished) == len(ids):
            break
        # halve every panel whose error is within a factor 4 of the largest
        # (no panel of a finished integral, whose cut is NaN)
        bounds = np.concatenate(([0], counts.cumsum()))
        err, err_max = cols[1], np.maximum.reduceat(cols[1], bounds[:-1])
        cut = np.minimum(np.maximum(target / (4.0 * counts), 0.25 * err_max), err_max)
        cut = np.where(done, np.nan, cut).repeat(counts)
        kept, halved = (err < cut).nonzero()[0], (err >= cut).nonzero()[0]
        # run i restarts at k[i] + 2 h[i], k and h counting panels kept and halved before it
        k, h = kept.searchsorted(bounds), halved.searchsorted(bounds)
        k_run, h_run = k[1:] - k[:-1], h[1:] - h[:-1]
        to_keep = np.arange(len(kept)) + (2 * h[:-1]).repeat(k_run)
        to_left = np.arange(len(halved)) + (k[1:] + h[:-1]).repeat(h_run)
        to_right = to_left + h_run.repeat(h_run)
        mid = 0.5 * (a[halved] + b[halved])
        source = np.empty(len(kept) + 2 * len(halved), dtype=int)
        source[to_keep], source[to_left], source[to_right] = kept, halved, halved
        a, b, cols = a[source], b[source], cols[:, source]
        a[to_right], b[to_left] = mid, mid
        fresh = np.arange(2 * len(halved)) + k[1:].repeat(2 * h_run)
        counts, ids = (k_run + 2 * h_run)[~done], ids[~done]
    return out


def integrate(sf: SpaceForm, density: Callable, edges, bands, tol: float = DEFAULT_QUAD_TOL,
              select: Optional[Callable] = None, panels: int = 16) -> Quadratures:
    """The integrals over {a < rho < b} of density(rho) dx_kappa, i.e. the
    1-D integrals of density(t) * volume_weight(t), one per row, as
    Quadratures.  Each error_estimate, the budget, is the sum of |K15 - G7|
    over the integral's panels plus their rounding floors; only the first
    sum must meet tol |value|.

    edges holds each row's a, knots and b, row after row, in one flat
    sequence, and bands[i] is the number of bands between row i's (its knots
    + 1), so `integrate(sf, f, [a, b], [1])[0]` is one integral.  Knots are
    points where the integrand's derivatives may jump, so that no initial
    panel straddles one; a row must have 0 <= a <= knots <= b <= R, a < b,
    or ValueError names it.  Each band starts as `panels` equal panels in
    s = log t when b/a > 32, which resolves power behaviour toward t = 0, or
    else as panels // 2 (at least one) equal panels in t.  Only integrable
    endpoint singularities are supported.

    The integrals run in lockstep on one flat panel table (_adaptive_gk),
    each bit-identical to the same row integrated alone.  density is called
    with a 2-D t whose row k holds the 15 nodes of one panel; before each
    density call, select(rows) is called with the integral of each row of t,
    so a density over a batch of test functions can give each row its own.

    A failure (NonconvergenceError, or an EvaluationError of the expressions
    density evaluates) raises where the run meets it, and nothing runs
    after it: the earliest failing pass, within it the density calls in
    integral order and then the convergence checks in integral order, within
    an expression its steps in scheduled (Sethi-Ullman) order.  Every side
    of a case is a run of the integrals of one call (integrate_sides), so of
    two failing sides the one that fails on the earlier pass is named.
    """
    # x: each row's a, knots and b, row i from x[last[i] - bands[i]] to
    # x[last[i]]; band j is x[j:j + 2]
    x, bands = np.array(edges, dtype=float), np.asarray(bands, dtype=int)
    last = (bands + 1).cumsum() - 1
    lo, hi = x[last - bands], x[last]
    j = np.arange(bands.sum()) + np.arange(len(bands)).repeat(bands)
    bad = ~((0 <= lo) & (lo < hi) & (hi <= sf.R)
            & np.logical_and.reduceat(x[j + 1] >= x[j], bands.cumsum() - bands))
    if bad.any():
        i = int(bad.argmax())
        raise ValueError(f"integration row {i}: [{lo[i]}, {hi[i]}] with knots "
                         f"{x[last[i] - bands[i] + 1:last[i]].tolist()} is not "
                         f"0 <= a <= knots <= b <= R={sf.R}, a < b")
    log = lo > 0
    log[log] = hi[log] / lo[log] > 32.0
    np.log(x, out=x, where=log.repeat(bands + 1))
    # the flat panel table: integral by integral and band by band, the n
    # equal panels of a band from x to x', panel k from x + k (x' - x) / n
    n = np.where(log, panels, max(1, panels // 2))
    counts, n = n * bands, n.repeat(bands)
    k = np.arange(n.sum()) - (n.cumsum() - n).repeat(n)
    left = k * ((x[j + 1] - x[j]) / n).repeat(n) + x[j].repeat(n)
    right = np.concatenate([left[1:], x[-1:]])
    right[counts.cumsum() - 1] = x[last]

    def integrand(x, rows):
        # rows of log integrals hold nodes s = ln t, and their values carry
        # the Jacobian t
        on_log = log[rows][:, None]
        t = np.exp(x, out=x, where=on_log)
        if select is not None:
            select(rows)
        vals = np.asarray(density(t), dtype=float) * volume_weight(sf, t)
        return np.multiply(vals, t, out=vals, where=on_log)

    return Quadratures(_adaptive_gk(integrand, tol, left, right, counts))


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


_FORMS = ("delta", "gradrad", "grad", "usq")


def _form(sf: SpaceForm, form: str, w, t, jet, mu):
    """w * q(u) on the nodes t, from the jet of u at t and the angular
    eigenvalues mu of its rows."""
    phi, d1, _ = jet
    if form == "delta":
        lap = jet_laplacian(sf, t, jet, mu)
        return w * lap * lap
    if form == "usq":
        return w * phi ** 2
    q = d1 ** 2
    angular = angular_term(sf, mu, phi ** 2, t) if form == "grad" else None
    return w * (q if angular is None else q + angular)


def integrate_sides(sf: SpaceForm, entries: Sequence[tuple], u,
                    tol: float = DEFAULT_QUAD_TOL) -> list:
    """The Quadratures on the batch u (geometry.Profiles or Splines, m rows)
    of each entry (weight, form, bindings): integral of weight(rho) * q(u) dx
    over the support of u, with q = |Delta u|^2 (delta), |grad_rad u|^2
    (gradrad), |grad u|^2 (grad: radial plus angular part) or u^2 (usq);
    bindings holds the weight's parameters, n and kappa (PairSpec.bindings).

    All run as one integrate call, integral r being row r % m under entry
    r // m, each bit-identical to the same integral run alone.  A density
    call makes one jet call, then evaluates each entry on its run of rows,
    which is contiguous, as integrate keeps the panels in integral order."""
    for _, form, _ in entries:
        if form not in _FORMS:
            raise ValueError(f"unknown side {form!r}")
    m, n = len(u.bands), len(entries)
    # the integrals of the rows of the next density call, as integrate selects
    selected = [None]

    def select(rows):
        selected[0] = rows

    def density(t):
        rows = selected[0]
        g, entry = u.take(rows % m), rows // m
        jet, mu = g.jet(t), angular_eigenvalue(sf.n, g.l)
        ends = [*(np.diff(entry).nonzero()[0] + 1), len(rows)]
        out = np.empty_like(t)
        for a, b in zip([0, *ends], ends):
            weight, form, bindings = entries[entry[a]]
            w = np.asarray(weight.evaluate({**bindings, "t": t[a:b]}), dtype=float)
            out[a:b] = _form(sf, form, w, t[a:b], [d[a:b] for d in jet], mu[a:b])
        return out

    sums = integrate(sf, density, np.tile(u.edges, n), np.tile(u.bands, n), tol, select,
                     u.panels)
    return [Quadratures(sums[e * m:(e + 1) * m]) for e in range(n)]


def side(sf: SpaceForm, weight: Expr, u, form: str, bindings: Optional[dict] = None,
         tol: float = DEFAULT_QUAD_TOL) -> Quadratures:
    """integrate_sides of the one entry (weight, form, bindings) on the
    batch u."""
    return integrate_sides(sf, [(weight, form, bindings or {})], u, tol)[0]


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

    @property
    def entries(self) -> tuple:
        """The integrate_sides entries of lhs and rhs."""
        return (self.weight, self.lhs, self.bindings), (self.density, self.rhs, self.bindings)

    def integrals(self, sf: SpaceForm, u, tol: float = DEFAULT_QUAD_TOL) -> tuple:
        """(lhs, rhs) of the batch u: two Quadratures from one
        integrate_sides call."""
        return tuple(integrate_sides(sf, self.entries, u, tol))


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
    descriptor; the right side is divided by claimed, if given (finite, > 0)."""
    _check_pair(shape, pair)
    if claimed is not None and not (math.isfinite(claimed) and claimed > 0):
        raise ValueError(f"claimed constant must be finite and > 0, got {claimed}")
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
    """One row per condition of p in names, labelled prefix + name: the scan
    of its pairs.condition_terms over scan_range(sf).  W of a pair that
    allows a signed W is labelled W(signed-override) and does not gate."""
    b = p.bindings(sf)
    rows = []
    for name in names:
        label = prefix + name + (_SIGNED if name == "W" and p.allow_signed_W else "")
        rows.append(pr.scan_positivity(pr.condition_terms(p, name), sf, grid=grid,
                                       bindings=b, tol=tol, target=label))
    return rows


def verify_case(case: InequalityCase, quad_tol: float = DEFAULT_QUAD_TOL,
                grid: int = pr.DEFAULT_GRID,
                tol: float = pr.DEFAULT_RESIDUAL_TOL) -> VerificationReport:
    """Run the side-condition scans, then check the inequality on the batch.

    A chain checks its composition first.  Its rows are t000:dual (its dual's
    delta-vs-gradrad step), t000:link-i (the gradrad-vs-usq step of link i,
    a primal pair gating on its link-i-residual row) and t000:end
    (integral v |Delta u|^2 >= sum_i alpha_i integral w_i W_i u^2).

    Verdict: "fail" if any margin < -budget; otherwise "pass" when every
    gating scan is nonnegative, else "inconclusive" (a failed side condition
    means the sufficient condition is not established, not that the
    inequality is false).
    """
    sf, batch = case.sf, case.batch
    chain = case.pair if case.shape == "chain" else None
    config = {"shape": case.shape, "quad_tol": quad_tol, "scan_grid": grid}
    if chain:
        check_chain_composition(chain, sf)
        config.update(links=[l.label for l in chain.links], meta=dict(chain.meta))
    shape, spec, links = (("delta-vs-gradrad", chain.dual, chain.links) if chain
                          else (case.shape, case.pair, ()))
    scans = _scans(spec, SHAPES[shape].gates, sf, grid, tol)
    for link in links:
        scans += _scans(link.spec, ("residual",), sf, grid, tol, prefix=f"{link.label}-")
    notes = (["signed-W override engaged: W positivity not gating"]
             if any(s.target.endswith(_SIGNED) for s in scans) else [])
    notes += [f"{link.label}: signed-W override engaged"
              for link in links if link.spec.allow_signed_W]
    sides = [shape_sides(shape, spec, sf)] + [
        shape_sides("gradrad-vs-usq", link.spec, sf) for link in links]
    us = generate_batch(sf, batch)
    sums = integrate_sides(sf, [e for s in sides for e in s.entries], Profiles(us), quad_tol)
    (lhs, rhs), *link_sums = zip(sums[0::2], sums[1::2])
    tests: list[TestRecord] = []
    for i, u in enumerate(us):
        test_id = f"t{i:03d}"
        tests.append(_record(test_id + (":dual" if chain else ""), u, lhs[i], rhs[i]))
        end_rhs, end_err = 0.0, 0.0
        for link, (mid, low) in zip(links, link_sums):
            tests.append(_record(f"{test_id}:{link.label}", u, mid[i], low[i]))
            end_rhs += link.alpha * low[i].value
            end_err += link.alpha * low[i].error_estimate
        if chain:
            tests.append(_record(f"{test_id}:end", u, lhs[i],
                                 QuadratureResult(end_rhs, end_err, 0)))
    gating = all(s.verdict == "nonnegative" for s in scans if not s.target.endswith(_SIGNED))
    verdict = ("fail" if not all(t.passed for t in tests) else
               "pass" if gating else "inconclusive")
    return VerificationReport(
        seed=batch.seed, scans=tuple(scans), tests=tuple(tests), verdict=verdict,
        notes=tuple(notes) + (_DOMAIN_NOTE,),
        config={**config, "count": batch.count, "modes": list(batch.modes),
                "family": "bump"})


def _record(test_id: str, u: RadialTestFunction, lhs: QuadratureResult,
            rhs: QuadratureResult) -> TestRecord:
    return TestRecord(
        id=test_id, lhs=lhs.value, rhs=rhs.value, margin=lhs.value - rhs.value,
        budget=lhs.error_estimate + rhs.error_estimate,
        params={"family": "bump", "support_lo": u.support_lo,
                "support_hi": u.support_hi, "alpha": 0.0, "l": u.l})


def check_chain_composition(chain: ChainDescriptor, sf: SpaceForm) -> None:
    """Verify v V = sum_i alpha_i w_i pointwise: the chain's composition terms
    sum to zero (pairs.max_relative at most 1e-9) on 64 points of
    scan_range(sf).  Raise naming the offending link when dropping a single
    link explains the mismatch."""
    terms = chain.composition_terms()
    b = chain.dual.bindings(sf)

    def worst(skip: Optional[int] = None) -> float:
        kept = [term for i, term in enumerate(terms) if i != skip]
        return pr.max_relative(kept, b, *pr.scan_range(sf), 64)

    off = worst()
    if off <= 1e-9:
        return
    mismatch = f"chain weights do not compose (mismatch {off:.3e})"
    if len(chain.links) == 1:
        raise ChainMismatchError(f"{mismatch}; offending link: {chain.links[0].label}")
    for i, bad in enumerate(chain.links):
        if worst(skip=i) <= 1e-9:
            raise ChainMismatchError(f"{mismatch}; offending link: {bad.label}")
    raise ChainMismatchError(mismatch)
