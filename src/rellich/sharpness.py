"""Best-constant estimation by Rayleigh-Ritz.

The estimate is an upper bound on the sharp constant of an inequality (the
claimed constant factored out of its right-hand side).  Each level k solves
the Ritz problem on a uniform cubic B-spline space in s = log t with
10 * 2^k cells: the two sides become Gram matrices, assembled on
Gauss-Legendre nodes, and the least eigenvalue of the pencil gives the
level's minimizer, a row of B-spline coefficients.  Every level's spline is
then re-integrated like any test function, all levels as the rows of one
geometry.Splines batch; the estimate is the least finite re-integrated
quotient over the levels, never a Ritz eigenvalue, so a coarse assembly can
cost sharpness but not soundness.  The spaces are nested, so a larger budget
only adds levels.  It is an estimate, not a proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .catalog import CatalogEntry, entry_pair
from .geometry import SpaceForm, Splines, big_l, bspline_basis, volume_weight
from .verify import (DEFAULT_QUAD_TOL, SHAPES, NonconvergenceError, QuadratureResult,
                     Sides, batch_domain, shape_sides)

__all__ = [
    "SharpnessEstimate", "DegenerateTestFunctionError",
    "rayleigh_quotient", "estimate_constant", "sharpness_problem",
]

# cells of the first level
_FIRST_CELLS = 10
# 10-point Gauss-Legendre nodes and weights on [-1, 1] (positive half listed)
_GL_X = np.array([0.14887433898163122, 0.4333953941292472, 0.6794095682990244,
                  0.8650633666889845, 0.9739065285171717])
_GL_W = np.array([0.2955242247147528, 0.2692667193099965, 0.219086362515982,
                  0.1494513491505804, 0.06667134430868814])
_GAUSS = (np.concatenate([-_GL_X[::-1], _GL_X]), np.concatenate([_GL_W[::-1], _GL_W]))
# the most the volume weight's exponent grows over one part of a cell: the
# level Ritz values of the hyperbolic entries agree with those at 1 to 2e-11
_GROWTH = 4.0
# the pairs i <= j of the 4 B-splines of a cell, and the Gram entries each
# adds to: pair p at (c + i, c + j) for every cell c, then at the mirror
# (c + j, c + i) when j > i, as (p, row offset, column offset) columns
_PAIRS = np.triu_indices(4)
_ENTRIES = np.array([(p, a, b) for p, (i, j) in enumerate(zip(*_PAIRS))
                     for a, b in dict.fromkeys(((i, j), (j, i)))]).T


class DegenerateTestFunctionError(ValueError):
    """The right-hand side integral vanished; the quotient is undefined."""


@dataclass(frozen=True)
class SharpnessEstimate:
    estimate: float
    params: dict
    claimed: Optional[float]
    gap_ratio: Optional[float]      # estimate / claimed
    evaluations: int
    label: str = "upper-bound estimate of the best constant; not a proof"


def rayleigh_quotient(sf: SpaceForm, sides: Sides, u,
                      tol: float = DEFAULT_QUAD_TOL) -> float:
    """LHS/RHS of the one-function batch u (a geometry.Profiles or Splines)
    on the sides of an inequality (verify.shape_sides, with the claimed
    constant factored out of the RHS density)."""
    (lhs,), (rhs,) = sides.integrals(sf, u, tol)
    return _quotient(lhs, rhs)


def _quotient(lhs: QuadratureResult, rhs: QuadratureResult) -> float:
    """lhs/rhs, unless rhs is zero up to rounding."""
    if rhs.value <= 1e-14 * (abs(lhs.value) + 1.0):
        raise DegenerateTestFunctionError("RHS integral is zero up to rounding")
    return lhs.value / rhs.value


def sharpness_problem(entry: CatalogEntry, shape: str, sf: SpaceForm):
    """(pair-or-chain, claimed constant) for a catalog entry and shape: the
    pair catalog.entry_pair gives the shape, with no claimed constant, except
    on the classical family, which asserts one for each shape and is
    estimated for gradrad-vs-usq on its Hardy pair."""
    if shape not in SHAPES:
        raise ValueError(f"unknown shape {shape!r}")
    n, claimed = sf.n, None
    if entry.id == "classical-rellich":
        if shape == "gradrad-vs-usq":
            return entry.specs["hardy"], (n - 2) ** 2 / 4.0
        claimed = {"delta-vs-gradrad": n * n / 4.0,
                   "chain": n * n * (n - 4) ** 2 / 16.0}.get(shape)
    return entry_pair(entry, SHAPES[shape].kind, sf), claimed


def _interval(sf: SpaceForm) -> tuple[float, float]:
    """The support of every level's splines: [1e-6 D, 0.995 D] (at least
    1e-8 at its low end), D the end of the batch domain's range."""
    d_hi = batch_domain(sf)[1] / 0.98
    return max(1e-6 * d_hi, 1e-8), 0.995 * d_hi


def _levels(budget: int) -> list[int]:
    """The cell counts 10 * 2^k of the levels with at most budget functions
    (cells - 3), and always the first."""
    cells = [_FIRST_CELLS]
    while 2 * cells[-1] - 3 <= budget:
        cells.append(2 * cells[-1])
    return cells


def _grams(sf: SpaceForm, sides: Sides, lo: float, hi: float, cells: int) -> tuple:
    """The Gram matrices of the two sides on the spline space of cells cells:
    entry (i, j) integrates weight * q(B_i, B_j) dx, with the bilinear form q
    of the side's form, by _GAUSS on each cell.  For kappa > 0 a cell is split
    into equal parts over which the volume weight's exponent (n-1) kappa t
    grows by at most _GROWTH, so the weight is resolved where cells are wide
    in t."""
    s_lo = math.log(lo)
    width = (math.log(hi) - s_lo) / cells
    knots = np.exp(s_lo + width * np.arange(cells + 1))
    growth = (sf.n - 1) * sf.kappa * np.diff(knots)
    parts = np.maximum(1, np.ceil(growth / _GROWTH)).astype(int)
    part_cell = np.repeat(np.arange(cells), parts)
    part = np.arange(len(part_cell)) - np.repeat(np.cumsum(parts) - parts, parts)
    share = 1.0 / parts[part_cell]
    x, w = _GAUSS
    cell = np.repeat(part_cell, len(x))
    r = ((part[:, None] + 0.5 * (x + 1.0)) * share[:, None]).ravel()
    t = np.exp(s_lo + (cell + r) * width)
    b, b_r, b_rr = bspline_basis(r)

    def features(form):
        """The side's form q(u) = f(u)^2, f linear: f of the four B-splines
        of each node's cell, in t."""
        if form == "usq":
            return b
        d1 = b_r / (width * t[:, None])
        if form == "delta":
            return ((b_rr / width - b_r) / (width * (t * t)[:, None])
                    + big_l(sf, t)[:, None] * d1)
        return d1      # gradrad, or grad at l = 0

    # the nodes' weights: dx = volume_weight dt, dt = t ds
    measure = (0.5 * width * w * share[:, None]).ravel() * volume_weight(sf, t) * t
    values = {**sides.bindings, "t": t}
    # each node touches the 4 functions of its cell: a band of width 3.  Bin
    # p cells + c sums pair p's products over cell c, and the matrix adds
    # them at _ENTRIES' flat (row, column) indices, in that order
    size, c = cells + 3, np.arange(cells)
    pair, row, col = _ENTRIES
    bins = (np.arange(len(_PAIRS[0]))[:, None] * cells + cell).ravel()
    flat = ((row[:, None] + c) * size + col[:, None] + c).ravel()
    source = (pair[:, None] * cells + c).ravel()
    out = []
    for weight, form in ((sides.weight, sides.lhs), (sides.density, sides.rhs)):
        f = np.ascontiguousarray(features(form).T)
        # an overflow is left to _ritz's finiteness check
        with np.errstate(over="ignore", invalid="ignore"):
            q = measure * np.asarray(weight.evaluate(values), dtype=float)
            # (q f_i) f_j, pair-major, in place: f_i q is q f_i bit for bit
            products = f[_PAIRS[0]]
            products *= q
            products *= f[_PAIRS[1]]
            bands = np.bincount(bins, products.ravel(), minlength=len(_PAIRS[0]) * cells)
            gram = np.bincount(flat, bands[source], minlength=size * size)
        out.append(gram.reshape(size, size)[3:cells, 3:cells])
    return tuple(out)


def _ritz(lhs: np.ndarray, rhs: np.ndarray) -> tuple:
    """(least lambda of lhs c = lambda rhs c, its c): the largest mu of
    rhs c = mu lhs c, after Jacobi scaling, with a Cholesky factor of lhs, so
    rhs may be indefinite.  c has c.lhs.c = 1, so its sides are of order 1
    wherever its support lies, and its entry of largest magnitude is
    positive.  Raises ValueError (numpy's LinAlgError is one) when lhs is not
    positive definite or no c has a positive right side."""
    if not (np.isfinite(lhs).all() and np.isfinite(rhs).all() and (np.diag(lhs) > 0).all()):
        raise ValueError("Ritz forms are not finite and positive")
    scale = 1.0 / np.sqrt(np.diag(lhs))
    factor = np.linalg.cholesky(lhs * np.outer(scale, scale))
    inverse = np.linalg.inv(factor)
    mu, vectors = np.linalg.eigh(inverse @ (rhs * np.outer(scale, scale)) @ inverse.T)
    if not mu[-1] > 0:
        raise ValueError("no function of the space has a positive right side")
    c = scale * (inverse.T @ vectors[:, -1])
    return 1.0 / mu[-1], np.copysign(1.0, c[np.argmax(np.abs(c))]) * c


def estimate_constant(sf: SpaceForm, shape: str, pair, claimed: Optional[float] = None,
                      budget: int = 500,
                      tol: float = DEFAULT_QUAD_TOL) -> SharpnessEstimate:
    """Least re-integrated Ritz quotient over the levels of at most budget
    functions (always the first level).

    A level whose forms are not finite, whose Ritz problem has no solution or
    whose minimizer's re-integration (in one batch, or alone if the batch
    fails) fails or is degenerate is skipped; with none left the estimate is
    inf.  Deterministic, and never larger for a larger budget.  evaluations
    counts the re-integrations.
    """
    # built once here: a pair of the wrong kind is rejected, not skipped
    sides = shape_sides(shape, pair, sf, claimed=claimed)
    lo, hi = _interval(sf)
    levels = []
    for cells in _levels(budget):
        try:
            ritz, c = _ritz(*_grams(sf, sides, lo, hi, cells))
        except (ValueError, OverflowError):
            continue
        levels.append((cells, ritz, c.tolist()))
    try:
        # every level in one batch; after a failure, each level alone
        sums = list(zip(*sides.integrals(sf, Splines([(lo, hi, c) for *_, c in levels]), tol)))
    except (NonconvergenceError, ValueError, OverflowError):
        sums = [None] * len(levels)
    best, params = math.inf, {"support_lo": lo, "support_hi": hi}
    for (cells, ritz, c), s in zip(levels, sums):
        try:
            q = _quotient(*s) if s else rayleigh_quotient(sf, sides, Splines([(lo, hi, c)]), tol)
        except (DegenerateTestFunctionError, NonconvergenceError, ValueError, OverflowError):
            continue
        if q < best:
            best = q
            params = {"support_lo": lo, "support_hi": hi, "cells": cells,
                      "ritz_value": ritz, "coefficients": c}
    return SharpnessEstimate(
        estimate=best,
        params=params,
        claimed=claimed,
        gap_ratio=(best / claimed) if claimed else None,
        evaluations=len(levels),
    )
