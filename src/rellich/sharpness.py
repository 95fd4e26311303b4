"""Best-constant estimation by Rayleigh-quotient minimization.

The estimate is an upper bound on the sharp constant obtained by
minimizing the quotient of the two sides (claimed constant factored out
of the right-hand side) over a parameterized power-law test family, with
a deterministic coordinate-descent / golden-section search.  It is an
estimate, not a proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from .catalog import CatalogEntry, entry_pair
from .geometry import SpaceForm, make_powerlaw
from .verify import (DEFAULT_QUAD_TOL, SHAPES, NonconvergenceError, Sides,
                     batch_domain, shape_sides)

__all__ = [
    "SharpnessEstimate", "DegenerateTestFunctionError",
    "rayleigh_quotient", "estimate_constant", "sharpness_problem",
]

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


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
    """LHS/RHS of u on the sides of an inequality (verify.shape_sides, with the
    claimed constant factored out of the RHS density)."""
    lhs, rhs = sides.integrals(sf, u, tol)
    floor = 1e-14 * (abs(lhs.value) + 1.0)
    if rhs.value <= floor:
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


def _family_box(sf: SpaceForm) -> dict:
    d_hi = batch_domain(sf)[1] / 0.98
    a_min = max(1e-6 * d_hi, 1e-8)
    return {
        "alpha": (-(sf.n - 1.0), 1.0),
        "ln_a": (math.log(a_min), math.log(0.3 * d_hi)),
        "ln_span": (math.log(2.0), None),   # upper bound depends on ln_a
        # wide transition bands: second derivatives of the taper scale like
        # width^-2, so narrow bands dominate |Delta u|^2 and spoil the bound
        "frac_in": (0.05, 0.95),
        "frac_out": (0.05, 0.98),
    }


def _build_u(x: dict, sf: SpaceForm, d_hi: float):
    a = math.exp(x["ln_a"])
    span_max = math.log(0.9 * d_hi / a) - 1e-9
    span = min(x["ln_span"], span_max)
    if span < math.log(1.5):
        return None
    b = a * math.exp(span)
    w_in = x["frac_in"] * a                      # keeps a - w_in > 0
    w_out = x["frac_out"] * (0.995 * d_hi - b)   # fraction of the available room
    if w_out <= 0:
        return None
    return make_powerlaw(x["alpha"], a, b, w_in, w_out, sf)


def estimate_constant(sf: SpaceForm, shape: str, pair, claimed: Optional[float] = None,
                      budget: int = 500,
                      tol: float = DEFAULT_QUAD_TOL) -> SharpnessEstimate:
    """Minimize the quotient over (alpha, log a, log b/a, taper fractions).

    Deterministic: a fixed start, coordinate sweeps of golden-section probes,
    updates accepted only on strict improvement (so enlarging the budget can
    never worsen the estimate).
    """
    # built once here, outside the probes, which turn every ValueError into
    # an infinite quotient: a pair of the wrong kind is rejected, not inf
    sides = shape_sides(shape, pair, sf, claimed=claimed or 1.0)
    box = _family_box(sf)
    d_hi = batch_domain(sf)[1] / 0.98
    x = {
        "alpha": 0.5 * (box["alpha"][0] + box["alpha"][1]) / 2.0,
        "ln_a": 0.5 * (box["ln_a"][0] + box["ln_a"][1]),
        "ln_span": math.log(max(2.0, 0.9 * 0.97 * d_hi / math.exp(
            0.5 * (box["ln_a"][0] + box["ln_a"][1])))),
        "frac_in": 0.25,
        "frac_out": 0.25,
    }
    evals = 0

    def quotient(xd: dict) -> float:
        nonlocal evals
        evals += 1
        u = _build_u(xd, sf, d_hi)
        if u is None:
            return math.inf
        try:
            return rayleigh_quotient(sf, sides, u, tol=tol)
        except (DegenerateTestFunctionError, NonconvergenceError, ValueError,
                OverflowError):
            return math.inf

    best_f = quotient(x)
    best_x = dict(x)
    coords = ("alpha", "ln_a", "ln_span", "frac_in", "frac_out")
    probes_per_coord = 12
    while evals + probes_per_coord <= budget:
        improved = False
        for key in coords:
            if evals + probes_per_coord > budget:
                break
            lo_k, hi_k = box[key]
            if hi_k is None:  # ln_span upper bound depends on current ln_a
                hi_k = math.log(max(2.5, 0.97 * d_hi / math.exp(best_x["ln_a"])))
            a_, b_ = lo_k, hi_k
            x1 = b_ - _GOLDEN * (b_ - a_)
            x2 = a_ + _GOLDEN * (b_ - a_)
            f1 = quotient({**best_x, key: x1})
            f2 = quotient({**best_x, key: x2})
            local_best = min((f1, x1), (f2, x2))
            for _ in range(probes_per_coord - 2):
                if f1 <= f2:
                    b_, x2, f2 = x2, x1, f1
                    x1 = b_ - _GOLDEN * (b_ - a_)
                    f1 = quotient({**best_x, key: x1})
                else:
                    a_, x1, f1 = x1, x2, f2
                    x2 = a_ + _GOLDEN * (b_ - a_)
                    f2 = quotient({**best_x, key: x2})
                local_best = min(local_best, (f1, x1), (f2, x2))
            if local_best[0] < best_f:
                best_f = local_best[0]
                best_x = {**best_x, key: local_best[1]}
                improved = True
        if not improved:
            break
    u = _build_u(best_x, sf, d_hi)
    params = dict(best_x)
    if u is not None:
        params.update({"a": u.rise_hi, "b": u.fall_lo, "alpha": u.alpha, "l": u.l})
    return SharpnessEstimate(
        estimate=best_f,
        params=params,
        claimed=claimed,
        gap_ratio=(best_f / claimed) if claimed else None,
        evaluations=evals,
    )
