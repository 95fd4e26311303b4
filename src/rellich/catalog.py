"""Named constructors for every concrete pair/potential/inequality family.

Each entry builds PairSpecs whose defining residuals are verified
contracts (most with equality), plus chain descriptors that compose a
dual (second-order) link with one or more primal (first-order) links.
Where a printed right-hand side carries transcription slips, the chain
coefficients here are derived mechanically from the composition instead
of transcribed; the provenance note records the delta.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Optional

from .expr import Const, Expr, Iter, Param, Unary, Var
from .geometry import SpaceForm
from . import pairs as pr
from .pairs import PairSpec

__all__ = [
    "CatalogEntry", "ChainLink", "ChainDescriptor",
    "classical_euclidean", "iterated_log_potential", "ell_potential",
    "hyperbolic_interpolation", "hyperbolic_lower", "final_combined",
    "chain_from_potential", "entry_chain", "entry_pair", "iterlog_q_expr",
    "iterlog_product_bounds", "CATALOG_IDS", "build_entry", "family_knobs",
]

@dataclass(frozen=True)
class ChainLink:
    """One first-order link: integral of alpha * w |grad_rad u|^2 bounded below
    by alpha * w W u^2, for a primal pair (G, w, W) certified by its Riccati
    residual scan."""

    alpha: float
    spec: PairSpec
    label: str

    def __post_init__(self):
        self.spec.require("primal")


@dataclass(frozen=True)
class ChainDescriptor:
    """A dual link followed by primal links whose weights split the dual RHS:
    v V = sum_i alpha_i w_i pointwise, so the composition gives
    integral of v |Delta u|^2 >= sum_i alpha_i integral of w_i W_i u^2."""

    label: str
    dual: PairSpec
    links: tuple
    meta: dict = field(default_factory=dict)

    def rhs_density_expr(self) -> Expr:
        return _sum(Const(link.alpha) * link.spec.expr("w") * link.spec.expr("W")
                    for link in self.links)

    def composition_terms(self) -> list[Expr]:
        """alpha_i w_i for each link, then -v V: the terms whose sum vanishes
        when the link weights split the dual RHS density."""
        return ([Const(link.alpha) * link.spec.expr("w") for link in self.links]
                + [-(self.dual.expr("v") * self.dual.expr("V"))])


@dataclass(frozen=True)
class CatalogEntry:
    id: str
    params: dict
    specs: dict           # role -> PairSpec ("dual", "primal", "potential", ...)
    space_form: SpaceForm
    chain: Optional[ChainDescriptor] = None
    default_shape: Optional[str] = None
    provenance: str = ""


def _sum(terms) -> Expr:
    """t1 + t2 + ... + tk, summed left to right."""
    return functools.reduce(operator.add, terms)


def _products(factors) -> list[Expr]:
    """The partial products f1, f1 f2, ..., f1 f2 ... fk, each multiplied
    left to right."""
    return list(itertools.accumulate(factors, operator.mul))


# ---------------------------------------------------------------------------
# classical Euclidean chained Rellich


def classical_euclidean(n: int) -> CatalogEntry:
    """The classical two-step family: dual (H, V) = (n/(2t), n^2/(4t^2)) with
    equality, primal (G, w, W) = ((n-4)/(2t), n^2/(4t^2), (n-4)^2/(4t^2)) with
    equality, chaining to the constant n^2 (n-4)^2 / 16 against u^2/t^4.

    Degenerate below n = 5 (the (n-4) factor kills the chain and E1 hits its
    boundary case), so that is rejected.
    """
    if n < 5:
        raise ValueError(f"classical chained family needs n >= 5, got {n}")
    t = Var()
    dual = PairSpec(
        kind="dual",
        exprs={"H": Const(n / 2.0) / t, "v": Const(1.0),
               "V": Const(n * n / 4.0) / (t * t)},
        params={"n": float(n), "kappa": 0.0},
        note="classical dual pair, equality",
    )
    primal = PairSpec(
        kind="primal",
        exprs={"G": Const((n - 4) / 2.0) / t,
               "w": Const(n * n / 4.0) / (t * t),
               "W": Const((n - 4) ** 2 / 4.0) / (t * t)},
        params={"n": float(n), "kappa": 0.0},
        note="classical primal pair, equality",
    )
    chain = ChainDescriptor(
        label="classical-rellich",
        dual=dual,
        links=(ChainLink(alpha=1.0, spec=primal, label="link-1"),),
        meta={
            "intermediate_constant": n * n / 4.0,
            "end_to_end_constant": n * n * (n - 4) ** 2 / 16.0,
            "end_to_end_density": "u^2/t^4",
        },
    )
    hardy_primal = PairSpec(
        kind="primal",
        exprs={"G": Const((n - 2) / 2.0) / t, "w": Const(1.0),
               "W": Const((n - 2) ** 2 / 4.0) / (t * t)},
        params={"n": float(n), "kappa": 0.0},
        note="Hardy primal pair, equality",
    )
    return CatalogEntry(
        id="classical-rellich",
        params={"n": n},
        specs={"dual": dual, "primal": primal, "hardy": hardy_primal},
        space_form=SpaceForm(n, 0.0),
        chain=chain,
        default_shape="delta-vs-gradrad",
        provenance="flat-space chained second-order family",
    )


# ---------------------------------------------------------------------------
# iterated-log potential


def _exp_iter(k: int, x: float) -> float:
    v = x
    for _ in range(k):
        v = math.exp(v)
    return v


def iterated_log_potential(k: int, R: float) -> CatalogEntry:
    """Potential Z(t) = sum_{j<=k} t^-2 (prod_{i<=j} log_[i](r/t))^-2 with
    solution z = (prod_{i<=k} log_[i](r/t))^(1/2), best constant 1/4, and
    r = R exp_[k-1](e) so every iterated log stays >= 1 on (0, R)."""
    if not 1 <= k <= 3:
        raise ValueError(f"need 1 <= k <= 3, got k={k}: "
                         "r = R exp_[k-1](e) overflows a float for k >= 4")
    if not 0 < R < math.inf:
        raise ValueError(f"need 0 < R < inf, got R={R}")
    r = R * _exp_iter(k - 1, math.e)
    t = Var()
    rt = Param("r") / t
    prods = _products(Iter("logk", i, rt) for i in range(1, k + 1))
    z_sum = _sum((Const(1.0) / (t * t)) * p ** Const(-2.0) for p in prods)
    z = Unary("sqrt", prods[-1])
    potential = PairSpec(
        kind="bessel-potential",
        exprs={"z": z, "Z": z_sum},
        constant=0.25,
        params={"r": r, "R": float(R), "k": float(k)},
        note=f"iterated-log potential, depth {k}",
    )
    return CatalogEntry(
        id="iterlog",
        params={"k": k, "R": R, "r": r, "lambda": 2.0},
        specs={"potential": potential},
        space_form=SpaceForm(5, 0.0, R),
        provenance="iterated-logarithm remainder family",
    )


def iterlog_q_expr(k: int) -> Expr:
    """q(t) = t z'(t)/z(t) = -(1/2) sum_j (prod_{i<=j} log_[i](r/t))^-1;
    lies in (-1, 0) on (0, R)."""
    t = Var()
    rt = Param("r") / t
    prods = _products(Iter("logk", i, rt) for i in range(1, k + 1))
    return Const(-0.5) * _sum(Const(1.0) / p for p in prods)


def iterlog_product_bounds(k: int) -> dict:
    """Lower bounds used in the positivity argument: the full product is
    >= 2^(k-1) and each partial product of length j < k is >= 2^j."""
    return {"full": 2.0 ** (k - 1), "partial": {j: 2.0 ** j for j in range(1, k)}}


# ---------------------------------------------------------------------------
# ell-family (boundary failure mode)


def _ell_iter_expr(i: int, arg: Expr) -> Expr:
    """l_[i](x) for l(x) = 1/(1 - log x), built by unrolling the iteration."""
    v = arg
    for _ in range(i):
        v = Const(1.0) / (Const(1.0) - Unary("log", v))
    return v


def ell_potential(k: int, R: float) -> CatalogEntry:
    """Potential Z(t) = sum_{j<=k} t^-2 prod_{i<=j} l_[i](t/R)^2 with solution
    z = (prod_{i<=k} l_[i](t/R))^(-1/2) and best constant 1/4, where
    l(x) = 1/(1 - log x).  Its companion side condition E1 degrades near
    t = R as k grows, which is the documented failure mode."""
    if k < 1:
        raise ValueError("need k >= 1")
    if not 0 < R < math.inf:
        raise ValueError(f"need 0 < R < inf, got R={R}")
    t = Var()
    arg = t / Param("R")
    prods = _products(_ell_iter_expr(i, arg) for i in range(1, k + 1))
    z_sum = _sum((Const(1.0) / (t * t)) * p ** Const(2.0) for p in prods)
    z = prods[-1] ** Const(-0.5)
    potential = PairSpec(
        kind="bessel-potential",
        exprs={"z": z, "Z": z_sum},
        constant=0.25,
        params={"R": float(R), "k": float(k)},
        note=f"ell-family potential, depth {k}",
    )
    return CatalogEntry(
        id="ell-family",
        params={"k": k, "R": R, "lambda": 2.0},
        specs={"potential": potential},
        space_form=SpaceForm(5, 0.0, R),
        provenance="boundary failure-mode family",
    )


# ---------------------------------------------------------------------------
# hyperbolic interpolation family


def hyperbolic_interpolation(n: int, kappa: float, lam: float) -> CatalogEntry:
    """Dual pair with v = 1,
        H = (n/2 - h) ct(t) + h/t,
        V = kappa^2 lam + h^2/t^2 + kappa^2 (n^2/4 - h^2)/sinh^2(kappa t)
            + gamma h (t ct(t) - 1)/t^2,
    where gamma = sqrt((n-1)^2 - 4 lam), h = (gamma+1)/2, for
    0 <= lam <= (n-1)^2/4.  The dual residual vanishes identically and E1
    stays positive on (0, inf) for n >= 5."""
    if n < 5:
        raise ValueError(f"need n >= 5, got {n}")
    if not kappa > 0:
        raise ValueError("need kappa > 0")
    lam_max = (n - 1) ** 2 / 4.0
    if not (0.0 <= lam <= lam_max):
        raise ValueError(f"need 0 <= lambda <= {lam_max}, got {lam}")
    gamma = math.sqrt((n - 1) ** 2 - 4.0 * lam)
    h = (gamma + 1.0) / 2.0
    t = Var()
    ct = Unary("ct", t)
    sinh2 = Unary("sinh", Const(kappa) * t) ** Const(2.0)
    H = Const(n / 2.0 - h) * ct + Const(h) / t
    V = Const(kappa ** 2 * lam) \
        + Const(h * h) / (t * t) \
        + Const((n * n / 4.0 - h * h) * kappa ** 2) / sinh2 \
        + Const(gamma * h) * (t * ct - 1.0) / (t * t)
    dual = PairSpec(
        kind="dual",
        exprs={"H": H, "v": Const(1.0), "V": V},
        params={"n": float(n), "kappa": float(kappa), "lambda": float(lam)},
        note=f"hyperbolic interpolation, lambda={lam:g}, equality",
    )
    return CatalogEntry(
        id="hyp-interp",
        params={"n": n, "kappa": kappa, "lambda": lam,
                "gamma": gamma, "h": h},
        specs={"dual": dual},
        space_form=SpaceForm(n, kappa),
        default_shape="delta-vs-gradrad",
        provenance="curved interpolation family",
    )


# ---------------------------------------------------------------------------
# hyperbolic lower-order family


def hyperbolic_lower(n: int, kappa: float, which: int) -> CatalogEntry:
    """The three first-order pairs below the curved interpolation family:

      which=1: G = (n-1)/2 ct - 1/(2t),  w = 1
      which=2: G = (n-1)/2 ct - 3/(2t),  w = 1/t^2       (signed W)
      which=3: G = (n-3)/2 ct - 1/(2t),  w = 1/sinh^2(kappa t)

    W is derived mechanically from the Riccati identity (which makes 1 and 3
    exact equalities and exposes which=2's signed term -(n-1) ct(t)/t, checked
    nonnegative numerically)."""
    if n < 5:
        raise ValueError(f"need n >= 5, got {n}")
    if not kappa > 0:
        raise ValueError("need kappa > 0")
    if which not in (1, 2, 3):
        raise ValueError(f"selector must be 1, 2 or 3, got {which}")
    t = Var()
    ct = Unary("ct", t)
    k2 = kappa ** 2
    sinh2 = Unary("sinh", Const(kappa) * t) ** Const(2.0)
    if which == 1:
        G = Const((n - 1) / 2.0) * ct - Const(0.5) / t
        w: Expr = Const(1.0)
        W = Const((n - 1) ** 2 * k2 / 4.0) + Const(0.25) / (t * t) \
            + Const((n - 1) * (n - 3) * k2 / 4.0) / sinh2
        signed = False
        note = "curved lower-order pair 1, equality"
    elif which == 2:
        G = Const((n - 1) / 2.0) * ct - Const(1.5) / t
        w = Const(1.0) / (t * t)
        W = Const(2.25) / (t * t) - Const(float(n - 1)) * ct / t \
            + Const((n - 1) ** 2 * k2 / 4.0) \
            + Const((n - 1) * (n - 3) * k2 / 4.0) / sinh2
        signed = True
        note = "curved lower-order pair 2, signed W (margin (n-4)^2/(4t^2) near 0)"
    else:
        G = Const((n - 3) / 2.0) * ct - Const(0.5) / t
        w = Const(1.0) / sinh2
        W = Const(0.25) / (t * t) + Const((n - 3) ** 2 * k2 / 4.0) \
            + Const((n - 3) * (n - 5) * k2 / 4.0) / sinh2
        signed = False
        note = "curved lower-order pair 3, equality"
    # w'/w in closed form where the naive ratio would underflow to 0/0
    logd = {"w": Const(-2.0) * ct} if which == 3 else {}
    primal = PairSpec(
        kind="primal",
        exprs={"G": G, "w": w, "W": W},
        params={"n": float(n), "kappa": float(kappa)},
        allow_signed_W=signed,
        note=note,
        logd=logd,
    )
    return CatalogEntry(
        id=f"hyp-lower-{which}",
        params={"n": n, "kappa": kappa, "which": which},
        specs={"primal": primal},
        space_form=SpaceForm(n, kappa),
        default_shape="gradrad-vs-usq",
        provenance="curved lower-order family",
    )


# ---------------------------------------------------------------------------
# combined hyperbolic chain


def final_combined(n: int, kappa: float) -> CatalogEntry:
    """Chain the lam = (n-1)^2/4 interpolation dual with the three lower-order
    pairs.  The dual RHS density splits exactly as

        V = (n-1)^2 k^2/4 * 1  +  1/4 * 1/t^2  +  (n^2-1) k^2/4 * 1/sinh^2(kt)

    and the mechanically composed end density is

        (n-1)^4 k^4/16 u^2 + (n-1)^2 k^2/8 u^2/t^2 + (n-1)^2 k^2/8 u^2/(t^2 sinh^2)
        + (n-1)(n-3)(n^2-2n-1) k^4/8 u^2/sinh^2 - (n-1)/4 ct(t) u^2/t^3
        + (n^2-1)(n-3)(n-5) k^4/16 u^2/sinh^4 + 9/16 u^2/t^4.

    The leading coefficient is k^4 (not k^2) and the ct term carries no bare
    kappa factor; both follow from the composition, see the provenance note.
    """
    lam = (n - 1) ** 2 / 4.0
    interp = hyperbolic_interpolation(n, kappa, lam)
    lowers = [hyperbolic_lower(n, kappa, w) for w in (1, 2, 3)]
    k2 = kappa ** 2
    alphas = ((n - 1) ** 2 * k2 / 4.0, 0.25, (n * n - 1) * k2 / 4.0)
    links = tuple(
        ChainLink(alpha=a, spec=low.specs["primal"], label=f"link-{i + 1}")
        for i, (a, low) in enumerate(zip(alphas, lowers))
    )
    coeffs = {
        "usq": (n - 1) ** 4 * kappa ** 4 / 16.0,
        "usq_over_t2": (n - 1) ** 2 * k2 / 8.0,
        "usq_over_t2_sinh2": (n - 1) ** 2 * k2 / 8.0,
        "usq_over_sinh2": (n - 1) * (n - 3) * (n * n - 2 * n - 1) * kappa ** 4 / 8.0,
        "ct_usq_over_t3": -(n - 1) / 4.0,
        "usq_over_sinh4": (n * n - 1) * (n - 3) * (n - 5) * kappa ** 4 / 16.0,
        "usq_over_t4": 9.0 / 16.0,
    }
    chain = ChainDescriptor(
        label="hyp-final",
        dual=interp.specs["dual"],
        links=links,
        meta={"coefficients": coeffs,
              "printed_delta": "display shows kappa^2 on the u^2 term and a bare "
                               "kappa on the ct term; composition gives kappa^4 "
                               "and no kappa there"},
    )
    return CatalogEntry(
        id="hyp-final",
        params={"n": n, "kappa": kappa, "lambda": lam},
        specs={"dual": interp.specs["dual"],
               **{f"primal-{i+1}": low.specs["primal"] for i, low in enumerate(lowers)}},
        space_form=SpaceForm(n, kappa),
        chain=chain,
        default_shape="chain",
        provenance="combined curved chain (coefficients derived mechanically)",
    )


def chain_from_potential(entry: CatalogEntry, n: int) -> ChainDescriptor:
    """Chain a Bessel potential's dual pair with a primal pair from each of
    the two Bessel pairs it generates: v V = n^2/4 * (1/t^2) + c * Z, so

        integral |Delta u|^2 >= n^2(n-4)^2/16 integral u^2/t^4
            + c (n^2/4 + (n-lam-2)^2/4) integral Z u^2/t^2.

    The first link is the first pair's variant (iv), from its explicit
    solution, with equality.  The second is the second pair's
    bessel_pair_primal (a/t, X, C Y/X) = (a/t, Z, a^2/t^2), a = (n-lam-2)/2
    > 0: its residual a f/t + a (n-1)(ct - 1/t)/t, f = Z'/Z + lam/t, is >= 0
    wherever f >= 0 (ct >= 1/t), so both links gate on their residual scan."""
    potential = _potential(entry)
    lam = entry.params.get("lambda", 2.0)
    dual = pr.from_bessel_potential(potential, "iii", n)     # checks the potential once
    first_pair, second_pair = pr.bessel_pairs_from_potential(potential, lam, n, verified=True)
    c = potential.constant
    links = (
        ChainLink(alpha=n * n / 4.0, spec=pr.from_bessel_pair(first_pair, n), label="link-1"),
        ChainLink(alpha=c, label="link-2", spec=pr.bessel_pair_primal(
            second_pair, Const((n - lam - 2) / 2.0) / Var())),
    )
    addon = c * (n * n / 4.0 + (n - lam - 2) ** 2 / 4.0)
    return ChainDescriptor(
        label=f"{entry.id}-chain",
        dual=dual,
        links=links,
        meta={
            "rellich_constant": n * n * (n - 4) ** 2 / 16.0,
            "addon_constant": addon,
            "addon_density": "Z u^2/t^2",
            "lambda": lam,
            "c": c,
        },
    )


def _potential(entry: CatalogEntry) -> Optional[PairSpec]:
    """The entry's Bessel potential, found by kind: a catalog entry names it
    "potential", an inline source by its kind."""
    return next((p for p in entry.specs.values() if p.kind == "bessel-potential"), None)


def entry_chain(entry: CatalogEntry, n: int) -> ChainDescriptor:
    """The entry's own chain, or the one its Bessel potential generates."""
    if entry.chain is not None:
        return entry.chain
    if _potential(entry) is not None:
        return chain_from_potential(entry, n)
    raise ValueError(f"entry {entry.id!r} has no chain")


def entry_pair(entry: CatalogEntry, kind: str, sf: SpaceForm):
    """The pair of the given kind that a shape stated for it runs on ("chain":
    the entry's chain).  That is the entry's spec named kind, else one derived
    from its other specs: a dual by the change of functions from its primal or
    from its Bessel potential, a primal by the change from that dual."""
    if kind == "chain":
        return entry_chain(entry, sf.n)
    if kind in entry.specs:
        return entry.specs[kind]
    if kind == "primal":
        return pr.dual_to_primal(entry_pair(entry, "dual", sf))
    if kind == "dual":
        if "primal" in entry.specs:
            return pr.primal_to_dual(entry.specs["primal"])
        potential = _potential(entry)
        if potential is not None:
            return pr.from_bessel_potential(potential, "iii", sf.n)
    raise ValueError(f"no {kind} pair derivable from entry {entry.id!r}")


# ---------------------------------------------------------------------------
# registry


# CLI id -> builder, in listing order; each reads the knobs it names
_FAMILIES = {
    "classical-rellich": lambda n, **_: classical_euclidean(n),
    "iterlog": lambda k, R, **_: iterated_log_potential(k, R),
    "ell-family": lambda k, R, **_: ell_potential(k, R),
    "hyp-interp": lambda n, kappa, lam, **_: hyperbolic_interpolation(n, kappa, lam),
    "hyp-lower-1": lambda n, kappa, **_: hyperbolic_lower(n, kappa, 1),
    "hyp-lower-2": lambda n, kappa, **_: hyperbolic_lower(n, kappa, 2),
    "hyp-lower-3": lambda n, kappa, **_: hyperbolic_lower(n, kappa, 3),
    "hyp-final": lambda n, kappa, **_: final_combined(n, kappa),
}

CATALOG_IDS = tuple(_FAMILIES)


def _family(entry_id: str):
    if entry_id not in _FAMILIES:
        raise ValueError(f"unknown catalog id {entry_id!r}; known: {', '.join(CATALOG_IDS)}")
    return _FAMILIES[entry_id]


def family_knobs(entry_id: str) -> frozenset:
    """The knobs (of n, kappa, lam, k, R) that the family's builder reads."""
    params = inspect.signature(_family(entry_id)).parameters.values()
    return frozenset(p.name for p in params if p.kind is not p.VAR_KEYWORD)


def build_entry(entry_id: str, n: int = 5, kappa: float = 1.0,
                lam: float = 0.0, k: int = 1, R: float = 1.0) -> CatalogEntry:
    """Construct a catalog entry by its CLI id."""
    return _family(entry_id)(n=n, kappa=kappa, lam=lam, k=k, R=R)
