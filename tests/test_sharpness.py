"""Rayleigh quotients and best-constant estimates."""

import io
import json
import math
from contextlib import redirect_stdout

import numpy as np
import pytest

from rellich import catalog as cat
from rellich import expr as ex
from rellich import sharpness as sh
from rellich import verify as vf
from rellich.cli import main
from rellich.geometry import (Profiles, SpaceForm, Splines, big_l, bspline_basis, make_bump,
                              volume_weight)
from rellich.sharpness import (DegenerateTestFunctionError, estimate_constant,
                               rayleigh_quotient, sharpness_problem)
from rellich.verify import shape_sides


class _Scaled(Profiles):
    """A batch of bumps whose jets are scaled by s."""

    def __init__(self, us, s):
        super().__init__(us)
        self._s = s

    def jet(self, t):
        return tuple(self._s * d for d in super().jet(t))


class TestRayleighQuotient:
    def setup_method(self):
        self.sf = SpaceForm(6, 0.0)
        self.entry = cat.classical_euclidean(6)

    def _sides(self, shape, spec, claimed):
        return shape_sides(shape, self.entry.specs[spec], self.sf, claimed=claimed)

    def test_degenerate_rejected(self):
        u = make_bump(1.0, 2.0, self.sf)
        with pytest.raises(DegenerateTestFunctionError):
            rayleigh_quotient(self.sf, self._sides("delta-vs-gradrad", "dual", 9.0),
                              _Scaled([u], 0.0))

    def test_scaling_invariance(self):
        u = make_bump(1.0, 5.0, self.sf)
        sides = self._sides("delta-vs-gradrad", "dual", 9.0)
        q1 = rayleigh_quotient(self.sf, sides, Profiles([u]))
        q2 = rayleigh_quotient(self.sf, sides, _Scaled([u], 2.0))
        assert q2 == pytest.approx(q1, rel=1e-10)

    def test_hardy_style_quotient_above_one(self):
        # claimed (n-4)^2/4 = 1 at n = 6 for the chained primal shape, on a
        # spline that follows the near-extremal t^-(n-4)/2 = t^-1 over a
        # support wide enough (b/a > 32) for the log-substituted quadrature
        lo, hi, m = 0.1, 500.0, 20
        width = math.log(hi / lo) / (m + 3)
        u = Splines([(lo, hi, [1.0 / (lo * math.exp((j + 2) * width)) for j in range(m)])])
        q = rayleigh_quotient(self.sf, self._sides("gradrad-vs-usq", "primal", 1.0), u)
        assert q >= 1.0 - 1e-9

    def test_unknown_shape(self):
        u = Profiles([make_bump(1.0, 2.0, self.sf)])
        with pytest.raises(ValueError):
            rayleigh_quotient(self.sf, self._sides("nope", "dual", 1.0), u)


class TestSharpnessProblem:
    def test_classical_targets(self):
        sf = SpaceForm(6, 0.0)
        entry = cat.classical_euclidean(6)
        _, claimed = sharpness_problem(entry, "delta-vs-gradrad", sf)
        assert claimed == pytest.approx(9.0)
        _, claimed = sharpness_problem(entry, "gradrad-vs-usq", sf)
        assert claimed == pytest.approx(4.0)   # (n-2)^2/4 at n = 6
        _, claimed = sharpness_problem(entry, "chain", sf)
        assert claimed == pytest.approx(9.0)   # n^2 (n-4)^2/16 at n = 6

    def test_curved_families_have_no_target(self):
        sf = SpaceForm(5, 1.0)
        entry = cat.hyperbolic_interpolation(5, 1.0, 0.0)
        _, claimed = sharpness_problem(entry, "delta-vs-gradrad", sf)
        assert claimed is None


class TestEstimateConstant:
    def test_classical_gradrad_window(self):
        entry = cat.classical_euclidean(6)
        est = estimate_constant(SpaceForm(6, 0.0), "delta-vs-gradrad",
                                entry.specs["dual"], claimed=9.0, budget=500)
        assert 9.0 - 1e-6 <= est.estimate <= 9.9
        assert est.gap_ratio == pytest.approx(est.estimate / 9.0)
        assert "not a proof" in est.label

    def test_hardy_window(self):
        entry = cat.classical_euclidean(5)
        est = estimate_constant(SpaceForm(5, 0.0), "gradrad-vs-usq",
                                entry.specs["hardy"], claimed=2.25, budget=500)
        assert 2.25 - 1e-6 <= est.estimate <= 2.52

    def test_chain_window(self):
        entry = cat.classical_euclidean(6)
        est = estimate_constant(SpaceForm(6, 0.0), "chain", entry.chain,
                                claimed=9.0, budget=400)
        assert 9.0 - 1e-6 <= est.estimate <= 11.0

    def test_budget_monotone(self):
        entry = cat.classical_euclidean(6)
        prev = float("inf")
        for budget in (120, 240, 480):
            est = estimate_constant(SpaceForm(6, 0.0), "delta-vs-gradrad",
                                    entry.specs["dual"], claimed=9.0, budget=budget)
            assert est.estimate <= prev + 1e-12
            prev = est.estimate

    def test_never_below_certified_constants(self):
        fixtures = [
            (SpaceForm(6, 0.0), "delta-vs-gradrad",
             cat.classical_euclidean(6).specs["dual"], 9.0),
            (SpaceForm(5, 0.0), "gradrad-vs-usq",
             cat.classical_euclidean(5).specs["hardy"], 2.25),
            (SpaceForm(8, 0.0), "delta-vs-gradrad",
             cat.classical_euclidean(8).specs["dual"], 16.0),
        ]
        for sf, shape, pair, claimed in fixtures:
            est = estimate_constant(sf, shape, pair, claimed=claimed, budget=200)
            assert est.estimate >= claimed - 1e-6

    def test_deterministic(self):
        entry = cat.classical_euclidean(6)
        a = estimate_constant(SpaceForm(6, 0.0), "delta-vs-gradrad",
                              entry.specs["dual"], claimed=9.0, budget=150)
        b = estimate_constant(SpaceForm(6, 0.0), "delta-vs-gradrad",
                              entry.specs["dual"], claimed=9.0, budget=150)
        assert a.estimate == b.estimate
        assert a.params == b.params

    def test_sides_compile_once_per_estimate(self, monkeypatch):
        # the claimed-scaled RHS density is built once, not once per level
        built = []
        init = ex.Program.__init__

        def counting_init(program, roots):
            built.append(roots)
            init(program, roots)

        monkeypatch.setattr(ex.Program, "__init__", counting_init)
        entry = cat.classical_euclidean(6)
        est = estimate_constant(SpaceForm(6, 0.0), "delta-vs-gradrad",
                                entry.specs["dual"], claimed=9.0, budget=25)
        assert est.evaluations >= 2    # levels of 7 and 17 functions
        assert len(built) <= 3

    @pytest.mark.parametrize("shape", ["gradrad-vs-usq", "chain"])
    def test_pair_of_the_wrong_kind_is_rejected(self, shape):
        entry = cat.classical_euclidean(6)
        with pytest.raises(ValueError, match="requires a"):
            estimate_constant(SpaceForm(6, 0.0), shape, entry.specs["dual"], budget=25)

    def test_curved_estimate_reports_no_gap(self):
        entry = cat.hyperbolic_interpolation(5, 1.0, 0.0)
        est = estimate_constant(SpaceForm(5, 1.0), "delta-vs-gradrad",
                                entry.specs["dual"], claimed=None, budget=120)
        assert est.claimed is None and est.gap_ratio is None
        assert est.estimate > 0

    @pytest.mark.parametrize("claimed", [0.0, -9.0, math.inf, math.nan])
    def test_claimed_must_be_finite_and_positive(self, claimed):
        sf, pair = SpaceForm(6, 0.0), cat.classical_euclidean(6).specs["dual"]
        with pytest.raises(ValueError, match="claimed constant must be finite and > 0"):
            shape_sides("delta-vs-gradrad", pair, sf, claimed=claimed)
        with pytest.raises(ValueError, match="claimed constant must be finite and > 0"):
            estimate_constant(sf, "delta-vs-gradrad", pair, claimed=claimed, budget=25)

    @pytest.mark.parametrize("budget", [100, 500])
    def test_one_integrate_call_per_estimate(self, monkeypatch, budget):
        """Both sides of every level's spline are re-integrated in one
        integrate call, which makes as many passes as the slowest of them
        makes alone."""
        sf = SpaceForm(6, 0.0)
        pair, claimed = sharpness_problem(cat.classical_euclidean(6), "delta-vs-gradrad", sf)
        passes, integrate, kronrod = [], vf.integrate, vf._kronrod

        def counted_integrate(*args):
            passes.append(0)
            return integrate(*args)

        def counted_kronrod(*args):
            passes[-1] += 1
            return kronrod(*args)

        monkeypatch.setattr(vf, "integrate", counted_integrate)
        monkeypatch.setattr(vf, "_kronrod", counted_kronrod)
        est = estimate_constant(sf, "delta-vs-gradrad", pair, claimed=claimed, budget=budget)
        assert est.evaluations == len(sh._levels(budget)) == (4 if budget == 100 else 6)
        assert len(passes) == 1
        batch = passes[:]
        passes.clear()
        sides = shape_sides("delta-vs-gradrad", pair, sf, claimed=claimed)
        lo, hi = sh._interval(sf)
        for cells in sh._levels(budget):
            _, c = sh._ritz(*sh._grams(sf, sides, lo, hi, cells))
            for weight, form, bindings in sides.entries:
                vf.side(sf, weight, Splines([(lo, hi, c.tolist())]), form, bindings)
        assert len(passes) == 2 * est.evaluations
        assert batch == [max(passes)]

    @pytest.mark.parametrize("budget,levels", [(1, 1), (17, 2), (36, 2), (37, 3), (100, 4)])
    def test_budget_caps_the_basis(self, budget, levels):
        # levels of 7, 17, 37, 77, ... functions; the first always runs
        entry = cat.classical_euclidean(6)
        est = estimate_constant(SpaceForm(6, 0.0), "delta-vs-gradrad",
                                entry.specs["dual"], claimed=9.0, budget=budget)
        assert est.evaluations == levels
        assert len(est.params["coefficients"]) <= max(budget, 7)


# the estimates of the estimate workload's templates (budget 100, default
# --quad-tol) under the coordinate search this estimator replaced
_SEARCH_ESTIMATES = {
    "--catalog classical-rellich --n 5 --shape delta-vs-gradrad": 8.352419325411478,
    "--catalog classical-rellich --n 5 --shape gradrad-vs-usq": 2.368797998880376,
    "--catalog classical-rellich --n 5 --shape chain": 3.2934698671960208,
    "--catalog classical-rellich --n 6 --shape delta-vs-gradrad": 9.78225496916416,
    "--catalog classical-rellich --n 6 --shape gradrad-vs-usq": 4.117992381031677,
    "--catalog classical-rellich --n 6 --shape chain": 11.10640243354713,
    "--catalog classical-rellich --n 7 --shape delta-vs-gradrad": 12.765328701240195,
    "--catalog classical-rellich --n 7 --shape gradrad-vs-usq": 6.369151104758451,
    "--catalog classical-rellich --n 7 --shape chain": 30.351321883349552,
    "--catalog hyp-interp --n 5 --kappa 1": 1.4649311533653913,
    "--catalog hyp-final --n 5 --kappa 1 --shape chain": 1.5306333733132031,
}


@pytest.mark.parametrize("source", sorted(_SEARCH_ESTIMATES))
def test_estimate_quality_is_pinned(source):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["estimate", *source.split(), "--budget", "100"])
    config = json.loads(out.getvalue())["config"]
    assert code == 0
    assert math.isfinite(config["estimate"])
    if config["claimed"] is not None:
        assert config["estimate"] >= config["claimed"] - 1e-6
    assert config["estimate"] <= _SEARCH_ESTIMATES[source]


@pytest.mark.parametrize("entry,shape", [
    # kappa > 0: the volume weight varies fastest across a cell here, so an
    # under-resolved Ritz value would differ most from the reported quotient
    (cat.build_entry("hyp-lower-2", n=5, kappa=1.0), "gradrad-vs-usq"),
    (cat.build_entry("hyp-final", n=5, kappa=1.0), "chain"),
    (cat.build_entry("classical-rellich", n=6, kappa=0.0), "delta-vs-gradrad"),
], ids=["hyp-lower-2", "hyp-final-chain", "classical-6"])
def test_estimate_is_the_reintegrated_quotient(entry, shape):
    sf = entry.space_form
    pair, claimed = sharpness_problem(entry, shape, sf)
    est = estimate_constant(sf, shape, pair, claimed=claimed, budget=100)
    p = est.params
    u = Splines([(p["support_lo"], p["support_hi"], p["coefficients"])])
    assert u.bands.tolist() == [p["cells"]]
    sides = shape_sides(shape, pair, sf, claimed=claimed or 1.0)
    assert rayleigh_quotient(sf, sides, u) == est.estimate


def _loop_grams(sf, sides, lo, hi, cells):
    """sharpness._grams with its bands assembled one B-spline pair at a
    time, a bincount and two scatters each: the reference the two-bincount
    assembly must match bit for bit."""
    s_lo = math.log(lo)
    width = (math.log(hi) - s_lo) / cells
    knots = np.exp(s_lo + width * np.arange(cells + 1))
    parts = np.maximum(1, np.ceil((sf.n - 1) * sf.kappa * np.diff(knots) / sh._GROWTH))
    parts = parts.astype(int)
    part_cell = np.repeat(np.arange(cells), parts)
    part = np.arange(len(part_cell)) - np.repeat(np.cumsum(parts) - parts, parts)
    share = 1.0 / parts[part_cell]
    x, w = sh._GAUSS
    cell = np.repeat(part_cell, len(x))
    r = ((part[:, None] + 0.5 * (x + 1.0)) * share[:, None]).ravel()
    t = np.exp(s_lo + (cell + r) * width)
    b, b_r, b_rr = bspline_basis(r)
    d1 = b_r / (width * t[:, None])
    features = {"usq": b, "gradrad": d1, "grad": d1,
                "delta": (b_rr / width - b_r) / (width * (t * t)[:, None])
                + big_l(sf, t)[:, None] * d1}
    measure = (0.5 * width * w * share[:, None]).ravel() * volume_weight(sf, t) * t
    index = np.arange(cells) + np.arange(4)[:, None]
    out = []
    for weight, form in ((sides.weight, sides.lhs), (sides.density, sides.rhs)):
        f, gram = features[form], np.zeros((cells + 3, cells + 3))
        with np.errstate(over="ignore", invalid="ignore"):
            q = measure * np.asarray(weight.evaluate({**sides.bindings, "t": t}), dtype=float)
            for i in range(4):
                for j in range(i, 4):
                    band = np.bincount(cell, q * f[:, i] * f[:, j], minlength=cells)
                    gram[index[i], index[j]] += band
                    if j > i:
                        gram[index[j], index[i]] += band
        out.append(gram[3:cells, 3:cells])
    return out


@pytest.mark.parametrize("entry_id,knobs,shape", [
    ("classical-rellich", {"n": 6}, "delta-vs-gradrad"),
    ("classical-rellich", {"n": 8}, "delta-vs-grad"),
    ("hyp-lower-2", {}, "gradrad-vs-usq"),
    ("hyp-final", {}, "chain"),
    ("ell-family", {"k": 2}, "chain"),
])
def test_grams_equal_the_pairwise_assembly(entry_id, knobs, shape):
    # the entry is built here, not at collection, so no node of its trees
    # outlives the test
    entry = cat.build_entry(entry_id, **knobs)
    sf = entry.space_form
    pair, claimed = sharpness_problem(entry, shape, sf)
    sides = shape_sides(shape, pair, sf, claimed=claimed)
    lo, hi = sh._interval(sf)
    for cells in sh._levels(160):
        got, want = sh._grams(sf, sides, lo, hi, cells), _loop_grams(sf, sides, lo, hi, cells)
        assert [g.tobytes() for g in got] == [g.tobytes() for g in want]


def test_default_tolerance_matches_a_tight_one():
    """Started from the spline's cells, the re-integration at the default
    tolerance gives the estimate of --quad-tol 1e-13; started from equal
    panels across the knots it read 1.2e-9 high."""
    out = io.StringIO()
    with redirect_stdout(out):
        main("estimate --catalog classical-rellich --n 6 --budget 100".split())
    assert json.loads(out.getvalue())["config"]["estimate"] == pytest.approx(
        9.0714728269861, rel=1e-12)
