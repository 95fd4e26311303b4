"""Rayleigh quotients and best-constant estimates."""

import pytest

from rellich import catalog as cat
from rellich import expr as ex
from rellich import sharpness as sh
from rellich.geometry import SpaceForm, make_bump, make_powerlaw
from rellich.sharpness import (DegenerateTestFunctionError, estimate_constant,
                               rayleigh_quotient, sharpness_problem)
from rellich.verify import shape_sides


class _Scaled:
    def __init__(self, u, s):
        self._u, self._s, self.l = u, s, u.l
        self.support = u.support

    def jet(self, t):
        return tuple(self._s * d for d in self._u.jet(t))


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
                              _Scaled(u, 0.0))

    def test_scaling_invariance(self):
        u = make_bump(1.0, 5.0, self.sf)
        sides = self._sides("delta-vs-gradrad", "dual", 9.0)
        q1 = rayleigh_quotient(self.sf, sides, u)
        q2 = rayleigh_quotient(self.sf, sides, _Scaled(u, 2.0))
        assert q2 == pytest.approx(q1, rel=1e-10)

    def test_hardy_style_quotient_above_one(self):
        # claimed (n-4)^2/4 = 1 at n = 6 for the chained primal shape
        u = make_powerlaw(-1.0, 0.5, 200.0, 0.4, 300.0, self.sf)
        q = rayleigh_quotient(self.sf, self._sides("gradrad-vs-usq", "primal", 1.0), u)
        assert q >= 1.0 - 1e-9

    def test_unknown_shape(self):
        u = make_bump(1.0, 2.0, self.sf)
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
        # the claimed-scaled RHS density is built once, not once per probe
        built = []
        init = ex.Program.__init__

        def counting_init(program, roots):
            built.append(roots)
            init(program, roots)

        monkeypatch.setattr(ex.Program, "__init__", counting_init)
        entry = cat.classical_euclidean(6)
        est = estimate_constant(SpaceForm(6, 0.0), "delta-vs-gradrad",
                                entry.specs["dual"], claimed=9.0, budget=25)
        assert est.evaluations >= 25
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
