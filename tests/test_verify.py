"""Quadrature and end-to-end verification runs."""

import math

import numpy as np
import pytest
from numpy.polynomial import Polynomial

from rellich import catalog as cat
from rellich import verify as vf
from rellich.expr import Const, parse
from rellich.geometry import SpaceForm, make_bump, sphere_area
from rellich.verify import (BatchSpec, ChainMismatchError, InequalityCase,
                            generate_batch, integrate, shape_sides, side,
                            verify_case, verify_chain)


def _bump_mass_closed_form(a: float, b: float, n: int) -> float:
    """Exact integral of u^2 t^(n-1) omega dt for a quintic-smoothstep
    bump: the transitions are polynomials, integrated symbolically."""
    w = (b - a) / 3.0
    smooth = Polynomial([0.0, 0.0, 0.0, 10.0, -15.0, 6.0])
    s2 = smooth * smooth
    plateau = Polynomial([0.0, 1.0]) ** n
    mid = (plateau(b - w) - plateau(a + w)) / n
    rise = (s2 * Polynomial([a, w]) ** (n - 1) * w).integ()(1.0)
    fall = (s2 * Polynomial([b, -w]) ** (n - 1) * w).integ()(1.0)
    return sphere_area(n) * (mid + rise + fall)


class TestIntegrate:
    def test_bump_mass_against_polynomial_oracle(self):
        sf = SpaceForm(5, 0.0, 100.0)
        u = make_bump(0.5, 1.0, sf)
        got = integrate(sf, lambda t: u.value(t) ** 2, 0.5, 1.0, tol=1e-12)
        want = _bump_mass_closed_form(0.5, 1.0, 5)
        assert got.value == pytest.approx(want, rel=1e-10)
        assert abs(got.value - want) <= max(1e-12, 10 * got.error_estimate)

    def test_ball_volume(self):
        sf = SpaceForm(3, 0.0, 2.0)
        got = integrate(sf, lambda t: np.ones_like(t), 0.0, 1.0)
        assert got.value == pytest.approx(4.0 * math.pi / 3.0, rel=1e-12)

    def test_singular_weight_two_tolerances_agree(self):
        sf = SpaceForm(5, 1.0)
        f = lambda t: 1.0 / np.sinh(t) ** 2  # integrand ~ t^2 near 0
        a = integrate(sf, f, 0.0, 1.0, tol=1e-8)
        b = integrate(sf, f, 0.0, 1.0, tol=1e-12)
        assert abs(a.value - b.value) / abs(b.value) <= 1e-8
        assert math.isfinite(a.value)

    def test_against_scipy_reference(self):
        from scipy.integrate import quad

        sf = SpaceForm(4, 0.5, 50.0)
        u = make_bump(1.0, 6.0, sf)

        def density(t):
            return u.value(t) ** 2 / t ** 2

        got = integrate(sf, density, 1.0, 6.0, tol=1e-11)
        from rellich.geometry import volume_weight

        want, err = quad(lambda t: float(density(t) * volume_weight(sf, t)),
                         1.0, 6.0, epsabs=1e-13, epsrel=1e-12, limit=200)
        assert got.value == pytest.approx(want, rel=1e-9)

    def test_wide_range_log_substitution(self):
        # t^-1 over five decades: exactly omega * ln(b/a) for n = 1 weight...
        # use n = 2, density t^-2: integral = 2 pi ln(b/a)
        sf = SpaceForm(2, 0.0)
        got = integrate(sf, lambda t: 1.0 / t ** 2, 1e-4, 10.0, tol=1e-12)
        want = 2.0 * math.pi * math.log(10.0 / 1e-4)
        assert got.value == pytest.approx(want, rel=1e-10)

    def test_error_estimate_shrinks_with_tolerance(self):
        sf = SpaceForm(5, 0.0)
        f = lambda t: np.exp(-t) / t ** 2
        loose = integrate(sf, f, 0.01, 5.0, tol=1e-4)
        tight = integrate(sf, f, 0.01, 5.0, tol=1e-12)
        assert tight.error_estimate <= loose.error_estimate
        assert tight.subintervals >= loose.subintervals

    def test_range_validation(self):
        sf = SpaceForm(3, 0.0, 1.0)
        with pytest.raises(ValueError):
            integrate(sf, lambda t: t, 0.5, 2.0)
        with pytest.raises(ValueError):
            integrate(sf, lambda t: t, -0.5, 0.7)

    def test_nonconvergence_raises(self):
        from rellich.verify import NonconvergenceError

        sf = SpaceForm(3, 0.0, 2.0)
        wiggly = lambda t: np.sin(5e4 / t)
        with pytest.raises(NonconvergenceError):
            integrate(sf, wiggly, 0.1, 1.0, tol=1e-12, max_panels=8)


class _Scaled:
    def __init__(self, u, s):
        self._u, self._s, self.l = u, s, u.l
        self.support = u.support

    def value(self, t):
        return self._s * self._u.value(t)

    def dvalue(self, t):
        return self._s * self._u.dvalue(t)

    def d2value(self, t):
        return self._s * self._u.d2value(t)


class TestSides:
    def setup_method(self):
        self.sf = SpaceForm(5, 0.0)
        self.entry = cat.classical_euclidean(5)
        self.dual = self.entry.specs["dual"]
        self.u = make_bump(0.5, 1.0, self.sf)

    def test_zero_function(self):
        z = _Scaled(self.u, 0.0)
        assert side(self.sf, Const(1.0), z, "delta").value == 0.0
        assert side(self.sf, Const(1.0), z, "usq").value == 0.0

    def test_quadratic_scaling(self):
        base = side(self.sf, Const(1.0), self.u, "delta")
        scaled = side(self.sf, Const(1.0), _Scaled(self.u, 2.0), "delta")
        assert scaled.value == pytest.approx(4.0 * base.value, rel=1e-12)

    def test_stability_under_refinement(self):
        a = side(self.sf, Const(1.0), self.u, "delta", tol=1e-8)
        b = side(self.sf, Const(1.0), self.u, "delta", tol=1e-12)
        assert a.value == pytest.approx(b.value, rel=1e-8)
        assert a.value > 0

    def test_grad_equals_gradrad_for_radial(self):
        wp = parse("1/t^2")
        a = side(self.sf, wp, self.u, "gradrad")
        b = side(self.sf, wp, self.u, "grad")
        assert b.value == pytest.approx(a.value, rel=1e-12)

    def test_grad_exceeds_gradrad_for_modes(self):
        u1 = make_bump(0.5, 1.0, self.sf, l=1)
        wp = parse("1/t^2")
        a = side(self.sf, wp, u1, "gradrad")
        b = side(self.sf, wp, u1, "grad")
        assert b.value > a.value > 0

    def test_invalid_side(self):
        with pytest.raises(ValueError):
            side(self.sf, Const(1.0), self.u, "curl")


class TestBatch:
    def test_deterministic(self):
        sf = SpaceForm(5, 0.0)
        a = generate_batch(sf, BatchSpec(count=10, seed=42))
        b = generate_batch(sf, BatchSpec(count=10, seed=42))
        assert [u.support for u in a] == [u.support for u in b]
        c = generate_batch(sf, BatchSpec(count=10, seed=43))
        assert [u.support for u in a] != [u.support for u in c]

    def test_bounds_and_ordering(self):
        sf = SpaceForm(5, 1.0)
        lo, hi = vf.batch_domain(sf)
        for u in generate_batch(sf, BatchSpec(count=40, seed=7)):
            assert lo <= u.support_lo < u.support_hi <= hi
            assert u.support_hi >= 1.1 * u.support_lo

    def test_modes_cycle(self):
        sf = SpaceForm(5, 0.0)
        batch = generate_batch(sf, BatchSpec(count=6, seed=1, modes=(0, 1, 2)))
        assert [u.l for u in batch] == [0, 1, 2, 0, 1, 2]

    def test_hyperbolic_domain_capped(self):
        lo, hi = vf.batch_domain(SpaceForm(5, 1.0))
        assert hi <= 0.98 * 150.0 + 1e-9  # 600/((n-1) kappa)


class TestVerifyCase:
    def test_classical_passes(self):
        e = cat.classical_euclidean(5)
        case = InequalityCase(shape="delta-vs-gradrad", sf=SpaceForm(5, 0.0),
                              batch=BatchSpec(count=12, seed=42),
                              pair=e.specs["dual"], case_id="classical-5")
        rep = verify_case(case)
        assert rep.verdict == "pass"
        assert all(t.margin >= -t.budget for t in rep.tests)
        assert {s.target for s in rep.scans} == {"v", "V", "residual", "E1"}

    def test_side_condition_failure_is_inconclusive(self):
        e = cat.classical_euclidean(7)
        case = InequalityCase(shape="delta-vs-grad", sf=SpaceForm(7, 0.0),
                              batch=BatchSpec(count=4, seed=1, modes=(0, 1)),
                              pair=e.specs["dual"])
        rep = verify_case(case)
        assert rep.verdict == "inconclusive"
        assert any(s.target == "E2" and s.verdict == "violated" for s in rep.scans)
        # margins themselves are fine; only the side condition blocks "pass"
        assert all(t.margin >= -t.budget for t in rep.tests)

    def test_hardy_primal_passes(self):
        e = cat.classical_euclidean(5)
        case = InequalityCase(shape="gradrad-vs-usq", sf=SpaceForm(5, 0.0),
                              batch=BatchSpec(count=10, seed=11),
                              pair=e.specs["hardy"])
        rep = verify_case(case)
        assert rep.verdict == "pass"

    def test_false_inequality_fails(self):
        # inflate V by 10x: the dual residual goes negative AND margins break
        from rellich.pairs import PairSpec
        from rellich.expr import Var

        t = Var()
        bad = PairSpec(kind="dual", exprs={
            "H": Const(2.5) / t, "v": Const(1.0),
            "V": Const(6.25e6) / (t * t)})
        case = InequalityCase(shape="delta-vs-gradrad", sf=SpaceForm(5, 0.0),
                              batch=BatchSpec(count=6, seed=2), pair=bad)
        rep = verify_case(case)
        assert rep.verdict == "fail"
        assert any(t.margin < -t.budget for t in rep.tests)

    def test_homogeneity_of_margins(self):
        e = cat.classical_euclidean(5)
        sf = SpaceForm(5, 0.0)
        sides = shape_sides("delta-vs-gradrad", e.specs["dual"], sf)
        u = make_bump(2.0, 7.0, sf)
        for s in (0.5, 2.0):
            us = _Scaled(u, s)
            lhs1, rhs1 = (q.value for q in sides.integrals(sf, u))
            lhs2, rhs2 = (q.value for q in sides.integrals(sf, us))
            assert lhs2 - rhs2 == pytest.approx(s ** 2 * (lhs1 - rhs1), rel=1e-10)

    def test_monotone_refinement_keeps_verdict(self):
        e = cat.classical_euclidean(6)
        for tol in (1e-8, 5e-9, 1e-10):
            case = InequalityCase(shape="delta-vs-gradrad", sf=SpaceForm(6, 0.0),
                                  batch=BatchSpec(count=6, seed=42),
                                  pair=e.specs["dual"])
            assert verify_case(case, quad_tol=tol).verdict == "pass"

    def test_determinism(self):
        e = cat.classical_euclidean(5)
        case = InequalityCase(shape="delta-vs-gradrad", sf=SpaceForm(5, 0.0),
                              batch=BatchSpec(count=8, seed=42),
                              pair=e.specs["dual"])
        assert verify_case(case) == verify_case(case)

    def test_empty_batch(self):
        e = cat.classical_euclidean(5)
        case = InequalityCase(shape="delta-vs-gradrad", sf=SpaceForm(5, 0.0),
                              batch=BatchSpec(count=0, seed=42),
                              pair=e.specs["dual"])
        rep = verify_case(case)
        assert rep.tests == ()
        assert rep.verdict == "pass"  # scans alone gate

    def test_case_coherence(self):
        e = cat.classical_euclidean(5)
        with pytest.raises(ValueError):
            InequalityCase(shape="delta-vs-gradrad", sf=SpaceForm(5, 0.0))
        with pytest.raises(ValueError):
            InequalityCase(shape="gradrad-vs-usq", sf=SpaceForm(5, 0.0),
                           pair=e.specs["dual"])
        with pytest.raises(ValueError):
            InequalityCase(shape="delta-vs-gradrad", sf=SpaceForm(5, 0.0), pair=e.chain)
        with pytest.raises(ValueError, match="l >= 1"):
            InequalityCase(shape="delta-vs-grad", sf=SpaceForm(8, 0.0),
                           pair=cat.classical_euclidean(8).specs["dual"],
                           batch=BatchSpec(count=4, seed=1, modes=(0,)))


class TestVerifyChain:
    def test_classical_chain_end_to_end(self):
        e = cat.classical_euclidean(6)
        rep = verify_chain(e.chain, SpaceForm(6, 0.0), BatchSpec(count=10, seed=5))
        assert rep.verdict == "pass"
        ends = [t for t in rep.tests if t.id.endswith(":end")]
        assert len(ends) == 10
        assert all(t.margin >= -t.budget for t in ends)
        # the end RHS really is 9 * integral u^2/t^4 dx
        sf = SpaceForm(6, 0.0)
        u = generate_batch(sf, BatchSpec(count=1, seed=5))[0]
        direct = side(sf, parse("9/t^4"), u, "usq").value
        assert ends[0].rhs == pytest.approx(direct, rel=1e-9)

    def test_potential_chain(self):
        entry = cat.iterated_log_potential(1, 1.0)
        chain = cat.chain_from_potential(entry, 6)
        rep = verify_chain(chain, SpaceForm(6, 0.0, 1.0), BatchSpec(count=6, seed=7))
        assert rep.verdict == "pass"
        assert any(s.target == "link-2-disconjugacy" and s.verdict == "nonnegative"
                   for s in rep.scans)

    def test_final_combined_chain(self):
        entry = cat.final_combined(5, 1.0)
        rep = verify_chain(entry.chain, SpaceForm(5, 1.0), BatchSpec(count=5, seed=9))
        assert rep.verdict == "pass"

    def test_link_mismatch_detected(self):
        import dataclasses

        e = cat.classical_euclidean(6)
        bad_links = (dataclasses.replace(e.chain.links[0], alpha=1.5),)
        bad = dataclasses.replace(e.chain, links=bad_links)
        with pytest.raises(ChainMismatchError, match="link-1"):
            verify_chain(bad, SpaceForm(6, 0.0), BatchSpec(count=1, seed=1))

    def test_spurious_link_among_many_is_named(self):
        import dataclasses

        e = cat.final_combined(5, 1.0)
        spurious = cat.ChainLink(alpha=1.0, spec=cat.hyperbolic_lower(5, 1.0, 1)
                                 .specs["primal"], label="link-x")
        bad = dataclasses.replace(e.chain, links=e.chain.links + (spurious,))
        with pytest.raises(ChainMismatchError, match="offending link: link-x"):
            verify_chain(bad, SpaceForm(5, 1.0), BatchSpec(count=1, seed=1))
