"""Contracts of the named pair/potential/chain families."""

import math

import numpy as np
import pytest

from rellich import catalog as cat
from rellich import pairs as pr
from rellich.expr import Const
from rellich.geometry import SpaceForm


def _residual_scan(spec, sf, **kwargs):
    return pr.scan_positivity(pr.residual_terms(spec), sf, bindings=spec.bindings(sf),
                              **kwargs)


class TestClassical:
    def test_chain_constants(self):
        e6 = cat.classical_euclidean(6)
        assert e6.chain.meta["end_to_end_constant"] == pytest.approx(9.0)
        e5 = cat.classical_euclidean(5)
        assert e5.chain.meta["intermediate_constant"] == pytest.approx(6.25)

    def test_degenerate_dimension_rejected(self):
        with pytest.raises(ValueError):
            cat.classical_euclidean(4)

    def test_equality_contracts_on_sample(self):
        for n in (5, 9):
            entry = cat.classical_euclidean(n)
            sf = SpaceForm(n, 0.0)
            for name in ("dual", "primal", "hardy"):
                rep = _residual_scan(entry.specs[name], sf, grid=100)
                assert rep.equality, name


class TestIterlog:
    def test_r_shift(self):
        assert cat.iterated_log_potential(1, 1.0).params["r"] == pytest.approx(math.e)
        assert cat.iterated_log_potential(2, 1.0).params["r"] == pytest.approx(
            math.exp(math.e))
        assert cat.iterated_log_potential(1, 2.0).params["r"] == pytest.approx(
            2.0 * math.e)

    def test_k1_pointwise_values(self):
        entry = cat.iterated_log_potential(1, 1.0)
        p = entry.specs["potential"]
        b = p.bindings(None, 1.0)
        assert p.expr("Z").evaluate(b) == pytest.approx(1.0, rel=1e-14)  # log e = 1
        assert p.expr("z").evaluate(b) == pytest.approx(1.0, rel=1e-14)

    def test_q_function_range(self):
        # q = t z'/z lies in (-1, 0); equals -1/(2 log(r/t)), so -1/2 at t = R
        entry = cat.iterated_log_potential(1, 1.0)
        q = entry.extras["q_expr"]
        b = dict(entry.specs["potential"].params)
        assert q.evaluate({**b, "t": 1.0}) == pytest.approx(-0.5, rel=1e-13)
        for k in (1, 2, 3):
            e = cat.iterated_log_potential(k, 1.0)
            qk = e.extras["q_expr"]
            bk = dict(e.specs["potential"].params)
            for tv in pr.log_grid(1e-6, 0.999, 200):
                val = qk.evaluate({**bk, "t": float(tv)})
                assert -1.0 < val < 0.0
                # q is t (log z)': cross-check against the derivative tree
                z = e.specs["potential"].expr("z")
                direct = tv * z.diff().evaluate({**bk, "t": float(tv)}) \
                    / z.evaluate({**bk, "t": float(tv)})
                assert val == pytest.approx(direct, rel=1e-10)

    def test_product_lower_bounds(self):
        for k in (2, 3):
            entry = cat.iterated_log_potential(k, 1.0)
            bounds = entry.extras["product_bounds"]
            assert bounds["full"] == 2.0 ** (k - 1)
            b = dict(entry.specs["potential"].params)
            r = b["r"]
            for tv in pr.log_grid(1e-6, 0.999, 50):
                logs = []
                x = r / tv
                for _ in range(k):
                    x = math.log(x)
                    logs.append(x)
                full = math.prod(logs)
                assert full >= bounds["full"]
                for j, bound in bounds["partial"].items():
                    assert math.prod(logs[:j]) >= bound

    def test_residual_contract_k3(self):
        entry = cat.iterated_log_potential(3, 1.0)
        p = entry.specs["potential"]
        r = pr.residual_expr(p)
        for tv in pr.log_grid(1e-6, 0.999, 20):
            got = r.evaluate(p.bindings(t=float(tv)))
            assert abs(got) <= 1e-9 * (1.0 + 1.0 / tv ** 2)

    def test_k_range(self):
        with pytest.raises(ValueError):
            cat.iterated_log_potential(0, 1.0)


class TestEllFamily:
    def test_ell_at_one(self):
        # l(1) = 1 and hence l_[i](1) = 1 for every i
        from rellich.catalog import _ell_iter_expr
        from rellich.expr import Var

        for i in (1, 2, 5):
            e = _ell_iter_expr(i, Var())
            assert e.evaluate({"t": 1.0}) == pytest.approx(1.0, rel=1e-14)

    def test_residual_contract(self):
        for k in (1, 3, 6):
            entry = cat.ell_potential(k, 1.0)
            p = entry.specs["potential"]
            r = pr.residual_expr(p)
            for tv in pr.log_grid(1e-5, 0.999, 30):
                got = r.evaluate(p.bindings(t=float(tv)))
                assert abs(got) <= 1e-9 * (1.0 + 1.0 / tv ** 2)

    def test_boundary_failure_for_deep_iteration(self):
        # k > n: positivity of E1 fails near t = R
        entry = cat.ell_potential(6, 1.0)
        dual = pr.from_bessel_potential(entry.specs["potential"], "iii", 5)
        sf = SpaceForm(5, 0.0, 1.0)
        rep = pr.scan_positivity(pr.e1_terms(dual), sf, grid=3000,
                                 t_lo=1e-5, t_hi=1.0, bindings=dual.bindings(sf))
        assert rep.verdict == "violated"


class TestHyperbolicInterpolation:
    def test_lambda_zero_closed_form(self):
        # H = n/(2t), V = n^2/(4t^2) + n(n-1)/2 (t ct - 1)/t^2
        n, kappa = 5, 1.0
        entry = cat.hyperbolic_interpolation(n, kappa, 0.0)
        sf = SpaceForm(n, kappa)
        d = entry.specs["dual"]
        for tv in (0.1, 1.0, 10.0):
            b = d.bindings(sf, tv)
            ctv = kappa / math.tanh(kappa * tv)
            want_H = n / (2 * tv)
            want_V = n * n / (4 * tv ** 2) + n * (n - 1) / 2.0 * (tv * ctv - 1) / tv ** 2
            assert d.expr("H").evaluate(b) == pytest.approx(want_H, rel=1e-12)
            assert d.expr("V").evaluate(b) == pytest.approx(want_V, rel=1e-12)

    def test_lambda_max_closed_form(self):
        # V = (n-1)^2 k^2/4 + 1/(4t^2) + (n^2-1) k^2/(4 sinh^2(k t))
        n, kappa = 5, 1.0
        lam = (n - 1) ** 2 / 4.0
        entry = cat.hyperbolic_interpolation(n, kappa, lam)
        assert entry.params["gamma"] == 0.0
        assert entry.params["h"] == 0.5
        sf = SpaceForm(n, kappa)
        d = entry.specs["dual"]
        for tv in (0.2, 1.0, 5.0):
            b = d.bindings(sf, tv)
            want = ((n - 1) ** 2 * kappa ** 2 / 4.0 + 1.0 / (4 * tv ** 2)
                    + (n * n - 1) * kappa ** 2 / (4 * math.sinh(kappa * tv) ** 2))
            assert d.expr("V").evaluate(b) == pytest.approx(want, rel=1e-12)

    def test_e1_closed_form(self):
        # E1 = k^2 (n/2 - h) + h ((n-3) t ct - 1)/t^2
        #      + k^2 (n-4)(n/2 - h) coth^2(k t)
        n, kappa, lam = 6, 0.5, 3.0
        entry = cat.hyperbolic_interpolation(n, kappa, lam)
        h = entry.params["h"]
        sf = SpaceForm(n, kappa)
        d = entry.specs["dual"]
        e1 = pr.e1_expr(d)
        for tv in (0.2, 1.0, 4.0, 20.0):
            ctv = kappa / math.tanh(kappa * tv)
            want = (kappa ** 2 * (n / 2.0 - h)
                    + h * ((n - 3) * tv * ctv - 1.0) / tv ** 2
                    + kappa ** 2 * (n - 4) * (n / 2.0 - h)
                    * (1.0 / math.tanh(kappa * tv)) ** 2)
            got = e1.evaluate(d.bindings(sf, tv))
            assert got == pytest.approx(want, rel=1e-11)

    def test_equality_and_e1_positive(self):
        n, kappa, lam = 5, 1.0, 1.0
        entry = cat.hyperbolic_interpolation(n, kappa, lam)
        assert entry.params["gamma"] == pytest.approx(math.sqrt(12.0))
        assert entry.params["h"] == pytest.approx((math.sqrt(12.0) + 1) / 2.0)
        sf = SpaceForm(n, kappa)
        d = entry.specs["dual"]
        r = pr.residual_expr(d)
        for tv in (0.1, 1.0, 10.0):
            got = r.evaluate(d.bindings(sf, tv))
            assert abs(got) <= 1e-9 * (1.0 + 1.0 / tv ** 2)
        rep = pr.scan_positivity(pr.e1_terms(entry.specs["dual"]), sf, grid=2000,
                                 t_lo=1e-4, t_hi=100.0,
                                 bindings=entry.specs["dual"].bindings(sf))
        assert rep.verdict == "nonnegative"
        assert rep.min > 0

    def test_flat_limit(self):
        # kappa -> 0+: V converges pointwise to the flat n^2/(4 t^2)
        n = 5
        entry = cat.hyperbolic_interpolation(n, 1e-6, 0.0)
        sf = SpaceForm(n, 1e-6)
        d = entry.specs["dual"]
        for tv in np.geomspace(0.1, 10.0, 13):
            got = d.expr("V").evaluate(d.bindings(sf, float(tv)))
            want = n * n / (4.0 * tv ** 2)
            assert abs(got - want) / want <= 1e-4

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            cat.hyperbolic_interpolation(4, 1.0, 0.0)
        with pytest.raises(ValueError):
            cat.hyperbolic_interpolation(5, 0.0, 0.0)
        with pytest.raises(ValueError):
            cat.hyperbolic_interpolation(5, 1.0, 4.1)  # > (n-1)^2/4 = 4


class TestHyperbolicLower:
    def test_equality_for_first_and_third(self):
        sf = SpaceForm(5, 1.0)
        for which in (1, 3):
            entry = cat.hyperbolic_lower(5, 1.0, which)
            rep = _residual_scan(entry.specs["primal"], sf, grid=200)
            assert rep.equality, which

    def test_third_coefficients(self):
        # W = 1/(4t^2) + (n-3)^2 k^2/4 + (n-3)(n-5) k^2/(4 sinh^2); the last
        # term dies at n = 5
        kappa = 1.0
        for n in (5, 7):
            entry = cat.hyperbolic_lower(n, kappa, 3)
            W = entry.specs["primal"].expr("W")
            sf = SpaceForm(n, kappa)
            for tv in (0.3, 2.0):
                want = (0.25 / tv ** 2 + (n - 3) ** 2 * kappa ** 2 / 4.0
                        + (n - 3) * (n - 5) * kappa ** 2
                        / (4.0 * math.sinh(kappa * tv) ** 2))
                got = W.evaluate(entry.specs["primal"].bindings(sf, tv))
                assert got == pytest.approx(want, rel=1e-13)

    def test_second_w_nonnegative_with_margin(self):
        # signed-W family: W >= 0 on a 1e4 grid over (1e-4, 20), and
        # t^2 W -> (n-4)^2/4 near zero
        n, kappa = 5, 1.0
        entry = cat.hyperbolic_lower(n, kappa, 2)
        p = entry.specs["primal"]
        sf = SpaceForm(n, kappa)
        ts = pr.log_grid(1e-4, 20.0, 10_000)
        vals = p.expr("W").evaluate(p.bindings(sf, ts))
        assert float(np.min(vals)) >= 0.0
        near0 = p.expr("W").evaluate(p.bindings(sf, 1e-6)) * 1e-12
        assert near0 == pytest.approx((n - 4) ** 2 / 4.0, abs=1e-6)

    def test_selector_validation(self):
        with pytest.raises(ValueError):
            cat.hyperbolic_lower(5, 1.0, 4)


class TestFinalCombined:
    def test_leading_coefficient(self):
        entry = cat.final_combined(5, 1.0)
        coeffs = entry.chain.meta["coefficients"]
        assert coeffs["usq"] == pytest.approx(16.0)      # (n-1)^4 k^4/16 at k=1
        assert coeffs["usq_over_sinh4"] == 0.0           # (n-5) factor
        assert coeffs["usq_over_t4"] == pytest.approx(9.0 / 16.0)
        assert coeffs["ct_usq_over_t3"] == pytest.approx(-1.0)  # -(n-1)/4

    def test_rhs_density_matches_closed_form(self):
        # mechanical composition vs the seven-term display
        n, kappa = 6, 0.7
        entry = cat.final_combined(n, kappa)
        chain = entry.chain
        coeffs = chain.meta["coefficients"]
        sf = SpaceForm(n, kappa)
        density = chain.rhs_density_expr()
        b = chain.dual.bindings(sf)
        for tv in np.geomspace(0.05, 20.0, 17):
            tv = float(tv)
            ctv = kappa / math.tanh(kappa * tv)
            sh2 = math.sinh(kappa * tv) ** 2
            want = (coeffs["usq"]
                    + coeffs["usq_over_t2"] / tv ** 2
                    + coeffs["usq_over_t2_sinh2"] / (tv ** 2 * sh2)
                    + coeffs["usq_over_sinh2"] / sh2
                    + coeffs["ct_usq_over_t3"] * ctv / tv ** 3
                    + coeffs["usq_over_sinh4"] / sh2 ** 2
                    + coeffs["usq_over_t4"] / tv ** 4)
            got = density.evaluate({**b, "t": tv})
            assert got == pytest.approx(want, rel=1e-12)

    def test_split_is_exact(self):
        entry = cat.final_combined(5, 1.0)
        sf = SpaceForm(5, 1.0)
        from rellich.verify import check_chain_composition

        check_chain_composition(entry.chain, sf)  # must not raise


class TestPotentialChain:
    def test_addon_constant_derivation(self):
        # c (n^2/4 + (n - lambda - 2)^2/4) with c = 1/4, lambda = 2:
        # 2.5 at n = 6, and the flat Rellich constant 9 rides along
        entry = cat.iterated_log_potential(1, 1.0)
        chain = cat.chain_from_potential(entry, 6)
        assert chain.meta["addon_constant"] == pytest.approx(2.5)
        assert chain.meta["rellich_constant"] == pytest.approx(9.0)
        chain5 = cat.chain_from_potential(entry, 5)
        assert chain5.meta["addon_constant"] == pytest.approx(
            0.25 * (25.0 / 4.0 + 0.25))

    def test_split_is_exact(self):
        entry = cat.iterated_log_potential(1, 1.0)
        chain = cat.chain_from_potential(entry, 6)
        from rellich.verify import check_chain_composition

        check_chain_composition(chain, SpaceForm(6, 0.0, 1.0))

    def test_links_are_primal_pairs(self):
        # link-2 is the second Bessel pair's primal pair (a/t, X, C Y/X), so
        # every link is certified by its residual; a Bessel pair is refused
        entry = cat.iterated_log_potential(1, 1.0)
        second = pr.bessel_pairs_from_potential(entry.specs["potential"], 2.0, 6)[1]
        links = cat.chain_from_potential(entry, 6).links
        assert [link.spec.kind for link in links] == ["primal", "primal"]
        assert links[1].spec.expr("w") is second.expr("X")
        assert str(links[1].spec.expr("W")) == str(
            Const(second.constant) * second.expr("Y") / second.expr("X"))
        with pytest.raises(ValueError, match="expected a primal spec, got bessel-pair"):
            cat.ChainLink(alpha=0.25, spec=second, label="link-2")


class TestRegistry:
    def test_all_ids_build(self):
        for entry_id in cat.CATALOG_IDS:
            entry = cat.build_entry(entry_id, n=5, kappa=1.0, lam=0.0, k=1, R=1.0)
            assert entry.id == entry_id
            assert entry.provenance

    def test_unknown_id(self):
        with pytest.raises(ValueError, match="unknown catalog id"):
            cat.build_entry("nope")
