"""Residuals, side conditions, transforms, Bessel machinery, scanning."""

import math
import operator
import os
import pathlib
import random
import subprocess
import sys
import warnings

import numpy as np
import pytest

import rellich
from rellich import catalog as cat
from rellich import expr as ex
from rellich import pairs as pr
from rellich.expr import Const, Param, Program, Unary, Var, parse
from rellich.geometry import SpaceForm
from rellich.pairs import PairSpec


def _t():
    return Var()


def _classical_dual(n):
    return cat.classical_euclidean(n).specs["dual"]


class TestRiccatiResidual:
    def test_hardy_equality(self):
        # G = (n-2)/(2t), w = 1, W = (n-2)^2/(4t^2): residual identically 0
        for n in (3, 5, 9):
            p = cat.classical_euclidean(max(n, 5)).specs["hardy"]
            t = _t()
            p = PairSpec(kind="primal", exprs={
                "G": Const((n - 2) / 2.0) / t, "w": Const(1.0),
                "W": Const((n - 2) ** 2 / 4.0) / (t * t)})
            sf = SpaceForm(n, 0.0)
            r = pr.residual_expr(p)
            for tv in (0.2, 1.0, 5.0, 40.0):
                assert r.evaluate(p.bindings(sf, tv)) == pytest.approx(0.0, abs=1e-12)

    def test_chained_primal_equality(self):
        # expansion oracle: -(n-4)/(2t^2) + (n-3)(n-4)/(2t^2) - (n-4)^2/(4t^2) = W
        n, tv = 6, 1.0
        p = cat.classical_euclidean(n).specs["primal"]
        sf = SpaceForm(n, 0.0)
        assert pr.residual_expr(p).evaluate(p.bindings(sf, tv)) == pytest.approx(
            0.0, abs=1e-12)
        expansion = (-(n - 4) / (2 * tv ** 2) + (n - 3) * (n - 4) / (2 * tv ** 2)
                     - (n - 4) ** 2 / (4 * tv ** 2))
        assert expansion == pytest.approx((n - 4) ** 2 / (4 * tv ** 2))

    def test_zero_case(self):
        p = PairSpec(kind="primal", exprs={"G": Const(0.0), "w": Const(1.0),
                                           "W": Const(0.0)})
        assert pr.residual_expr(p).evaluate(p.bindings(SpaceForm(4, 0.0), 2.0)) == 0.0


class TestDualResidual:
    def test_classical_equality(self):
        sf = SpaceForm(7, 0.0)
        p = _classical_dual(7)
        r = pr.residual_expr(p)
        for tv in (0.1, 2.0, 20.0):
            assert r.evaluate(p.bindings(sf, tv)) == pytest.approx(0.0, abs=1e-12)

    def test_zero_case(self):
        p = PairSpec(kind="dual", exprs={"H": Const(0.0), "v": Const(1.0),
                                         "V": Const(0.0)})
        assert pr.residual_expr(p).evaluate(p.bindings(SpaceForm(5, 0.0), 1.0)) == 0.0

    def test_interpolation_family_equality(self):
        entry = cat.hyperbolic_interpolation(5, 1.0, 1.0)
        sf = SpaceForm(5, 1.0)
        d = entry.specs["dual"]
        r = pr.residual_expr(d)
        for tv in (0.1, 1.0, 10.0):
            got = r.evaluate(d.bindings(sf, tv))
            assert abs(got) <= 1e-9 * (1.0 + 1.0 / tv ** 2)


class TestSideConditions:
    def test_e1_classical_closed_form(self):
        # E1 = n(n-4)/(2t^2) for the classical pair in flat space
        for n in (5, 8, 12):
            sf = SpaceForm(n, 0.0)
            p = _classical_dual(n)
            e1 = pr.e1_expr(p)
            for tv in (0.3, 1.0, 4.0):
                assert e1.evaluate(p.bindings(sf, tv)) == pytest.approx(
                    n * (n - 4) / (2 * tv ** 2), rel=1e-12)
        p = _classical_dual(5)
        assert pr.e1_expr(p).evaluate(p.bindings(SpaceForm(5, 0.0), 1.0)) == pytest.approx(2.5)

    def test_e1_degenerate_dimension(self):
        # n = 4 kills the factor; build the n = 4 analog directly
        t = _t()
        p = PairSpec(kind="dual", exprs={"H": Const(2.0) / t, "v": Const(1.0),
                                         "V": Const(4.0) / (t * t)})
        sf = SpaceForm(4, 0.0)
        e1 = pr.e1_expr(p)
        for tv in (0.5, 1.0, 3.0):
            assert e1.evaluate(p.bindings(sf, tv)) == pytest.approx(0.0, abs=1e-13)

    def test_e2_classical_closed_form(self):
        # E2 = n(n-8)/(4t^2); zero at n = 8, negative below
        def e2(n, tv):
            p = _classical_dual(n)
            return pr.e2_expr(p).evaluate(p.bindings(SpaceForm(n, 0.0), tv))

        for tv in (0.4, 1.0, 7.0):
            assert e2(8, tv) == pytest.approx(0.0, abs=1e-12)
        assert e2(9, 2.0) == pytest.approx(0.5625, rel=1e-12)
        assert e2(5, 1.0) == pytest.approx(-3.75, rel=1e-12)

    def test_e1_interpolation_value(self):
        # lambda = 0: E1 = (n/2)((n-3) t ct(t) - 1)/t^2
        entry = cat.hyperbolic_interpolation(5, 1.0, 0.0)
        sf = SpaceForm(5, 1.0)
        d = entry.specs["dual"]
        got = pr.e1_expr(d).evaluate(d.bindings(sf, 1.0))
        want = 2.5 * (2.0 * math.cosh(1.0) / math.sinh(1.0) - 1.0)
        assert got == pytest.approx(want, rel=1e-12)
        assert got == pytest.approx(4.065, abs=5e-4)

    def test_flat_reduction_matches_simple_forms(self):
        # with v = 1 and kappa = 0: e1 = H' + H(n-3)/t, e2 = 2H' + H(H - 2/t)
        t = _t()
        H = Const(3.0) / t + t / Const(5.0) + Unary("tanh", t)
        p = PairSpec(kind="dual", exprs={"H": H, "v": Const(1.0), "V": Const(0.0)})
        dH = H.diff()
        e1, e2 = pr.e1_expr(p), pr.e2_expr(p)
        rng = np.random.default_rng(3)
        for n in (5, 7, 11):
            sf = SpaceForm(n, 0.0)
            for tv in rng.uniform(0.2, 8.0, size=12):
                tv = float(tv)
                b = {"n": float(n), "kappa": 0.0, "t": tv}
                hv, dhv = H.evaluate(b), dH.evaluate(b)
                want1 = dhv + hv * (n - 3) / tv
                want2 = 2 * dhv + hv * (hv - 2.0 / tv)
                assert e1.evaluate(p.bindings(sf, tv)) == pytest.approx(
                    want1, rel=1e-12, abs=1e-12)
                assert e2.evaluate(p.bindings(sf, tv)) == pytest.approx(
                    want2, rel=1e-12, abs=1e-12)


def _random_primal(rng):
    t = _t()
    c = [rng.uniform(-2.0, 2.0) for _ in range(5)]
    G = Const(c[0]) / t + Const(c[1]) + Const(c[2]) * Unary("tanh", t)
    w = (t ** Const(rng.uniform(-2.0, 2.0))) * Unary("exp", Const(c[3] / 4.0) * t)
    W = Const(c[4]) / (t * t)
    return PairSpec(kind="primal", exprs={"G": G, "w": w, "W": W},
                    allow_signed_W=True)


class TestTransforms:
    def test_hardy_to_classical_dual_exact(self):
        for n in (5, 6, 9):
            sf = SpaceForm(n, 0.0)
            d = pr.primal_to_dual(cat.classical_euclidean(n).specs["hardy"], sf)
            for tv in (0.3, 1.0, 5.0):
                b = d.bindings(sf, tv)
                assert d.expr("H").evaluate(b) == pytest.approx(
                    n / (2 * tv), rel=1e-12)
                assert d.expr("V").evaluate(b) == pytest.approx(
                    n * n / (4 * tv ** 2), rel=1e-12)

    def test_roundtrip_pointwise(self):
        rng = random.Random(99)
        sf = SpaceForm(5, 1.0)
        p = _random_primal(rng)
        q = pr.dual_to_primal(pr.primal_to_dual(p, sf), sf)
        for _ in range(20):
            tv = math.exp(rng.uniform(math.log(0.1), math.log(10.0)))
            b = {"n": 5.0, "kappa": 1.0, "t": tv}
            for role in ("G", "w", "W"):
                want = p.expr(role).evaluate(b)
                got = q.expr(role).evaluate(b)
                assert got == pytest.approx(want, rel=1e-9, abs=1e-9)

    def test_residual_equality_property(self):
        # the change of functions is an exact identity between the residuals
        rng = random.Random(20260809)
        for trial in range(50):
            kappa = rng.choice([0.0, 0.5, 1.0])
            n = rng.choice([3, 5, 8])
            sf = SpaceForm(n, kappa)
            p = _random_primal(rng)
            d = pr.primal_to_dual(p, sf)
            rp, rd = pr.residual_expr(p), pr.residual_expr(d)
            for _ in range(50):
                tv = math.exp(rng.uniform(math.log(0.1), math.log(10.0)))
                a = rp.evaluate(p.bindings(sf, tv))
                b = rd.evaluate(d.bindings(sf, tv))
                assert b == pytest.approx(a, rel=1e-9, abs=1e-9)

    def test_g_equals_l_gives_h_zero(self):
        sf = SpaceForm(6, 0.0)
        t = _t()
        G = (Param("n") - 1.0) * Unary("ct", t)
        p = PairSpec(kind="primal", exprs={"G": G, "w": Const(1.0), "W": Const(0.0)},
                     allow_signed_W=True)
        d = pr.primal_to_dual(p, sf)
        rp, rd = pr.residual_expr(p), pr.residual_expr(d)
        for tv in (0.5, 2.0):
            assert d.expr("H").evaluate(d.bindings(sf, tv)) == pytest.approx(0.0, abs=1e-13)
            assert rd.evaluate(d.bindings(sf, tv)) == pytest.approx(
                rp.evaluate(p.bindings(sf, tv)), rel=1e-12)


class TestBesselPotential:
    def test_log_potential_closed_form(self):
        # Z = 1/(t^2 log^2(r/t)), z = sqrt(log(r/t)), c = 1/4, r = e
        p = PairSpec(
            kind="bessel-potential",
            exprs={"z": parse("sqrt(logk(1, r/t))"),
                   "Z": parse("1/(t^2*logk(1, r/t)^2)")},
            constant=0.25, params={"r": math.e, "R": 1.0})
        assert pr.residual_expr(p).evaluate(p.bindings(t=0.5)) == pytest.approx(
            0.0, abs=1e-12)

    def test_trivial_potential(self):
        p = PairSpec(kind="bessel-potential",
                     exprs={"z": Const(1.0), "Z": Const(0.0)}, constant=3.0)
        assert pr.residual_expr(p).evaluate(p.bindings(t=1.7)) == 0.0

    def test_catalog_iterated_depth2(self):
        p = cat.iterated_log_potential(2, 1.0).specs["potential"]
        r = pr.residual_expr(p)
        for tv in pr.log_grid(1e-4, 0.99, 10):
            got = r.evaluate(p.bindings(t=float(tv)))
            assert abs(got) <= 1e-9 * (1.0 + 1.0 / tv ** 2)


class TestBesselPair:
    def test_pair_from_potential(self):
        # X = 1, Y = (n-2)^2/(4t^2) + cZ, y = z t^((2-n)/2)
        n = 6
        pot = cat.iterated_log_potential(1, 1.0).specs["potential"]
        pair = pr.from_bessel_potential(pot, "i", n)
        r = pr.residual_expr(pair)
        for tv in (0.05, 0.3, 0.9):
            assert r.evaluate(pair.bindings(t=tv, n=n)) == pytest.approx(
                0.0, abs=1e-10 * (1 + 1 / tv ** 2))

    def test_trivial_pair(self):
        p = PairSpec(kind="bessel-pair",
                     exprs={"y": Const(1.0), "X": Const(2.0), "Y": Const(0.0)})
        assert pr.residual_expr(p).evaluate(p.bindings(t=0.7, n=5)) == 0.0

    def test_derived_first_pair_residual(self):
        n = 5
        pot = cat.iterated_log_potential(1, 1.0).specs["potential"]
        first, _ = pr.bessel_pairs_from_potential(pot, 2.0, n)
        r = pr.residual_expr(first)
        for tv in pr.log_grid(1e-3, 0.99, 20):
            scale = 1.0 + 1.0 / tv ** 4
            assert abs(r.evaluate(first.bindings(t=float(tv), n=n))) <= 1e-10 * scale

    def test_pair_without_y_rejects_residual(self):
        pot = cat.iterated_log_potential(1, 1.0).specs["potential"]
        _, second = pr.bessel_pairs_from_potential(pot, 2.0, 6)
        with pytest.raises(ValueError, match="disconjugacy"):
            pr.residual_expr(second)


class TestPotentialConstructions:
    @pytest.fixture
    def potential(self):
        return cat.iterated_log_potential(1, 1.0).specs["potential"]

    def test_variant_ii_trivial_gives_hardy(self):
        triv = PairSpec(kind="bessel-potential",
                        exprs={"z": Const(1.0), "Z": Const(0.0)},
                        constant=0.25, params={"R": 1.0})
        n = 7
        p = pr.from_bessel_potential(triv, "ii", n)
        sf = SpaceForm(n, 0.0)
        for tv in (0.2, 0.8):
            b = p.bindings(sf, tv)
            assert p.expr("G").evaluate(b) == pytest.approx((n - 2) / (2 * tv), rel=1e-13)
            assert p.expr("W").evaluate(b) == pytest.approx(
                (n - 2) ** 2 / (4 * tv ** 2), rel=1e-13)

    def test_variant_iii_dual_residual(self, potential):
        n = 5
        d = pr.from_bessel_potential(potential, "iii", n)
        sf = SpaceForm(n, 0.0, 1.0)
        r = pr.residual_expr(d)
        for tv in pr.log_grid(1e-3, 0.99, 25):
            got = r.evaluate(d.bindings(sf, float(tv)))
            assert abs(got) <= 1e-10 * (1.0 + 1.0 / tv ** 2)

    def test_variant_ii_primal_residual(self, potential):
        n = 5
        p = pr.from_bessel_potential(potential, "ii", n)
        sf = SpaceForm(n, 0.0, 1.0)
        r = pr.residual_expr(p)
        for tv in pr.log_grid(1e-3, 0.99, 25):
            got = r.evaluate(p.bindings(sf, float(tv)))
            assert abs(got) <= 1e-10 * (1.0 + 1.0 / tv ** 2)

    def test_closure_ii_then_dualize_is_iii(self, potential):
        n = 6
        sf = SpaceForm(n, 0.0, 1.0)
        via_ii = pr.primal_to_dual(pr.from_bessel_potential(potential, "ii", n), sf)
        direct = pr.from_bessel_potential(potential, "iii", n)
        for tv in pr.log_grid(1e-3, 0.99, 30):
            b = {"n": float(n), "kappa": 0.0, "r": math.e, "R": 1.0, "t": float(tv)}
            for role in ("H", "V"):
                want = direct.expr(role).evaluate(b)
                got = via_ii.expr(role).evaluate(b)
                assert got == pytest.approx(want, rel=1e-10, abs=1e-10)

    def test_variant_iv_primal_residual(self, potential):
        n = 5
        pair = pr.from_bessel_potential(potential, "i", n)
        primal = pr.from_bessel_pair(pair, n)
        sf = SpaceForm(n, 0.0, 1.0)
        r = pr.residual_expr(primal)
        for tv in pr.log_grid(1e-3, 0.99, 20):
            got = r.evaluate(primal.bindings(sf, float(tv)))
            assert abs(got) <= 1e-9 * (1.0 + 1.0 / tv ** 2)

    def test_unverified_input_rejected(self):
        bogus = PairSpec(kind="bessel-potential",
                         exprs={"z": Const(1.0), "Z": parse("1/t^2")},
                         constant=0.25, params={"R": 1.0})
        with pytest.raises(ValueError, match="not verified"):
            pr.from_bessel_potential(bogus, "iii", 5)

    def test_infinite_terms_rejected_without_warnings(self):
        # z = exp(1/t^2) overflows on the check grid: inf - inf in the sum
        bogus = PairSpec(kind="bessel-potential",
                         exprs={"z": parse("exp(1/t^2)"), "Z": parse("1/t^2")},
                         constant=0.25, params={"R": 1.0})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="not verified"):
                pr.from_bessel_potential(bogus, "iii", 5)

    def test_bad_variant(self, potential):
        with pytest.raises(ValueError):
            pr.from_bessel_potential(potential, "v", 5)


class TestDerivedBesselPairs:
    def test_second_pair_potential_at_n6(self):
        # (n - lambda - 2)^2 Z / (4 t^2) = Z / t^2 at n = 6, lambda = 2
        pot = cat.iterated_log_potential(1, 1.0).specs["potential"]
        _, second = pr.bessel_pairs_from_potential(pot, 2.0, 6)
        for tv in (0.2, 0.7):
            b = second.bindings(None, tv)
            Z = pot.expr("Z").evaluate(b)
            assert second.expr("Y").evaluate(b) == pytest.approx(Z / tv ** 2, rel=1e-13)

    def test_constant_vanishes_at_lambda_limit(self):
        pot = cat.iterated_log_potential(1, 1.0).specs["potential"]
        n = 6
        for eps in (0.5, 0.1, 0.01):
            _, second = pr.bessel_pairs_from_potential(pot, n - 2 - eps, n)
            b = second.bindings(None, 0.5)
            Z = pot.expr("Z").evaluate(b)
            ratio = second.expr("Y").evaluate(b) / (Z / 0.25)
            assert ratio == pytest.approx(eps ** 2 / 4.0 * 0.25 / 0.25, rel=1e-10)

    def test_lambda_range_enforced(self):
        pot = cat.iterated_log_potential(1, 1.0).specs["potential"]
        with pytest.raises(ValueError):
            pr.bessel_pairs_from_potential(pot, 4.0, 6)

    @pytest.mark.parametrize("lam,raises", [
        (0.0, {1, 2, 3}), (1.9, {3}), (2.0, set()), (2.5, set())])
    def test_spot_check_decisions(self, lam, raises):
        # f = Z'/Z + lambda/t on the iterlog potentials, whose Z'/Z is
        # -2/t + (a nonnegative remainder): lambda >= 2 always passes
        for k in (1, 2, 3):
            pot = cat.iterated_log_potential(k, 1.0).specs["potential"]
            if k in raises:
                with pytest.raises(ValueError, match="f >= 0 fails on spot check"):
                    pr.bessel_pairs_from_potential(pot, lam, 6)
            else:
                pr.bessel_pairs_from_potential(pot, lam, 6)


@pytest.fixture(scope="module")
def _iterlog_pot():
    return cat.iterated_log_potential(1, 1.0).specs["potential"]


class TestDisconjugacy:
    @pytest.fixture
    def potential(self, _iterlog_pot):
        return _iterlog_pot

    def test_best_constant_positive(self, potential):
        rep = pr.disconjugacy_check(potential)
        assert rep.positive_solution is True
        assert rep.first_zero is None
        assert rep.status == "ok"

    def test_supercritical_oscillates(self, potential):
        rep = pr.disconjugacy_check(potential.with_constant(0.3))
        assert rep.positive_solution is False
        assert rep.first_zero is not None
        # closed-form oracle: in u = log(r/t) the equation is exactly Euler,
        # z ~ u^(1/2) cos(beta ln u + phase) with beta = sqrt(4c-1)/2; the
        # principal-data start pins the phase and hence the first zero
        beta = math.sqrt(4 * 0.3 - 1.0) / 2.0
        u0 = 1.0 + 2.0e6
        phase = math.atan(1.0 / (2.0 * beta))
        ln_uz = math.log(u0) - (phase + math.pi / 2.0) / beta
        t_oracle = math.exp(1.0 - math.exp(ln_uz))
        assert rep.first_zero == pytest.approx(t_oracle, rel=1e-3)

    def test_zero_potential_constant_solution(self):
        p = PairSpec(kind="bessel-potential",
                     exprs={"z": Const(1.0), "Z": Const(0.0)},
                     constant=5.0, params={"R": 1.0})
        rep = pr.disconjugacy_check(p)
        assert rep.positive_solution is True

    def test_explicit_interval(self, potential):
        rep = pr.disconjugacy_check(potential.with_constant(0.3),
                                    interval=(1e-6, 0.999))
        # inside float range the super-critical oscillation is not yet visible
        assert rep.positive_solution is True

    def test_derived_second_pair_positive(self, potential):
        _, second = pr.bessel_pairs_from_potential(potential, 2.0, 6)
        rep = pr.disconjugacy_check(second, n=6)
        assert rep.positive_solution is True

    def test_no_mpmath_import(self):
        # a deep-start Bessel potential and a chain with a Bessel-pair link,
        # in a fresh interpreter, run without mpmath; no source file names it
        src = pathlib.Path(rellich.__file__).parent
        code = (
            "import sys, contextlib, io\n"
            "from rellich import cli\n"
            "for argv in ('solve-bessel --catalog ell-family --k 3 --R 1 --c 0.3',\n"
            "             'chain --catalog iterlog --k 1 --n 6 --R 1'):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        print(argv.split()[0], cli.main(argv.split()), file=sys.stderr)\n"
            "assert 'mpmath' not in sys.modules, 'mpmath was imported'\n")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120, env={**os.environ, "PYTHONPATH": str(src.parent)})
        assert done.returncode == 0, done.stderr
        assert done.stderr.split() == ["solve-bessel", "1", "chain", "0"]
        assert [f.name for f in src.glob("*.py") if "mpmath" in f.read_text()] == []

    def test_start_below_float_range_falls_back_per_point(self, monkeypatch):
        # t0 = 1e-200 lies below e^-120: the points there run on ExtFloat,
        # the rest of the interval in float, with the steps and verdict of a
        # run wholly on mpmath
        p = cat.iterated_log_potential(2, 1.0).specs["potential"]
        kinds = set()
        evaluate = Program.evaluate

        def counted(self, bindings):
            kinds.add(type(bindings["t"]).__name__)
            return evaluate(self, bindings)

        monkeypatch.setattr(Program, "evaluate", counted)
        rep = pr.disconjugacy_check(p, interval=(1e-200, 0.999))
        assert kinds == {"float", "ExtFloat"}
        assert rep.positive_solution is True and rep.status == "ok"
        assert rep.steps == 80

    def test_step_budget_exhaustion_is_inconclusive(self, potential):
        rep = pr.disconjugacy_check(potential, max_steps=3)
        assert rep.status == "inconclusive"
        assert rep.positive_solution is False
        assert rep.first_zero is None

    @pytest.mark.parametrize("end", [math.inf, math.nan])
    def test_non_finite_interval_end_is_rejected(self, potential, end):
        # an infinite end gives an infinite end tolerance: the step loop would
        # not run, and a positive solution would stand for no integration
        with pytest.raises(ValueError, match="interval"):
            pr.disconjugacy_check(potential.with_constant(0.3), interval=(0.1, end))

    @pytest.mark.parametrize("which", ["potential", "pair"])
    def test_one_coefficient_run_per_point(self, potential, monkeypatch, which):
        # a step of step-doubling RK4 meets about 5 distinct s values; each
        # needs one run of the coefficient program, not one per stage and
        # coefficient (24 per step)
        if which == "potential":
            p, n = potential.with_constant(0.3), None      # deep start
        else:
            p, n = pr.bessel_pairs_from_potential(potential, 2.0, 6)[1], 6   # float
        runs = []
        evaluate = Program.evaluate

        def counted(self, bindings):
            runs.append(bindings["t"])
            return evaluate(self, bindings)

        monkeypatch.setattr(Program, "evaluate", counted)
        rep = pr.disconjugacy_check(p, n=n)
        assert rep.steps > 100
        assert len(runs) <= 6 * rep.steps


def _mp_walk(e, b):
    """e at the bindings b by a walk of its tree on mpmath numbers."""
    import mpmath

    if isinstance(e, Const):
        return mpmath.mpf(e.value)
    if isinstance(e, (Var, Param)):
        return mpmath.mpf(b["t" if isinstance(e, Var) else e.name])
    if isinstance(e, Unary):
        x = _mp_walk(e.child, b)
        return -x if e.op == "neg" else getattr(mpmath, e.op)(x)
    ops = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv,
           "^": operator.pow}
    return ops[e.op](_mp_walk(e.left, b), _mp_walk(e.right, b))


# steps at the default c and at c = 0.3, and the first zero at c = 0.3, of
# each potential at R = 1 and R = 0.9 (the deep start).  The R = 1 zeros were
# read from the run whose state was mpmath throughout, the R = 0.9 ones from
# the float-state run on 25-digit mpmath coefficients: the ExtFloat
# coefficients keep every step count, and the zero within the bisection
# tolerance 1e-9 max(1, |log t|)
_DEEP_RUNS = {
    ("iterlog", 1, 1.0): (209, 187, -9.378285435152735),
    ("iterlog", 2, 1.0): (200, 181, -15.147431238128739),
    ("iterlog", 3, 1.0): (173, 183, -4.923012283394908),
    ("ell-family", 1, 1.0): (209, 187, -9.378285435152733),
    ("ell-family", 2, 1.0): (214, 182, -15.025018794938854),
    ("ell-family", 3, 1.0): (217, 183, -15.664370439149423),
    ("iterlog", 1, 0.9): (209, 187, -9.483645951585114),
    ("iterlog", 2, 0.9): (200, 181, -15.252791749667814),
    ("iterlog", 3, 0.9): (173, 183, -5.028372798217399),
    ("ell-family", 1, 0.9): (209, 187, -9.483645951585114),
    ("ell-family", 2, 0.9): (214, 182, -15.13037930876582),
    ("ell-family", 3, 0.9): (217, 183, -15.769730959637819),
}


class TestDeepDisconjugacy:
    @pytest.mark.parametrize("family,k,R", sorted(_DEEP_RUNS))
    def test_steps_and_first_zero_are_kept(self, family, k, R):
        steps, steps_super, log_zero = _DEEP_RUNS[family, k, R]
        build = cat.iterated_log_potential if family == "iterlog" else cat.ell_potential
        potential = build(k, R).specs["potential"]
        rep = pr.disconjugacy_check(potential)
        assert rep.positive_solution is True and rep.steps == steps
        rep = pr.disconjugacy_check(potential.with_constant(0.3))
        assert rep.positive_solution is False and rep.steps == steps_super
        assert abs(rep.log_t_first_zero - log_zero) <= 1e-9 * max(1.0, abs(log_zero))

    def test_cancelling_potential_at_the_deep_start(self):
        # the iterlog k = 1 potential 1/(t log(e/t))^2, and the same written
        # so that its terms cancel: at t = e^(-2e6) the sum 1/t^2 + 1/(t
        # log(e/t))^2 holds the second term, 2.5e-13 of the first, to about
        # 3 digits.  Against a 50-digit mpmath walk of the same tree, b(s) is
        # within 8 eps of it in the plain form, and within eps times the
        # condition number sum|terms|/|Z| = 1 + 2 log(e/t)^2 in the
        # cancelling one
        import mpmath

        eps = 2.0 ** -53
        plain, cancelling = [PairSpec(kind="bessel-potential",
                                      exprs={"z": Var(), "Z": parse(src)},
                                      constant=0.3, params={"R": 1.0})
                             for src in ("1/(t*log(e/t))^2", "1/t^2 + 1/(t*log(e/t))^2 - 1/t^2")]
        for p, cond in ((plain, lambda s: 8.0), (cancelling, lambda s: 1 + 2 * (1 - s) ** 2)):
            _, b = pr._sspace_coefficients(p, None)
            for s in (-2e6, -1e5, -3000.5, -130.0):
                got = float(b.evaluate({**p.bindings(), "t": ex.ext_exp(s)}))
                with mpmath.workdps(50):
                    want = _mp_walk(b, {**p.bindings(), "t": mpmath.exp(mpmath.mpf(s))})
                    assert abs(got - want) <= eps * cond(s) * abs(want)
        # the verdicts hold.  A 25-digit run took 209 and 187 steps, as the
        # plain form does; the cancellation noise in b (4.5e-5 relative at
        # the start) costs step-doubling control some rejected steps
        rep = pr.disconjugacy_check(cancelling.with_constant(0.25))
        assert rep.positive_solution is True and rep.steps == 247
        rep = pr.disconjugacy_check(cancelling)
        assert rep.positive_solution is False and rep.steps == 225
        assert abs(rep.log_t_first_zero - _DEEP_RUNS["iterlog", 1, 1.0][2]) <= 1e-5

    def test_zero_below_float_range_is_reported(self):
        # z'' + z'/t + c z/t^2 = 0 is z_ss + c z = 0 in s = log t: from the
        # principal data at s0 = -2e6 the first zero is s0 + pi/(2 sqrt(c)),
        # far below float range, so first_zero reads 0 and log t carries it
        p = PairSpec(kind="bessel-potential", exprs={"z": Var(), "Z": parse("1/t^2")},
                     constant=0.3, params={"R": 1.0})
        rep = pr.disconjugacy_check(p)
        assert rep.positive_solution is False and rep.first_zero == 0.0
        assert rep.steps == 29
        tol = 1e-9 * 2e6
        assert abs(rep.log_t_first_zero - -1999997.13274638) <= tol
        assert abs(rep.log_t_first_zero - (-2e6 + math.pi / (2 * math.sqrt(0.3)))) <= tol


def _one_pair_of_each_kind():
    pot = cat.iterated_log_potential(1, 1.0).specs["potential"]
    first, second = pr.bessel_pairs_from_potential(pot, 2.0, 6)
    return [cat.hyperbolic_lower(5, 1.0, 2).specs["primal"], _classical_dual(6), pot,
            first, second]


class TestConditionTerms:
    @pytest.mark.parametrize("p", _one_pair_of_each_kind(),
                             ids=["primal", "dual", "potential", "pair", "pair-without-y"])
    def test_every_name(self, p):
        for role, e in p.exprs.items():
            assert pr.condition_terms(p, role) == [e]
        if p.kind == "bessel-pair" and "y" not in p.exprs:
            with pytest.raises(ValueError, match="disconjugacy"):
                pr.condition_terms(p, "residual")
        else:
            assert _texts(pr.condition_terms(p, "residual")) == _texts(pr.residual_terms(p))
        for name, terms in (("E1", pr.e1_terms), ("E2", pr.e2_terms)):
            if p.kind == "dual":
                assert _texts(pr.condition_terms(p, name)) == _texts(terms(p))
            else:
                with pytest.raises(ValueError, match=f"no condition '{name}'"):
                    pr.condition_terms(p, name)
        with pytest.raises(ValueError, match="no condition 'Q'"):
            pr.condition_terms(p, "Q")


def _texts(terms):
    return [str(term) for term in terms]


class TestScanPositivity:
    def test_classical_e1_nonnegative(self):
        n = 5
        sf = SpaceForm(n, 0.0, 10.0)
        rep = pr.scan_positivity(pr.e1_terms(_classical_dual(n)), sf,
                                 grid=2000, t_lo=1e-5, t_hi=10.0)
        assert rep.verdict == "nonnegative"
        assert rep.min > 0
        assert rep.argmin == pytest.approx(10.0, rel=1e-6)  # decreasing in t

    def test_zero_function(self):
        rep = pr.scan_positivity([Const(0.0)], SpaceForm(5, 0.0, 1.0), grid=100)
        assert rep.verdict == "nonnegative"
        assert rep.min == 0.0

    def test_ell_family_failure_mode(self):
        # n = 5, k = 6: E1 goes negative near t = R with a genuine sign change
        n, k = 5, 6
        entry = cat.ell_potential(k, 1.0)
        dual = pr.from_bessel_potential(entry.specs["potential"], "iii", n)
        sf = SpaceForm(n, 0.0, 1.0)
        rep = pr.scan_positivity(pr.e1_terms(dual), sf, grid=4000,
                                 t_lo=1e-5, t_hi=1.0, bindings=dual.bindings(sf))
        assert rep.verdict == "violated"
        assert len(rep.sign_changes) >= 1
        t1, t2 = rep.sign_changes[0]
        e1 = pr.e1_expr(dual)
        fn = lambda tv: e1.evaluate(dual.bindings(sf, tv))
        assert fn(t1) * fn(t2) < 0

        # boundary limit: algebraic oracle via the potential equation,
        # E1 t^2 -> -q^2 + (n-4) q + n(n-4)/2 - t^2 Z/4 with q(R) = -k/2
        # and R^2 Z(R) = k; double-checked by direct evaluation near R
        q, z2 = -k / 2.0, float(k)
        oracle = -q * q + (n - 4) * q + n * (n - 4) / 2.0 - z2 / 4.0
        assert rep.boundary_limit_R == pytest.approx(oracle, abs=1e-3)
        assert fn(1.0 - 1e-7) == pytest.approx(oracle, abs=1e-4)

    def test_ell_family_small_depth_nonnegative_near_boundary(self):
        # k = 1: E1 stays positive near R (limit 3/2 by the same oracle)
        n, k = 5, 1
        entry = cat.ell_potential(k, 1.0)
        dual = pr.from_bessel_potential(entry.specs["potential"], "iii", n)
        sf = SpaceForm(n, 0.0, 1.0)
        rep = pr.scan_positivity(pr.e1_terms(dual), sf, grid=4000,
                                 t_lo=0.5, t_hi=1.0, bindings=dual.bindings(sf))
        assert rep.verdict == "nonnegative"
        oracle = (-0.25 - (n - 4) / 2.0 + n * (n - 4) / 2.0 - 0.25)
        assert rep.boundary_limit_R == pytest.approx(oracle, abs=1e-3)

    def test_violated_requires_negative_sample(self):
        # a function dipping just below zero inside the range
        f = parse("(t-2)^2 - 0.01")
        rep = pr.scan_positivity([f], SpaceForm(3, 0.0, 4.0), grid=3000,
                                 t_lo=0.5, t_hi=4.0)
        assert rep.verdict == "violated"
        assert rep.min < 0
        assert len(rep.sign_changes) == 2

    def test_inf_minus_inf_is_undecided(self):
        # both terms overflow for t < 1000/709.78, where their sum is NaN
        big = parse("exp(1000/t)")
        rep = pr.scan_positivity([big, -big], SpaceForm(3, 0.0, 4.0), grid=100,
                                 t_lo=1.0, t_hi=4.0)
        assert rep.verdict == "inconclusive"
        assert not rep.equality

    def test_divergent_boundary_reported_infinite(self):
        rep = pr.scan_positivity([parse("1/t^2")], SpaceForm(3, 0.0, 2.0),
                                 grid=500, t_lo=1e-4, t_hi=1.9)
        assert rep.boundary_limit_0 == math.inf


class TestPolynomialRoots:
    def test_n5_exact(self):
        q = pr.positivity_polynomial_roots(5)
        assert q.q_minus == pytest.approx(-1.0, abs=1e-14)
        assert q.q_plus == pytest.approx(2.0, abs=1e-14)

    def test_n6_values(self):
        q = pr.positivity_polynomial_roots(6)
        assert q.q_minus == pytest.approx((2.0 - math.sqrt(26.0)) / 2.0, rel=1e-14)
        assert q.q_plus == pytest.approx((2.0 + math.sqrt(26.0)) / 2.0, rel=1e-14)
        assert q.q_minus == pytest.approx(-1.5495, abs=1e-4)
        assert q.q_plus == pytest.approx(3.5495, abs=1e-4)

    def test_criterion_for_all_small_n(self):
        for n in range(5, 51):
            assert pr.polynomial_criterion_holds(n)
            # the polynomial itself is nonnegative on (-1, 0)
            for q in np.linspace(-0.999, -0.001, 31):
                val = -q * q + (n - 4) * q + (n * n - 4 * n - 1) / 2.0
                assert val >= 0

    def test_n_below_range(self):
        with pytest.raises(ValueError):
            pr.positivity_polynomial_roots(4)


class TestResidualReport:
    def test_equality_flags(self):
        e = cat.classical_euclidean(6)
        dual, sf = e.specs["dual"], SpaceForm(6, 0.0)
        rep = pr.scan_positivity(pr.residual_terms(dual), sf, bindings=dual.bindings(sf))
        assert rep.equality and rep.verdict == "nonnegative"
        assert rep.max_abs_relative <= 1e-9

    def test_signed_w_spec_carries_flag(self):
        p = cat.hyperbolic_lower(5, 1.0, 2).specs["primal"]
        assert p.allow_signed_W


class TestCatalogExpressionFdProperty:
    def test_fd_check_on_all_shipped_expressions(self):
        """Every expression in every catalog entry passes the finite-difference
        self check at 20 random points of its domain."""
        from rellich.expr import DomainError, fd_check

        rng = random.Random(17)
        entries = [
            cat.classical_euclidean(5), cat.classical_euclidean(9),
            cat.iterated_log_potential(1, 1.0), cat.iterated_log_potential(3, 1.0),
            cat.ell_potential(2, 1.0),
            cat.hyperbolic_interpolation(5, 1.0, 1.0),
            cat.hyperbolic_lower(5, 1.0, 1), cat.hyperbolic_lower(5, 1.0, 2),
            cat.hyperbolic_lower(6, 0.5, 3),
            cat.final_combined(5, 1.0),
        ]
        checked = 0
        for entry in entries:
            hi = min(entry.space_form.R * 0.95, 10.0)
            for spec in entry.specs.values():
                binds = spec.bindings(entry.space_form)
                for e in spec.exprs.values():
                    d = e.diff("t")
                    for _ in range(20):
                        tv = math.exp(rng.uniform(math.log(0.1), math.log(hi)))
                        b = {**binds, "t": tv}
                        try:
                            sym = d.evaluate(b)
                            disc = fd_check(e, b, h=1e-6)
                        except DomainError:
                            continue
                        assert disc <= 1e-5 * (1.0 + abs(sym)), (entry.id, str(e), tv)
                        checked += 1
        assert checked >= 900
