"""Residuals, side conditions, transforms, Bessel machinery, scanning."""

import dataclasses
import math
import operator
import os
import pathlib
import random
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import rellich
from rellich import catalog as cat
from rellich import expr as ex
from rellich import pairs as pr
from rellich import verify as vf
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
            d = pr.primal_to_dual(cat.classical_euclidean(n).specs["hardy"])
            for tv in (0.3, 1.0, 5.0):
                b = d.bindings(sf, tv)
                assert d.expr("H").evaluate(b) == pytest.approx(
                    n / (2 * tv), rel=1e-12)
                assert d.expr("V").evaluate(b) == pytest.approx(
                    n * n / (4 * tv ** 2), rel=1e-12)

    def test_roundtrip_pointwise(self):
        rng = random.Random(99)
        p = _random_primal(rng)
        q = pr.dual_to_primal(pr.primal_to_dual(p))
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
            d = pr.primal_to_dual(p)
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
        d = pr.primal_to_dual(p)
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
        via_ii = pr.primal_to_dual(pr.from_bessel_potential(potential, "ii", n))
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
        rep = pr.disconjugacy_check(dataclasses.replace(potential, constant=0.3))
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
        rep = pr.disconjugacy_check(dataclasses.replace(potential, constant=0.3),
                                    interval=(1e-6, 0.999))
        # inside float range the super-critical oscillation is not yet visible
        assert rep.positive_solution is True

    def test_derived_second_pair_positive(self, potential):
        _, second = pr.bessel_pairs_from_potential(potential, 2.0, 6)
        rep = pr.disconjugacy_check(second, n=6)
        assert rep.positive_solution is True

    def test_no_mpmath_import(self):
        # a deep-start Bessel potential and a potential's chain, in a fresh
        # interpreter, run without mpmath or decimal; no source file names
        # either module (cli's str.isdecimal is not the module)
        src = pathlib.Path(rellich.__file__).parent
        code = (
            "import sys, contextlib, io\n"
            "from rellich import cli\n"
            "for argv in ('solve-bessel --catalog ell-family --k 3 --R 1 --c 0.3',\n"
            "             'chain --catalog iterlog --k 1 --n 6 --R 1'):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        print(argv.split()[0], cli.main(argv.split()), file=sys.stderr)\n"
            "assert 'mpmath' not in sys.modules, 'mpmath was imported'\n"
            "assert 'decimal' not in sys.modules, 'decimal was imported'\n")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120, env={**os.environ, "PYTHONPATH": str(src.parent)})
        assert done.returncode == 0, done.stderr
        assert done.stderr.split() == ["solve-bessel", "1", "chain", "0"]
        for name in ("mpmath", "decimal"):
            assert [f.name for f in src.glob("*.py")
                    if re.search(rf"\b{name}\b", f.read_text())] == []

    def test_start_below_float_range_runs_on_numpy(self, monkeypatch):
        # t0 = 1e-200: the grid graded toward t1 runs every point, the deep
        # ones included, on numpy arrays of s, and accepts a positive
        # solution at its 2,048-step level
        p = cat.iterated_log_potential(2, 1.0).specs["potential"]
        kinds = set()
        evaluate = Program.evaluate

        def counted(self, bindings):
            kinds.add(type(bindings["t"]).__name__)
            return evaluate(self, bindings)

        monkeypatch.setattr(Program, "evaluate", counted)
        rep = pr.disconjugacy_check(p, interval=(1e-200, 0.999))
        assert kinds == {"ndarray"}
        assert rep.positive_solution is True and rep.status == "ok"
        assert rep.steps == 3584

    def test_step_budget_exhaustion_is_inconclusive(self, potential, monkeypatch):
        monkeypatch.setattr(pr, "_MAX_STEPS", 3)
        rep = pr.disconjugacy_check(potential)
        assert rep.status == "inconclusive"
        assert rep.positive_solution is False
        assert rep.first_zero is None

    @pytest.mark.parametrize("c", [0.25, 0.3])
    def test_potential_no_level_resolves_is_inconclusive(self, potential, monkeypatch, c):
        # with 800 steps the grid stops after its 512-step level, which
        # alone accepts nothing: no positive solution and no first zero
        monkeypatch.setattr(pr, "_MAX_STEPS", 800)
        rep = pr.disconjugacy_check(dataclasses.replace(potential, constant=c))
        assert rep.status == "inconclusive" and rep.first_zero is None
        assert rep.positive_solution is False and rep.steps == 512

    @pytest.mark.parametrize("end", [math.inf, math.nan])
    def test_non_finite_interval_end_is_rejected(self, potential, end):
        # an infinite end gives an infinite end tolerance: the grid would
        # not run, and a positive solution would stand for no integration
        with pytest.raises(ValueError, match="interval"):
            pr.disconjugacy_check(dataclasses.replace(potential, constant=0.3), interval=(0.1, end))

    @pytest.mark.parametrize("which", ["potential", "pair", "explicit"])
    def test_one_coefficient_run_per_point(self, potential, monkeypatch, which):
        # a grid level computes the coefficients of the points no coarser
        # level has in one numpy run of the s-form program, at any depth
        # (a default pair starts at e^-110, a potential at e^-2e6, the
        # explicit interval at 1e-200).  The search for a first zero then takes at most
        # 6 rounds, each one _coefficients call on the 2 _SECTIONS + 1 nodes
        # and midpoints of its substeps
        runs, levels, new, rounds, searching = [], [], [], [], []
        evaluate, fill = Program.evaluate, pr._fill_coefficients
        coefficients, bisect = pr._coefficients, pr._bisect_zero

        def counted(self, bindings):
            runs.append(bindings["t"])
            return evaluate(self, bindings)

        def level(program, base, x, coef, to_s):
            start = len(runs)
            new.append(x[np.isnan(coef[0])])
            fill(program, base, x, coef, to_s)
            levels.append([type(t).__name__ for t in runs[start:]])

        def round_(program, base, s, *grid):
            if searching:
                rounds.append(s.size)
            return coefficients(program, base, s, *grid)

        def search(*args):
            searching.append(True)
            return bisect(*args)

        monkeypatch.setattr(Program, "evaluate", counted)
        monkeypatch.setattr(pr, "_fill_coefficients", level)
        monkeypatch.setattr(pr, "_coefficients", round_)
        monkeypatch.setattr(pr, "_bisect_zero", search)
        p = potential if which != "pair" else pr.bessel_pairs_from_potential(
            potential, 2.0, 6)[1]
        shape = ["ndarray"]
        interval = (1e-200, 0.999) if which == "explicit" else None
        for c, zero in {"potential": ((0.25, False), (0.3, True)),
                        "pair": ((1.0, False), (3.0, True)),
                        "explicit": ((0.25, False), (1.0, True))}[which]:
            for record in (runs, levels, new, rounds, searching):
                record.clear()
            rep = pr.disconjugacy_check(dataclasses.replace(p, constant=c), interval, n=6)
            assert (rep.first_zero is not None) == zero and rep.status == "ok"
            assert len(levels) >= 3 and all(kinds == shape for kinds in levels)
            points = np.concatenate(new)          # no level recomputes a coarser one's
            assert len(np.unique(points)) == len(points)
            assert len(searching) == zero and (1 <= len(rounds) <= 6 if zero else not rounds)
            assert all(size == 2 * pr._SECTIONS + 1 for size in rounds)

    @pytest.mark.parametrize("which", ["potential", "pair", "explicit"])
    def test_no_coefficient_run_on_a_python_float(self, potential, monkeypatch, which):
        # every coefficient run, the first zero's search included, and on a
        # potential whose sum cancels under a constant factor, evaluates on
        # numpy arrays
        kinds = set()
        evaluate = Program.evaluate

        def counted(self, bindings):
            kinds.add(type(bindings["t"]).__name__)
            return evaluate(self, bindings)

        Z = parse("2*(1/t^2 + 1/(t*log(e/t))^2 - 1/t^2)/2")
        cancelling = PairSpec(kind="bessel-potential", exprs={"z": Var(), "Z": Z},
                              params={"R": 1.0})
        p, constants, interval = {
            "potential": (cancelling, (0.25, 0.3), None),
            "pair": (pr.bessel_pairs_from_potential(potential, 2.0, 6)[1], (1.0, 3.0), None),
            "explicit": (potential, (0.25, 1.0), (1e-200, 0.999))}[which]
        monkeypatch.setattr(Program, "evaluate", counted)
        zeros = [pr.disconjugacy_check(dataclasses.replace(p, constant=c), interval, n=6).first_zero
                 for c in constants]
        assert zeros[0] is None and zeros[1] is not None
        assert kinds == {"ndarray"}

    @pytest.mark.parametrize("Y", ["exp(-8*log(t))*t^6",   # inf on float below t = e^-88.7
                                   "t^-8*t^6"])   # t^8 is 0 below e^-93.1, and 1/0 raises
    @pytest.mark.parametrize("C", [1.0, 5.0])
    def test_pair_coefficients_below_float_range(self, monkeypatch, Y, C):
        # b = C t^2 Y = C, a = n - 2 = 4: y_ss + 4 y_s + C y = 0 from (1, 0)
        # at s0 = -110 stays positive for C <= 4; at C = 5 it is
        # e^(-2 (s-s0)) (cos + 2 sin)(s - s0), whose first zero lies at
        # s0 + pi - atan(1/2).  Y's factors leave float range deep in the
        # interval; its s-form, t^-2 (e^(-8 s) = t^-8), has no such factor
        kinds = set()
        evaluate = Program.evaluate

        def counted(self, bindings):
            kinds.add(type(bindings["t"]).__name__)
            return evaluate(self, bindings)

        monkeypatch.setattr(Program, "evaluate", counted)
        p = PairSpec(kind="bessel-pair", exprs={"X": Const(1.0), "Y": parse(Y)},
                     constant=C, params={"R": 1.0})
        rep = pr.disconjugacy_check(p, n=6)
        assert kinds == {"ndarray"}
        assert rep.status == "ok"
        if C < 4:
            assert rep.positive_solution is True
        else:
            assert abs(rep.log_t_first_zero - (-110.0 + math.pi - math.atan(0.5))) <= 1e-7

    def test_pair_coefficient_out_of_range_is_inconclusive(self):
        # b = t^2 exp(1/t) is e^(2s) e^(e^-s): inf on the whole first level
        p = PairSpec(kind="bessel-pair", exprs={"X": Const(1.0), "Y": parse("exp(1/t)")},
                     params={"R": 1.0})
        rep = pr.disconjugacy_check(p, n=6)
        assert rep.status == "inconclusive" and rep.steps == 0

    @pytest.mark.parametrize("which", ["potential", "pair"])
    def test_interval_within_the_end_tolerance_is_a_positive_run(self, potential, which):
        p = potential if which == "potential" else pr.bessel_pairs_from_potential(
            potential, 2.0, 6)[1]
        rep = pr.disconjugacy_check(p, interval=(0.5, 0.5 * (1 + 1e-12)), n=6)
        assert rep.positive_solution is True and rep.steps == 0

    def test_pair_step_budget_is_inconclusive(self, potential, monkeypatch):
        # the positive link needs levels of 512, ..., 4096 steps (7,680)
        second = pr.bessel_pairs_from_potential(potential, 2.0, 6)[1]
        assert pr.disconjugacy_check(second, n=6).steps == 7680
        monkeypatch.setattr(pr, "_MAX_STEPS", 7679)
        rep = pr.disconjugacy_check(second, n=6)
        assert rep.status == "inconclusive" and rep.positive_solution is False
        assert rep.steps == 3584

    @pytest.mark.parametrize("Y", ["1/t^6", "1/t^8"])
    def test_pair_step_out_of_float_range_is_inconclusive(self, monkeypatch, Y):
        # b = C t^2 Y/X is t^-2 (1e95 at the start) or t^-4 (1e191): the
        # first level's steps, or their first products, are out of float
        # range before any sign change, and no level within the budget
        # resolves them.  Were a NaN state read as a sign change, every level
        # would stop near the start, so the coefficient array must follow
        # where a level stops, not keep every point of the finest grid
        widths = []
        fill = pr._fill_coefficients

        def recorded(program, base, s, coef, to_s):
            widths.append((coef if coef.base is None else coef.base).shape[1])
            assert widths[-1] <= 2 * pr._MAX_STEPS + 1     # before a runaway allocation
            return fill(program, base, s, coef, to_s)

        monkeypatch.setattr(pr, "_fill_coefficients", recorded)
        p = PairSpec(kind="bessel-pair", exprs={"X": parse("1/t^2"), "Y": parse(Y)},
                     constant=1.0, params={"R": 1.0})
        rep = pr.disconjugacy_check(p, n=6)
        assert rep.status == "inconclusive" and rep.positive_solution is False
        assert rep.steps == 512


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
# each potential at R = 1 and R = 0.9 (the deep start), on the grid uniform
# in v = -log(log R - s): a positive solution is accepted at the 2,048-step
# level, and at c = 0.3 the levels stop one coarse step past the sign change
_DEEP_RUNS = {
    ("iterlog", 1, 1.0): (3584, 1589, -9.37828349618896),
    ("iterlog", 2, 1.0): (3584, 1547, -15.147428817147503),
    ("iterlog", 3, 1.0): (3584, 1645, -4.923009664238976),
    ("ell-family", 1, 1.0): (3584, 1589, -9.37828349618896),
    ("ell-family", 2, 1.0): (3584, 1547, -15.025016433445959),
    ("ell-family", 3, 1.0): (3584, 1543, -15.664367969147495),
    ("iterlog", 1, 0.9): (3584, 1589, -9.483644011846788),
    ("iterlog", 2, 0.9): (3584, 1547, -15.252789332805328),
    ("iterlog", 3, 0.9): (3584, 1645, -5.028370179896803),
    ("ell-family", 1, 0.9): (3584, 1589, -9.483644011846788),
    ("ell-family", 2, 0.9): (3584, 1547, -15.130376949103788),
    ("ell-family", 3, 0.9): (3584, 1543, -15.76972848480532),
}


def _deep_potential(family, k, R):
    build = cat.iterated_log_potential if family == "iterlog" else cat.ell_potential
    return build(k, R).specs["potential"]


def _reference_deep_zero(p):
    """log t of the first zero of a potential's solution from the principal
    data at t = R e^(-2e6), by scipy's DOP853 at rtol 1e-13 in
    v = -log(log R - s), where y_ss + b y = 0 is y_vv + y_v + b w^2 y = 0
    with w = log R - s, on the coefficients of _coefficients."""
    from scipy.integrate import solve_ivp

    program = pr._s_program(*pr._sspace_coefficients(p, None))
    bindings = p.bindings()
    log_R = math.log(p.params["R"])

    def f(v, u):
        w = math.exp(-v)
        a, b = pr._coefficients(program, bindings, np.array([log_R - w]))[:, 0]
        return [u[1], -(1.0 + a * w) * u[1] - b * w * w * u[0]]

    def crossing(v, u):
        return u[0]

    crossing.terminal = True
    sol = solve_ivp(f, (-math.log(pr._DEEP_LOG_DEPTH), -math.log(pr._END_GAP)), [1.0, 0.0],
                    method="DOP853", rtol=1e-13, atol=1e-20, events=crossing)
    return log_R - math.exp(-sol.t_events[0][0])


class TestDeepDisconjugacy:
    @pytest.mark.parametrize("family,k,R", sorted(_DEEP_RUNS))
    def test_steps_and_first_zero_are_kept(self, family, k, R):
        steps, steps_super, log_zero = _DEEP_RUNS[family, k, R]
        potential = _deep_potential(family, k, R)
        rep = pr.disconjugacy_check(potential)
        assert rep.positive_solution is True and rep.steps == steps
        rep = pr.disconjugacy_check(dataclasses.replace(potential, constant=0.3))
        assert rep.positive_solution is False and rep.steps == steps_super
        assert abs(rep.log_t_first_zero - log_zero) <= 1e-9 * max(1.0, abs(log_zero))

    @pytest.mark.parametrize("family,k,R", sorted(_DEEP_RUNS))
    def test_first_zero_matches_a_reference_integrator(self, family, k, R):
        # the grid's zeros lie within 5.6e-11 to 1.8e-10 of the reference
        p = dataclasses.replace(_deep_potential(family, k, R), constant=0.3)
        rep = pr.disconjugacy_check(p)
        assert abs(rep.log_t_first_zero - _reference_deep_zero(p)) <= 1e-7

    def test_cancelling_potential_at_the_deep_start(self):
        # the iterlog k = 1 potential 1/(t log(e/t))^2, and the same written
        # so that its terms cancel: at t = e^(-2e6) the sum 1/t^2 + 1/(t
        # log(e/t))^2 holds the second term, 2.5e-13 of the first, to about
        # 3 digits in t.  The s-form collects the two 1/t^2 by node, so both
        # forms compile to one program, whose b lies within 8 eps of a
        # 50-digit mpmath walk of the cancelling tree in t
        import mpmath

        eps = 2.0 ** -53
        plain, cancelling = [PairSpec(kind="bessel-potential",
                                      exprs={"z": Var(), "Z": parse(src)},
                                      constant=0.3, params={"R": 1.0})
                             for src in ("1/(t*log(e/t))^2", "1/t^2 + 1/(t*log(e/t))^2 - 1/t^2")]
        programs = [pr._s_program(*pr._sspace_coefficients(p, None)) for p in (plain, cancelling)]
        assert programs[0].code == programs[1].code
        b = pr._sspace_coefficients(cancelling, None)[1]
        s = np.array([-2e6, -1e5, -3000.5, -130.0, -0.5])
        got = pr._coefficients(programs[1], cancelling.bindings(), s)[1]
        for si, gi in zip(s, got):
            with mpmath.workdps(50):
                want = _mp_walk(b, {**cancelling.bindings(), "t": mpmath.exp(mpmath.mpf(si))})
                assert abs(gi - want) <= 8 * eps * abs(want)

    @pytest.mark.parametrize("src", ["1/t^2 + 1/(t*log(e/t))^2 - 1/t^2",
                                     "2*(1/t^2 + 1/(t*log(e/t))^2 - 1/t^2)/2",
                                     "(1/t^2 + 1/(t*log(e/t))^2 - 1/t^2)*1"])
    @pytest.mark.parametrize("c", [0.25, 0.3])
    def test_cancelling_form_runs_as_the_plain_form(self, monkeypatch, src, c):
        # the same verdict, steps and zero as 1/(t log(e/t))^2, bit for bit
        # (2 x / 2 is x in float), in as many coefficient runs: no point is
        # recomputed on its own
        calls, evaluate = [], Program.evaluate

        def counted(self, bindings):
            calls.append(bindings["t"].size)
            return evaluate(self, bindings)

        monkeypatch.setattr(Program, "evaluate", counted)
        runs = []
        for Z in ("1/(t*log(e/t))^2", src):
            calls.clear()
            p = PairSpec(kind="bessel-potential", exprs={"z": Var(), "Z": parse(Z)},
                         constant=c, params={"R": 1.0})
            runs.append((pr.disconjugacy_check(p), list(calls)))
        assert runs[1] == runs[0]
        assert runs[0][0].positive_solution is (c == 0.25)

    def test_form_that_keeps_a_power_of_t(self):
        # Z = 1/t^3 leaves b = c/t, t^-1 in s-form, which is out of float
        # range at the deep start: the run ends there, before its first
        # step.  On an interval in float range the same form runs, and so
        # does b = c t^2 (Z = 1) at the deep start, where it underflows to 0
        def potential(Z):
            return PairSpec(kind="bessel-potential", exprs={"z": Var(), "Z": parse(Z)},
                            constant=0.25, params={"R": 1.0})

        b = pr._sspace_coefficients(potential("1/t^3"), None)[1]
        assert ex.s_form(b)[0] == -1
        rep = pr.disconjugacy_check(potential("1/t^3"))
        assert rep.status == "inconclusive" and rep.steps == 0
        rep = pr.disconjugacy_check(potential("1/t^3"), interval=(0.1, 0.9))
        assert rep.status == "ok" and rep.steps == 625
        assert abs(rep.log_t_first_zero - -1.141065347417527) <= 1e-9
        rep = pr.disconjugacy_check(potential("1"))
        assert rep.positive_solution is True and rep.steps == 3584

    def test_residual_cancellation_is_inconclusive(self):
        # 1/(t^2 (1 + 1e-12)) is not the node 1/t^2, so b's sum keeps its
        # cancellation: at the deep start its summands are 1, 2.5e-13 and
        # 1 - 1e-12, whose sum float holds to about 4 digits.  In v, where
        # w = log R - s = 2e6 scales b by w^2, that error is 4e-4 of the
        # equation, and the run ends before its first step; in s (w = 1)
        # it is 1e-16 of the equation, which is no cause.  On (0.1, 0.9)
        # the run has the verdict and steps of 1/(t log(e/t))^2
        p = PairSpec(kind="bessel-potential", exprs={"z": Var(), "Z": parse(
            "1/t^2 + 1/(t*log(e/t))^2 - 1/(t^2*(1+1e-12))")}, params={"R": 1.0})
        rep = pr.disconjugacy_check(p)
        assert rep.status == "inconclusive" and rep.steps == 0
        program = pr._s_program(*pr._sspace_coefficients(p, None))
        s = np.array([-2e6])
        with pytest.raises(ex.EvaluationError, match="cancelling"):
            pr._coefficients(program, p.bindings(), s, np.array([2e6]), -1.0)
        assert np.isfinite(pr._coefficients(program, p.bindings(), s)).all()
        plain = PairSpec(kind="bessel-potential",
                         exprs={"z": Var(), "Z": parse("1/(t*log(e/t))^2")}, params={"R": 1.0})
        for c in (0.25, 2.0):
            got, want = [pr.disconjugacy_check(dataclasses.replace(q, constant=c),
                                               interval=(0.1, 0.9))
                         for q in (p, plain)]
            assert got.status == "ok" and got.steps == want.steps
            assert got.positive_solution is want.positive_solution

    @pytest.mark.parametrize("Z,c,interval,steps,log_zero", [
        ("1/(t*log(e/t))^2 - 1/(t^2*log(e/t)^3)", 0.25, None, 3584, None),
        ("1/(t*log(e/t))^2 - 1/(t^2*log(e/t)^3)", 0.25, (1e-3, 1.0), 3584, None),
        ("1/(t*log(e/t))^2 - 1/(t^2*log(e/t)^3)", 0.3, None, 1595, -8.87291173610317),
        ("1/t^2 - 1/(t^2*log(e/t))", 0.25, (1e-3, 1.0), 611, -3.507030333509106),
    ])
    def test_sum_that_vanishes_at_the_end(self, Z, c, interval, steps, log_zero):
        # b = c (1 - 1/log(e/t)) / log(e/t)^2 or c (1 - 1/log(e/t)) is 0 at
        # t = R = 1, so its summands cancel toward the end of the interval,
        # where b and its rounding error are small beside the equation, and
        # that cancellation ends no run
        p = PairSpec(kind="bessel-potential", exprs={"z": Var(), "Z": parse(Z)},
                     constant=c, params={"R": 1.0})
        rep = pr.disconjugacy_check(p, interval)
        assert rep.status == "ok" and rep.steps == steps
        if log_zero is None:
            assert rep.positive_solution is True
        else:
            assert abs(rep.log_t_first_zero - log_zero) <= 1e-9 * abs(log_zero)

    @pytest.mark.parametrize("t0,c", [(1e-300, 0.3), (1e-300, 5.0), (1e-6, 2.0)])
    def test_explicit_interval_zero_matches_the_closed_form(self, t0, c):
        # z_ss + c z = 0 from the principal data at s0 = log t0, on the grid
        # graded toward t1: the first zero is s0 + pi/(2 sqrt(c))
        p = PairSpec(kind="bessel-potential", exprs={"z": Var(), "Z": parse("1/t^2")},
                     constant=c, params={"R": 1.0})
        rep = pr.disconjugacy_check(p, interval=(t0, 0.999))
        want = math.log(t0) + math.pi / (2 * math.sqrt(c))
        assert rep.status == "ok"
        assert abs(rep.log_t_first_zero - want) <= 1e-9 * max(1.0, abs(want))

    def test_zero_below_float_range_is_reported(self):
        # z'' + z'/t + c z/t^2 = 0 is z_ss + c z = 0 in s = log t: from the
        # principal data at s0 = -2e6 the first zero is s0 + pi/(2 sqrt(c)),
        # far below float range, so first_zero reads 0 and log t carries it.
        # In v, b w^2 = c w^2 is 1.2e12 at the start: the levels stop a few
        # steps past the sign change until steps of 5e-7 in v resolve it
        p = PairSpec(kind="bessel-potential", exprs={"z": Var(), "Z": parse("1/t^2")},
                     constant=0.3, params={"R": 1.0})
        rep = pr.disconjugacy_check(p)
        assert rep.positive_solution is False and rep.first_zero == 0.0
        assert rep.steps == 6749
        tol = 1e-9 * 2e6
        assert abs(rep.log_t_first_zero - -1999997.131490565) <= tol
        assert abs(rep.log_t_first_zero - (-2e6 + math.pi / (2 * math.sqrt(0.3)))) <= tol

    @pytest.mark.parametrize("c", [1.0, 2.0, 5.0])
    def test_deep_zero_matches_the_closed_form(self, c):
        # b w^2 = c w^2 is 4e12 c at the start: a level whose h^2 b w^2 is
        # past RK4's range before the first sign change is refused, so two
        # coarse levels that agree by chance are not taken for convergence
        p = PairSpec(kind="bessel-potential", exprs={"z": Var(), "Z": parse("1/t^2")},
                     constant=c, params={"R": 1.0})
        rep = pr.disconjugacy_check(p)
        want = -2e6 + math.pi / (2 * math.sqrt(c))
        assert rep.status == "ok"
        assert abs(rep.log_t_first_zero - want) <= 1e-9 * max(1.0, abs(want))


def _link_pair(family, k, n):
    """The second Bessel pair of a family's potential at R = 1: the pair of
    its chain's link-2."""
    build = cat.iterated_log_potential if family == "iterlog" else cat.ell_potential
    return pr.bessel_pairs_from_potential(build(k, 1.0).specs["potential"], 2.0, n)[1]


def _reference_first_zero(p, n, s0=-110.0):
    """log t of the first zero of a pair's solution from the principal data
    at log t = s0, by scipy's DOP853 at rtol 1e-13 on the coefficients of
    _coefficients (float t^2 Y/X in t is NaN below float range)."""
    from scipy.integrate import solve_ivp

    program = pr._s_program(*pr._sspace_coefficients(p, n))
    bindings = p.bindings(n=n)

    def f(s, u):
        a, b = pr._coefficients(program, bindings, np.array([s]))[:, 0]
        return [u[1], -a * u[1] - b * u[0]]

    def crossing(s, u):
        return u[0]

    crossing.terminal = True
    sol = solve_ivp(f, (s0, math.log1p(-1e-9)), [1.0, 0.0], method="DOP853",
                    rtol=1e-13, atol=1e-20, first_step=1e-3, events=crossing)
    return sol.t_events[0][0]


def _float_evaluations(monkeypatch) -> list:
    """The bindings of every Program.evaluate call whose t is a Python float."""
    calls, evaluate = [], Program.evaluate

    def counted(self, bindings):
        if type(bindings.get("t")) is float:
            calls.append(bindings)
        return evaluate(self, bindings)

    monkeypatch.setattr(Program, "evaluate", counted)
    return calls


class TestEqualityChecks:
    @pytest.mark.parametrize("family, k", [("ell-family", 6), ("iterlog", 3)])
    def test_residual_check_is_one_grid_pass(self, monkeypatch, family, k):
        # the spot check reads only the equality, so it makes no bisection
        # or boundary-limit evaluation
        potential = cat.build_entry(family, k=k, R=1.0).specs["potential"]
        calls = _float_evaluations(monkeypatch)
        pr._check_verified(potential, 5)
        pr._check_verified(pr.from_bessel_potential(potential, "ii", 5), 5)
        assert calls == []

    def test_unverified_residual_names_its_mismatch(self):
        # G = 1/t, W = 1/t^2 at n = 5: the residual is 1/t^2 against the
        # magnitude 1 + 7/t^2, whose ratio tends to 1/7 as t -> 0
        p = PairSpec(kind="primal", exprs={"G": parse("1/t"), "w": Const(1.0),
                                           "W": parse("1/t^2")})
        with pytest.raises(ValueError, match=r"^input primal is not verified: relative "
                                             r"residual 1\.429e-01 > 1e-06$"):
            pr._check_verified(p, 5)

    def test_catalog_chain_checks_the_potential_once(self, monkeypatch):
        # the dual and the two Bessel pairs come from one potential, checked
        # once; the first pair's variant (iv) checks that pair
        checked, check = [], pr._check_verified
        monkeypatch.setattr(pr, "_check_verified",
                            lambda p, n: checked.append(p.kind) or check(p, n))
        cat.chain_from_potential(cat.ell_potential(4, 1.0), 5)
        assert checked == ["bessel-potential", "bessel-pair"]

    def test_chain_composition_is_grid_passes_alone(self, monkeypatch):
        # neither the check nor its drop-one-link retries make a bisection
        # or boundary-limit evaluation
        calls = _float_evaluations(monkeypatch)
        chain = cat.final_combined(5, 1.0).chain
        vf.check_chain_composition(chain, SpaceForm(5, 1.0))
        spurious = cat.ChainLink(alpha=1.0, spec=cat.hyperbolic_lower(5, 1.0, 1)
                                 .specs["primal"], label="link-x")
        bad = dataclasses.replace(chain, links=chain.links + (spurious,))
        with pytest.raises(vf.ChainMismatchError, match="offending link: link-x"):
            vf.check_chain_composition(bad, SpaceForm(5, 1.0))
        assert calls == []


class TestPairGrid:
    @pytest.mark.parametrize("family", ["iterlog", "ell-family"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_chain_link_keeps_a_positive_solution(self, family, k, n):
        rep = pr.disconjugacy_check(_link_pair(family, k, n), n=n)
        assert rep.positive_solution is True and rep.status == "ok"

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("c", [1.5, 3.0, 30.0])
    def test_first_zero_matches_a_reference_integrator(self, k, c):
        # the zero search's own tolerance is 1e-9 |log t| (1.1e-7).  At
        # c = 1.5 the levels of 512 and 1,024 steps are both 1.2e-6 off and
        # agree within 2.6e-7: a zero searched for from either misses by 1.2e-6
        p = dataclasses.replace(_link_pair("iterlog", k, 6), constant=c)
        rep = pr.disconjugacy_check(p, n=6)
        assert rep.status == "ok"
        assert abs(rep.log_t_first_zero - _reference_first_zero(p, 6)) <= 1e-7

    def test_interval_below_float_range_takes_the_grid(self):
        # 460 in log t: the levels of 512, ..., 16,384 steps uniform in s
        rep = pr.disconjugacy_check(_link_pair("iterlog", 1, 6), interval=(1e-200, 0.999), n=6)
        assert rep.positive_solution is True and rep.status == "ok"
        assert rep.steps == 32256

    @pytest.mark.parametrize("family", ["iterlog", "ell-family"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_deep_interval_keeps_a_positive_solution(self, family, k, n):
        rep = pr.disconjugacy_check(_link_pair(family, k, n), interval=(1e-120, 0.999), n=n)
        assert rep.positive_solution is True and rep.status == "ok"

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_deep_first_zero_matches_a_reference_integrator(self, k):
        p = dataclasses.replace(_link_pair("iterlog", k, 6), constant=1.5)
        rep = pr.disconjugacy_check(p, interval=(1e-200, 0.999), n=6)
        want = _reference_first_zero(p, 6, math.log(1e-200))
        assert rep.status == "ok"
        assert abs(rep.log_t_first_zero - want) <= 1e-9 * max(1.0, abs(want))

    @pytest.mark.parametrize("interval", [(1e-200, 5.0), (1e-130, 3.0), (1e-300, 20.0)])
    def test_interval_across_the_pole_is_inconclusive(self, interval):
        # a = 4 + 2/(1 - log t) has a pole at t = e: no level resolves the
        # run across it.  A solver that steps over the pole reports a first
        # zero whose place depends on the interval (log t 1.079, 1.050 and
        # 1.035 here, by adaptive step-doubling RK4 at 1e-8 per step)
        rep = pr.disconjugacy_check(_link_pair("iterlog", 1, 6), interval=interval, n=6)
        assert rep.status == "inconclusive" and rep.first_zero is None


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

    def test_multisection_stops_at_neighbouring_floats(self, monkeypatch):
        # the E1 sign change of ell-family k = 5 narrows to two neighbouring
        # floats in vector rounds of 2 _SECTIONS - 1 points each, and each
        # boundary limit evaluates its 8 points in one call: the scan makes
        # no float-t evaluation
        n, k = 5, 5
        dual = pr.from_bessel_potential(cat.ell_potential(k, 1.0).specs["potential"], "iii", n)
        sf = SpaceForm(n, 0.0, 1.0)
        floats = _float_evaluations(monkeypatch)
        where, calls, evaluate = ["grid"], [], Program.evaluate

        def counted(self, bindings):
            calls.append((where[-1], bindings["t"].size))
            return evaluate(self, bindings)

        def marked(f, name):
            def run(*args):
                where.append(name)
                try:
                    return f(*args)
                finally:
                    where.pop()
            return run

        monkeypatch.setattr(Program, "evaluate", counted)
        for name in ("_refine", "_richardson_limit"):
            monkeypatch.setattr(pr, name, marked(getattr(pr, name), name))
        rep = pr.scan_positivity(pr.e1_terms(dual), sf, bindings=dual.bindings(sf))
        (t1, t2), = rep.sign_changes
        assert math.nextafter(t1, math.inf) == t2
        assert floats == []
        rounds = [size for name, size in calls if name == "_refine"]
        assert 0 < len(rounds) <= 8 and max(rounds) == 2 * pr._SECTIONS - 1
        assert [c for c in calls if c[0] == "_richardson_limit"] == [("_richardson_limit", 8)] * 2
        assert calls[0] == ("grid", pr.DEFAULT_GRID)

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
                    d = e.diff()
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
