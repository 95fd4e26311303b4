"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Criteria 6b/6c and 7g check closed-form values of the families they test:

- 6b/6c: the ell-family dual pair (variant iii, v = 1, kappa = 0) has
  H = h/t with h = n/2 - S/2, S = sum_i P_i, P_i = prod_{j<=i} l_j(t/R),
  and t P_i' = P_i sum_{j<=i} P_j.  Then t^2 E1 = t h' + (n-4) h, and at
  t = R every l_j = 1, so t^2 E1 -> [2(n-4)(n-k) - k(k+1)]/4: -11 at
  n = 5, k = 6 and 1.5, 0, -2, -4.5 at n = 5, k = 1..4.  (n-k)/2 is the
  limit of tH, not of E1.  A negative limit means E1 < 0 just left of R,
  where only a `violated` verdict is sound.
- 7g: the potential chain's add-on constant is c(n^2/4 + (n-lam-2)^2/4)
  with lam = 2 for the iterlog potential (Z ~ t^-2 log^-2), i.e. 2.5 at
  n = 6, c = 1/4.  lam = 0 would give 3.25 but asks for
  integral |x|^-2 |grad u|^2 >= 4 integral |x|^-4 u^2 in R^6, whose sharp
  constant is ((n-4)/2)^2 = 1.
"""

import dataclasses
import json
import math
import random
import time

import numpy as np
import pytest

from rellich import catalog as cat
from rellich import pairs as pr
from rellich import sharpness as sh
from rellich import verify as vf
from rellich.expr import Const, Unary, Var
from rellich.geometry import SpaceForm
from rellich.pairs import PairSpec


def _line(criterion: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")


def _finish(criterion: str, ok: bool, detail: str):
    _line(criterion, ok, detail)
    assert ok, f"criterion {criterion}: {detail}"


def _residual_scan(spec, sf, **kwargs):
    return pr.scan_positivity(pr.residual_terms(spec), sf, bindings=spec.bindings(sf),
                              **kwargs)


# ---------------------------------------------------------------------------
# 1. equality identities


class TestCriterion1:
    def _check(self, spec, sf, label, budget_s=1.0):
        t0 = time.perf_counter()
        rep = _residual_scan(spec, sf, grid=10_000, t_lo=1e-6, t_hi=1e3)
        elapsed = time.perf_counter() - t0
        ok = rep.max_abs_relative <= 1e-9 and elapsed < budget_s
        return ok, rep.max_abs_relative, elapsed

    def test_equality_identities(self):
        worst = 0.0
        slowest = 0.0
        ok_all = True
        for n in range(5, 13):
            ok, rel, dt = self._check(cat.classical_euclidean(n).specs["dual"],
                                      SpaceForm(n, 0.0), f"classical dual n={n}")
            ok_all &= ok
            worst, slowest = max(worst, rel), max(slowest, dt)
        for n in (5, 6):
            lam_max = (n - 1) ** 2 / 4.0
            for kappa in (0.5, 1.0):
                sf = SpaceForm(n, kappa)
                for lam in (0.0, lam_max / 2.0, lam_max):
                    entry = cat.hyperbolic_interpolation(n, kappa, lam)
                    ok, rel, dt = self._check(entry.specs["dual"], sf,
                                              f"hyp-interp n={n} k={kappa} l={lam}")
                    ok_all &= ok
                    worst, slowest = max(worst, rel), max(slowest, dt)
                for which in (1, 3):
                    entry = cat.hyperbolic_lower(n, kappa, which)
                    ok, rel, dt = self._check(entry.specs["primal"], sf,
                                              f"hyp-lower-{which} n={n} k={kappa}")
                    ok_all &= ok
                    worst, slowest = max(worst, rel), max(slowest, dt)
        _finish("1 (equality identities)", ok_all,
                f"max relative residual {worst:.2e} over 10^4 log grids, "
                f"slowest run {slowest * 1e3:.0f} ms")


# ---------------------------------------------------------------------------
# 2. closed-form E1/E2


class TestCriterion2:
    def test_classical_side_conditions(self):
        rng = np.random.default_rng(20260809)
        worst = 0.0
        for n in range(5, 13):
            sf = SpaceForm(n, 0.0)
            dual = cat.classical_euclidean(n).specs["dual"]
            e1x, e2x = pr.e1_expr(dual), pr.e2_expr(dual)
            ts = np.exp(rng.uniform(math.log(1e-3), math.log(1e2), size=100))
            b = dual.bindings(sf, ts)
            got1 = np.asarray(e1x.evaluate(b), dtype=float)
            got2 = np.asarray(e2x.evaluate(b), dtype=float)
            want1 = n * (n - 4) / (2.0 * ts ** 2)
            want2 = n * (n - 8) / (4.0 * ts ** 2)
            rel1 = float(np.max(np.abs(got1 - want1) / np.abs(want1)))
            if n == 8:
                rel2 = float(np.max(np.abs(got2) * ts ** 2))  # exact-zero case
            else:
                rel2 = float(np.max(np.abs(got2 - want2) / np.abs(want2)))
            worst = max(worst, rel1, rel2)
        _finish("2 (closed-form E1/E2)", worst <= 1e-12,
                f"worst relative deviation {worst:.2e} at 100 random points, "
                f"n in 5..12")


# ---------------------------------------------------------------------------
# 3. transform coherence


class TestCriterion3:
    @staticmethod
    def _random_primal(rng):
        t = Var()
        c = [rng.uniform(-2.0, 2.0) for _ in range(5)]
        G = Const(c[0]) / t + Const(c[1]) + Const(c[2]) * Unary("tanh", t)
        w = (t ** Const(rng.uniform(-2.0, 2.0))) * Unary("exp", Const(c[3] / 4.0) * t)
        W = Const(c[4]) / (t * t)
        return PairSpec(kind="primal", exprs={"G": G, "w": w, "W": W},
                        allow_signed_W=True)

    def test_transform_coherence(self):
        rng = random.Random(20260809)
        worst = 0.0
        for _ in range(200):
            n = rng.choice([3, 5, 8, 11])
            kappa = rng.choice([0.0, 0.5, 1.0])
            sf = SpaceForm(n, kappa)
            p = self._random_primal(rng)
            d = pr.primal_to_dual(p, sf)
            q = pr.dual_to_primal(d, sf)
            ts = np.exp(np.array([rng.uniform(math.log(0.1), math.log(10.0))
                                  for _ in range(50)]))
            b = {"n": float(n), "kappa": kappa, "t": ts}
            res_p = np.asarray(pr.residual_expr(p).evaluate(b), dtype=float)
            res_d = np.asarray(pr.residual_expr(d).evaluate(b), dtype=float)
            scale = 1.0 + np.abs(res_p)
            worst = max(worst, float(np.max(np.abs(res_p - res_d) / scale)))
            for role in ("G", "w", "W"):
                a = np.asarray(p.expr(role).evaluate(b), dtype=float)
                c2 = np.asarray(q.expr(role).evaluate(b), dtype=float)
                worst = max(worst, float(np.max(np.abs(a - c2) / (1.0 + np.abs(a)))))
        ok = worst <= 1e-9

        # Hardy primal -> classical dual, exact closed forms
        exact = 0.0
        for n in (5, 8, 12):
            sf = SpaceForm(n, 0.0)
            d = pr.primal_to_dual(cat.classical_euclidean(n).specs["hardy"], sf)
            for tv in (0.3, 1.0, 5.0):
                b = d.bindings(sf, tv)
                exact = max(exact, abs(d.expr("H").evaluate(b) - n / (2 * tv))
                            / (n / (2 * tv)))
                exact = max(exact, abs(d.expr("V").evaluate(b) - n * n / (4 * tv ** 2))
                            / (n * n / (4 * tv ** 2)))
        ok = ok and exact <= 1e-12
        _finish("3 (transform coherence)", ok,
                f"200 randomized instances, worst deviation {worst:.2e}; "
                f"Hardy mapping deviation {exact:.2e}")


# ---------------------------------------------------------------------------
# 4. Bessel machinery


class TestCriterion4:
    def test_bessel_machinery(self):
        t0 = time.perf_counter()
        worst_pot = 0.0
        for k in (1, 2, 3):
            entry = cat.iterated_log_potential(k, 1.0)
            rep = _residual_scan(entry.specs["potential"], SpaceForm(5, 0.0, 1.0),
                                 grid=4000, t_lo=1e-6, t_hi=0.9999)
            worst_pot = max(worst_pot, rep.max_abs_relative)
        ok = worst_pot <= 1e-9

        pot = cat.iterated_log_potential(1, 1.0).specs["potential"]
        n = 6
        worst_41 = 0.0
        for variant in ("i", "ii", "iii"):
            spec = pr.from_bessel_potential(pot, variant, n)
            rep = _residual_scan(spec, SpaceForm(n, 0.0, 1.0), grid=4000,
                                 t_lo=1e-6, t_hi=0.9999)
            worst_41 = max(worst_41, rep.max_abs_relative)
        pair_i = pr.from_bessel_potential(pot, "i", n)
        primal_iv = pr.from_bessel_pair(pair_i, n)
        rep = _residual_scan(primal_iv, SpaceForm(n, 0.0, 1.0), grid=4000,
                             t_lo=1e-6, t_hi=0.9999)
        worst_41 = max(worst_41, rep.max_abs_relative)
        ok = ok and worst_41 <= 1e-9

        first, _second = pr.bessel_pairs_from_potential(pot, 2.0, n)
        rep42 = _residual_scan(first, SpaceForm(n, 0.0, 1.0), grid=4000,
                               t_lo=1e-6, t_hi=0.9999)
        ok = ok and rep42.max_abs_relative <= 1e-10

        t_ode = time.perf_counter()
        osc = pr.disconjugacy_check(pot.with_constant(0.3))
        pos = pr.disconjugacy_check(pot)
        ode_elapsed = time.perf_counter() - t_ode
        ok = ok and osc.first_zero is not None and not osc.positive_solution
        ok = ok and pos.positive_solution and pos.first_zero is None
        ok = ok and ode_elapsed < 5.0
        total = time.perf_counter() - t0
        _finish("4 (Bessel machinery)", ok,
                f"potentials {worst_pot:.2e}, constructions {worst_41:.2e}, "
                f"explicit pair {rep42.max_abs_relative:.2e}, oscillation at "
                f"t={osc.first_zero if osc.first_zero else float('nan'):.3e} "
                f"(ODE runs {ode_elapsed:.2f}s, total {total:.1f}s)")


# ---------------------------------------------------------------------------
# 5. polynomial criterion


class TestCriterion5:
    def test_polynomial_roots(self):
        q5 = pr.positivity_polynomial_roots(5)
        ok = abs(q5.q_minus + 1.0) <= 1e-12 and abs(q5.q_plus - 2.0) <= 1e-12
        ok = ok and all(pr.polynomial_criterion_holds(n) for n in range(5, 51))
        _finish("5 (polynomial criterion)", ok,
                f"roots at n=5: ({q5.q_minus:g}, {q5.q_plus:g}); "
                f"criterion holds for 5 <= n <= 50")


# ---------------------------------------------------------------------------
# 6. failure-mode detection


def _ell_e1_scan(n, k, t_lo=1e-5):
    entry = cat.ell_potential(k, 1.0)
    dual = pr.from_bessel_potential(entry.specs["potential"], "iii", n)
    sf = SpaceForm(n, 0.0, 1.0)
    return pr.scan_positivity(pr.e1_terms(dual), sf, grid=4000, t_lo=t_lo,
                              t_hi=1.0, bindings=dual.bindings(sf))


def _ell_e1_limit_at_R(n, k):
    """Closed-form limit of t^2 E1 at t = R for the ell-family dual pair
    (see the module docstring): [2(n-4)(n-k) - k(k+1)]/4."""
    return (2 * (n - 4) * (n - k) - k * (k + 1)) / 4.0


def _fmt(x, spec):
    return "None" if x is None else format(x, spec)


class TestCriterion6:
    def test_6a_sign_change_detected(self):
        rep = _ell_e1_scan(5, 6)
        ok = rep.verdict == "violated" and len(rep.sign_changes) >= 1
        _finish("6a (failure detected for k=6)", ok,
                f"verdict {rep.verdict}, sign change near "
                f"t={rep.sign_changes[0][0]:.4f}" if rep.sign_changes else "no bracket")

    def test_6b_boundary_limit_contract_value(self):
        n, k = 5, 6
        rep = _ell_e1_scan(n, k)
        got = rep.boundary_limit_R
        want = _ell_e1_limit_at_R(n, k)
        ok = got is not None and abs(got - want) <= 1e-3
        _finish(f"6b (boundary limit {want:g} for k={k})", ok,
                f"extrapolated limit {_fmt(got, '.4f')} vs closed form "
                f"[2(n-4)(n-k) - k(k+1)]/4 = {want:g}")

    def test_6c_shallow_depths_contract_values(self):
        n = 5
        ok_all = True
        details = []
        for k in (1, 2, 3, 4):
            rep = _ell_e1_scan(n, k, t_lo=0.5)
            want = _ell_e1_limit_at_R(n, k)
            want_verdict = "nonnegative" if want >= 0 else "violated"
            ok = (rep.verdict == want_verdict
                  and rep.boundary_limit_R is not None
                  and abs(rep.boundary_limit_R - want) <= 1e-3)
            ok_all &= ok
            details.append(f"k={k}: verdict {rep.verdict} vs {want_verdict}, "
                           f"limit {_fmt(rep.boundary_limit_R, '.3f')} vs {want:g}")
        _finish("6c (shallow-depth limits and verdicts near R)", ok_all,
                "; ".join(details))


# ---------------------------------------------------------------------------
# 7. integral verification


@pytest.fixture(scope="module")
def criterion7_reports():
    reports = {}
    t0 = time.perf_counter()
    for n in (5, 6, 8):
        e = cat.classical_euclidean(n)
        case = vf.InequalityCase(
            shape="delta-vs-gradrad", sf=SpaceForm(n, 0.0),
            batch=vf.BatchSpec(count=50, seed=42), pair=e.specs["dual"],
            case_id=f"classical-gradrad-{n}")
        reports[f"classical-{n}"] = vf.verify_case(case)
    e8 = cat.classical_euclidean(8)
    reports["classical-grad-8"] = vf.verify_case(vf.InequalityCase(
        shape="delta-vs-grad", sf=SpaceForm(8, 0.0),
        batch=vf.BatchSpec(count=50, seed=42, modes=(0, 1, 2)),
        pair=e8.specs["dual"], case_id="classical-grad-8"))
    e5 = cat.classical_euclidean(5)
    reports["hardy-5"] = vf.verify_case(vf.InequalityCase(
        shape="gradrad-vs-usq", sf=SpaceForm(5, 0.0),
        batch=vf.BatchSpec(count=50, seed=42), pair=e5.specs["hardy"],
        case_id="hardy-5"))
    for lam in (0.0, 4.0):
        entry = cat.hyperbolic_interpolation(5, 1.0, lam)
        reports[f"hyp-interp-{lam:g}"] = vf.verify_case(vf.InequalityCase(
            shape="delta-vs-gradrad", sf=SpaceForm(5, 1.0),
            batch=vf.BatchSpec(count=50, seed=42), pair=entry.specs["dual"],
            case_id=f"hyp-interp-{lam:g}"))
    for which in (1, 2, 3):
        entry = cat.hyperbolic_lower(5, 1.0, which)
        reports[f"hyp-lower-{which}"] = vf.verify_case(vf.InequalityCase(
            shape="gradrad-vs-usq", sf=SpaceForm(5, 1.0),
            batch=vf.BatchSpec(count=50, seed=42), pair=entry.specs["primal"],
            case_id=f"hyp-lower-{which}"))
    e6 = cat.classical_euclidean(6)
    reports["chain-classical"] = vf.verify_chain(
        e6.chain, SpaceForm(6, 0.0), vf.BatchSpec(count=50, seed=42),
        case_id="chain-classical-6")
    il = cat.iterated_log_potential(1, 1.0)
    chain_pot = cat.chain_from_potential(il, 6)
    reports["chain-potential"] = vf.verify_chain(
        chain_pot, SpaceForm(6, 0.0, 1.0), vf.BatchSpec(count=50, seed=42),
        case_id="chain-potential-6")
    reports["_chain_pot_meta"] = chain_pot.meta
    fin = cat.final_combined(5, 1.0)
    reports["chain-final"] = vf.verify_chain(
        fin.chain, SpaceForm(5, 1.0), vf.BatchSpec(count=20, seed=42),
        case_id="chain-final-5")
    reports["_elapsed"] = time.perf_counter() - t0
    return reports


class TestCriterion7:
    def test_7_integral_verification(self, criterion7_reports):
        rep = criterion7_reports
        keys = [k for k in rep if not k.startswith("_")]
        verdicts = {k: rep[k].verdict for k in keys}
        ok = all(v == "pass" for v in verdicts.values())
        ok = ok and all(t.margin >= -t.budget for k in keys for t in rep[k].tests)
        # classical chain: end constant 9 against u^2/t^4
        meta = cat.classical_euclidean(6).chain.meta
        ok = ok and abs(meta["end_to_end_constant"] - 9.0) <= 1e-12
        elapsed = rep["_elapsed"]
        ok = ok and elapsed < 60.0
        _finish("7 (integral verification)", ok,
                f"{len(keys)} cases, all margins >= -budget, verdicts "
                f"{sorted(set(verdicts.values()))}, {elapsed:.1f}s")

    def test_7g_chain_addon_contract_value(self, criterion7_reports):
        # iterlog Z = t^-2 log(r/t)^-2 has Z'/Z = -2/t + f, f >= 0: lam = 2
        n, lam, c = 6, 2.0, 0.25
        want = c * (n * n / 4.0 + (n - lam - 2) ** 2 / 4.0)
        got = criterion7_reports["_chain_pot_meta"]["addon_constant"]
        ok = abs(got - want) <= 1e-9
        _finish(f"7g (potential-chain add-on constant {want:g})", ok,
                f"composed add-on {got} vs closed form c(n^2/4 + (n-l-2)^2/4) "
                f"= {want:g} at n={n}, l={lam:g}, c={c:g}")


# ---------------------------------------------------------------------------
# 8. sharpness estimates


class TestCriterion8:
    def test_sharpness_windows(self):
        t0 = time.perf_counter()
        e6 = cat.classical_euclidean(6)
        est1 = sh.estimate_constant(SpaceForm(6, 0.0), "delta-vs-gradrad",
                                    e6.specs["dual"], claimed=9.0, budget=500)
        e5 = cat.classical_euclidean(5)
        est2 = sh.estimate_constant(SpaceForm(5, 0.0), "gradrad-vs-usq",
                                    e5.specs["hardy"], claimed=2.25, budget=500)
        elapsed = time.perf_counter() - t0
        ok = (9.0 - 1e-6 <= est1.estimate <= 9.0 * 1.10
              and 2.25 - 1e-6 <= est2.estimate <= 2.25 * 1.12
              and elapsed < 120.0)
        _finish("8 (sharpness estimates)", ok,
                f"second-order estimate {est1.estimate:.3f} (claimed 9), "
                f"first-order estimate {est2.estimate:.3f} (claimed 2.25), "
                f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 9. determinism


def _serialize(rep: vf.VerificationReport) -> str:
    return json.dumps(dataclasses.asdict(rep), sort_keys=True, default=str)


class TestCriterion9:
    def test_determinism(self, criterion7_reports):
        e6 = cat.classical_euclidean(6)
        again = {
            "classical-6": vf.verify_case(vf.InequalityCase(
                shape="delta-vs-gradrad", sf=SpaceForm(6, 0.0),
                batch=vf.BatchSpec(count=50, seed=42), pair=e6.specs["dual"],
                case_id="classical-gradrad-6")),
            "hyp-lower-2": vf.verify_case(vf.InequalityCase(
                shape="gradrad-vs-usq", sf=SpaceForm(5, 1.0),
                batch=vf.BatchSpec(count=50, seed=42),
                pair=cat.hyperbolic_lower(5, 1.0, 2).specs["primal"],
                case_id="hyp-lower-2")),
            "chain-classical": vf.verify_chain(
                e6.chain, SpaceForm(6, 0.0), vf.BatchSpec(count=50, seed=42),
                case_id="chain-classical-6"),
        }
        ok = True
        for key, rep in again.items():
            ok &= _serialize(rep) == _serialize(criterion7_reports[key])
        _finish("9 (determinism)", ok,
                "re-running criterion-7 fixtures with the same seed reproduces "
                "byte-identical reports (no timestamp inside)")
