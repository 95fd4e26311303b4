"""Parser, evaluator, and symbolic-derivative tests for the expression DSL."""

import math
import random

import mpmath
import numpy as np
import pytest

from rellich import catalog as cat
from rellich import expr as ex
from rellich import pairs as pr
from rellich.expr import (Binary, Const, DomainError, ExtFloat, Iter, Param, ParseError,
                          Unary, UnboundParameterError, Var, differentiate,
                          evaluate, fd_check, parse)
from rellich.geometry import SpaceForm


class TestParse:
    def test_simple_tree_shape(self):
        e = parse("n/(2*t)")
        assert isinstance(e, Binary) and e.op == "/"
        assert isinstance(e.left, Param) and e.left.name == "n"
        assert isinstance(e.right, Binary) and e.right.op == "*"

    def test_precedence(self):
        assert parse("2+3*4").evaluate({}) == 14.0
        assert parse("2*3+4").evaluate({}) == 10.0
        assert parse("2*3^2").evaluate({}) == 18.0
        assert parse("(2+3)*4").evaluate({}) == 20.0

    def test_power_right_associative(self):
        assert parse("2^3^2").evaluate({}) == 512.0  # 2^(3^2)

    def test_unary_minus(self):
        # per the grammar, "-" binds at the base level: -t^2 is (-t)^2
        assert parse("-t^2").evaluate({"t": 3.0}) == 9.0
        assert parse("-(t^2)").evaluate({"t": 3.0}) == -9.0
        assert parse("2--3").evaluate({}) == 5.0

    def test_iterated_log_parse(self):
        e = parse("logk(2, r/t)")
        assert isinstance(e, Iter) and e.depth == 2 and e.func == "logk"

    def test_numbers(self):
        assert parse("1.5e2").evaluate({}) == 150.0
        assert parse(".25").evaluate({}) == 0.25
        assert parse("2e-3").evaluate({}) == 0.002

    def test_constants(self):
        assert parse("pi").evaluate({}) == math.pi
        assert parse("e").evaluate({}) == math.e

    def test_whitespace_insignificant(self):
        a = parse("n /( 2*t )").evaluate({"n": 6.0, "t": 3.0})
        b = parse("n/(2*t)").evaluate({"n": 6.0, "t": 3.0})
        assert a == b

    def test_syntax_error_offset(self):
        with pytest.raises(ParseError) as err:
            parse("2+*3")
        assert err.value.offset == 2

    def test_unknown_identifier(self):
        with pytest.raises(ParseError, match="unknown identifier"):
            parse("2*x")

    def test_unknown_function(self):
        with pytest.raises(ParseError, match="unknown identifier"):
            parse("foo(t)")

    def test_arity_mismatch(self):
        with pytest.raises(ParseError, match="argument"):
            parse("log(t, t)")
        with pytest.raises(ParseError, match="argument"):
            parse("logk(t)")

    def test_iter_depth_must_be_literal(self):
        with pytest.raises(ParseError, match="depth"):
            parse("logk(t, t)")
        with pytest.raises(ParseError, match="depth"):
            parse("logk(-1, t)")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse("1+2)")


def _backends(x):
    """t = x on each backend: a float, a one-element numpy array, an ExtFloat."""
    return (x, np.array([x]), ExtFloat(x))


class TestEvaluate:
    def test_arithmetic(self):
        assert evaluate(parse("n/(2*t)"), {"n": 6.0, "t": 3.0}) == 1.0

    def test_ct_zero_curvature(self):
        assert evaluate(parse("ct(t)"), {"kappa": 0.0, "t": 2.0}) == 0.5

    def test_ct_hyperbolic(self):
        # independent: coth(1) = cosh(1)/sinh(1)
        want = math.cosh(1.0) / math.sinh(1.0)
        got = evaluate(parse("ct(t)"), {"kappa": 1.0, "t": 1.0})
        assert got == pytest.approx(want, abs=1e-14)
        assert got == pytest.approx(1.3130352855, abs=1e-9)

    def test_iterated_log_value(self):
        got = evaluate(parse("logk(1, r/t)"), {"r": math.e, "t": 1.0})
        assert got == pytest.approx(1.0, abs=1e-15)

    def test_iterated_identity_depth_zero(self):
        for x in (0.1, 1.0, 7.5, 123.0):
            assert evaluate(parse("logk(0, t)"), {"t": x}) == x
            assert evaluate(parse("expk(0, t)"), {"t": x}) == x

    def test_unbound_parameter(self):
        with pytest.raises(UnboundParameterError):
            evaluate(parse("n*t"), {"t": 1.0})

    # the domain rules hold on every backend (the ExtFloat table's log and
    # sqrt would otherwise raise ValueError, and its coth(0) ZeroDivisionError)

    def test_log_domain(self):
        for x in (-1.0, 0.0):
            for t in _backends(x):
                with pytest.raises(DomainError, match="'log'"):
                    evaluate(parse("log(t)"), {"t": t})

    def test_sqrt_domain(self):
        for t in _backends(1.0):
            with pytest.raises(DomainError, match="'sqrt'"):
                evaluate(parse("sqrt(t-2)"), {"t": t})
        for t in _backends(2.0):
            assert evaluate(parse("sqrt(t-2)"), {"t": t}) == 0.0

    def test_division_by_zero(self):
        for t in _backends(1.0):
            with pytest.raises(DomainError, match="'/'"):
                evaluate(parse("1/(t-1)"), {"t": t})

    def test_noninteger_power_needs_positive_base(self):
        for t in _backends(0.5):
            with pytest.raises(DomainError, match=r"'\^'"):
                evaluate(parse("(t-2)^0.5"), {"t": t})
            with pytest.raises(DomainError, match=r"'\^'"):
                evaluate(parse("(t-2)^t"), {"t": t})

    def test_integer_power_of_negative_base(self):
        for t in _backends(1.0):
            assert evaluate(parse("(t-2)^3"), {"t": t}) == -1.0
            # an integer exponent only known at evaluation time
            assert evaluate(parse("(t-2)^k"), {"t": t, "k": 3.0}) == -1.0

    def test_ct_domain(self):
        for kappa in (0.0, 1.0):
            for x in (-1.0, 0.0):
                for t in _backends(x):
                    with pytest.raises(DomainError, match="'ct'"):
                        evaluate(parse("ct(t)"), {"t": t, "kappa": kappa})

    def test_negative_integer_power_of_zero(self):
        # x^-k is 1/x^k, so an exact zero falls under the '/' rule
        for t in _backends(0.5):
            for src in ("(t-0.5)^-1", "(t-0.5)^-2"):
                with pytest.raises(DomainError, match="'/'"):
                    evaluate(parse(src), {"t": t})

    def test_computed_integer_exponent(self):
        # one rule on every backend: x <= 0 needs an integer exponent, x = 0 a
        # nonnegative one, whether or not the exponent is a constant
        for t in _backends(1.0):
            assert evaluate(parse("(t-1)^t"), {"t": t}) == 0.0
            assert evaluate(parse("(t-2)^(t+1)"), {"t": t}) == 1.0
            with pytest.raises(DomainError, match=r"'\^'"):
                evaluate(parse("(t-1)^(t+0.5)"), {"t": t})
            with pytest.raises(DomainError, match=r"'\^'"):
                evaluate(parse("(t-1)^(t-3)"), {"t": t})

    def test_integer_power_accuracy(self):
        # repeated multiplication: exact for small integer powers
        assert evaluate(parse("t^4"), {"t": 3.0}) == 81.0
        assert evaluate(parse("t^-2"), {"t": 4.0}) == pytest.approx(0.0625, rel=1e-16)

    def test_coth_domain(self):
        for t in _backends(1.0):
            with pytest.raises(DomainError, match="'coth'"):
                evaluate(parse("coth(t-1)"), {"t": t})

    def test_vectorized_matches_scalar(self):
        e = parse("sinh(t)/t + ct(t)^2")
        ts = np.array([0.25, 1.0, 3.0])
        vec = evaluate(e, {"kappa": 1.0, "t": ts})
        for i, t in enumerate(ts):
            assert vec[i] == pytest.approx(
                evaluate(e, {"kappa": 1.0, "t": float(t)}), rel=1e-15)

    def test_vectorized_domain_error(self):
        with pytest.raises(DomainError):
            evaluate(parse("log(t)"), {"t": np.array([1.0, -1.0])})

    def test_overflow_saturates_without_nan(self):
        # 1/sinh^2 underflows gracefully to 0 for huge arguments
        got = evaluate(parse("1/sinh(t)^2"), {"t": 1000.0})
        assert got == 0.0

    @pytest.mark.parametrize("s", [-2000.0, -2e6])
    def test_extended_backend_deep_range(self, s):
        t = ex.ext_exp(s)
        got = evaluate(parse("t^2*(1/(t^2*log(r/t)^2))"), {"t": t, "r": math.e})
        assert isinstance(got, ExtFloat)
        assert float(got) == pytest.approx(1.0 / (1.0 - s) ** 2, rel=1e-14)
        # below 2^-1000 sinh t = tanh t = t and cosh t = 1; a real power
        # splits its exponent exactly, so t^2.5 keeps float precision
        for src in ("sinh(t)/t", "tanh(t)/t", "t*coth(t)", "t*ct(t)", "cosh(t)",
                    "t^2.5/(t*t*sqrt(t))", "t^-0.5*sqrt(t)"):
            got = evaluate(parse(src), {"t": t, "kappa": 1.0})
            assert float(got) == pytest.approx(1.0, rel=1e-15), src

    def test_extended_exponentials_saturate_far_outside_float_range(self):
        # e^(e^(2e6)) has an exponent of 2.9e6 digits; past the saturation
        # bound exp, sinh and cosh return 0 or +-inf at once, and at it exp
        # keeps float precision
        t = ex.ext_exp(-2e6)
        got = [evaluate(parse(f), {"t": t}) for f in
               ("exp(1/t)", "exp(-1/t)", "sinh(-1/t)", "cosh(-1/t)", "t^2*exp(1/t)")]
        assert got == [math.inf, 0.0, -math.inf, math.inf, math.inf]
        bound = ex._EXP_SATURATION
        for x in (bound, -bound):
            got = evaluate(parse("exp(t)"), {"t": ExtFloat(x)})
            with mpmath.workdps(50):
                m, e = mpmath.frexp(mpmath.exp(mpmath.mpf(x)))
            assert got.e == e and got.m == pytest.approx(float(m), rel=4 * 2.0 ** -53)
        assert evaluate(parse("exp(t)"), {"t": ExtFloat(2 * bound)}) == math.inf
        assert evaluate(parse("exp(-t)"), {"t": ExtFloat(2 * bound)}) == 0.0

    @pytest.mark.parametrize("s", [-2e6, -1e5, -745.5, -120.5])
    def test_extended_exp_matches_50_digits(self, s):
        # Cody-Waite reduction with a three-part ln 2: the exponent exact,
        # the mantissa within 2 ulp
        got = ex.ext_exp(s)
        with mpmath.workdps(50):
            m, e = mpmath.frexp(mpmath.exp(mpmath.mpf(s)))
        assert got.e == e
        assert abs(got.m - float(m)) <= 2 * math.ulp(got.m)

    def test_extended_arithmetic_rounds_as_float(self):
        # + - * / round once: inside float range an ExtFloat gives the
        # float's bits, signed zeros included, whatever the operand order
        rng = random.Random(5)
        special = [0.0, -0.0, 1.0, -3.5]
        xs = [rng.uniform(-1, 1) * 10.0 ** rng.randint(-300, 300) for _ in range(400)]
        for x, y in [(x, y) for x in special for y in special] + list(zip(xs, reversed(xs))):
            for op in ("+", "-", "*", "/"):
                if op == "/" and y == 0:
                    continue
                want = ex._FLOAT[op](x, y)
                for got in (ex._EXT[op](ExtFloat(x), ExtFloat(y)), ex._EXT[op](x, ExtFloat(y)),
                            ex._EXT[op](ExtFloat(x), y)):
                    assert float(got).hex() == want.hex()
        tiny, huge = ExtFloat(0.75, -5000), ExtFloat(0.75, 5000)
        assert tiny > 0 and -tiny < 0 <= tiny and huge > tiny and not huge < 1.0
        assert float(huge) == math.inf and float(-tiny) == 0.0 and math.copysign(1, float(-tiny)) < 0
        assert (huge + tiny) == huge and (huge - huge) == 0 and (tiny * huge) == 0.5625


def _walk(e, b, be):
    """Reference tree walk over the same primitive table: every node is
    evaluated at every one of its uses, as the evaluator did before it was
    compiled."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        return b["t"]
    if isinstance(e, Param):
        return b[e.name]
    if isinstance(e, Iter):
        x = _walk(e.child, b, be)
        for _ in range(e.depth):
            x = be["log" if e.func == "logk" else "exp"](x)
        return x
    if isinstance(e, Unary):
        x = _walk(e.child, b, be)
        return be["ct"](x, b["kappa"]) if e.op == "ct" else be[e.op](x)
    x = _walk(e.left, b, be)
    if e.op == "^" and isinstance(e.right, Const) and e.right.value.is_integer():
        return be["ipow"](x, int(e.right.value))
    return be[e.op](x, _walk(e.right, b, be))


def _bits(x):
    """The exact bits of a value: sign of zero and NaN payloads included."""
    if isinstance(x, np.ndarray):
        return x.dtype, x.shape, x.tobytes()
    if isinstance(x, ExtFloat):
        return x.m.hex(), x.e
    return float(x).hex()


def _reference(e, b):
    be = ex._backend(b["t"])
    with np.errstate(all="ignore"):
        return _walk(e, b, be)


def _ell_e1(k, which="E1"):
    dual = pr.from_bessel_potential(cat.ell_potential(k, 1.0).specs["potential"], "iii", 5)
    e = pr.e1_expr(dual) if which == "E1" else pr.e2_expr(dual)
    return e, dual.bindings(SpaceForm(5, 0.0, 1.0))


def _iterlog_e1(k):
    dual = pr.from_bessel_potential(
        cat.iterated_log_potential(k, 1.0).specs["potential"], "iii", 5)
    return pr.e1_expr(dual), dual.bindings(SpaceForm(5, 0.0, 1.0))


class TestCompiledEvaluator:
    @pytest.mark.parametrize("tree", ["ell6-E1", "ell6-E2", "iterlog3-E1"])
    def test_bit_identical_to_tree_walk(self, tree):
        e, b = {"ell6-E1": lambda: _ell_e1(6), "ell6-E2": lambda: _ell_e1(6, "E2"),
                "iterlog3-E1": lambda: _iterlog_e1(3)}[tree]()
        points = [pr.log_grid(1e-5, 1.0, 2000)]
        points += [float(t) for t in pr.log_grid(1e-5, 0.999, 20)]
        points += [ExtFloat(float(t)) for t in pr.log_grid(1e-4, 0.99, 5)]
        points += [ex.ext_exp(s) for s in (-130.0, -3000.5, -2e6)]
        for t in points:
            bt = {**b, "t": t}
            assert _bits(e.evaluate(bt)) == _bits(_reference(e, bt))

    def test_signed_zero_constants_stay_apart(self):
        # merged, 0.0 and -0.0 would give +0.0 here; kept apart, -0.0
        e = Binary("*", Binary("*", Var(), Const(0.0)), Binary("*", Var(), Const(-0.0)))
        for t in (2.0, np.array([2.0, 3.0])):
            got = e.evaluate({"t": t})
            assert _bits(got) == _bits(_reference(e, {"t": t}))
            assert np.all(np.signbit(got))

    @pytest.mark.parametrize("table, t", [("_FLOAT", 2.0), ("_NUMPY", np.array([2.0, 3.0]))])
    def test_equal_subtrees_evaluate_once(self, monkeypatch, table, t):
        calls = []
        counted = dict(getattr(ex, table))
        counted["log"] = lambda x, log=counted["log"]: calls.append(1) or log(x)
        monkeypatch.setattr(ex, table, counted)
        e = parse("log(t)") * parse("log(t)")
        for _ in range(3):
            e.evaluate({"t": t})
            assert len(calls) == 1
            calls.clear()

    def test_program_size_and_live_values(self):
        e, _ = _ell_e1(6)
        program = ex.Program((e,))
        assert len(program.code) <= 300
        assert program.width <= 20

    def test_program_gives_each_root_its_own_value(self):
        dual = pr.from_bessel_potential(cat.ell_potential(6, 1.0).specs["potential"],
                                        "iii", 5)
        terms = pr.e1_terms(dual)
        # a repeated root, a root inside another root, and a constant root
        roots = (*terms, pr.e1_expr(dual), terms[0], dual.expr("H"), Const(2.0))
        program = ex.Program(roots)
        b = dual.bindings(SpaceForm(5, 0.0, 1.0))
        for t in (0.3, pr.log_grid(1e-5, 0.999, 500), ExtFloat(0.3)):
            bt = {**b, "t": t}
            assert [_bits(v) for v in program.evaluate(bt)] == [
                _bits(root.evaluate(bt)) for root in roots]

    def test_side_condition_program_is_no_larger_than_its_sum(self):
        dual = pr.from_bessel_potential(cat.ell_potential(6, 1.0).specs["potential"],
                                        "iii", 5)
        summed = ex.Program((pr.e1_expr(dual),))
        assert len(ex.Program(tuple(pr.e1_terms(dual))).code) <= len(summed.code) == 292

    def test_error_is_the_first_in_left_to_right_order(self):
        # the right operand needs more live values, so it is computed first;
        # the error must still be the one a left-to-right walk meets first
        e = parse("log(t-5) + sqrt((t-10)*(t-11) - 200)")
        for t in _backends(0.0):
            with pytest.raises(DomainError, match="'log'"):
                evaluate(e, {"t": t})
        with pytest.raises(UnboundParameterError, match="'n'"):
            evaluate(parse("n + k*(t-1)*(t-2)"), {"t": 1.0})


class TestDifferentiate:
    def test_power_rule(self):
        d = differentiate(parse("n/(2*t)"))
        got = d.evaluate({"n": 6.0, "t": 2.0})
        assert got == pytest.approx(-6.0 / (2 * 4.0), rel=1e-15)

    def test_shared_subtree_differentiated_once(self):
        u = parse("log(t)")
        d = (u * u).diff()          # u' u + u u'
        assert d.left.left is d.right.right

    def test_ct_derivative_value(self):
        d = differentiate(parse("ct(t)"))
        got = d.evaluate({"kappa": 1.0, "t": 1.0})
        assert got == pytest.approx(1.0 - math.cosh(1.0) ** 2 / math.sinh(1.0) ** 2,
                                    abs=1e-12)
        assert got == pytest.approx(-0.7240616608, abs=1e-9)
        # the same closed form covers kappa = 0: d(1/t) = -1/t^2
        got0 = d.evaluate({"kappa": 0.0, "t": 2.0})
        assert got0 == pytest.approx(-0.25, rel=1e-15)

    def test_sqrt_log_derivative(self):
        e = parse("sqrt(logk(1, r/t))")
        got = differentiate(e).evaluate({"r": math.e, "t": 1.0})
        assert got == pytest.approx(-0.5, rel=1e-12)

    def test_fd_oracle_ct(self):
        assert fd_check(parse("ct(t)"), {"kappa": 1.0, "t": 0.5}, h=1e-6) <= 1e-6

    def test_fd_oracle_quadratic(self):
        assert fd_check(parse("t^2"), {"t": 3.0}, h=1e-5) <= 1e-8

    def test_derivative_closed_under_primitives(self):
        # differentiating any parsed catalog-like expression yields an Expr
        # that still evaluates and prints
        for text in ("ct(t)^2", "logk(3, r/t)", "expk(2, t/10)",
                     "sqrt(logk(1, r/t))*t^-1.5", "tanh(t)*coth(t)"):
            d = differentiate(parse(text))
            s = str(d)
            val = parse(s).evaluate({"kappa": 0.5, "r": 40.0, "t": 1.3})
            assert val == pytest.approx(d.evaluate({"kappa": 0.5, "r": 40.0, "t": 1.3}),
                                        rel=1e-12)


def _bounded(e):
    """Squash a subtree into (0.5, 2.5) so random nests stay well conditioned
    (the finite-difference oracle loses accuracy on badly scaled trees)."""
    return Const(1.5) + Unary("tanh", e)


def _random_expr(rng: random.Random, depth: int):
    """Random tree over safe-domain constructions (arguments kept positive
    where the primitive needs it, magnitudes kept moderate)."""
    if depth == 0 or rng.random() < 0.25:
        c = rng.choice(["t", "t", "const", "n"])
        if c == "t":
            return Var()
        if c == "n":
            return Param("n")
        return Const(rng.uniform(0.2, 3.0))
    kind = rng.choice(["add", "sub", "mul", "div", "pow", "fn", "iter"])
    a = _random_expr(rng, depth - 1)
    if kind in ("add", "sub", "mul", "div"):
        b = _random_expr(rng, depth - 1)
        op = {"add": "+", "sub": "-", "mul": "*", "div": "/"}[kind]
        if kind == "div":
            b = _bounded(b)  # keep the denominator positive
        return Binary(op, a, b)
    if kind == "pow":
        return Binary("^", _bounded(a), Const(rng.choice([-2.0, -1.0, 2.0, 3.0, 0.5])))
    if kind == "fn":
        fn = rng.choice(["log", "exp", "sqrt", "sinh", "cosh", "tanh", "coth", "ct"])
        if fn in ("log", "sqrt", "coth", "ct"):
            return Unary(fn, _bounded(a))
        return Unary(fn, Unary("tanh", a))
    return Iter(rng.choice(["logk", "expk"]), rng.randint(0, 2), _bounded(a))


class TestFdProperty:
    def test_fd_check_random_trees(self):
        """1000 random trees of depth <= 6, 20 points each:
        |fd - symbolic| <= 1e-5 * (1 + |f'|)."""
        rng = random.Random(20260809)
        npts = 20
        trees_checked = 0
        points_checked = 0
        for _ in range(1000):
            e = _random_expr(rng, rng.randint(1, 6))
            d = e.diff("t")
            pts = [rng.uniform(0.1, 10.0) for _ in range(npts)]
            base = {"kappa": rng.choice([0.0, 1.0]), "n": 5.0, "r": 30.0}
            def _fd(h):
                up = np.broadcast_to(np.asarray(
                    e.evaluate({**base, "t": ts + h}), dtype=float), ts.shape)
                dn = np.broadcast_to(np.asarray(
                    e.evaluate({**base, "t": ts - h}), dtype=float), ts.shape)
                return (up - dn) / (2 * h)

            try:
                ts = np.array(pts)
                sym = np.broadcast_to(np.asarray(
                    d.evaluate({**base, "t": ts}), dtype=float), ts.shape)
                fd = _fd(1e-6)
                fd2 = _fd(8e-6)
            except DomainError:
                continue
            tol = 1e-5 * (1.0 + np.abs(sym))
            # self-validating oracle: only where the two step sizes agree is
            # the central difference itself accurate enough to judge
            usable = np.abs(fd - fd2) <= 0.3 * tol
            ok = np.abs(fd - sym) <= tol
            assert (ok | ~usable).all(), f"fd mismatch for {e}"
            trees_checked += 1
            points_checked += int(usable.sum())
        assert trees_checked >= 900   # domain rejections must stay rare
        assert points_checked >= 15_000

    def test_roundtrip_random_trees(self):
        rng = random.Random(7)
        for _ in range(300):
            e = _random_expr(rng, rng.randint(1, 5))
            text = str(e)
            e2 = parse(text)
            for t in (0.3, 1.0, 4.5):
                b = {"kappa": 1.0, "n": 5.0, "r": 30.0, "t": t}
                try:
                    want = e.evaluate(b)
                except DomainError:
                    continue
                assert e2.evaluate(b) == pytest.approx(want, rel=1e-12, abs=1e-12)


class TestImmutability:
    def test_nodes_reject_mutation(self):
        e = parse("t^2")
        with pytest.raises(AttributeError):
            e.op = "+"
        with pytest.raises(AttributeError):
            Const(1.0).value = 2.0
