"""Parser, evaluator, and symbolic-derivative tests for the expression DSL."""

import gc
import hashlib
import itertools
import math
import operator
import random
import sys

import numpy as np
import pytest

from rellich import catalog as cat
from rellich import expr as ex
from rellich import pairs as pr
from rellich import verify as vf
from rellich.expr import (Binary, Const, DomainError, Iter, Param, ParseError,
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

    @pytest.mark.parametrize("text, message, offset", [
        ("t + $", "unexpected character '$'", 4),
        ("(t + 1", "expected ')'", 6),
        ("log(t t)", "expected ',' or ')'", 6),
        ("log(t", "expected ',' or ')'", 5),
        ("(1,2)", "expected ')'", 2),
        ("2*x", "unknown identifier 'x'", 2),
        ("foo(t)", "unknown identifier 'foo'", 0),
        ("foo(x)", "unknown identifier 'x'", 4),        # an argument before its function
        ("t (2)", "unknown identifier 't'", 0),         # a name before '(' is a call
        ("log(t, t)", "log() takes exactly 1 argument, got 2", 0),
        ("logk(t)", "logk() takes exactly 2 arguments, got 1", 0),
        ("logk(1.5, t)", "logk() depth must be a nonnegative integer literal", 0),
        ("logk(-1, t)", "logk() depth must be a nonnegative integer literal", 0),
        ("1+2)", "unexpected trailing input ')'", 3),
        ("1,2", "unexpected trailing input ','", 1),
        ("2+ ", "unexpected end of input", 3),
        ("", "unexpected end of input", 0),
        ("2+*3", "expected expression, got '*'", 2),
        ("log()", "expected expression, got ')'", 4),
        ("2+* $", "unexpected character '$'", 4),       # before the syntax error at 2
    ])
    def test_error_names_its_offset(self, text, message, offset):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert str(err.value) == f"{message} (at offset {offset})"
        assert err.value.offset == offset

    @pytest.mark.parametrize("text, grouped", [
        ("-t^2", "(-t)^2"), ("2^-t", "2^(-t)"), ("-log(t)^2", "(-log(t))^2"),
        ("n-r-c", "(n-r)-c"), ("2^3^2", "2^(3^2)"), ("t^n^c", "t^(n^c)"),
        ("2--3", "2-(-3)"), ("log (t)", "log(t)"), ("-logk(1, -t)", "-(logk(1, (-t)))"),
    ])
    def test_grouping_is_tree_identity(self, text, grouped):
        assert parse(text) is parse(grouped)

    def test_grouping_is_not_the_other_one(self):
        assert parse("-t^2") is not parse("-(t^2)")
        assert parse("n-r-c") is not parse("n-(r-c)")
        assert parse("t^n^c") is not parse("(t^n)^c")


class TestDeepTrees:
    # parsing, printing and differentiating walk explicit stacks, so a tree
    # far deeper than the recursion limit runs
    N = 5000

    @pytest.mark.parametrize("text, value, slope", [
        ("+".join(["log(t)"] * N), N * math.log(2.0), N / 2.0),
        ("(t-" * N + "t" + ")" * N, 2.0, 1.0),          # t-(t-(...(t-t)))
        ("-" * N + "t", 2.0, 1.0),
    ], ids=["sum", "parentheses", "minus"])
    def test_parse_print_differentiate(self, text, value, slope):
        assert sys.getrecursionlimit() < self.N
        e = parse(text)
        assert parse(str(e)) is e
        assert e.evaluate({"t": 2.0}) == pytest.approx(value, rel=1e-12)
        assert e.diff().evaluate({"t": 2.0}) == slope


def _backends(x):
    """t = x as a float and as a one-element numpy array."""
    return (x, np.array([x]))


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

    # the domain rules hold for a float t and for an array t

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

    def test_ct_where_kappa_t_underflows(self):
        # kappa t underflows to 0 while t > 0: ct is +inf, on a float t as
        # on an array
        for kappa in (1e-10, -1e-10):
            b = {"t": 1e-320, "kappa": kappa}
            got = evaluate(parse("ct(t)"), b)
            vec = evaluate(parse("ct(t)"), {**b, "t": np.array([1e-320])})
            assert got == vec[0] == math.inf

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

    @pytest.mark.parametrize("y", [0.5, -0.5, -2.0, 2.0, math.nan])
    def test_scalar_exponent_mask_matches_array_mask(self, y):
        # a scalar exponent's mask reads x alone; it names the same first bad
        # argument, or gives the same values, as the mask of an array exponent
        def outcome(x, exponent):
            try:
                return _bits(ex._pow(x, exponent))
            except DomainError as exc:
                return str(exc)

        for xs in itertools.permutations([-1.0, -0.0, 0.0, 0.5, math.nan]):
            x = np.array(xs)
            want = outcome(x, np.full(x.shape, y))
            assert outcome(x, y) == outcome(x, np.float64(y)) == want

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

    @pytest.mark.parametrize("text, x, want", [
        ("exp(t)", 800.0, math.inf), ("cosh(t)", 800.0, math.inf),
        ("cosh(t)", -800.0, math.inf), ("t^1.5", 1e300, math.inf),
        ("sinh(t)", 800.0, math.inf), ("sinh(t)", -800.0, -math.inf),
    ])
    def test_overflow_is_the_same_on_every_backend(self, text, x, want):
        # overflow saturates to +inf, and sinh, which is odd, to the sign of
        # t, on a float t as on an array
        for t in _backends(x):
            assert float(np.asarray(parse(text).evaluate({"t": t})).flat[0]) == want

    @pytest.mark.parametrize("e, x, params", [
        *[(parse(text), 0.7, {}) for text in (
            "t+2", "t-2", "2*t", "t/3", "-t", "t^3", "t^-2", "t^1.5", "t^t", "(t-1)^k",
            "log(t)", "exp(t)", "sqrt(t)", "sinh(t)", "cosh(t)", "tanh(t)", "coth(t)",
            "logk(2, 3*t)", "expk(2, t)")],
        *[(Unary(op, Var()), x, {}) for op in ("sinhc", "tanhc", "xcoth") for x in (0.7, 0.0)],
        (parse("ct(t)"), 0.7, {"kappa": 0.0}), (parse("ct(t)"), 0.7, {"kappa": 1.0}),
        # overflow, signed zero, and ct where kappa t underflows to +-0
        (parse("exp(t)"), 800.0, {}), (parse("cosh(t)"), -800.0, {}),
        (parse("t^1.5"), 1e300, {}), (parse("sinh(t)"), -800.0, {}),
        (Binary("*", Var(), Const(-0.0)), 2.0, {}), (parse("-t"), 0.0, {}),
        (parse("ct(t)"), 1e-320, {"kappa": 1e-10}), (parse("ct(t)"), 1e-320, {"kappa": -1e-10}),
    ])
    def test_float_t_is_the_one_point_array(self, e, x, params):
        b = {"k": 3.0, **params}
        got = e.evaluate({**b, "t": x})
        vec = e.evaluate({**b, "t": np.array([x])})
        assert type(got) is float and vec.shape == (1,)
        assert got.hex() == float(vec[0]).hex()

    def test_no_math_primitive(self):
        from_math = {id(f) for f in vars(math).values() if callable(f)}
        assert not [op for op, f in ex._NUMPY.items() if id(f) in from_math]


def _walk(e, b, be):
    """Reference tree walk over the primitive table be: every node is
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
    return float(x).hex()


def _reference(e, b):
    with np.errstate(all="ignore"):
        return _walk(e, b, ex._NUMPY)


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

    def test_equal_subtrees_evaluate_once(self, monkeypatch):
        calls = []
        counted = dict(ex._NUMPY)
        counted["log"] = lambda x, log=counted["log"]: calls.append(1) or log(x)
        monkeypatch.setattr(ex, "_NUMPY", counted)
        e = parse("log(t)") * parse("log(t)")
        for t in (2.0, np.array([2.0, 3.0])) * 3:
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
        for t in (0.3, pr.log_grid(1e-5, 0.999, 500)):
            bt = {**b, "t": t}
            assert [_bits(v) for v in program.evaluate(bt)] == [
                _bits(root.evaluate(bt)) for root in roots]

    def test_side_condition_program_is_no_larger_than_its_sum(self):
        dual = pr.from_bessel_potential(cat.ell_potential(6, 1.0).specs["potential"],
                                        "iii", 5)
        summed = ex.Program((pr.e1_expr(dual),))
        assert len(ex.Program(tuple(pr.e1_terms(dual))).code) <= len(summed.code) == 225

    def test_error_is_the_same_on_every_backend(self):
        # both operands are out of domain at t = 0; the right one needs more
        # live values, so the scheduled order computes it first on every
        # backend, and its error is the one raised
        e = parse("log(t-5) + sqrt((t-10)*(t-11) - 200)")
        errors = []
        for t in _backends(0.0):
            with pytest.raises(DomainError, match="'sqrt'") as exc:
                evaluate(e, {"t": t})
            errors.append(exc.value)
        assert str(errors[0]) == str(errors[1]) == "domain violation in 'sqrt' at argument -90.0"
        # n and k are both unbound; the scheduled order loads k first
        with pytest.raises(UnboundParameterError, match="'k'"):
            evaluate(parse("n + k*(t-1)*(t-2)"), {"t": 1.0})


def _s_value(e, s, kappa=None, **params):
    """e's s-form, flattened, at the points s."""
    g = ex.s_flat(*ex.s_form(e, kappa))
    return g.evaluate({**params, "kappa": kappa, "t": np.asarray(s, dtype=float)})


class TestSForm:
    def test_rules(self):
        one, s = Const(1.0), Var()
        assert ex.s_form(parse("t")) == (1.0, one)
        assert ex.s_form(parse("t^2*t/sqrt(t)")) == (2.5, one)
        assert ex.s_form(parse("log(t)")) == (0.0, s)
        # e^(c s) is t^c, and the products of powers of t cancel
        assert ex.s_form(parse("exp(-8*log(t))*t^6")) == (-2.0, one)
        # summands of one node are collected, structural zeros drop out
        plain = ex.s_form(parse("1/(t*log(e/t))^2"))
        assert ex.s_form(parse("1/t^2 + 1/(t*log(e/t))^2 - 1/t^2")) == plain
        assert ex.s_form(parse("0*exp(1/t) + t - 0/t")) == (1.0, one)
        assert ex.s_form(parse("t + t")) == (1.0, Const(2.0))
        # the least exponent is factored out of a sum
        k, g = ex.s_form(parse("1/t^2 + 1"))
        assert k == -2 and str(g) == "1.0+exp(2.0*t)"
        # x-scaled primitives for sinh, tanh, coth and ct of t^k g, k > 0
        for src, kappa, k in (("sinh(t)", None, 1), ("tanh(2*t)", None, 1),
                              ("coth(t^2)", None, -2), ("ct(t)", 0.0, -1), ("ct(t)", 1.0, -1),
                              ("ct(t)", None, 0), ("sinh(1/t)", None, 0), ("cosh(t)", None, 0)):
            assert ex.s_form(parse(src), kappa)[0] == k, src

    @pytest.mark.parametrize("s", [-2000.0, -2e6])
    def test_float_at_any_depth(self, s):
        got = _s_value(parse("t^2*(1/(t^2*log(r/t)^2))"), s, r=math.e)
        assert got == pytest.approx(1.0 / (1.0 - s) ** 2, rel=1e-14)
        # the s-form collects the two 1/t^2 that cancel in t at the deep start
        got = _s_value(parse("t^2*(1/t^2 + 1/(t*log(e/t))^2 - 1/t^2)"), s)
        assert got == pytest.approx(1.0 / (1.0 - s) ** 2, rel=1e-14)
        for src in ("sinh(t)/t", "tanh(t)/t", "t*coth(t)", "t*ct(t)", "cosh(t)",
                    "t^2.5/(t*t*sqrt(t))", "t^-0.5*sqrt(t)"):
            assert _s_value(parse(src), s, kappa=1.0) == pytest.approx(1.0, rel=1e-15), src
        # a form that keeps k != 0 underflows to 0 (k > 0) or is out of
        # float range (k < 0) there, and so is e^(1/t)
        got = [_s_value(parse(src), s) for src in
               ("t^2", "1/t", "exp(1/t)", "exp(-1/t)", "sinh(-1/t)", "cosh(-1/t)")]
        assert got == [0.0, math.inf, math.inf, 0.0, -math.inf, math.inf]

    def test_random_trees_match_the_t_form(self):
        # the s-form flattened at s = log t is e(t) to about a few ulp
        # times e's condition number, wherever e is defined
        rng = random.Random(31)
        checked = 0
        for _ in range(400):
            e = _random_expr(rng, rng.randint(1, 5))
            ts = np.array([rng.uniform(0.1, 10.0) for _ in range(8)])
            kappa = rng.choice([0.0, 1.0])
            base = {"kappa": kappa, "n": 5.0, "r": 30.0}
            try:
                want = np.broadcast_to(e.evaluate({**base, "t": ts}), ts.shape)
            except DomainError:
                continue
            got = np.broadcast_to(_s_value(e, np.log(ts), kappa, n=5.0, r=30.0), ts.shape)
            finite = np.isfinite(want) & (np.abs(want) < 1e100)
            assert np.allclose(got[finite], want[finite], rtol=1e-9, atol=1e-12), str(e)
            checked += 1
        assert checked >= 300

    def test_variable_exponent_matches_the_t_form(self):
        # a variable exponent takes both operands flattened
        for e in (parse("t^t"), parse("t^t").diff()):
            k, g = ex.s_form(e)
            for t in (0.25, 1.7, 3.0):
                assert t ** k * g.evaluate({"t": math.log(t)}) == pytest.approx(
                    e.evaluate({"t": t}), rel=1e-13)

    def test_scaled_primitives(self):
        # sinhc, tanhc and xcoth are 1 at 0 on both backends, and
        # sinh(x)/x, tanh(x)/x and x coth(x) elsewhere
        xs = [0.0, -0.0, 1e-300, -0.5, 2.0, 800.0]
        for op, f in (("sinhc", lambda x: math.sinh(x) / x),
                      ("tanhc", lambda x: math.tanh(x) / x),
                      ("xcoth", lambda x: x / math.tanh(x))):
            e = Unary(op, Var())
            vec = e.evaluate({"t": np.array(xs)})
            for x, v in zip(xs, vec):
                want = 1.0 if x == 0 else (math.inf if x == 800.0 and op == "sinhc" else f(x))
                assert e.evaluate({"t": x}) == pytest.approx(want, rel=1e-15)
                assert v == pytest.approx(want, rel=1e-15)
        with pytest.raises(ParseError):
            parse("sinhc(t)")


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

    def test_variable_exponent(self):
        # t^t takes the log form: (t^t)' = t^t (t' log t + t t'/t)
        e = parse("t^t")
        assert e.diff().evaluate({"t": 2.0}) == pytest.approx(4.0 * (math.log(2.0) + 1.0),
                                                              rel=1e-15)
        assert fd_check(e, {"t": 1.7}, h=1e-6) <= 1e-7

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
            d = e.diff()
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


class TestUniqueNodes:
    def test_equal_constructions_are_one_object(self):
        assert parse("1/t^2") is parse("1/t^2")
        assert Binary("+", Var(), Param("n")) is parse("t + n")
        assert Iter("logk", 2, Var()) is parse("logk(2, t)")
        assert Const(1) is Const(1.0)

    def test_signed_zeros_are_two_nodes(self):
        assert Const(0.0) is not Const(-0.0)
        assert str(Const(-0.0)) == "-0.0"

    def test_derivative_in_t_is_kept(self):
        e = parse("exp(t) * ct(log(t))")
        assert e.diff() is e.diff()
        assert e.diff().diff() is e.diff().diff()

    def test_table_forgets_dead_trees(self):
        # the table holds no node alive: once a job's trees are garbage, no
        # later job can find them
        gc.collect()
        before = len(ex._NODES)
        dual = pr.from_bessel_potential(cat.ell_potential(6, 1.0).specs["potential"],
                                        "iii", 5)
        terms = pr.e1_terms(dual)
        assert len(ex._NODES) > before + 200
        del dual, terms
        gc.collect()
        assert len(ex._NODES) == before

    @pytest.mark.parametrize("entry_id, knobs, steps", [
        ("ell-family", {"k": 4}, {"E1": (159, 16), "E2": (157, 16), "residual": (177, 17)}),
        ("ell-family", {"k": 5}, {"E1": (191, 16), "E2": (189, 16), "residual": (212, 18)}),
        ("ell-family", {"k": 6}, {"E1": (223, 16), "E2": (221, 16), "residual": (247, 19)}),
        ("iterlog", {"k": 1}, {"E1": (50, 8), "E2": (47, 9), "residual": (60, 9)}),
        ("iterlog", {"k": 2}, {"E1": (67, 11), "E2": (64, 11), "residual": (80, 11)}),
        ("iterlog", {"k": 3}, {"E1": (84, 12), "E2": (81, 12), "residual": (100, 12)}),
        ("classical-rellich", {"n": 6}, {"E1": (16, 5), "E2": (14, 5), "residual": (20, 5)}),
        ("hyp-interp", {}, {"E1": (16, 5), "E2": (14, 5), "residual": (26, 6)}),
        ("hyp-final", {}, {"E1": (24, 6), "E2": (21, 6), "residual": (35, 6)}),
    ])
    def test_side_condition_programs_keep_their_steps(self, entry_id, knobs, steps):
        # compiled steps and registers of the dual's side-condition programs:
        # a rewrite that brings identity nodes back shows here as a diff
        entry = cat.build_entry(entry_id, **knobs)
        sf = SpaceForm(knobs.get("n", 5), entry.space_form.kappa, entry.space_form.R)
        dual = cat.entry_pair(entry, "dual", sf)
        got = {}
        for name in steps:
            program = ex.Program(tuple(pr.condition_terms(dual, name)))
            got[name] = (len(program.code), program.width)
        assert got == steps

    @pytest.mark.parametrize("name, steps, width, digest", [
        ("ell-family k=6 E1", 223, 16,
         "aebd013e15374c52d59ebe598ff8f86a55f89ef2dfe00ce11b71f310b046e4b3"),
        ("iterlog k=3 residual", 77, 11,
         "e65652126184920bf6b9385c3656a08c79b77d20760b6939536244cc0a2cf230"),
    ])
    def test_largest_scan_programs_are_pinned(self, name, steps, width, digest):
        # the code of the two largest scan programs, step by step and
        # register by register: a rewrite of the constructors, derivatives
        # or scheduler that keeps the values must keep these too
        if name.startswith("ell"):
            dual = pr.from_bessel_potential(cat.ell_potential(6, 1.0).specs["potential"],
                                            "iii", 5)
            terms = pr.e1_terms(dual)
        else:
            terms = pr.residual_terms(cat.iterated_log_potential(3, 1.0).specs["potential"])
        program = ex.Program(tuple(terms))
        assert (len(program.code), program.width) == (steps, width)
        assert hashlib.sha256(repr(program.code).encode()).hexdigest() == digest


_X, _ONE, _ZERO, _NZERO = Var(), Const(1.0), Const(0.0), Const(-0.0)
# (op, left, right, folded, the points t = x where the folded value's bits
# differ from those of the node built unfolded)
_RULES = [
    # exact: the folded value is the node's, bit for bit
    ("*", _X, _ONE, _X, ()), ("*", _ONE, _X, _X, ()), ("/", _X, _ONE, _X, ()),
    ("^", _X, _ONE, _X, ()), ("-", _X, _ZERO, _X, ()), ("+", _X, _NZERO, _X, ()),
    ("+", _NZERO, _X, _X, ()), ("-", _NZERO, _X, -_X, ()),
    # x+0, 0+x and x-(-0) keep x = -0.0, where the node gives +0.0
    ("+", _X, _ZERO, _X, (-0.0,)), ("+", _ZERO, _X, _X, (-0.0,)), ("-", _X, _NZERO, _X, (-0.0,)),
    # 0-x is -x, which is -0.0 at x = +0.0, where the node gives +0.0
    ("-", _ZERO, _X, -_X, (0.0,)),
    # a structural zero absorbs (see test_structural_zero_absorbs)
    *[(op, a, b, _ZERO, None) for zero in (_ZERO, _NZERO)
      for op, a, b in (("*", _X, zero), ("*", zero, _X), ("/", zero, _X))],
]
_POINTS = (0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 1e-310, -2.2e-308,
           1.5, -2.75, 1e300, -1e-300)


def _outcome(e, t):
    try:
        return _bits(e.evaluate({"t": t}))
    except DomainError:
        return "DomainError"


def _identity_nodes(roots) -> list:
    """The Binary nodes of the roots' DAG that _binary would have folded: a
    Const 1 under *, / (right) or ^ (right), a Const 0 under +, - or *, and
    a / of a zero numerator."""
    def zero(x):
        return type(x) is Const and x.value == 0.0

    def one(x):
        return type(x) is Const and x.value == 1.0

    found, seen, stack = [], set(), list(roots)
    while stack:
        e = stack.pop()
        if id(e) in seen:
            continue
        seen.add(id(e))
        if type(e) is Binary:
            a, b = e.left, e.right
            if ((e.op == "*" and (one(a) or one(b) or zero(a) or zero(b)))
                    or (e.op in "/^" and one(b)) or (e.op in "+-" and (zero(a) or zero(b)))
                    or (e.op == "/" and zero(a))):
                found.append(str(e))
            stack += [a, b]
        elif type(e) in (Unary, Iter):
            stack.append(e.child)
    return found


class TestIdentityFolding:
    @pytest.mark.parametrize("op, a, b, folded, differ", _RULES)
    def test_rule_returns_the_operand_or_zero(self, op, a, b, folded, differ):
        assert ex._binary(op, a, b) is folded
        # on any subtree x, and through the operators
        x = parse("log(t) + n")
        sub = {id(_X): x}
        want = -x if folded is -_X else sub.get(id(folded), folded)
        build = {"+": operator.add, "-": operator.sub, "*": operator.mul,
                 "/": operator.truediv, "^": operator.pow}[op]
        assert build(sub.get(id(a), a), sub.get(id(b), b)) is want

    @pytest.mark.parametrize("op, a, b, folded, differ",
                             [rule for rule in _RULES if rule[-1] is not None])
    def test_folded_value_against_the_unfolded_node(self, op, a, b, folded, differ):
        unfolded = Binary(op, a, b)
        got = [t.hex() for t in _POINTS if _outcome(folded, t) != _outcome(unfolded, t)]
        assert got == [t.hex() for t in differ]

    @pytest.mark.parametrize("op, a, b", [rule[:3] for rule in _RULES if rule[-1] is None])
    def test_structural_zero_absorbs(self, op, a, b):
        # +0.0 at every point: inf*0 and 0/0 give 0 where the node built
        # unfolded raises, and elsewhere the node is a zero of either sign
        unfolded = Binary(op, a, b)
        assert {_outcome(_ZERO, t) for t in _POINTS} == {(0.0).hex()}
        raised = [t.hex() for t in _POINTS if _outcome(unfolded, t) == "DomainError"]
        assert raised == [t.hex() for t in ((0.0, -0.0) if op == "/" else (math.inf, -math.inf))]
        assert all(unfolded.evaluate({"t": t}) == 0.0
                   for t in _POINTS if t.hex() not in raised)

    def test_parsed_input_folds(self):
        assert str(parse("t*1+0")) == "t"
        assert parse("0-t") is -Var()
        assert parse("0*log(t)") is Const(0.0)
        assert parse("0*log(t)").evaluate({"t": -1.0}) == 0.0

    @pytest.mark.parametrize("entry_id, knobs", [
        *[(entry_id, {}) for entry_id in cat.CATALOG_IDS],
        ("iterlog", {"k": 3}), ("ell-family", {"k": 3})])
    def test_no_identity_node_survives(self, entry_id, knobs):
        # every gating row's terms and every disconjugacy s-form program of
        # the entries the CLI builds
        entry = cat.build_entry(entry_id, **knobs)
        sf = entry.space_form
        roots = []
        for shape, row in vf.SHAPES.items():
            try:
                pair = cat.entry_pair(entry, row.kind, sf)
            except ValueError:
                continue
            if shape == "chain":
                rows = [(pair.dual, vf.SHAPES["delta-vs-gradrad"].gates)]
                rows += [(link.spec, ("residual",)) for link in pair.links]
            else:
                rows = [(pair, row.gates)]
            for spec, names in rows:
                for name in names:
                    roots += pr.condition_terms(spec, name)
        for p in entry.specs.values():
            if p.kind in ("bessel-potential", "bessel-pair"):
                a, b = pr._sspace_coefficients(p, sf.n)
                kappa = p.bindings(n=sf.n).get("kappa")          # as disconjugacy_check
                (ka, ga), (kb, gb) = ex.s_form(a, kappa), ex.s_form(b, kappa)
                roots += [ex.s_flat(ka, ga), ex.s_flat(kb, gb), *pr._summands(gb)]
        assert roots
        assert _identity_nodes(roots) == []


class TestImmutability:
    def test_nodes_reject_mutation(self):
        e = parse("t^2")
        with pytest.raises(AttributeError):
            e.op = "+"
        with pytest.raises(AttributeError):
            Const(1.0).value = 2.0
