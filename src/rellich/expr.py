"""Differentiable scalar expressions of one radial variable t.

Expressions are immutable trees over the variable ``t`` and the named
parameters ``n, kappa, lambda, r, R, c, k``.  They support evaluation
(float, numpy array, or ``ExtFloat`` backends, chosen from the type of
the ``t`` binding; an ExtFloat has a float mantissa and an unbounded
exponent, for t far below float range), closed-form differentiation,
printing back to the DSL, and a finite-difference self check.

Evaluation is compiled once per root: the first ``evaluate`` lowers the
tree to a straight-line program with one step per distinct subtree (the
trees ``diff`` builds repeat subtrees many times over), schedules it so
few values are live at once, and keeps it on the root.  ``Program``
compiles several roots into one such program, which computes each subtree
they share once.  Every step calls the same primitive on the same operands
as the tree node it stands for, so the values are those of a tree walk,
bit for bit.

Supported primitives: + - * / ^ (real power), negation, log, exp, sqrt,
sinh, cosh, tanh, coth, the curvature-aware ``ct`` (1/t when kappa = 0,
kappa*coth(kappa*t) when kappa > 0), and the iterated forms
``logk(i, x)`` / ``expk(i, x)`` with depth i >= 0 (depth 0 is the
identity).
"""

from __future__ import annotations

import math
import operator
import re
from typing import Mapping, Union

import numpy as np

__all__ = [
    "Expr", "Const", "Var", "Param", "Unary", "Binary", "Iter", "Program",
    "Bindings", "parse", "evaluate", "differentiate", "fd_check",
    "ExprError", "ParseError", "EvaluationError", "UnboundParameterError",
    "DomainError", "ExtFloat", "ext_exp",
]

PARAMETER_NAMES = ("n", "kappa", "lambda", "r", "R", "c", "k")
_CONSTANT_NAMES = {"pi": math.pi, "e": math.e}
_UNARY_FUNCTIONS = ("log", "exp", "sqrt", "sinh", "cosh", "tanh", "coth", "ct")
_ITER_FUNCTIONS = ("logk", "expk")

Number = Union[int, float]
Bindings = Mapping[str, object]


class ExprError(Exception):
    """Base class for expression errors."""


class ParseError(ExprError):
    """Syntax/identifier/arity error, carrying the byte offset into the source."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class EvaluationError(ExprError):
    """Base class for evaluation-time failures."""


class UnboundParameterError(EvaluationError):
    def __init__(self, name: str):
        super().__init__(f"parameter {name!r} is not bound")
        self.name = name


class DomainError(EvaluationError):
    """A primitive was applied outside its domain; never silently NaN."""

    def __init__(self, primitive: str, value):
        super().__init__(f"domain violation in {primitive!r} at argument {value!r}")
        self.primitive = primitive
        self.value = value


# ---------------------------------------------------------------------------
# numeric backends: one primitive table per number type


def _primitives(any_, reject, log, sqrt, exp, sinh, cosh, tanh, coth, hyp_ct,
                power, notint, isnan) -> dict:
    """The checked primitive table of one backend, built from its raw functions.

    The domain rules live here, once for every backend: log and ct reject
    x <= 0, sqrt rejects x < 0, coth and / reject 0, and so does a negative
    integer power (it is 1/x^k); x^y rejects x <= 0 where y is not an
    integer and x = 0 where y < 0 (NaN passes).  ``any_`` reduces a
    predicate to a bool and ``reject`` raises the DomainError for the first
    offending argument.  A scalar predicate is already a plain bool, so
    ``bad is not False`` spares the scalar paths the reduction call.
    """

    def log_(x):
        bad = x <= 0
        if bad is not False and any_(bad):
            reject("log", x, bad)
        return log(x)

    def sqrt_(x):
        bad = x < 0
        if bad is not False and any_(bad):
            reject("sqrt", x, bad)
        return sqrt(x)

    def coth_(x):
        bad = x == 0
        if bad is not False and any_(bad):
            reject("coth", x, bad)
        return coth(x)

    def ct_(x, kappa):
        bad = x <= 0
        if bad is not False and any_(bad):
            reject("ct", x, bad)
        if kappa == 0:
            return 1.0 / x
        return hyp_ct(x, kappa)

    def truediv(x, y):
        bad = y == 0
        if bad is not False and any_(bad):
            reject("/", y, bad)
        return x / y

    def int_pow(x, k):
        if k < 0:
            return truediv(1.0, _ipow(x, -k))
        return _ipow(x, k)

    def real_pow(x, y):
        bad = ((x <= 0) & notint(y)) | ((x == 0) & (y < 0))
        if bad is not False and any_(bad):
            reject("^", x, bad)
        if isinstance(y, (int, float, ExtFloat)) and float(y).is_integer():
            return int_pow(x, int(float(y)))
        return power(x, y)

    return {"+": operator.add, "-": operator.sub, "*": operator.mul, "neg": operator.neg,
            "log": log_, "sqrt": sqrt_, "exp": exp, "sinh": sinh, "cosh": cosh,
            "tanh": tanh, "coth": coth_, "ct": ct_, "/": truediv, "^": real_pow,
            "ipow": int_pow, "isnan": isnan}


def _reject_scalar(primitive, x, bad):
    raise DomainError(primitive, x)


def _reject_array(primitive, x, bad):
    raise DomainError(primitive, float(np.asarray(x)[np.asarray(bad)].flat[0]))


def _sinh_float(x):
    try:
        return math.sinh(x)
    except OverflowError:
        return math.copysign(math.inf, x)


def _cosh_float(x):
    try:
        return math.cosh(x)
    except OverflowError:
        return math.inf


def _exp_float(x):
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _pow_float(x, y):
    try:
        return math.pow(x, y)
    except OverflowError:
        return math.inf


def _notint_scalar(y):
    return not float(y).is_integer()


# the float table stays on math: numpy's exp/sinh/cosh/tanh differ from libm
# in the last bit on some inputs, and scalar paths must match earlier reports
_FLOAT = _primitives(
    bool, _reject_scalar, math.log, math.sqrt, _exp_float, _sinh_float, _cosh_float,
    math.tanh, lambda x: 1.0 / math.tanh(x), lambda x, kappa: kappa / math.tanh(kappa * x),
    _pow_float, _notint_scalar,
    lambda x: isinstance(x, float) and math.isnan(x))

# overflow is silenced by the errstate in Expr.evaluate
_NUMPY = _primitives(
    np.any, _reject_array, np.log, np.sqrt, np.exp, np.sinh, np.cosh, np.tanh,
    lambda x: 1.0 / np.tanh(x), lambda x, kappa: kappa / np.tanh(kappa * x),
    np.power, lambda y: np.mod(y, 1.0) != 0, lambda x: bool(np.any(np.isnan(x))))


# ---------------------------------------------------------------------------
# extended-exponent scalars: the disconjugacy ODE starts at t = e^(-2e6)


class ExtFloat:
    """A real number m * 2^e: a float mantissa m, normalized by frexp
    (0.5 <= |m| < 1) unless it is zero, infinite or NaN, and a Python-int
    exponent e.  + - * / round once, so inside float range they give the
    float's bits; a float or int operand is promoted to an ExtFloat."""

    __slots__ = ("m", "e")

    def __init__(self, x, e=0):
        self.m, d = math.frexp(x)
        self.e = e + d

    def __float__(self):
        try:
            return math.ldexp(self.m, self.e)
        except OverflowError:
            return math.copysign(math.inf, self.m)

    def __repr__(self):
        return f"ExtFloat({self.m!r}, {self.e})"

    def __neg__(self):
        return ExtFloat(-self.m, self.e)

    def __add__(self, other):
        return _add(self.m, self.e, *_split(other))

    __radd__ = __add__

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return _add(*_split(other), -self.m, self.e)

    def __mul__(self, other):
        if type(other) is ExtFloat:
            return ExtFloat(self.m * other.m, self.e + other.e)
        m, e = math.frexp(other)
        return ExtFloat(self.m * m, self.e + e)

    __rmul__ = __mul__

    def __truediv__(self, other):
        m, e = _split(other)
        return ExtFloat(self.m / m, self.e - e)

    def __rtruediv__(self, other):
        m, e = _split(other)
        return ExtFloat(m / self.m, e - self.e)

    def _sign(self, other) -> float:
        """A float with the sign of self - other (NaN if unordered)."""
        if type(other) is not ExtFloat and other == 0:
            return self.m
        return (self - other).m

    def __lt__(self, other):
        return self._sign(other) < 0

    def __le__(self, other):
        return self._sign(other) <= 0

    def __gt__(self, other):
        return self._sign(other) > 0

    def __ge__(self, other):
        return self._sign(other) >= 0

    def __eq__(self, other):
        if not isinstance(other, (ExtFloat, float, int)):
            return NotImplemented
        m, e = _split(other)
        return self.m == m and (self.e == e or not 0 < abs(m) < math.inf)


def _split(x) -> tuple:
    return (x.m, x.e) if type(x) is ExtFloat else math.frexp(x)


def _add(am, ae, bm, be) -> ExtFloat:
    # the operand of smaller exponent is scaled exactly (or to a negligible
    # subnormal) before the one rounding of the sum
    if not bm:
        return ExtFloat(am + bm if not am else am, ae)   # signed zeros as in float
    if not am:
        return ExtFloat(bm, be)
    if ae >= be:
        return ExtFloat(am + math.ldexp(bm, be - ae), ae)
    return ExtFloat(math.ldexp(am, ae - be) + bm, be)


# ln 2 in three parts for Cody-Waite reduction; the first two have at most 20
# significant bits, so k*part is exact for |k| < 2^33
_LN2_HI = float.fromhex("0x1.62e42p-1")
_LN2_MID = float.fromhex("0x1.fdf48p-22")
_LN2_LO = float.fromhex("-0x1.8432a1b0e2634p-43")
_LN2 = math.log(2.0)

# |x| beyond which exp, sinh and cosh saturate to 0 or +-inf: k = x/ln 2 stays
# below 2^33, and e^(2^32) times any power t^p of a radius (|log t| <= 2.1e6
# at the deepest start, |p| < 2000) is still far outside float range
_EXP_SATURATION = 2.0 ** 32


def ext_exp(x) -> ExtFloat:
    """e^x as an ExtFloat: x = k ln 2 + r with |r| <= ln(2)/2, e^x = e^r 2^k."""
    x = float(x)
    if not -_EXP_SATURATION <= x <= _EXP_SATURATION:
        return ExtFloat(math.inf if x > 0 else 0.0 if x < 0 else x)
    k = round(x / _LN2)
    return ExtFloat(math.exp(x - k * _LN2_HI - k * _LN2_MID - k * _LN2_LO), k)


def _ext_log(x) -> ExtFloat:
    m, e = _split(x)
    if -1021 <= e <= 1024:       # inside float range: no cancellation near x = 1
        return ExtFloat(math.log(math.ldexp(m, e)))
    return ExtFloat(e * _LN2_HI + (math.log(m) + e * (_LN2_MID + _LN2_LO)))


def _ext_sqrt(x) -> ExtFloat:
    m, e = _split(x)
    return ExtFloat(math.sqrt(math.ldexp(m, e & 1)), e >> 1)


def _tiny(x) -> bool:
    """Below 2^-1000, where sinh x = tanh x = x in float."""
    return type(x) is ExtFloat and x.e < -1000


def _ext_sinh_cosh(f, odd: bool):
    def g(x) -> ExtFloat:
        if odd and _tiny(x):
            return x
        x = float(x)
        if abs(x) <= 709.0:
            return ExtFloat(f(x))
        y = ext_exp(abs(x))          # e^-|x| is below the last bit
        return ExtFloat(math.copysign(y.m, x) if odd else y.m, y.e - 1)
    return g


def _ext_tanh(x) -> ExtFloat:
    return x if _tiny(x) else ExtFloat(math.tanh(float(x)))


def _ext_pow(x, y) -> ExtFloat:
    """x^y for x >= 0 and y not an integer, as 2^(y log2 m) 2^(y e): the
    product y e is split exactly into its whole and fractional parts."""
    m, e = _split(x)
    y = float(y)
    if not m:
        return ExtFloat(0.0)      # the domain rules let 0^y through for y > 0 only
    if not math.isfinite(y):
        return ext_exp(y * float(_ext_log(x)))
    p, q = y.as_integer_ratio()
    whole, part = divmod(e * p, q)
    r = ext_exp((part / q + y * math.log2(m)) * _LN2)
    return ExtFloat(r.m, r.e + whole)


_EXT = _primitives(
    bool, _reject_scalar, _ext_log, _ext_sqrt, ext_exp, _ext_sinh_cosh(math.sinh, True),
    _ext_sinh_cosh(math.cosh, False), _ext_tanh, lambda x: 1.0 / _ext_tanh(x),
    lambda x, kappa: kappa / _ext_tanh(kappa * x), _ext_pow, _notint_scalar, lambda x: x != x)


def _backend(t_value) -> dict:
    if isinstance(t_value, np.ndarray):
        return _NUMPY
    if type(t_value) is ExtFloat:
        return _EXT
    return _FLOAT


def _ipow(x, k: int):
    """x**k for integer k >= 0 by binary exponentiation (accurate, sign-safe)."""
    result = None
    base = x
    while k:
        if k & 1:
            result = base if result is None else result * base
        base = base * base
        k >>= 1
    return 1.0 if result is None else result


# ---------------------------------------------------------------------------
# expression nodes


class Expr:
    """Immutable expression tree node; evaluation is deterministic.

    A node evaluated as a root compiles itself once and keeps the program
    in its ``_program`` slot, so the program dies with the tree.
    """

    __slots__ = ("_program",)

    precedence = 4

    def evaluate(self, bindings: Bindings):
        try:
            program = self._program
        except AttributeError:
            program = Program((self,))
            object.__setattr__(self, "_program", program)
        return program.evaluate(bindings)[0]

    def diff(self, var: str = "t") -> "Expr":
        return _diff(self, var, {})

    # subclasses implement _diff / __str__

    def _paren(self, child: "Expr", tight: bool = False) -> str:
        if child.precedence < self.precedence or (tight and child.precedence == self.precedence):
            return f"({child})"
        return str(child)

    def __add__(self, other):
        return add(self, _as_expr(other))

    def __radd__(self, other):
        return add(_as_expr(other), self)

    def __sub__(self, other):
        return sub(self, _as_expr(other))

    def __rsub__(self, other):
        return sub(_as_expr(other), self)

    def __mul__(self, other):
        return mul(self, _as_expr(other))

    def __rmul__(self, other):
        return mul(_as_expr(other), self)

    def __truediv__(self, other):
        return div(self, _as_expr(other))

    def __rtruediv__(self, other):
        return div(_as_expr(other), self)

    def __pow__(self, other):
        return pow_(self, _as_expr(other))

    def __neg__(self):
        return neg(self)

    def __repr__(self):
        return f"{type(self).__name__}<{self}>"


class Const(Expr):
    __slots__ = ("value",)

    def __init__(self, value: Number):
        v = float(value)
        if math.isnan(v) or math.isinf(v):
            raise ValueError("constants must be finite")
        object.__setattr__(self, "value", v)

    def __setattr__(self, *a):
        raise AttributeError("Expr nodes are immutable")

    def _diff(self, var, memo):
        return Const(0.0)

    def __str__(self):
        return repr(self.value)


class Var(Expr):
    """The radial variable t."""

    __slots__ = ()

    def _diff(self, var, memo):
        return Const(1.0 if var == "t" else 0.0)

    def __str__(self):
        return "t"


class Param(Expr):
    __slots__ = ("name",)

    def __init__(self, name: str):
        if name not in PARAMETER_NAMES:
            raise ValueError(f"unknown parameter {name!r}")
        object.__setattr__(self, "name", name)

    def __setattr__(self, *a):
        raise AttributeError("Expr nodes are immutable")

    def _diff(self, var, memo):
        return Const(1.0 if var == self.name else 0.0)

    def __str__(self):
        return self.name


class Unary(Expr):
    __slots__ = ("op", "child")

    precedence = 4  # function application / prefix minus

    def __init__(self, op: str, child: Expr):
        if op != "neg" and op not in _UNARY_FUNCTIONS:
            raise ValueError(f"unknown unary op {op!r}")
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "child", child)

    def __setattr__(self, *a):
        raise AttributeError("Expr nodes are immutable")

    def _diff(self, var, memo):
        u = self.child
        du = _diff(u, var, memo)
        op = self.op
        if op == "neg":
            return neg(du)
        if op == "log":
            return div(du, u)
        if op == "exp":
            return mul(Unary("exp", u), du)
        if op == "sqrt":
            return div(du, mul(Const(2.0), Unary("sqrt", u)))
        if op == "sinh":
            return mul(Unary("cosh", u), du)
        if op == "cosh":
            return mul(Unary("sinh", u), du)
        if op == "tanh":
            return mul(sub(Const(1.0), pow_(Unary("tanh", u), Const(2.0))), du)
        if op == "coth":
            return mul(sub(Const(1.0), pow_(Unary("coth", u), Const(2.0))), du)
        if op == "ct":
            # d ct(u) = (kappa^2 - ct(u)^2) u', valid for kappa = 0 too
            return mul(
                sub(pow_(Param("kappa"), Const(2.0)), pow_(Unary("ct", u), Const(2.0))),
                du,
            )
        raise AssertionError(op)

    def __str__(self):
        if self.op == "neg":
            return f"-{self._paren(self.child, tight=True)}"
        return f"{self.op}({self.child})"


class Binary(Expr):
    __slots__ = ("op", "left", "right")

    _PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 3}

    def __init__(self, op: str, left: Expr, right: Expr):
        if op not in self._PRECEDENCE:
            raise ValueError(f"unknown binary op {op!r}")
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    def __setattr__(self, *a):
        raise AttributeError("Expr nodes are immutable")

    @property
    def precedence(self):
        return self._PRECEDENCE[self.op]

    def _diff(self, var, memo):
        a, b_ = self.left, self.right
        da, db = _diff(a, var, memo), _diff(b_, var, memo)
        op = self.op
        if op == "+":
            return add(da, db)
        if op == "-":
            return sub(da, db)
        if op == "*":
            return add(mul(da, b_), mul(a, db))
        if op == "/":
            return div(sub(mul(da, b_), mul(a, db)), pow_(b_, Const(2.0)))
        # power: constant exponent uses the power rule, general case the log form
        if isinstance(b_, Const):
            e = b_.value
            return mul(mul(Const(e), pow_(a, Const(e - 1.0))), da)
        return mul(
            pow_(a, b_),
            add(mul(db, Unary("log", a)), div(mul(b_, da), a)),
        )

    def __str__(self):
        ls = self._paren(self.left, tight=(self.op == "^"))
        rs = self._paren(self.right, tight=(self.op in ("-", "/")))
        return f"{ls}{self.op}{rs}"


class Iter(Expr):
    """Iterated apply: logk(i, x) / expk(i, x); depth 0 is the identity."""

    __slots__ = ("func", "depth", "child")

    def __init__(self, func: str, depth: int, child: Expr):
        if func not in _ITER_FUNCTIONS:
            raise ValueError(f"unknown iterated function {func!r}")
        if not isinstance(depth, int) or depth < 0:
            raise ValueError("iteration depth must be a nonnegative integer")
        object.__setattr__(self, "func", func)
        object.__setattr__(self, "depth", depth)
        object.__setattr__(self, "child", child)

    def __setattr__(self, *a):
        raise AttributeError("Expr nodes are immutable")

    def _diff(self, var, memo):
        du = _diff(self.child, var, memo)
        if self.depth == 0:
            return du
        if self.func == "logk":
            # d log_[i](u) = u' * prod_{j<i} 1/log_[j](u)
            acc = du
            for j in range(self.depth):
                acc = div(acc, Iter("logk", j, self.child))
            return acc
        acc = du
        for j in range(1, self.depth + 1):
            acc = mul(acc, Iter("expk", j, self.child))
        return acc

    def __str__(self):
        return f"{self.func}({self.depth}, {self.child})"


def _diff(e: Expr, var: str, memo: dict) -> Expr:
    """de/dvar, differentiating each node object once per ``diff`` call."""
    hit = memo.get(id(e))
    if hit is None:
        hit = memo[id(e)] = (e, e._diff(var, memo))  # e is kept so its id stays unique
    return hit[1]


# ---------------------------------------------------------------------------
# compiled evaluation: one straight-line program per tuple of roots
#
# A step is (kind, op, a, b).  Kinds: _LOAD (a names the binding), _CONST (a is
# the value), _UNARY (a is a step), _BINARY (a, b are steps) and _IMMEDIATE
# (a is a step, b the integer exponent of "ipow").  Steps are interned by op
# and operands, so each distinct subtree is one step, also across roots; a
# constant is keyed by its bit pattern so 0.0 and -0.0 stay apart.  Every
# step applies the same primitive to the same operands as the tree node it
# stands for, so compiled values are the values of a tree walk, bit for bit.

# ordered so that kind >= _UNARY means the step reads operand a
_LOAD, _CONST, _UNARY, _IMMEDIATE, _BINARY = range(5)


def _lower(roots: tuple):
    """The distinct subtrees of the roots as steps, in the order a
    left-to-right post-order walk of each root in turn first reaches them
    (operands first), with each step's Sethi-Ullman need, the number of
    steps that use it, and the step of each root."""
    steps: list = []
    need: list = []
    uses: list = []
    index: dict = {}
    done: dict = {}   # id(node) -> step

    def step(kind, op, a, b=None):
        key = (op, a.hex() if kind == _CONST else a, b)
        i = index.get(key)
        if i is None:
            i = index[key] = len(steps)
            steps.append((kind, op, a, b))
            uses.append(0)
            if kind == _BINARY:
                na, nb = need[a], need[b]
                need.append(na + 1 if na == nb else max(na, nb))
                uses[a] += 1
                uses[b] += 1
            elif kind >= _UNARY:
                need.append(need[a])
                uses[a] += 1
            else:
                need.append(1)
        return i

    stack = list(reversed(roots))
    while stack:
        node = stack[-1]
        cls = type(node)
        if cls is Binary:
            right = node.right
            a = done.get(id(node.left))
            if node.op == "^" and type(right) is Const and right.value.is_integer():
                if a is None:
                    stack.append(node.left)
                    continue
                i = step(_IMMEDIATE, "ipow", a, int(right.value))
            else:
                b = done.get(id(right))
                if a is None or b is None:
                    if b is None:
                        stack.append(right)
                    if a is None:
                        stack.append(node.left)   # walked before the right operand
                    continue
                i = step(_BINARY, node.op, a, b)
        elif cls is Const:
            i = step(_CONST, "const", node.value)
        elif cls is Var:
            i = step(_LOAD, "load", "t")
        elif cls is Param:
            i = step(_LOAD, "load", node.name)
        else:
            i = done.get(id(node.child))
            if i is None:
                stack.append(node.child)
                continue
            if cls is Iter:
                op = "log" if node.func == "logk" else "exp"
                for _ in range(node.depth):
                    i = step(_UNARY, op, i)
            elif node.op == "ct":
                i = step(_BINARY, "ct", i, step(_LOAD, "load", "kappa"))
            else:
                i = step(_UNARY, node.op, i)
        done[id(node)] = i
        stack.pop()
    return steps, need, uses, [done[id(root)] for root in roots]


def _sethi_ullman(steps: list, need: list, outs: list) -> list:
    """An evaluation order, root by root, that computes the operand needing
    more live values first (Sethi-Ullman), so few values are live at once."""
    order = []
    placed = bytearray(len(steps))
    stack = list(reversed(outs))   # i: expand step i; ~i: place it
    while stack:
        i = stack.pop()
        if i < 0:
            order.append(~i)
            placed[~i] = 1
            continue
        if placed[i]:
            continue
        stack.append(~i)
        kind, _, a, b = steps[i]
        if kind == _BINARY:
            first, second = (b, a) if need[b] > need[a] else (a, b)
            if not placed[second]:
                stack.append(second)
            if not placed[first]:
                stack.append(first)
        elif kind >= _UNARY and not placed[a]:
            stack.append(a)
    return order


def _emit(steps: list, uses: list, order, outs: list) -> tuple:
    """Code for the steps run in the given order, on registers: a register
    is reused after the last use of its value, except that the roots' values
    stay live to the end, so the register count is the most values live at
    once.  Returns the code, the register count and the roots' registers."""
    left = list(uses)
    for i in outs:
        left[i] += 1
    reg = [0] * len(steps)
    free: list = []
    code = []
    width = 0
    for i in order:
        kind, op, a, b = steps[i]
        if kind >= _UNARY:
            ra = reg[a]
            left[a] -= 1
            if not left[a]:
                free.append(ra)
            if kind == _BINARY:
                rb = reg[b]
                left[b] -= 1
                if not left[b]:
                    free.append(rb)
                b = rb
            a = ra
        if free:
            r = free.pop()
        else:
            r = width
            width += 1
        reg[i] = r
        code.append((kind, op, r, a, b))
    return code, width, [reg[i] for i in outs]


def _run(code: list, width: int, outs: list, bindings: Bindings, be: dict) -> list:
    regs = [None] * width
    for kind, op, dst, a, b in code:
        if kind == _BINARY:
            regs[dst] = be[op](regs[a], regs[b])
        elif kind == _UNARY:
            regs[dst] = be[op](regs[a])
        elif kind == _CONST:
            regs[dst] = a
        elif kind == _LOAD:
            try:
                regs[dst] = bindings[a]
            except KeyError:
                raise UnboundParameterError(a) from None
        else:
            regs[dst] = be[op](regs[a], b)
    return [regs[r] for r in outs]


class Program:
    """A tuple of roots compiled once into one straight-line program: each
    subtree the roots share is computed once per run.  ``Expr.evaluate`` is
    the one-root case."""

    __slots__ = ("code", "width", "regs")

    def __init__(self, roots: tuple):
        steps, need, uses, outs = _lower(roots)
        self.code, self.width, self.regs = _emit(
            steps, uses, _sethi_ullman(steps, need, outs), outs)

    def evaluate(self, bindings: Bindings) -> list:
        """The value of every root, in order, on the backend picked from the
        type of the ``t`` binding; a NaN value raises DomainError.  A step
        outside its primitive's domain raises as the scheduled order meets
        it, so of several such steps the one computed first names the error."""
        be = _backend(bindings.get("t"))
        if be is _NUMPY:
            # overflow saturates to inf by design; NaN is still rejected below
            with np.errstate(all="ignore"):
                values = _run(self.code, self.width, self.regs, bindings, be)
        else:
            values = _run(self.code, self.width, self.regs, bindings, be)
        for value in values:
            if be["isnan"](value):
                raise DomainError("expression", "NaN produced")
        return values


# ---------------------------------------------------------------------------
# folding constructors (constant folding only, per the design decision)


def _as_expr(x) -> Expr:
    if isinstance(x, Expr):
        return x
    return Const(x)


def _fold(op: str, a: Expr, b: Expr):
    if isinstance(a, Const) and isinstance(b, Const):
        x, y = a.value, b.value
        if op == "+":
            return Const(x + y)
        if op == "-":
            return Const(x - y)
        if op == "*":
            return Const(x * y)
        if op == "/" and y != 0:
            return Const(x / y)
        if op == "^" and float(y).is_integer():
            p = _ipow(x, abs(int(y)))
            if y >= 0:
                return Const(p)
            if p != 0:   # 0^-k is left to evaluation, which rejects it
                return Const(1.0 / p)
        elif op == "^" and x > 0:
            return Const(x ** y)
    return None


def add(a, b) -> Expr:
    a, b = _as_expr(a), _as_expr(b)
    return _fold("+", a, b) or Binary("+", a, b)


def sub(a, b) -> Expr:
    a, b = _as_expr(a), _as_expr(b)
    return _fold("-", a, b) or Binary("-", a, b)


def mul(a, b) -> Expr:
    a, b = _as_expr(a), _as_expr(b)
    return _fold("*", a, b) or Binary("*", a, b)


def div(a, b) -> Expr:
    a, b = _as_expr(a), _as_expr(b)
    return _fold("/", a, b) or Binary("/", a, b)


def pow_(a, b) -> Expr:
    a, b = _as_expr(a), _as_expr(b)
    return _fold("^", a, b) or Binary("^", a, b)


def neg(a) -> Expr:
    a = _as_expr(a)
    if isinstance(a, Const):
        return Const(-a.value)
    return Unary("neg", a)


# ---------------------------------------------------------------------------
# parser


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.tokens: list[tuple[str, str, int]] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if m is None or m.end() == pos:
                stripped = text[pos:].lstrip()
                if not stripped:
                    break
                raise ParseError(f"unexpected character {stripped[0]!r}", len(text) - len(stripped))
            kind = m.lastgroup
            self.tokens.append((kind, m.group(kind), m.start(kind)))
            pos = m.end()
        self.i = 0

    def peek(self):
        if self.i < len(self.tokens):
            return self.tokens[self.i]
        return ("eof", "", len(self.text))

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok


def parse(text: str) -> Expr:
    """Parse a DSL string into an Expression.

    Raises ParseError (with byte offset) on syntax errors, unknown
    identifiers, and arity mismatches.
    """
    tz = _Tokenizer(text)
    e = _parse_expr(tz)
    kind, val, off = tz.peek()
    if kind != "eof":
        raise ParseError(f"unexpected trailing input {val!r}", off)
    return e


def _parse_expr(tz: _Tokenizer) -> Expr:
    e = _parse_term(tz)
    while True:
        kind, val, _ = tz.peek()
        if kind == "op" and val in "+-":
            tz.next()
            rhs = _parse_term(tz)
            e = add(e, rhs) if val == "+" else sub(e, rhs)
        else:
            return e


def _parse_term(tz: _Tokenizer) -> Expr:
    e = _parse_factor(tz)
    while True:
        kind, val, _ = tz.peek()
        if kind == "op" and val in "*/":
            tz.next()
            rhs = _parse_factor(tz)
            e = mul(e, rhs) if val == "*" else div(e, rhs)
        else:
            return e


def _parse_factor(tz: _Tokenizer) -> Expr:
    base = _parse_base(tz)
    kind, val, _ = tz.peek()
    if kind == "op" and val == "^":
        tz.next()
        return pow_(base, _parse_factor(tz))  # right-associative
    return base


def _parse_base(tz: _Tokenizer) -> Expr:
    kind, val, off = tz.next()
    if kind == "num":
        return Const(float(val))
    if kind == "op" and val == "-":
        return neg(_parse_base(tz))
    if kind == "op" and val == "(":
        e = _parse_expr(tz)
        kind, val, off = tz.next()
        if val != ")":
            raise ParseError("expected ')'", off)
        return e
    if kind == "ident":
        nkind, nval, _ = tz.peek()
        if nkind == "op" and nval == "(":
            return _parse_call(tz, val, off)
        if val == "t":
            return Var()
        if val in _CONSTANT_NAMES:
            return Const(_CONSTANT_NAMES[val])
        if val in PARAMETER_NAMES:
            return Param(val)
        raise ParseError(f"unknown identifier {val!r}", off)
    raise ParseError(f"expected expression, got {val!r}" if val else "unexpected end of input", off)


def _parse_call(tz: _Tokenizer, fname: str, off: int) -> Expr:
    tz.next()  # consume "("
    args = [_parse_expr(tz)]
    while True:
        kind, val, aoff = tz.next()
        if val == ")":
            break
        if val != ",":
            raise ParseError("expected ',' or ')'", aoff)
        args.append(_parse_expr(tz))
    if fname in _UNARY_FUNCTIONS:
        if len(args) != 1:
            raise ParseError(f"{fname}() takes exactly 1 argument, got {len(args)}", off)
        return Unary(fname, args[0])
    if fname in _ITER_FUNCTIONS:
        if len(args) != 2:
            raise ParseError(f"{fname}() takes exactly 2 arguments, got {len(args)}", off)
        depth = args[0]
        if not isinstance(depth, Const) or not float(depth.value).is_integer() or depth.value < 0:
            raise ParseError(f"{fname}() depth must be a nonnegative integer literal", off)
        return Iter(fname, int(depth.value), args[1])
    raise ParseError(f"unknown identifier {fname!r}", off)


# ---------------------------------------------------------------------------
# module-level operation wrappers


def evaluate(e: Expr, bindings: Bindings):
    """Evaluate e under the given parameter/variable bindings."""
    return e.evaluate(bindings)


def differentiate(e: Expr, var: str = "t") -> Expr:
    """Return de/dvar as an Expression (closed under the primitive set)."""
    return e.diff(var)


def fd_check(e: Expr, bindings: Bindings, h: float = 1e-6) -> float:
    """|symbolic derivative - central difference| of e at the bound point."""
    t = float(bindings["t"])
    lo = dict(bindings, t=t - h)
    hi = dict(bindings, t=t + h)
    central = (e.evaluate(hi) - e.evaluate(lo)) / (2.0 * h)
    symbolic = e.diff("t").evaluate(dict(bindings, t=t))
    return abs(symbolic - central)
