"""Differentiable scalar expressions of one radial variable t.

Expressions are immutable trees over the variable ``t`` and the named
parameters ``n, kappa, lambda, r, R, c, k``.  Nodes are unique per
structure (building a node equal to a live one returns that one), so trees
share every common subtree as one DAG, and each node keeps its derivative
in t.  They support evaluation (float, numpy array, ``ExtFloat`` or
``WideFloat`` backends, chosen from the type of the ``t`` binding; an
ExtFloat array has float mantissas and int64 exponents, for t far below
float range, and a WideFloat is a 40-digit decimal, for sums that cancel
there), closed-form differentiation, printing back to the DSL, and a
finite-difference self check.

Evaluation is compiled once per root: the first ``evaluate`` lowers the
DAG to a straight-line program with one step per distinct subtree,
schedules it so few values are live at once, and keeps it on the root.
``Program`` compiles several roots into one such program, which computes
each subtree they share once.  Every step calls the same primitive on the
same operands as the tree node it stands for, so the values are those of
a tree walk, bit for bit.

Supported primitives: + - * / ^ (real power), negation, log, exp, sqrt,
sinh, cosh, tanh, coth, the curvature-aware ``ct`` (1/t when kappa = 0,
kappa*coth(kappa*t) when kappa > 0), and the iterated forms
``logk(i, x)`` / ``expk(i, x)`` with depth i >= 0 (depth 0 is the
identity).
"""

from __future__ import annotations

import decimal
import functools
import math
import operator
import re
import weakref
from typing import Mapping, Union

import numpy as np

__all__ = [
    "Expr", "Const", "Var", "Param", "Unary", "Binary", "Iter", "Program",
    "Bindings", "parse", "evaluate", "differentiate", "fd_check",
    "ExprError", "ParseError", "EvaluationError", "UnboundParameterError",
    "DomainError", "ExtFloat", "ext_exp", "to_floats", "WideFloat", "wide_exp",
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
        if isinstance(y, (int, float)) and float(y).is_integer():
            return int_pow(x, int(float(y)))
        return power(x, y)

    return {"+": operator.add, "-": operator.sub, "*": operator.mul, "neg": operator.neg,
            "log": log_, "sqrt": sqrt_, "exp": exp, "sinh": sinh, "cosh": cosh,
            "tanh": tanh, "coth": coth_, "ct": ct_, "/": truediv, "^": real_pow,
            "ipow": int_pow, "isnan": isnan}


def _reject_scalar(primitive, x, bad):
    raise DomainError(primitive, x)


def _any_array(bad) -> bool:
    """Whether a predicate of the vector backends holds anywhere (a plain
    True comes from a constant operand)."""
    return bad is True or np.count_nonzero(bad) > 0


def _reject_array(primitive, x, bad):
    bad = np.asarray(bad)
    raise DomainError(primitive, float(np.broadcast_to(to_floats(x), bad.shape)[bad].flat[0]))


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


def _ct_float(x, kappa):
    tanh = math.tanh(kappa * x)
    return kappa / tanh if tanh else math.inf    # kappa x underflows to 0: +inf, as numpy


def _notint_scalar(y):
    return not float(y).is_integer()


# the float table stays on math: numpy's exp/sinh/cosh/tanh differ from libm
# in the last bit on some inputs, and scalar paths must match earlier reports
_FLOAT = _primitives(
    bool, _reject_scalar, math.log, math.sqrt, _exp_float, _sinh_float, _cosh_float,
    math.tanh, lambda x: 1.0 / math.tanh(x), _ct_float, _pow_float, _notint_scalar,
    lambda x: isinstance(x, float) and math.isnan(x))

# overflow is silenced by the errstate in Expr.evaluate
_NUMPY = _primitives(
    _any_array, _reject_array, np.log, np.sqrt, np.exp, np.sinh, np.cosh, np.tanh,
    lambda x: 1.0 / np.tanh(x), lambda x, kappa: kappa / np.tanh(kappa * x),
    np.power, lambda y: np.mod(y, 1.0) != 0, lambda x: bool(np.any(np.isnan(x))))


# ---------------------------------------------------------------------------
# extended-exponent arrays: the disconjugacy ODE starts at t = e^(-2e6)


class ExtFloat:
    """Real numbers m * 2^e, elementwise: a numpy float mantissa m and an
    int64 exponent e of the same shape; a scalar has shape ().  + - * /
    round once, so inside float range they give the float's bits; a float,
    int or array operand is promoted, and shapes broadcast as in numpy.

    The constructor, a sum and every function of the table normalize the
    mantissa by frexp (0.5 <= |m| < 1, unless it is zero, infinite or NaN).
    A product or quotient does not: ``drift`` counts the multiplications
    and divisions since the last normalization, which keep |m| within
    [2^-(drift+1), 2^drift], and passing _DRIFT normalizes.  So a sum
    aligns operands far inside float range, and no value depends on where
    normalization happened.  Mantissas can overflow to inf and NaN, so
    vector code runs under ``np.errstate``, as ``Program.evaluate`` does."""

    __slots__ = ("m", "e", "drift")
    __array_ufunc__ = None       # numpy operands defer to the methods below

    def __init__(self, x, e=0):
        self.m, d = np.frexp(x)
        self.e = np.add(e, d, dtype=np.int64)
        self.drift = 0

    def floats(self) -> np.ndarray:
        """The values as floats: 0 or +-inf outside float range (which
        warns unless np.errstate says otherwise)."""
        return np.ldexp(self.m, self.e)

    def __float__(self):
        with np.errstate(over="ignore"):
            return float(self.floats().item())

    def __repr__(self):
        x = _normalized(self)
        return f"ExtFloat({x.m!r}, {x.e!r})"

    def __neg__(self):
        return _raw(-self.m, self.e, self.drift)

    def __abs__(self):
        return _raw(np.abs(self.m), self.e, self.drift)

    def __add__(self, other):
        return _add(self.m, self.e, *_split(other))

    __radd__ = __add__

    def __sub__(self, other):
        m, e = _split(other)
        return _add(self.m, self.e, -m, e)

    def __rsub__(self, other):
        return _add(*_split(other), -self.m, self.e)

    def __mul__(self, other):
        kind = type(other)
        if kind is ExtFloat:
            m, e, drift = other.m, other.e, self.drift + other.drift
        else:
            (m, e), drift = _factor(other, kind), self.drift
        return _product(self.m * m, self.e + e, drift)

    __rmul__ = __mul__

    def __truediv__(self, other):
        kind = type(other)
        if kind is ExtFloat:
            m, e, drift = other.m, other.e, self.drift + other.drift
        else:
            (m, e), drift = _factor(other, kind), self.drift
        return _product(self.m / m, self.e - e, drift)

    def __rtruediv__(self, other):
        m, e = _factor(other, type(other))
        return _product(m / self.m, e - self.e, self.drift)

    def _sign(self, other):
        """Floats with the signs of self - other (NaN where unordered)."""
        if isinstance(other, (int, float)) and other == 0:
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
        kind = type(other)
        if (kind is float or kind is int) and other == 0:
            return self.m == 0
        if not isinstance(other, (ExtFloat, float, int, np.ndarray)):
            return NotImplemented
        x = _normalized(self)
        m, e = _split(_normalized(other) if type(other) is ExtFloat else other)
        return (x.m == m) & ((x.e == e) | (m == 0) | ~np.isfinite(m))


# products and quotients since the last normalization before the next one
_DRIFT = 64


def _split(x) -> tuple:
    return (x.m, x.e) if type(x) is ExtFloat else np.frexp(x)


def _factor(x, kind) -> tuple:
    """(m, e) of a product's operand x of type kind, not ExtFloat; a Python
    number is split by math."""
    return math.frexp(x) if kind is float or kind is int else np.frexp(x)


def _raw(m, e, drift=0) -> ExtFloat:
    x = object.__new__(ExtFloat)
    x.m, x.e, x.drift = m, e, drift
    return x


def _normal(m, e) -> ExtFloat:
    """m 2^e with its mantissa normalized, for an int64 exponent e."""
    m, d = np.frexp(m)
    return _raw(m, e + d)


def _product(m, e, drift) -> ExtFloat:
    """m 2^e from a product or quotient of mantissas of the given drift."""
    if drift >= _DRIFT:
        return _normal(m, e)
    x = object.__new__(ExtFloat)
    x.m, x.e, x.drift = m, e, drift + 1
    return x


def _normalized(x):
    """x with its mantissa normalized; any other operand as it is."""
    if type(x) is not ExtFloat or not x.drift:
        return x
    return _normal(x.m, x.e)


def to_floats(x) -> np.ndarray:
    """x as floats: an ExtFloat rounded (0 or +-inf outside float range,
    which warns unless np.errstate says otherwise), anything else through
    np.asarray."""
    return x.floats() if type(x) is ExtFloat else np.asarray(x, dtype=float)


_ZERO_EXPONENT = -(2 ** 62)      # a zero's exponent in a sum: below every other


def _add(am, ae, bm, be) -> ExtFloat:
    # the operand of smaller exponent is scaled exactly (or to a negligible
    # subnormal) before the one rounding of the sum; a zero counts as the
    # smaller one, so signed zeros add as in float
    product = am * bm            # zero where an operand is (0 * inf is NaN, which adds alike)
    if np.count_nonzero(product) == np.size(product):
        k = np.maximum(ae, be)
        return _normal(np.ldexp(am, ae - k) + np.ldexp(bm, be - k), k)
    ka = np.where(am == 0, _ZERO_EXPONENT, ae)
    kb = np.where(bm == 0, _ZERO_EXPONENT, be)
    k = np.maximum(ka, kb)
    m = np.ldexp(am, ka - k) + np.ldexp(bm, kb - k)
    return _normal(m, np.maximum(k, np.minimum(ae, be)))


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
    if type(x) is ExtFloat:
        with np.errstate(over="ignore"):
            x = x.floats()
    x = np.asarray(x, dtype=float)
    k = np.rint(x / _LN2)
    outside = ~(np.abs(x) <= _EXP_SATURATION)
    if np.count_nonzero(outside):    # 0 or +inf, and NaN stays NaN
        x = np.where(outside, np.where(x > 0, np.inf, np.where(x < 0, -np.inf, x)), x)
        k = np.where(outside, 0.0, k)
    return _normal(np.exp(x - k * _LN2_HI - k * _LN2_MID - k * _LN2_LO), k.astype(np.int64))


def _ext_log(x) -> ExtFloat:
    m, e = _split(_normalized(x))
    far = e * _LN2_HI + (np.log(m) + e * (_LN2_MID + _LN2_LO))
    inside = np.abs(e) <= 1021
    if np.count_nonzero(inside):     # inside float range: no cancellation near x = 1
        far = np.where(inside, np.log(np.ldexp(m, np.where(inside, e, 0))), far)
    return _normal(far, 0)


def _ext_sqrt(x) -> ExtFloat:
    m, e = _split(x)
    return ExtFloat(np.sqrt(np.ldexp(m, e & 1)), e >> 1)


def _unless_tiny(x, m, e) -> ExtFloat:
    """m 2^e, but x itself where |x| < 2^-1000: there sinh x = tanh x = x."""
    if type(x) is not ExtFloat:
        return ExtFloat(m, e)
    x = _normalized(x)
    tiny = x.e < -1000
    return ExtFloat(np.where(tiny, x.m, m), np.where(tiny, x.e, e))


def _ext_sinh_cosh(f, odd: bool):
    def g(x) -> ExtFloat:
        xf = to_floats(x)
        y = ext_exp(np.abs(xf))          # past 709, e^-|x| is below the last bit
        big = np.abs(xf) > 709.0
        m = np.where(big, np.copysign(y.m, xf) if odd else y.m, f(xf))
        e = np.where(big, y.e - 1, 0)
        return _unless_tiny(x, m, e) if odd else ExtFloat(m, e)
    return g


def _ext_tanh(x) -> ExtFloat:
    return _unless_tiny(x, np.tanh(to_floats(x)), 0)


def _ext_pow(x, y) -> ExtFloat:
    """x^y elementwise where the domain rules let it through (x > 0, or y
    an integer), as +-2^(y log2 |m|) 2^(y e).  For |y| < 2^53, y = p / 2^q
    and the product y e is split exactly, in Python ints, into its whole
    and fractional parts; a larger or non-finite y takes e^(y log |x|)."""
    m, e = _split(x)
    m, e, y = np.broadcast_arrays(m, e, to_floats(y))
    exact = np.abs(y) < 2.0 ** 53
    fy, ky = np.frexp(np.where(exact, y, 0.0))
    whole, frac = [], []
    for p, k, q in zip(*(np.ravel(v).tolist() for v in
                         (np.ldexp(fy, 53).astype(np.int64), e, 53 - ky))):
        w, part = divmod(p * k, 1 << q)
        whole.append(min(max(w, -2 ** 62), 2 ** 62))
        frac.append(part / (1 << q))
    whole, frac = np.reshape(whole, m.shape).astype(np.int64), np.reshape(frac, m.shape)
    r = ext_exp((frac + y * np.log2(np.abs(m))) * _LN2)
    r_e = r.e + whole
    if not exact.all():
        far = ext_exp(y * to_floats(_ext_log(ExtFloat(np.abs(m), e))))
        r = ExtFloat(np.where(exact, r.m, far.m), np.where(exact, r_e, far.e))
        r_e = r.e
    sign = np.where((m < 0) & (np.mod(y, 2.0) == 1), -1.0, 1.0)
    zero = m == 0                # 0^0 = 1; the domain rules reject 0^y for y < 0
    return ExtFloat(np.where(zero, np.where(y == 0, 1.0, 0.0), sign * r.m),
                    np.where(zero, 0, r_e))


_EXT = _primitives(
    _any_array, _reject_array, _ext_log, _ext_sqrt, ext_exp, _ext_sinh_cosh(np.sinh, True),
    _ext_sinh_cosh(np.cosh, False), _ext_tanh, lambda x: 1.0 / _ext_tanh(x),
    lambda x, kappa: kappa / _ext_tanh(kappa * x), _ext_pow,
    lambda y: np.mod(to_floats(y), 1.0) != 0, lambda x: np.count_nonzero(np.isnan(_split(x)[0])) > 0)


# ---------------------------------------------------------------------------
# 40-digit decimals: coefficients whose terms cancel at the deep start

_WIDE_CONTEXT = decimal.Context(prec=40, Emin=-10 ** 9, Emax=10 ** 9, traps=[])


class WideFloat:
    """A 40-digit decimal with exponents within +-10^9.  Its arithmetic runs
    on a context of its own, so the thread's decimal context is neither read
    nor changed; a float or int operand is rounded to 40 digits."""

    __slots__ = ("d",)

    def __init__(self, x):
        self.d = _decimal(x)

    def __float__(self):
        return float(self.d)

    def __repr__(self):
        return f"WideFloat({str(self.d)!r})"

    def __neg__(self):
        return WideFloat(_WIDE_CONTEXT.minus(self.d))

    def __abs__(self):
        return WideFloat(_WIDE_CONTEXT.abs(self.d))

    def __add__(self, other):
        return WideFloat(_WIDE_CONTEXT.add(self.d, _decimal(other)))

    __radd__ = __add__

    def __sub__(self, other):
        return WideFloat(_WIDE_CONTEXT.subtract(self.d, _decimal(other)))

    def __rsub__(self, other):
        return WideFloat(_WIDE_CONTEXT.subtract(_decimal(other), self.d))

    def __mul__(self, other):
        return WideFloat(_WIDE_CONTEXT.multiply(self.d, _decimal(other)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return WideFloat(_WIDE_CONTEXT.divide(self.d, _decimal(other)))

    def __rtruediv__(self, other):
        return WideFloat(_WIDE_CONTEXT.divide(_decimal(other), self.d))

    def _sign(self, other) -> float:
        """The sign of self - other as a float (NaN if unordered)."""
        return float(_WIDE_CONTEXT.compare(self.d, _decimal(other)))

    def __lt__(self, other):
        return self._sign(other) < 0

    def __le__(self, other):
        return self._sign(other) <= 0

    def __gt__(self, other):
        return self._sign(other) > 0

    def __ge__(self, other):
        return self._sign(other) >= 0

    def __eq__(self, other):
        return self._sign(other) == 0


def _decimal(x) -> decimal.Decimal:
    # Decimal(float) would flag FloatOperation on the thread's context
    kind = type(x)
    if kind is WideFloat:
        return x.d
    return x if kind is decimal.Decimal else _WIDE_CONTEXT.create_decimal_from_float(x)


def wide_exp(x) -> WideFloat:
    """e^x as a WideFloat."""
    return WideFloat(_WIDE_CONTEXT.exp(_decimal(x)))


def _wide(f):
    return lambda x: WideFloat(f(_decimal(x)))


def _wide_sinh_cosh(odd: bool):
    def g(x) -> WideFloat:
        x = WideFloat(x)
        if odd and x.d.adjusted() < -10:     # sinh x = x within 1e-20
            return x
        y = wide_exp(x)
        return (y - 1 / y) / 2 if odd else (y + 1 / y) / 2
    return g


def _wide_tanh(x) -> WideFloat:
    x = WideFloat(x)
    if x.d.adjusted() < -10:                 # tanh x = x within 1e-20
        return x
    if abs(x) > 50:                          # tanh x = +-1 within 1e-43
        return WideFloat(decimal.Decimal(1).copy_sign(x.d))
    y = wide_exp(2 * x)
    return (y - 1) / (y + 1)


_WIDE = _primitives(
    bool, _reject_scalar, _wide(_WIDE_CONTEXT.ln), _wide(_WIDE_CONTEXT.sqrt), wide_exp,
    _wide_sinh_cosh(True), _wide_sinh_cosh(False), _wide_tanh, lambda x: 1 / _wide_tanh(x),
    lambda x, kappa: kappa / _wide_tanh(kappa * x),
    lambda x, y: WideFloat(_WIDE_CONTEXT.power(_decimal(x), _decimal(y))), _notint_scalar,
    lambda x: type(x) is WideFloat and x.d.is_nan())


def _backend(t_value) -> dict:
    if isinstance(t_value, np.ndarray):
        return _NUMPY
    kind = type(t_value)
    if kind is ExtFloat:
        return _EXT
    if kind is WideFloat:
        return _WIDE
    return _FLOAT


def _ipow(x, k: int):
    """x**k for integer k >= 0 by binary exponentiation (accurate, sign-safe)."""
    result = None
    base = x
    while k:
        if k & 1:
            result = base if result is None else result * base
        k >>= 1
        if k:
            base = base * base
    return 1.0 if result is None else result


# ---------------------------------------------------------------------------
# expression nodes


# every live node, by structure (its class and op, and its value's bits or
# its children's ids: a child lives as long as its parent, so no id in a key
# is reused while the entry is there), as a weak reference that drops its
# entry when the node dies: once a job's trees are garbage, no later job
# finds them.  A plain dict of weakrefs, not a WeakValueDictionary, keeps
# the lookup of every node construction in C.
_NODES: dict = {}


def _forget(key: tuple, ref) -> None:
    if _NODES.get(key) is ref:
        del _NODES[key]


def _intern(cls, key: tuple, *fields) -> "Expr":
    """The live node of class cls under key, or a new one whose slots
    (cls.__slots__ in order) hold fields."""
    ref = _NODES.get(key)
    node = None if ref is None else ref()
    if node is None:
        node = object.__new__(cls)
        for name, value in zip(cls.__slots__, fields):
            object.__setattr__(node, name, value)
        _NODES[key] = weakref.ref(node, functools.partial(_forget, key))
    return node


class Expr:
    """Immutable expression node, unique per structure (see ``_intern``);
    evaluation is deterministic.

    A node evaluated as a root compiles itself once and keeps the program
    in its ``_program`` slot, and its derivative in t in its ``_dt`` slot,
    so both die with the node.
    """

    __slots__ = ("_program", "_dt", "__weakref__")

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

    def __setattr__(self, *a):
        raise AttributeError("Expr nodes are immutable")

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

    def __new__(cls, value: Number):
        v = float(value)
        if math.isnan(v) or math.isinf(v):
            raise ValueError("constants must be finite")
        return _intern(cls, (cls, v.hex()), v)     # 0.0 and -0.0 stay apart

    def _diff(self, var, memo):
        return Const(0.0)

    def __str__(self):
        return repr(self.value)


class Var(Expr):
    """The radial variable t."""

    __slots__ = ()

    def __new__(cls):
        return _intern(cls, (cls,))

    def _diff(self, var, memo):
        return Const(1.0 if var == "t" else 0.0)

    def __str__(self):
        return "t"


class Param(Expr):
    __slots__ = ("name",)

    def __new__(cls, name: str):
        if name not in PARAMETER_NAMES:
            raise ValueError(f"unknown parameter {name!r}")
        return _intern(cls, (cls, name), name)

    def _diff(self, var, memo):
        return Const(1.0 if var == self.name else 0.0)

    def __str__(self):
        return self.name


class Unary(Expr):
    __slots__ = ("op", "child")

    precedence = 4  # function application / prefix minus

    def __new__(cls, op: str, child: Expr):
        if op != "neg" and op not in _UNARY_FUNCTIONS:
            raise ValueError(f"unknown unary op {op!r}")
        return _intern(cls, (cls, op, id(child)), op, child)

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

    def __new__(cls, op: str, left: Expr, right: Expr):
        if op not in cls._PRECEDENCE:
            raise ValueError(f"unknown binary op {op!r}")
        return _intern(cls, (cls, op, id(left), id(right)), op, left, right)

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

    def __new__(cls, func: str, depth: int, child: Expr):
        if func not in _ITER_FUNCTIONS:
            raise ValueError(f"unknown iterated function {func!r}")
        if not isinstance(depth, int) or depth < 0:
            raise ValueError("iteration depth must be a nonnegative integer")
        return _intern(cls, (cls, func, depth, id(child)), func, depth, child)

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
    """de/dvar: in t each node is differentiated once and keeps the result
    in its ``_dt`` slot, in another variable once per ``diff`` call."""
    if var == "t":
        try:
            return e._dt
        except AttributeError:
            d = e._diff(var, memo)
            object.__setattr__(e, "_dt", d)
            return d
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
        if be is _FLOAT:
            values = _run(self.code, self.width, self.regs, bindings, be)
        else:
            # overflow saturates to inf by design; NaN is still rejected below
            with np.errstate(all="ignore"):
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
