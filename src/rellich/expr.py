"""Differentiable scalar expressions of one radial variable t.

Expressions are immutable trees over the variable ``t`` and the named
parameters ``n, kappa, lambda, r, R, c, k``.  Nodes are unique per
structure (building a node equal to a live one returns that one), so trees
share every common subtree as one DAG, and fold (``_binary``): x*1, x/1,
x^1, x+0 and x-0 are x, 0-x is -x, and a structural zero absorbs, so x*0
and 0/x are 0 and x is not evaluated.  They support evaluation on numpy
arrays (a float ``t`` runs as a one-point array and gives floats),
closed-form differentiation in t (the one variable: each node keeps its
derivative), printing back to the DSL, a finite-difference self check, and
the rewrite ``s_form`` of an expression into t^k g(s) with s = log t, which
evaluates in float at any depth where the powers of t cancel.  Every pass
over a tree (parsing, differentiation, printing, compiling and the
s-form) walks an explicit stack, so no depth meets the recursion limit.

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
identity).  The s-form also uses three x-scaled primitives that the DSL
does not parse: sinhc(x) = sinh(x)/x, tanhc(x) = tanh(x)/x and
xcoth(x) = x coth(x), each 1 at x = 0.
"""

from __future__ import annotations

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
    "DomainError", "s_form", "s_flat", "summands",
]

PARAMETER_NAMES = ("n", "kappa", "lambda", "r", "R", "c", "k")
_CONSTANT_NAMES = {"pi": math.pi, "e": math.e}
_UNARY_FUNCTIONS = ("log", "exp", "sqrt", "sinh", "cosh", "tanh", "coth", "ct")
_ITER_FUNCTIONS = ("logk", "expk")
_SCALED_FUNCTIONS = ("sinhc", "tanhc", "xcoth")     # s-form only: not parsed, not differentiated

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
# the primitive table: numpy functions behind the domain rules
#
# log and ct reject x <= 0, sqrt rejects x < 0, coth and / reject 0, and so
# does a negative integer power (it is 1/x^k); x^y rejects x <= 0 where y is
# not an integer (NaN is not) and x = 0 where y < 0 (a NaN x passes).
# Overflow saturates to inf under the errstate of Program.evaluate.


def _check(primitive: str, x, bad) -> None:
    """Raise the DomainError of primitive at the first argument x where the
    predicate bad holds (a plain bool where the operands are constants)."""
    if np.count_nonzero(bad):
        bad = np.asarray(bad)
        raise DomainError(primitive, float(np.broadcast_to(np.asarray(x, dtype=float),
                                                           bad.shape)[bad].flat[0]))


def _log(x):
    _check("log", x, x <= 0)
    return np.log(x)


def _sqrt(x):
    _check("sqrt", x, x < 0)
    return np.sqrt(x)


def _coth(x):
    _check("coth", x, x == 0)
    return 1.0 / np.tanh(x)


def _ct(x, kappa):
    """1/x when kappa = 0, else kappa coth(kappa x): +inf where kappa x
    underflows to 0."""
    _check("ct", x, x <= 0)
    return 1.0 / x if kappa == 0 else kappa / np.tanh(kappa * x)


def _div(x, y):
    _check("/", y, y == 0)
    return x / y


def _int_pow(x, k: int):
    return _div(1.0, _ipow(x, -k)) if k < 0 else _ipow(x, k)


def _pow(x, y):
    if np.ndim(y):
        bad = ((x <= 0) & (np.mod(y, 1.0) != 0)) | ((x == 0) & (y < 0))
    else:                                        # a scalar y: the mask reads x alone
        bad = y < 0 and x == 0 if float(y).is_integer() else x <= 0
    _check("^", x, bad)
    if isinstance(y, (int, float)) and float(y).is_integer():
        return _int_pow(x, int(float(y)))
    return np.power(x, y)


def _at_zero_one(f):
    """f on an array, and 1 where the argument is 0 (f's 0/0 there)."""
    return lambda x: np.where(x == 0, 1.0, f(x))


_NUMPY = {
    "+": operator.add, "-": operator.sub, "*": operator.mul, "neg": operator.neg,
    "/": _div, "^": _pow, "ipow": _int_pow, "log": _log, "sqrt": _sqrt, "exp": np.exp,
    "sinh": np.sinh, "cosh": np.cosh, "tanh": np.tanh, "coth": _coth, "ct": _ct,
    "sinhc": _at_zero_one(lambda x: np.sinh(x) / x),
    "tanhc": _at_zero_one(lambda x: np.tanh(x) / x),
    "xcoth": _at_zero_one(lambda x: x / np.tanh(x)),
}


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

    def diff(self) -> "Expr":
        """The derivative in t."""
        return _diff(self)

    def __setattr__(self, *a):
        raise AttributeError("Expr nodes are immutable")

    # subclasses implement _pieces, and _diff where the derivative is not 0:
    # _diff takes the derivatives of the node's operands

    def _diff(self):
        return Const(0.0)

    def _paren(self, child: "Expr", tight: bool = False) -> tuple:
        if child.precedence < self.precedence or (tight and child.precedence == self.precedence):
            return "(", child, ")"
        return child,

    def __str__(self):
        """The DSL text, joined from the pieces (text, or a node to expand)
        of a stack of the nodes being printed, so a shared subtree is
        printed wherever it occurs and no string is kept per node."""
        out, stack = [], [iter(self._pieces())]
        while stack:
            for piece in stack[-1]:
                if type(piece) is not str:
                    stack.append(iter(piece._pieces()))
                    break
                out.append(piece)
            else:
                stack.pop()
        return "".join(out)

    def __add__(self, other):
        return _binary("+", self, other)

    def __radd__(self, other):
        return _binary("+", other, self)

    def __sub__(self, other):
        return _binary("-", self, other)

    def __rsub__(self, other):
        return _binary("-", other, self)

    def __mul__(self, other):
        return _binary("*", self, other)

    def __rmul__(self, other):
        return _binary("*", other, self)

    def __truediv__(self, other):
        return _binary("/", self, other)

    def __rtruediv__(self, other):
        return _binary("/", other, self)

    def __pow__(self, other):
        return _binary("^", self, other)

    def __neg__(self):
        return Unary("neg", self)

    def __repr__(self):
        return f"{type(self).__name__}<{self}>"


class Const(Expr):
    __slots__ = ("value",)

    def __new__(cls, value: Number):
        v = float(value)
        if math.isnan(v) or math.isinf(v):
            raise ValueError("constants must be finite")
        return _intern(cls, (cls, v.hex()), v)     # 0.0 and -0.0 stay apart

    def __neg__(self):
        return Const(-self.value)

    def _pieces(self):
        return repr(self.value),


class Var(Expr):
    """The radial variable t."""

    __slots__ = ()

    def __new__(cls):
        return _intern(cls, (cls,))

    def _diff(self):
        return Const(1.0)

    def _pieces(self):
        return "t",


class Param(Expr):
    __slots__ = ("name",)

    def __new__(cls, name: str):
        if name not in PARAMETER_NAMES:
            raise ValueError(f"unknown parameter {name!r}")
        return _intern(cls, (cls, name), name)

    def _pieces(self):
        return self.name,


class Unary(Expr):
    __slots__ = ("op", "child")

    precedence = 4  # function application / prefix minus

    def __new__(cls, op: str, child: Expr):
        if op != "neg" and op not in _UNARY_FUNCTIONS + _SCALED_FUNCTIONS:
            raise ValueError(f"unknown unary op {op!r}")
        return _intern(cls, (cls, op, id(child)), op, child)

    def _diff(self, du):
        u = self.child
        op = self.op
        if op == "neg":
            return -du
        if op == "log":
            return du / u
        if op == "exp":
            return self * du
        if op == "sqrt":
            return du / (2.0 * self)
        if op == "sinh":
            return Unary("cosh", u) * du
        if op == "cosh":
            return Unary("sinh", u) * du
        if op in ("tanh", "coth"):
            return (1.0 - self ** 2.0) * du
        if op == "ct":
            # d ct(u) = (kappa^2 - ct(u)^2) u', valid for kappa = 0 too
            return (Param("kappa") ** 2.0 - self ** 2.0) * du
        raise AssertionError(op)

    def _pieces(self):
        if self.op == "neg":
            return "-", *self._paren(self.child, tight=True)
        return f"{self.op}(", self.child, ")"


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

    def _diff(self, da, db):
        a, b = self.left, self.right
        op = self.op
        if op in "+-":
            return _binary(op, da, db)
        if op == "*":
            return da * b + a * db
        if op == "/":
            return (da * b - a * db) / b ** 2.0
        # power: constant exponent uses the power rule, general case the log form
        if type(b) is Const:
            return b * a ** (b.value - 1.0) * da
        return self * (db * Unary("log", a) + b * da / a)

    def _pieces(self):
        return (*self._paren(self.left, tight=(self.op == "^")), self.op,
                *self._paren(self.right, tight=(self.op in ("-", "/"))))


class Iter(Expr):
    """Iterated apply: logk(i, x) / expk(i, x); depth 0 is the identity."""

    __slots__ = ("func", "depth", "child")

    def __new__(cls, func: str, depth: int, child: Expr):
        if func not in _ITER_FUNCTIONS:
            raise ValueError(f"unknown iterated function {func!r}")
        if not isinstance(depth, int) or depth < 0:
            raise ValueError("iteration depth must be a nonnegative integer")
        return _intern(cls, (cls, func, depth, id(child)), func, depth, child)

    def _diff(self, du):
        acc = du
        if self.func == "logk":
            # d log_[i](u) = u' * prod_{j<i} 1/log_[j](u)
            for j in range(self.depth):
                acc = acc / Iter("logk", j, self.child)
        else:
            for j in range(1, self.depth + 1):
                acc = acc * Iter("expk", j, self.child)
        return acc

    def _pieces(self):
        return f"{self.func}({self.depth}, ", self.child, ")"


def _diff(e: Expr) -> Expr:
    """de/dt: each node is differentiated once, from its operands'
    derivatives, and keeps the result in its ``_dt`` slot.  The DAG is
    walked without recursion."""
    stack = [(e, None)]              # a node, then again with its operands once they are done
    while stack:
        node, operands = stack.pop()
        if operands is not None:
            object.__setattr__(node, "_dt", node._diff(*[x._dt for x in operands]))
        elif getattr(node, "_dt", None) is None:
            cls = type(node)
            operands = ((node.left, node.right) if cls is Binary else
                        (node.child,) if cls is Unary or cls is Iter else ())
            stack.append((node, operands))
            stack += [(x, None) for x in reversed(operands)]
    return e._dt


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


def _schedule(steps: list, need: list, uses: list, outs: list) -> tuple:
    """Code for the steps on registers, root by root, each step after its
    operands and the operand needing more live values first (Sethi-Ullman),
    so few values are live at once.  A step takes its register as it is
    placed, reusing one freed by the last use of a value, except that the
    roots' values stay live to the end, so the register count is the most
    values live at once.  Returns the code, the register count and the
    roots' registers."""
    left = list(uses)
    for i in outs:
        left[i] += 1
    reg = [-1] * len(steps)           # -1: not placed yet
    free: list = []
    code = []
    width = 0
    stack = list(reversed(outs))      # i: expand step i; ~i: place it
    while stack:
        i = stack.pop()
        if i >= 0:
            if reg[i] >= 0:
                continue
            stack.append(~i)
            kind, _, a, b = steps[i]
            if kind == _BINARY:
                first, second = (b, a) if need[b] > need[a] else (a, b)
                if reg[second] < 0:
                    stack.append(second)
                if reg[first] < 0:
                    stack.append(first)
            elif kind >= _UNARY and reg[a] < 0:
                stack.append(a)
            continue
        i = ~i
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


class Program:
    """A tuple of roots compiled once into one straight-line program: each
    subtree the roots share is computed once per run.  ``Expr.evaluate`` is
    the one-root case."""

    __slots__ = ("code", "width", "regs")

    def __init__(self, roots: tuple):
        self.code, self.width, self.regs = _schedule(*_lower(roots))

    def evaluate(self, bindings: Bindings) -> list:
        """The value of every root, in order.  A t bound to a numpy array
        gives numpy values; any other t runs as a one-point array and gives
        Python floats.  A NaN value raises DomainError.  A step outside its
        primitive's domain raises as the scheduled order meets it, so of
        several such steps the one computed first names the error."""
        t = bindings.get("t")
        point = not isinstance(t, np.ndarray)
        if point and t is not None:
            bindings = {**bindings, "t": np.array([t], dtype=float)}
        prims, regs = _NUMPY, [None] * self.width
        # overflow saturates to inf by design; NaN is still rejected below
        with np.errstate(all="ignore"):
            for kind, op, dst, a, b in self.code:
                if kind == _BINARY:
                    regs[dst] = prims[op](regs[a], regs[b])
                elif kind == _UNARY:
                    regs[dst] = prims[op](regs[a])
                elif kind == _CONST:
                    regs[dst] = a
                elif kind == _LOAD:
                    try:
                        regs[dst] = bindings[a]
                    except KeyError:
                        raise UnboundParameterError(a) from None
                else:
                    regs[dst] = prims[op](regs[a], b)
        values = [regs[r] for r in self.regs]
        for value in values:
            if np.isnan(value).any():
                raise DomainError("expression", "NaN produced")
        return [np.asarray(v, dtype=float).item() for v in values] if point else values


# ---------------------------------------------------------------------------
# the binary node constructor: constant folding and identity rules


_FOLD = {"+": operator.add, "-": operator.sub, "*": operator.mul}
_ONE, _ZERO = Const(1.0), Const(0.0)


def _binary(op: str, a, b) -> Expr:
    """The node a op b, folded.  Two constants give their value where it is
    defined (x / 0, 0^-k and x^y for x <= 0 and y not an integer are left to
    evaluation, which rejects them).  x*1, 1*x, x/1, x^1, x+0, 0+x and x-0
    are x, and 0-x is -x, bit for bit but for the sign of a zero sum; a
    structural zero absorbs: x*0, 0*x and 0/x are +0.0, x not evaluated."""
    if not isinstance(a, Expr):
        a = Const(a)
    if not isinstance(b, Expr):
        b = Const(b)
    left, right = type(a) is Const, type(b) is Const
    if left and right:
        x, y = a.value, b.value
        if op in _FOLD:
            return Const(_FOLD[op](x, y))
        if op == "/" and y != 0:
            return Const(x / y)
        if op == "^" and y.is_integer():
            p = _ipow(x, abs(int(y)))
            if y >= 0:
                return Const(p)
            if p != 0:
                return Const(1.0 / p)
        elif op == "^" and x > 0:
            return Const(x ** y)
    # a -0.0 constant is a zero too
    if right and (b.value == 1.0 and op in "*/^" or b.value == 0.0 and op in "+-"):
        return a                                     # x*1, x/1, x^1, x+0, x-0
    if left and (a.value == 1.0 and op == "*" or a.value == 0.0 and op == "+"):
        return b                                     # 1*x, 0+x
    if right and b.value == 0.0 and op == "*" or left and a.value == 0.0 and op in "*/":
        return _ZERO                                 # x*0, 0*x, 0/x
    if left and a.value == 0.0 and op == "-":
        return -b                                    # 0-x
    return Binary(op, a, b)


# ---------------------------------------------------------------------------
# s-form: node = t^k g(s), s = log t


def _is_zero(g: Expr) -> bool:
    return type(g) is Const and g.value == 0.0


def s_flat(k: float, g: Expr) -> Expr:
    """t^k g(s) as one expression in s: g when k = 0, else g e^(k s), which
    underflows to 0 toward s -> -inf where k > 0 and overflows where k < 0."""
    return g if k == 0 else g * Unary("exp", k * Var())


def summands(e: Expr) -> list:
    """The summands of e's tree of +, - and negation, left to right, as
    (sign, node)."""
    out, stack = [], [(1.0, e)]
    while stack:
        sign, x = stack.pop()
        if type(x) is Unary and x.op == "neg":
            stack.append((-sign, x.child))
        elif type(x) is Binary and x.op in "+-":
            stack += [(-sign if x.op == "-" else sign, x.right), (sign, x.left)]
        else:
            out.append((sign, x))
    return out


def _signed_sum(terms: list) -> Expr:
    (sign, total), *rest = terms
    total = total if sign > 0 else -total
    for sign, x in rest:
        total = total + x if sign > 0 else total - x
    return total


def _sum_form(parts: list) -> tuple:
    """The form of a sum of (sign, form) parts: parts of one k and one g
    node are collected (x + y - x is y), structural zeros drop out, and the
    least k is factored out, each other part scaled by e^((k_i - k) s)."""
    collected: dict = {}
    for sign, (k, g) in parts:
        if not _is_zero(g):
            collected.setdefault((k, id(g)), [k, g, 0.0])[2] += sign
    terms = [term for term in collected.values() if term[2]]
    if not terms:
        return 0.0, _ZERO
    k0 = min(k for k, _, _ in terms)
    scaled = []
    for k, g, n in terms:
        g = s_flat(k - k0, g)
        scaled.append((n, abs(n) * g))
    return k0, _signed_sum(scaled)


def _apply(op: str, k: float, g: Expr, kappa) -> tuple:
    """The form of op(t^k g) for a unary function op."""
    if op == "log":                                  # 0 s + log g is log g
        return 0.0, k * Var() if g is _ONE else k * Var() + Unary("log", g)
    if op == "exp" and k == 0:                       # e^(c s + h) = t^c e^h
        c, rest = 0.0, []
        for sign, x in summands(g):
            if type(x) is Var:
                c += sign
            elif (type(x) is Binary and x.op == "*"
                  and {type(x.left), type(x.right)} == {Const, Var}):
                c += sign * (x.left if type(x.left) is Const else x.right).value
            else:
                rest.append((sign, x))
        if c == 0:
            return 0.0, Unary("exp", g)
        return c, Unary("exp", _signed_sum(rest)) if rest else _ONE
    if op == "sqrt":
        return k / 2, g if g is _ONE else Unary("sqrt", g)
    if k > 0 and op in ("sinh", "tanh"):             # sinh u = u sinhc(u)
        return k, g * Unary(op + "c", s_flat(k, g))
    if k > 0 and op == "coth":                       # coth u = xcoth(u) / u
        return -k, Unary("xcoth", s_flat(k, g)) / g
    if op == "ct" and kappa == 0:                    # ct(t^k g) = 1/(t^k g)
        return -k, Unary("ct", g)
    if op == "ct" and kappa is not None and k > 0:   # kappa coth(kappa u) = xcoth(kappa u) / u
        return -k, Unary("xcoth", Param("kappa") * s_flat(k, g)) / g
    return 0.0, Unary(op, s_flat(k, g))


def _is_sum(e: Expr) -> bool:
    return (type(e) is Binary and e.op in "+-") or (type(e) is Unary and e.op == "neg")


def _operands(e: Expr) -> list:
    """e's operands as (sign, node): its summands if e is a sum."""
    if _is_sum(e):
        return summands(e)
    if type(e) is Binary:
        return [(1.0, e.left), (1.0, e.right)]
    return [(1.0, e.child)] if type(e) in (Unary, Iter) else []


def _rule(e: Expr, parts: list, kappa) -> tuple:
    """The form of e from the (sign, form) of its operands."""
    cls = type(e)
    if cls is Var:
        return 1.0, _ONE
    if cls is Const or cls is Param:
        return 0.0, e
    if _is_sum(e):
        return _sum_form(parts)
    if cls is Iter:
        form = parts[0][1]
        for _ in range(e.depth):
            form = _apply("log" if e.func == "logk" else "exp", *form, kappa)
        return form
    if cls is Unary:
        return _apply(e.op, *parts[0][1], kappa)
    (_, (ka, ga)), (_, (kb, gb)) = parts
    if e.op in "*/":
        g = ga * gb if e.op == "*" else ga / gb
        return (0.0, g) if _is_zero(g) else (ka + kb if e.op == "*" else ka - kb, g)
    if type(e.right) is Const:                       # (t^k g)^p = t^(k p) g^p
        return ka * e.right.value, ga ** e.right
    return 0.0, s_flat(ka, ga) ** s_flat(kb, gb)


def s_form(e: Expr, kappa=None) -> tuple:
    """(k, g) with e = t^k g(s), s = log t, where g's variable stands for s
    (a program of g takes s as its ``t`` binding); kappa is the curvature
    ct will be evaluated at, or None (ct is then left as it is).

    * and / add and subtract exponents and ^ of a constant scales them; a
    sum is ``_sum_form``; log(t^k g) = k s + log g and e^(c s + h) =
    t^c e^h; sinh, tanh, coth and (kappa > 0) ct of t^k g with k > 0 factor
    through sinhc, tanhc and xcoth; any other function, and a variable
    exponent, takes its operands flattened (``s_flat``).  Each rule is an
    identity wherever e is defined, bar structural zeros (0 x is 0 even
    where x is not finite), so the powers of t of a coefficient such as
    c t^2 Z cancel exactly and its g is float at any depth.  The DAG is
    walked once, without recursion.
    """
    memo: dict = {}                  # id(node) -> (node, form); the node keeps its id unique
    stack = [(e, None)]              # a node, then again with its operands once they are done
    while stack:
        node, operands = stack.pop()
        if id(node) in memo:
            continue
        if operands is None:
            operands = _operands(node)
            stack.append((node, operands))
            stack += [(x, None) for _, x in operands if id(x) not in memo]
        else:
            parts = [(sign, memo[id(x)][1]) for sign, x in operands]
            memo[id(node)] = node, _rule(node, parts, kappa)
    return memo[id(e)][1]


# ---------------------------------------------------------------------------
# parser


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<call>[A-Za-z_][A-Za-z_0-9]*)\s*\(|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),])|(?P<bad>\S))"
)
_INFIX = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 3}    # binding strength


def _tokens(text: str) -> list:
    """(kind, text, offset) of every token, a name and its '(' as one call
    token, then an end token; an unexpected character anywhere raises."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group(kind)!r}", m.start(kind))
        tokens.append((kind, m.group(kind), m.start(kind)))
    tokens.append(("end", "", len(text)))
    return tokens


def parse(text: str) -> Expr:
    """Parse a DSL string into an Expression.

    + - * / are left-associative, ^ is right-associative and binds tighter,
    and a prefix minus binds to the number, name, call or parenthesis after
    it (-t^2 is (-t)^2).  One loop over the tokens keeps the operands and
    the pending operators on two stacks, so any depth parses.  Raises
    ParseError (with byte offset) on syntax errors, unknown identifiers,
    and arity mismatches.
    """
    values: list = []
    pending: list = []      # (kind, op, offset, len(values), negs): infix ops, "(" and calls
    negs = 0                # prefix minuses before the next base
    operand = True          # an operand comes next
    for kind, val, off in _tokens(text):
        if operand:
            if val == "-":
                negs += 1
                continue
            if kind == "call" or val == "(":
                pending.append((kind, val, off, len(values), negs))
                negs = 0
                continue
            if kind == "num":
                values.append(Const(float(val)))
            elif kind == "name":
                values.append(_name(val, off))
            else:
                raise ParseError(f"expected expression, got {val!r}" if val else
                                 "unexpected end of input", off)
        elif kind == "op" and val in _INFIX:
            strength = _INFIX[val] + (val == "^")    # right-associative: ^ reduces no pending ^
            while pending and _INFIX.get(pending[-1][1], 0) >= strength:
                _reduce(values, pending.pop()[1])
            pending.append((kind, val, off, len(values), 0))
            operand = True
            continue
        else:                                        # close the innermost "(" or call
            while pending and pending[-1][1] in _INFIX:
                _reduce(values, pending.pop()[1])
            if not pending:
                if kind == "end":
                    return values[0]
                raise ParseError(f"unexpected trailing input {val!r}", off)
            opener = pending[-1][0]
            if opener == "call" and val == ",":
                operand = True
                continue
            if val != ")":
                raise ParseError("expected ',' or ')'" if opener == "call" else "expected ')'", off)
            _, name, at, start, negs = pending.pop()
            if opener == "call":
                values[start:] = [_call(name, values[start:], at)]
        for _ in range(negs):                        # a complete base takes its prefix minuses
            values[-1] = -values[-1]
        negs = 0
        operand = False


def _reduce(values: list, op: str) -> None:
    b = values.pop()
    values[-1] = _binary(op, values[-1], b)


def _name(name: str, off: int) -> Expr:
    if name == "t":
        return Var()
    if name in _CONSTANT_NAMES:
        return Const(_CONSTANT_NAMES[name])
    if name in PARAMETER_NAMES:
        return Param(name)
    raise ParseError(f"unknown identifier {name!r}", off)


def _call(fname: str, args: list, off: int) -> Expr:
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


def differentiate(e: Expr) -> Expr:
    """Return de/dt as an Expression (closed under the primitive set)."""
    return e.diff()


def fd_check(e: Expr, bindings: Bindings, h: float = 1e-6) -> float:
    """|symbolic derivative - central difference| of e at the bound point."""
    t = float(bindings["t"])
    lo = dict(bindings, t=t - h)
    hi = dict(bindings, t=t + h)
    central = (e.evaluate(hi) - e.evaluate(lo)) / (2.0 * h)
    symbolic = e.diff().evaluate(dict(bindings, t=t))
    return abs(symbolic - central)
