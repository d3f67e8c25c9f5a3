"""Parsing and evaluation of scalar functions of one variable.

User-supplied coefficient functions (mu(z), f(z), r(z), mubar(t), ...) enter
the model builders as text.  This module parses them into a small immutable
AST and evaluates them on floats or numpy arrays.

Grammar (EBNF):

    expr   := term (("+"|"-") term)*
    term   := factor (("*"|"/") factor)*
    factor := "-" factor | atom ("^" factor)?
    atom   := NUMBER | VAR | FUNC "(" expr ")" | "(" expr ")"
    FUNC   := "exp" | "log" | "sqrt" | "sin" | "cos"

"^" is right-associative and binds tighter than unary minus, so "-x^2"
means -(x^2).  Domain violations (sqrt of a negative, log of a non-positive,
division by zero, fractional power of a negative base, overflow) raise
instead of returning non-finite values.

``Expr.jet`` differentiates in the expression's variable by running the
same evaluation on second-order jets (:class:`Jet`, forward mode), the
package's one differentiation primitive: a value has the bits a plain
evaluation gives, and a derivative rule that fails names the node of the
expression whose derivative it is.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Expr",
    "ExprSyntaxError",
    "ExprDomainError",
    "Jet",
    "parse_expr",
]

# each function F, with F'(u) and F''(u) from u and F(u)
_FUNCTIONS = {
    "exp": (np.exp, lambda u, f: (f, f)),
    "log": (np.log, lambda u, f: (1.0 / u, -1.0 / u ** 2)),
    "sqrt": (np.sqrt, lambda u, f: (0.5 / f, -0.25 / f ** 3)),
    "sin": (np.sin, lambda u, f: (np.cos(u), -f)),
    "cos": (np.cos, lambda u, f: (-np.sin(u), -f)),
}


class ExprSyntaxError(ValueError):
    """Malformed expression text; ``offset`` is the byte position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class ExprDomainError(ValueError):
    """Evaluation left the expression's natural domain.

    ``subexpr`` is the offending node's text; with ``derivative`` set, the
    violation happened in the derivative of that node.
    """

    def __init__(self, message: str, subexpr: str, derivative: bool = False):
        where = "the derivative of " if derivative else ""
        super().__init__(f"{message} in {where}'{subexpr}'")
        self.subexpr = subexpr


# --------------------------------------------------------------------------
# AST nodes
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class _Num:
    value: float


@dataclass(frozen=True)
class _Var:
    name: str


@dataclass(frozen=True)
class _Neg:
    arg: object


@dataclass(frozen=True)
class _BinOp:
    op: str
    lhs: object
    rhs: object


@dataclass(frozen=True)
class _Call:
    func: str
    arg: object


def _node_str(node, parent_prec: int = 0) -> str:
    """Render a node with the minimal parentheses that preserve meaning."""
    # precedence: sum 1, product 2, unary minus 3, power 4, atom 5
    if isinstance(node, _Num):
        s, prec = repr(node.value), 5
    elif isinstance(node, _Var):
        s, prec = node.name, 5
    elif isinstance(node, _Call):
        s, prec = f"{node.func}({_node_str(node.arg)})", 5
    elif isinstance(node, _Neg):
        s, prec = f"-{_node_str(node.arg, 3)}", 3
    elif isinstance(node, _BinOp) and node.op in "+-":
        # right operand needs parens at equal precedence: a-(b-c)
        s = f"{_node_str(node.lhs, 1)} {node.op} {_node_str(node.rhs, 2)}"
        prec = 1
    elif isinstance(node, _BinOp) and node.op in "*/":
        s = f"{_node_str(node.lhs, 2)} {node.op} {_node_str(node.rhs, 3)}"
        prec = 2
    elif isinstance(node, _BinOp) and node.op == "^":
        # right-associative: left operand parenthesized at equal precedence
        s = f"{_node_str(node.lhs, 5)}^{_node_str(node.rhs, 4)}"
        prec = 4
    else:  # pragma: no cover - exhaustive over node types
        raise TypeError(f"unknown node {node!r}")
    return f"({s})" if prec < parent_prec else s


# --------------------------------------------------------------------------
# Second-order jets
# --------------------------------------------------------------------------

def _sym_outer(p, q):
    """p (x) q + q (x) p of per-point gradients (n, k): (n, k, k)."""
    o = p[:, :, None] * q[:, None, :]
    return o + o.transpose(0, 2, 1)


class Jet:
    """Second-order jet of a scalar on a batch of points: value (n,),
    gradient (n, k) and Hessian (n, k, k), closed under + - * / with jets
    and scalars (forward-mode differentiation).  A scalar operand takes a
    direct path: its partials are exact zeros, so it changes no bit."""

    __slots__ = ("v", "d", "dd")
    __array_ufunc__ = None  # an array operand defers to the jet's operator

    def __init__(self, v, d, dd):
        self.v, self.d, self.dd = v, d, dd

    @classmethod
    def along(cls, axis, e, de, dde):
        """The jet in 3 coordinates of a function of coordinate ``axis``
        alone, from its value and first and second derivatives."""
        n = len(e)
        d, dd = np.zeros((n, 3)), np.zeros((n, 3, 3))
        d[:, axis], dd[:, axis, axis] = de, dde
        return cls(e, d, dd)

    def chain(self, f, f1, f2):
        """The jet of F(self) from F, F' and F'' at the value (each (n,))."""
        return Jet(f, f1[:, None] * self.d,
                   f1[:, None, None] * self.dd
                   + (f2[:, None] * self.d)[:, :, None] * self.d[:, None, :])

    def __add__(self, u):
        if isinstance(u, Jet):
            return Jet(self.v + u.v, self.d + u.d, self.dd + u.dd)
        return Jet(self.v + u, self.d, self.dd)

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.v, -self.d, -self.dd)

    def __sub__(self, u):
        return self + -u

    def __rsub__(self, u):
        return -self + u

    def __mul__(self, u):
        if not isinstance(u, Jet):
            return Jet(self.v * u, self.d * u, self.dd * u)
        v, w = self.v, u.v
        return Jet(v * w, self.d * w[:, None] + v[:, None] * u.d,
                   self.dd * w[:, None, None] + v[:, None, None] * u.dd
                   + _sym_outer(self.d, u.d))

    __rmul__ = __mul__

    def __truediv__(self, u):
        if not isinstance(u, Jet):
            return Jet(self.v / u, self.d / u, self.dd / u)
        # q = self / u from self = q u, differentiated once and twice
        w = u.v
        q = self.v / w
        dq = (self.d - q[:, None] * u.d) / w[:, None]
        return Jet(q, dq, (self.dd - q[:, None, None] * u.dd
                           - _sym_outer(dq, u.d)) / w[:, None, None])

    def __rtruediv__(self, u):
        lifted = Jet(np.broadcast_to(u, self.v.shape), np.zeros_like(self.d),
                     np.zeros_like(self.dd))
        return lifted / self


# --------------------------------------------------------------------------
# Evaluation
# --------------------------------------------------------------------------

_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul,
               "/": operator.truediv}


def _domain_error(message: str, node, derivative: bool = False):
    return ExprDomainError(message, _node_str(node), derivative)


def _value(a):
    return a.v if isinstance(a, Jet) else a


def _power_jet(node, base, exponent, value, order):
    """The jet of base^exponent, whose value is ``value``."""
    if isinstance(exponent, Jet):  # u^v = exp(v log u)
        if np.any(np.asarray(_value(base)) <= 0):
            raise _domain_error("log of non-positive value", node, derivative=True)
        log_u = _apply(_Call("log", node.lhs), [base], order)
        return (exponent * log_u).chain(value, value, value)

    def factor(k):  # u^(c - k), which diverges at u = 0 where c < k
        if exponent < k and np.any(base.v == 0):
            raise _domain_error("zero raised to negative power", node,
                                derivative=True)
        return np.power(base.v, exponent - k)

    c, zero = exponent, np.zeros_like(base.v)
    f1 = zero if c == 0 else c * factor(1)
    f2 = zero if c in (0, 1) or order < 2 else c * ((c - 1) * factor(2))
    return base.chain(value, f1, f2)


def _apply(node, args, order):
    """``node`` on its operands' values, or on their jets where one is a
    :class:`Jet`, by the same numpy call and domain checks either way.  A
    derivative rule's check names ``node``; those that only a second
    derivative needs are skipped below ``order`` 2."""
    if isinstance(node, _Neg):
        return -args[0]
    if isinstance(node, _Call):
        arg, u = args[0], _value(args[0])
        if node.func == "sqrt" and np.any(np.asarray(u) < 0):
            raise _domain_error("sqrt of negative value", node)
        if node.func == "log" and np.any(np.asarray(u) <= 0):
            raise _domain_error("log of non-positive value", node)
        function, slopes = _FUNCTIONS[node.func]
        value = function(u)
        if not isinstance(arg, Jet):
            return value
        if node.func == "sqrt" and np.any(value == 0):
            raise _domain_error("division by zero", node, derivative=True)
        return arg.chain(value, *slopes(u, value))
    if node.op == "/" and np.any(np.asarray(_value(args[1])) == 0):
        raise _domain_error("division by zero", node)
    if node.op != "^":
        return _ARITHMETIC[node.op](*args)
    vals = [_value(a) for a in args]
    l, r = np.asarray(vals[0], float), np.asarray(vals[1], float)
    if np.any((l < 0) & (r != np.floor(r))):
        raise _domain_error("fractional power of negative base", node)
    if np.any((l == 0) & (r < 0)):
        raise _domain_error("zero raised to negative power", node)
    value = np.power(*vals)
    if not any(isinstance(a, Jet) for a in args):
        return value
    return _power_jet(node, *args, value, order)


def _eval_node(node, x, order=2):
    """The node at ``x``, an array or a :class:`Jet` of the variable."""
    if isinstance(node, _Num):
        return node.value
    if isinstance(node, _Var):
        return x
    if isinstance(node, _BinOp):
        return _apply(node, (_eval_node(node.lhs, x, order),
                             _eval_node(node.rhs, x, order)), order)
    return _apply(node, (_eval_node(node.arg, x, order),), order)


# --------------------------------------------------------------------------
# Tokenizer / recursive-descent parser
# --------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(src: str):
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None or m.end() == pos:
            # skip over whitespace-only tails
            if src[pos:].strip() == "":
                break
            bad = pos + len(src[pos:]) - len(src[pos:].lstrip())
            raise ExprSyntaxError(f"unexpected character {src[bad]!r}", bad)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("end", "", len(src)))
    return tokens


class _Parser:
    def __init__(self, tokens, var: str):
        self.tokens = tokens
        self.var = var
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, value: str):
        kind, text, off = self.peek()
        if text != value:
            raise ExprSyntaxError(f"expected {value!r}, found {text!r}", off)
        return self.advance()

    def parse(self):
        node = self.sum()
        kind, text, off = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"trailing input {text!r}", off)
        return node

    def sum(self):
        node = self.term()
        while self.peek()[1] in ("+", "-"):
            op = self.advance()[1]
            node = _BinOp(op, node, self.term())
        return node

    def term(self):
        node = self.factor()
        while self.peek()[1] in ("*", "/"):
            op = self.advance()[1]
            node = _BinOp(op, node, self.factor())
        return node

    def factor(self):
        if self.peek()[1] == "-":
            self.advance()
            return _Neg(self.factor())
        node = self.atom()
        if self.peek()[1] == "^":
            self.advance()
            node = _BinOp("^", node, self.factor())
        return node

    def atom(self):
        kind, text, off = self.advance()
        if kind == "num":
            return _Num(float(text))
        if kind == "ident":
            if text in _FUNCTIONS:
                if self.peek()[1] != "(":
                    raise ExprSyntaxError(
                        f"function {text!r} requires an argument list", off)
                self.expect("(")
                arg = self.sum()
                self.expect(")")
                return _Call(text, arg)
            if text == self.var:
                return _Var(text)
            raise ExprSyntaxError(f"unknown identifier {text!r}", off)
        if text == "(":
            node = self.sum()
            self.expect(")")
            return node
        raise ExprSyntaxError(f"unexpected token {text!r}", off)


# --------------------------------------------------------------------------
# Public API
# --------------------------------------------------------------------------

class Expr:
    """Immutable parsed expression in a single named variable.

    Evaluation is pure and accepts floats or numpy arrays; instances are
    safe to share across workers.
    """

    __slots__ = ("_root", "var")

    def __init__(self, root, var: str):
        self._root = root
        self.var = var

    def __call__(self, x):
        with np.errstate(over="ignore", invalid="ignore"):
            value = _eval_node(self._root, x)
        if not np.all(np.isfinite(value)):
            raise ExprDomainError("non-finite result (overflow?)", str(self))
        if np.ndim(x) == 0:
            return float(value)
        return np.broadcast_to(np.asarray(value, float), np.shape(x)).copy()

    def jet(self, x, order: int = 2):
        """The value and the first ``order`` (1 or 2) derivatives in ``var``
        at the array ``x``, each of ``x``'s shape, by :class:`Jet`
        arithmetic.

        The value has the bits ``self(x)`` has.  A derivative rule that
        fails (``sqrt`` or a power at a zero base, a variable exponent on a
        non-positive base) raises ExprDomainError naming this expression's
        node whose derivative it is.
        """
        x = np.array(x, float)
        n = x.size
        seed = Jet(x.reshape(n), np.ones((n, 1)), np.zeros((n, 1, 1)))
        with np.errstate(over="ignore", invalid="ignore"):
            out = _eval_node(self._root, seed, order)
        if isinstance(out, Jet):
            parts = (out.v, out.d[:, 0], out.dd[:, 0, 0])
        else:
            parts = (np.full(n, out), np.zeros(n), np.zeros(n))
        for k, part in enumerate(parts[:order + 1]):
            if not np.all(np.isfinite(part)):
                raise ExprDomainError("non-finite result (overflow?)",
                                      str(self), derivative=k > 0)
        return tuple(part.reshape(x.shape) for part in parts[:order + 1])

    def __str__(self) -> str:
        return _node_str(self._root)

    def __repr__(self) -> str:
        return f"Expr({str(self)!r}, var={self.var!r})"

    def __eq__(self, other) -> bool:
        return (isinstance(other, Expr) and self.var == other.var
                and self._root == other._root)

    def __hash__(self) -> int:
        return hash((self.var, self._root))


def parse_expr(src: str, var: str = "z") -> Expr:
    """Parse ``src`` into an :class:`Expr` in the variable ``var``.

    Raises :class:`ExprSyntaxError` (with byte offset) on malformed input,
    unknown identifiers or misuse of a function name.
    """
    if not isinstance(src, str) or src.strip() == "":
        raise ExprSyntaxError("empty expression", 0)
    root = _Parser(_tokenize(src), var).parse()
    return Expr(root, var)
