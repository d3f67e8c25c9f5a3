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

``Expr.diff`` differentiates symbolically in the expression's variable.  A
violation inside a node that a derivative rule introduced names the node of
the original expression it is the derivative of.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Expr",
    "ExprSyntaxError",
    "ExprDomainError",
    "parse_expr",
]

_FUNCTIONS = {
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "sin": np.sin,
    "cos": np.cos,
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


# ``origin`` marks a node that a derivative rule introduced: the node of the
# parsed expression whose derivative (of any order) it belongs to.  It takes no
# part in equality or printing.

@dataclass(frozen=True)
class _BinOp:
    op: str
    lhs: object
    rhs: object
    origin: object = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class _Call:
    func: str
    arg: object
    origin: object = field(default=None, compare=False, repr=False)


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


def _domain_error(message: str, node) -> ExprDomainError:
    origin = getattr(node, "origin", None)
    return ExprDomainError(message, _node_str(origin or node),
                           derivative=origin is not None)


def _eval_node(node, x):
    if isinstance(node, _Num):
        return node.value
    if isinstance(node, _Var):
        return x
    if isinstance(node, _Neg):
        return -_eval_node(node.arg, x)
    if isinstance(node, _Call):
        arg = _eval_node(node.arg, x)
        if node.func == "sqrt" and np.any(np.asarray(arg) < 0):
            raise _domain_error("sqrt of negative value", node)
        if node.func == "log" and np.any(np.asarray(arg) <= 0):
            raise _domain_error("log of non-positive value", node)
        return _FUNCTIONS[node.func](arg)
    if isinstance(node, _BinOp):
        lhs = _eval_node(node.lhs, x)
        rhs = _eval_node(node.rhs, x)
        if node.op == "+":
            return np.add(lhs, rhs)
        if node.op == "-":
            return np.subtract(lhs, rhs)
        if node.op == "*":
            return np.multiply(lhs, rhs)
        if node.op == "/":
            if np.any(np.asarray(rhs) == 0):
                raise _domain_error("division by zero", node)
            return np.divide(lhs, rhs)
        if node.op == "^":
            l, r = np.asarray(lhs, float), np.asarray(rhs, float)
            if np.any((l < 0) & (r != np.floor(r))):
                raise _domain_error("fractional power of negative base", node)
            if np.any((l == 0) & (r < 0)):
                raise _domain_error("zero raised to negative power", node)
            return np.power(lhs, rhs)
    raise TypeError(f"unknown node {node!r}")  # pragma: no cover


# --------------------------------------------------------------------------
# Symbolic differentiation
# --------------------------------------------------------------------------

def _const(node):
    """The value of a number or a negated number, else None."""
    if isinstance(node, _Num):
        return node.value
    if isinstance(node, _Neg) and isinstance(node.arg, _Num):
        return -node.arg.value
    return None


def _num(value: float):
    # a negative value as a negated number, so the printed tree parses back
    # to itself; "+ 0.0" turns -0.0 into 0.0
    return _Neg(_Num(-value)) if value < 0 else _Num(value + 0.0)


def _neg(u):
    c = _const(u)
    if c is not None:
        return _num(-c)
    return u.arg if isinstance(u, _Neg) else _Neg(u)


def _add(u, v):
    cu, cv = _const(u), _const(v)
    if cu is not None and cv is not None:
        return _num(cu + cv)
    if cu == 0:
        return v
    return u if cv == 0 else _BinOp("+", u, v)


def _sub(u, v):
    cu, cv = _const(u), _const(v)
    if cu is not None and cv is not None:
        return _num(cu - cv)
    if cu == 0:
        return _neg(v)
    return u if cv == 0 else _BinOp("-", u, v)


def _mul(u, v):
    cu, cv = _const(u), _const(v)
    if cu is not None and cv is not None:
        return _num(cu * cv)
    if cu == 0 or cv == 0:
        return _Num(0.0)
    if cu in (1, -1):
        return v if cu == 1 else _neg(v)
    if cv in (1, -1):
        return u if cv == 1 else _neg(u)
    return _BinOp("*", u, v)


def _div(u, v, origin):
    return _Num(0.0) if _const(u) == 0 else _BinOp("/", u, v, origin)


def _pow(u, v, origin):
    cv = _const(v)
    if cv in (0, 1):
        return _Num(1.0) if cv == 0 else u
    return _BinOp("^", u, v, origin)


def _diff_node(node):
    """d(node)/d(var), with 0 and 1 terms folded away."""
    if isinstance(node, _Num):
        return _Num(0.0)
    if isinstance(node, _Var):
        return _Num(1.0)
    if isinstance(node, _Neg):
        return _neg(_diff_node(node.arg))
    # a node of a derivative passes on the user's node it came from
    origin = getattr(node, "origin", None) or node
    if isinstance(node, _Call):
        u = node.arg
        du = _diff_node(u)
        if node.func == "exp":
            return _mul(node, du)
        if node.func == "log":
            return _div(du, u, origin)
        if node.func == "sqrt":
            return _div(_mul(_Num(0.5), du), node, origin)
        if node.func == "sin":
            return _mul(_Call("cos", u), du)
        if node.func == "cos":
            return _neg(_mul(_Call("sin", u), du))
    if isinstance(node, _BinOp):
        u, v = node.lhs, node.rhs
        du, dv = _diff_node(u), _diff_node(v)
        if node.op == "+":
            return _add(du, dv)
        if node.op == "-":
            return _sub(du, dv)
        if node.op == "*":
            return _add(_mul(du, v), _mul(u, dv))
        if node.op == "/":
            if _const(dv) == 0:
                return _div(du, v, origin)
            return _div(_sub(_mul(du, v), _mul(u, dv)),
                        _pow(v, _Num(2.0), origin), origin)
        if node.op == "^":
            if _const(dv) == 0:  # c u^(c-1) u'
                return _mul(_mul(v, _pow(u, _sub(v, _Num(1.0)), origin)), du)
            # u^v (v' log u + v u'/u)
            return _mul(node, _add(_mul(dv, _Call("log", u, origin)),
                                   _mul(v, _div(du, u, origin))))
    raise TypeError(f"unknown node {node!r}")  # pragma: no cover


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

    __slots__ = ("_root", "var", "src")

    def __init__(self, root, var: str, src: str):
        self._root = root
        self.var = var
        self.src = src

    def __call__(self, x):
        with np.errstate(over="ignore", invalid="ignore"):
            value = _eval_node(self._root, x)
        if not np.all(np.isfinite(value)):
            raise ExprDomainError("non-finite result (overflow?)", str(self))
        if np.ndim(x) == 0:
            return float(value)
        return np.broadcast_to(np.asarray(value, float), np.shape(x)).copy()

    def diff(self) -> "Expr":
        """The derivative in ``var``, as an expression of the same kind.

        A domain violation while evaluating it names the node of this
        expression whose derivative rule (``/``, ``^``, ``log``, ``sqrt``)
        failed.
        """
        root = _diff_node(self._root)
        return Expr(root, self.var, _node_str(root))

    def __str__(self) -> str:
        return _node_str(self._root)

    def __repr__(self) -> str:
        return f"Expr({str(self)!r}, var={self.var!r})"

    def __eq__(self, other) -> bool:
        return isinstance(other, Expr) and self._root == other._root

    def __hash__(self) -> int:
        return hash((self.var, str(self)))


def parse_expr(src: str, var: str = "z") -> Expr:
    """Parse ``src`` into an :class:`Expr` in the variable ``var``.

    Raises :class:`ExprSyntaxError` (with byte offset) on malformed input,
    unknown identifiers or misuse of a function name.
    """
    if not isinstance(src, str) or src.strip() == "":
        raise ExprSyntaxError("empty expression", 0)
    root = _Parser(_tokenize(src), var).parse()
    return Expr(root, var, src)
