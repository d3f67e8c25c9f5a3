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
"""

from __future__ import annotations

import re
from dataclasses import dataclass

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
    """Evaluation left the expression's natural domain."""

    def __init__(self, message: str, subexpr: str):
        super().__init__(f"{message} in '{subexpr}'")
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
            raise ExprDomainError("sqrt of negative value", _node_str(node))
        if node.func == "log" and np.any(np.asarray(arg) <= 0):
            raise ExprDomainError("log of non-positive value", _node_str(node))
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
                raise ExprDomainError("division by zero", _node_str(node))
            return np.divide(lhs, rhs)
        if node.op == "^":
            l, r = np.asarray(lhs, float), np.asarray(rhs, float)
            if np.any((l < 0) & (r != np.floor(r))):
                raise ExprDomainError(
                    "fractional power of negative base", _node_str(node))
            if np.any((l == 0) & (r < 0)):
                raise ExprDomainError("zero raised to negative power",
                                      _node_str(node))
            return np.power(lhs, rhs)
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
