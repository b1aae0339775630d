"""A small expression language for coefficient fields.

Variables are ``x1..xm`` (base) and ``y1..yr`` (fiber).  Binary operators are
``+ - * /`` and ``^``; ``^`` is right-associative and binds tighter than
unary minus, so ``-x1^2`` parses as ``-(x1^2)``.  Functions: sin, cos, tan,
exp, ln, sqrt, abs and the binary pow.  Constants: pi, e.  Numeric literals
may use exponent notation (``1e-3``).

Printing an expression and reparsing it returns a structurally identical
tree (``parse(print(parse(s)))`` is a fixpoint).
"""

from __future__ import annotations

import math
import operator
import re

from . import jets
from .errors import ArityError, ExprSyntaxError, UnknownIdentifier
from .jets import ScalarField
from .record import FrozenRecord

FUNCTIONS = {
    "sin": (1, jets.t_sin),
    "cos": (1, jets.t_cos),
    "tan": (1, jets.t_tan),
    "exp": (1, jets.t_exp),
    "ln": (1, jets.t_ln),
    "sqrt": (1, jets.t_sqrt),
    "abs": (1, jets.t_abs),
    "pow": (2, jets.t_pow),
}

CONSTANTS = {"pi": math.pi, "e": math.e}

_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul,
           "/": jets.t_div, "^": jets.t_pow}


# -- syntax tree -----------------------------------------------------------


class Num(FrozenRecord):
    value: float


class Const(FrozenRecord):
    name: str


class Var(FrozenRecord):
    """``index`` is the position in the combined (x..., y...) coordinate list."""

    name: str
    index: int


class Neg(FrozenRecord):
    operand: Expr


class Bin(FrozenRecord):
    op: str
    left: Expr
    right: Expr


class Call(FrozenRecord):
    name: str
    args: tuple[Expr, ...]


Expr = Num | Const | Var | Neg | Bin | Call


# -- tokenizer -------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),])"
)

_VAR_RE = re.compile(r"^([xy])([1-9]\d*)$")


def _tokenize(source):
    tokens = []
    pos = 0
    size = len(source)
    while True:
        while pos < size and source[pos].isspace():
            pos += 1
        if pos >= size:
            break
        match = _TOKEN_RE.match(source, pos)
        if match is None:
            raise ExprSyntaxError(
                f"unexpected character {source[pos]!r}", pos,
                expected=("number", "identifier", "operator"))
        tokens.append((match.lastgroup, match.group(), pos))
        pos = match.end()
    tokens.append(("end", "", size))
    return tokens


# Deepest syntax tree ``parse`` accepts.  Parsing takes up to eight Python
# frames per nested level and ``to_field`` one, so both stay well inside
# the default recursion limit of 1000; evaluation does not recurse.
MAX_DEPTH = 64


class _Parser:
    """Recursive descent; each ``parse_*`` returns (node, height), where the
    height of a tree is 1 for a leaf and one more than its tallest child."""

    def __init__(self, source, dims):
        self.source = source
        self.m, self.r = dims
        self.tokens = _tokenize(source)
        self.i = 0
        self.nesting = 0   # parse_unary calls in progress

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, text, offset = self.peek()
        if kind == "op" and text == op:
            return self.advance()
        raise ExprSyntaxError(f"expected '{op}'", offset, expected=(op,))

    def at_op(self, *ops):
        kind, text, _ = self.peek()
        return kind == "op" and text in ops

    def check_depth(self, depth, offset):
        if depth > MAX_DEPTH:
            raise ExprSyntaxError(
                f"expression nested deeper than {MAX_DEPTH} levels", offset)
        return depth

    def binary(self, op, offset, left, right):
        return Bin(op, left[0], right[0]), \
            self.check_depth(1 + max(left[1], right[1]), offset)

    def chain(self, ops, operand):
        out = operand()
        while self.at_op(*ops):
            _, op, offset = self.advance()
            out = self.binary(op, offset, out, operand())
        return out

    # expr := term (('+'|'-') term)*
    def parse_expr(self):
        return self.chain(("+", "-"), self.parse_term)

    # term := unary (('*'|'/') unary)*
    def parse_term(self):
        return self.chain(("*", "/"), self.parse_unary)

    # unary := '-' unary | power
    # Every nested construct re-enters here, so counting the calls in
    # progress bounds the parser's own recursion.
    def parse_unary(self):
        self.nesting = self.check_depth(self.nesting + 1, self.peek()[2])
        if self.at_op("-"):
            offset = self.advance()[2]
            operand, height = self.parse_unary()
            out = Neg(operand), self.check_depth(height + 1, offset)
        else:
            out = self.parse_power()
        self.nesting -= 1
        return out

    # power := atom ('^' unary)?   (right-associative via unary recursion)
    def parse_power(self):
        out = self.parse_atom()
        if self.at_op("^"):
            offset = self.advance()[2]
            out = self.binary("^", offset, out, self.parse_unary())
        return out

    def parse_atom(self):
        kind, text, offset = self.peek()
        if kind == "num":
            self.advance()
            return Num(float(text)), 1
        if kind == "ident":
            self.advance()
            if self.at_op("("):
                return self.parse_call(text, offset)
            if text in CONSTANTS:
                return Const(text), 1
            var = _VAR_RE.match(text)
            if var:
                axis, number = var.group(1), int(var.group(2))
                bound = self.m if axis == "x" else self.r
                if number <= bound:
                    index = number - 1 if axis == "x" else self.m + number - 1
                    return Var(text, index), 1
            raise UnknownIdentifier(text, offset)
        if kind == "op" and text == "(":
            self.advance()
            out = self.parse_expr()
            self.expect_op(")")
            return out
        raise ExprSyntaxError("expected a number, identifier or '('", offset,
                              expected=("number", "identifier", "("))

    def parse_call(self, name, offset):
        if name not in FUNCTIONS:
            raise UnknownIdentifier(name, offset)
        arity = FUNCTIONS[name][0]
        self.expect_op("(")
        args = [self.parse_expr()]
        while self.at_op(","):
            self.advance()
            args.append(self.parse_expr())
        self.expect_op(")")
        if len(args) != arity:
            raise ArityError(
                f"{name} expects {arity} argument(s), got {len(args)}")
        height = self.check_depth(1 + max(h for _, h in args), offset)
        return Call(name, tuple(node for node, _ in args)), height


def parse(source: str, dims: tuple[int, int]) -> Expr:
    """Parse ``source`` against dimensions ``(m, r)``.  Trees deeper than
    ``MAX_DEPTH`` are refused with an ExprSyntaxError at the offending
    offset."""
    parser = _Parser(source, dims)
    node, _ = parser.parse_expr()
    kind, text, offset = parser.peek()
    if kind != "end":
        raise ExprSyntaxError(f"unexpected {text!r}", offset,
                              expected=("end of input",))
    return node


# -- printer ---------------------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_UNARY, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _prec(node):
    if isinstance(node, Bin):
        if node.op in "+-":
            return _PREC_ADD
        if node.op in "*/":
            return _PREC_MUL
        return _PREC_POW
    if isinstance(node, Neg):
        return _PREC_UNARY
    return _PREC_ATOM


def to_source(node: Expr) -> str:
    """Render with minimal parentheses; reparsing gives the same tree."""
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Const):
        return node.name
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        inner = to_source(node.operand)
        if _prec(node.operand) < _PREC_UNARY:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(node, Call):
        return f"{node.name}({', '.join(to_source(a) for a in node.args)})"
    left, right = to_source(node.left), to_source(node.right)
    if node.op in "+-":
        if _prec(node.left) < _PREC_ADD:
            left = f"({left})"
        if _prec(node.right) <= _PREC_ADD:
            right = f"({right})"
        return f"{left} {node.op} {right}"
    if node.op in "*/":
        if _prec(node.left) < _PREC_MUL:
            left = f"({left})"
        if _prec(node.right) <= _PREC_MUL:
            right = f"({right})"
        return f"{left} {node.op} {right}"
    # '^' is right-associative and binds tighter than unary minus
    if _prec(node.left) <= _PREC_POW:
        left = f"({left})"
    if _prec(node.right) < _PREC_UNARY:
        right = f"({right})"
    return f"{left}^{right}"


def to_field(node: Expr, m: int, r: int) -> ScalarField:
    """The expression as a graph of scalar fields over (x1..xm, y1..yr).

    Every variable-free subexpression folds into a constant here; one that
    fails to evaluate stays lazy and raises the same error wherever it is
    evaluated."""
    if isinstance(node, Num):
        return ScalarField.const(m, r, node.value)
    if isinstance(node, Const):
        return ScalarField.const(m, r, CONSTANTS[node.name])
    if isinstance(node, Var):
        return ScalarField.coordinate(m, r, node.index)
    if isinstance(node, Neg):
        return -to_field(node.operand, m, r)
    if isinstance(node, Call):
        args = tuple(to_field(a, m, r) for a in node.args)
        return jets.derived(FUNCTIONS[node.name][1], args)
    return jets.derived(_BINARY[node.op], (to_field(node.left, m, r),
                                           to_field(node.right, m, r)))


def parse_field(source: str, m: int, r: int) -> ScalarField:
    return to_field(parse(source, (m, r)), m, r)
