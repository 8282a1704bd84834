"""Recursive-descent parser for human-written polynomial expressions.

Grammar (whitespace-insensitive, no implicit multiplication):

    expr     := term (('+'|'-') term)*
    term     := factor ('*' factor)*
    factor   := '-' factor | atom ('^' uint)?
    atom     := rational | var | '(' expr ')'
    var      := 'x'|'y'|'z'|'w'
    rational := int ('/' uint)?

'^' binds tighter than unary minus, so "-x^2" parses as -(x^2).  Exponents
are nonnegative integer literals only.  A run of unary minus signs folds to
one Neg or none, by parity.  Parentheses nest at most MAX_NESTING deep;
with that bound, and with sums and products walked iteratively, no input
exhausts the interpreter stack.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction

from .poly import VAR_ORDER, MultiPoly

# Expanding a parsed expression must stay desk-sized; exponents past this
# would hang the expander long before anything useful happened.
MAX_EXPONENT = 10**6

# The parser recurses once per level of parentheses (four frames a level),
# and lowering once more; this bound keeps both well below the interpreter's
# default recursion limit.
MAX_NESTING = 100


class ParseError(ValueError):
    """Syntax or validation error, carrying the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


# -- AST --------------------------------------------------------------------


@dataclass(frozen=True)
class Lit:
    value: Fraction


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Add:
    left: object
    right: object


@dataclass(frozen=True)
class Sub:
    left: object
    right: object


@dataclass(frozen=True)
class Neg:
    operand: object


@dataclass(frozen=True)
class Mul:
    left: object
    right: object


@dataclass(frozen=True)
class Pow:
    base: object
    exponent: int


ExprAST = Lit | Var | Add | Sub | Neg | Mul | Pow


# -- tokenizer ----------------------------------------------------------------

_OPS = set("+-*^()/")


@dataclass(frozen=True)
class _Token:
    kind: str  # "int" | "var" | an operator character | "end"
    text: str
    offset: int


def tokenize(text: str) -> list[_Token]:
    toks = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(_Token("int", text[i:j], i))
            i = j
            continue
        if c in VAR_ORDER:
            toks.append(_Token("var", c, i))
            i += 1
            continue
        if c in _OPS:
            toks.append(_Token(c, c, i))
            i += 1
            continue
        if c.isalpha():
            raise ParseError(f"unknown variable {c!r}; allowed: x, y, z, w", i)
        raise ParseError(f"unexpected character {c!r}", i)
    toks.append(_Token("end", "", n))
    return toks


# -- parser -------------------------------------------------------------------


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0  # open parentheses around the current position

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def expr(self):
        node = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.advance()
            rhs = self.term()
            node = Add(node, rhs) if op.kind == "+" else Sub(node, rhs)
        return node

    def term(self):
        node = self.factor()
        while self.peek().kind == "*":
            self.advance()
            node = Mul(node, self.factor())
        return node

    def factor(self):
        negate = False
        while self.peek().kind == "-":
            self.advance()
            negate = not negate
        node = self.atom()
        if self.peek().kind == "^":
            self.advance()
            t = self.peek()
            if t.kind != "int":
                raise ParseError("exponent must be a nonnegative integer literal", t.offset)
            self.advance()
            e = int(t.text)
            if e > MAX_EXPONENT:
                raise ParseError(f"exponent {e} exceeds the limit {MAX_EXPONENT}", t.offset)
            node = Pow(node, e)
        return Neg(node) if negate else node

    def atom(self):
        t = self.peek()
        if t.kind == "int":
            self.advance()
            num = int(t.text)
            if self.peek().kind == "/":
                self.advance()
                dt = self.peek()
                if dt.kind != "int":
                    raise ParseError("denominator must be an integer literal", dt.offset)
                self.advance()
                den = int(dt.text)
                if den == 0:
                    raise ParseError("zero denominator in rational literal", dt.offset)
                return Lit(Fraction(num, den))
            return Lit(Fraction(num))
        if t.kind == "var":
            self.advance()
            return Var(t.text)
        if t.kind == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", t.offset)
            self.advance()
            self.depth += 1
            node = self.expr()
            closing = self.peek()
            if closing.kind != ")":
                raise ParseError("expected ')'", closing.offset)
            self.advance()
            self.depth -= 1
            return node
        if t.kind == "end":
            raise ParseError("unexpected end of input", t.offset)
        raise ParseError(f"unexpected token {t.text!r}", t.offset)


def parse(text: str) -> ExprAST:
    """Parse an expression into an AST; raises ParseError with a byte offset."""
    if not text.strip():
        raise ParseError("empty expression", 0)
    p = _Parser(tokenize(text))
    node = p.expr()
    trailing = p.peek()
    if trailing.kind != "end":
        raise ParseError(f"unexpected trailing token {trailing.text!r}", trailing.offset)
    return node


def lower(ast: ExprAST) -> MultiPoly:
    """Expand an AST into a canonical MultiPoly."""
    if isinstance(ast, Lit):
        return MultiPoly.const(ast.value)
    if isinstance(ast, Var):
        return MultiPoly.variable(ast.name)
    if isinstance(ast, (Add, Sub)):
        return _lower_sum(ast)
    if isinstance(ast, Neg):
        return -lower(ast.operand)
    if isinstance(ast, Mul):
        return _lower_product(ast)
    if isinstance(ast, Pow):
        return lower(ast.base) ** ast.exponent
    raise TypeError(f"not an expression node: {ast!r}")


def _lower_sum(ast: Add | Sub) -> MultiPoly:
    """Lower a sum without recursing along its additive spine.

    ``parse`` builds sums as left-deep Add/Sub chains, one node per term, so
    recursing down the left operands would exhaust the interpreter stack on
    sums of about a thousand terms.
    """
    summands = []
    node = ast
    while isinstance(node, (Add, Sub)):
        rhs = lower(node.right)
        summands.append(rhs if isinstance(node, Add) else -rhs)
        node = node.left
    summands.append(lower(node))
    summands.reverse()
    return _combine_pairwise(summands, operator.add)


def _lower_product(ast: Mul) -> MultiPoly:
    """Lower a product along its left-deep Mul chain iteratively, as for sums."""
    factors = []
    node = ast
    while isinstance(node, Mul):
        factors.append(lower(node.right))
        node = node.left
    factors.append(lower(node))
    factors.reverse()
    return _combine_pairwise(factors, operator.mul)


def _combine_pairwise(items: list[MultiPoly], op) -> MultiPoly:
    """Fold items with op in adjacent pairs, round by round.

    Each operation then stays near the size of its operands instead of
    copying one ever-growing accumulator per item.
    """
    while len(items) > 1:
        paired = [op(a, b) for a, b in zip(items[::2], items[1::2])]
        if len(items) % 2:
            paired.append(items[-1])
        items = paired
    return items[0]


def parse_poly(text: str) -> MultiPoly:
    """Parse and expand in one step."""
    return lower(parse(text))
