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

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .poly import (
    CONST_EXP,
    VAR_EXP,
    VAR_ORDER,
    MultiPoly,
    add_terms,
    mul_terms,
    nonzero_terms,
    pow_terms,
)

# Expanding a parsed expression must stay desk-sized; exponents past this
# would hang the expander long before anything useful happened.
MAX_EXPONENT = 10**6

# The parser recurses once per level of parentheses (four frames a level),
# and lowering up to four frames a level (sum, product, sign, power); this
# bound keeps both well below the interpreter's default recursion limit.
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


class _Token(NamedTuple):
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
        if c.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
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
    """Expand an AST into a canonical MultiPoly, built once from one term dict."""
    return MultiPoly(VAR_ORDER, _expand(ast))


def _expand(ast: ExprAST) -> dict:
    """The term dict (see ``poly``) of an AST; the caller owns the returned dict.

    ``parse`` builds sums and products as left-deep chains, one node per
    operand, so both are walked iteratively.  Only parentheses recurse, one
    frame per node between two levels, and MAX_NESTING bounds their depth.
    """
    kind = type(ast)
    if kind is Var:
        return {VAR_EXP[ast.name]: 1}
    if kind is Pow:
        return pow_terms(_expand(ast.base), ast.exponent)
    if kind is Lit:
        v = ast.value
        return {CONST_EXP: v.numerator if v.denominator == 1 else v} if v else {}
    if kind is Mul:
        factors = []
        while type(ast) is Mul:
            factors.append(ast.right)
            ast = ast.left
        acc = _expand(ast)
        for factor in reversed(factors):
            acc = mul_terms(acc, _expand(factor))
        return acc
    if kind is Add or kind is Sub:
        operands = []
        while type(ast) is Add or type(ast) is Sub:
            operands.append((ast.right, -1 if type(ast) is Sub else 1))
            ast = ast.left
        acc = _expand(ast)
        for operand, sign in reversed(operands):
            add_terms(acc, _expand(operand), sign)
        return nonzero_terms(acc)
    if kind is Neg:
        return {e: -c for e, c in _expand(ast.operand).items()}
    raise TypeError(f"not an expression node: {ast!r}")


def parse_poly(text: str) -> MultiPoly:
    """Parse and expand in one step."""
    return lower(parse(text))
