"""Recurrence spec documents and the polynomial expression grammar.

Specs travel as JSON: {"name"?, "var"?, "closed_form" | "relation"}.
Closed forms list {"root": rational literal, "coeff": polynomial
expression}; relations give {"coeffs": [...], "initial": [...]}.
Polynomial expressions use integer and a/b rational literals, one
variable (X, or the spec's declared index letter), operators + - * ^
with non-negative integer exponents, and parentheses.  Precedence:
^ binds tighter than unary minus, which binds tighter than *, which
binds tighter than binary + and -.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

from ._record import Record
from .errors import ParseError, ResourceError, SchemaError
from .polys import UniPoly
from .recurrences import LinearRecurrence, from_closed_form, from_relation


class Token(Record):
    __slots__ = ("kind", "text", "line", "column")

    def __init__(self, kind: str, text: str, line: int, column: int):
        # kind is "int", "name", one of "+-*/^()", or "end".
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "text", text)
        object.__setattr__(self, "line", line)
        object.__setattr__(self, "column", column)


def _tokenize(text: str) -> list[Token]:
    tokens = []
    line, column = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            column = 1
            i += 1
            continue
        if ch.isspace():
            column += 1
            i += 1
            continue
        if ch.isdigit():
            start = i
            while i < len(text) and text[i].isdigit():
                i += 1
            tokens.append(Token("int", text[start:i], line, column))
            column += i - start
            continue
        if ch.isalpha():
            start = i
            while i < len(text) and text[i].isalpha():
                i += 1
            tokens.append(Token("name", text[start:i], line, column))
            column += i - start
            continue
        if ch in "+-*/^()":
            tokens.append(Token(ch, ch, line, column))
            column += 1
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, column)
    tokens.append(Token("end", "", line, column))
    return tokens


def _int_literal(text: str) -> int:
    """The integer a literal spells; ResourceError past the digit limit.

    Python refuses to read an integer of more than
    ``sys.get_int_max_str_digits()`` digits with a ``ValueError``, the only
    one ``int`` raises on a string of digits with an optional sign.
    """
    try:
        return int(text)
    except ValueError:
        digits = len(text.lstrip("-"))
        raise ResourceError(
            f"the integer literal {text[:12]}... has {digits} digits, more than "
            f"{sys.get_int_max_str_digits()}, the interpreter's limit for reading "
            "an integer from text (PYTHONINTMAXSTRDIGITS=0 lifts it)"
        ) from None


class _PolyParser:
    """Recursive descent over the token list, producing a UniPoly."""

    def __init__(self, tokens: list[Token], variables: frozenset[str]):
        self.tokens = tokens
        self.pos = 0
        self.variables = variables

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def take(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(
                f"unexpected {tok.kind or 'end of input'} {tok.text!r}",
                tok.line,
                tok.column,
                expected={kind},
            )
        return self.take()

    def parse(self) -> UniPoly:
        result = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(
                f"trailing input {tok.text!r}",
                tok.line,
                tok.column,
                expected={"+", "-", "*", "^", "end"},
            )
        return result

    def expr(self) -> UniPoly:
        out = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.take().kind
            rhs = self.term()
            out = out + rhs if op == "+" else out - rhs
        return out

    def term(self) -> UniPoly:
        out = self.factor()
        while self.peek().kind == "*":
            self.take()
            out = out * self.factor()
        return out

    def factor(self) -> UniPoly:
        if self.peek().kind == "-":
            self.take()
            return -self.factor()
        return self.power()

    def power(self) -> UniPoly:
        base = self.atom()
        if self.peek().kind == "^":
            self.take()
            exponent = self.expect("int")
            return base ** _int_literal(exponent.text)
        return base

    def atom(self) -> UniPoly:
        tok = self.peek()
        if tok.kind == "(":
            self.take()
            inner = self.expr()
            self.expect(")")
            return inner
        if tok.kind == "int":
            self.take()
            value = Fraction(_int_literal(tok.text))
            if self.peek().kind == "/":
                self.take()
                den = self.expect("int")
                den_value = _int_literal(den.text)
                if den_value == 0:
                    raise ParseError("zero denominator", den.line, den.column)
                value /= den_value
            return UniPoly.constant(value)
        if tok.kind == "name":
            if tok.text not in self.variables:
                raise ParseError(
                    f"unknown variable {tok.text!r}",
                    tok.line,
                    tok.column,
                    expected=self.variables,
                )
            self.take()
            return UniPoly.x()
        raise ParseError(
            f"unexpected {tok.kind or 'end of input'} {tok.text!r}",
            tok.line,
            tok.column,
            expected={"int", "name", "(", "-"},
        )


def parse_polynomial(text: str, var: str = "N") -> UniPoly:
    """Parse a polynomial expression; X and the index letter both work."""
    names = {"X", "x", var.upper(), var.lower()}
    return _PolyParser(_tokenize(text), frozenset(names)).parse()


def parse_rational(text: str) -> Fraction:
    """Parse a rational literal (any constant expression qualifies)."""
    poly = _PolyParser(_tokenize(text), frozenset()).parse()
    assert poly.degree <= 0
    return poly.coeff(0)


# -- spec documents -----------------------------------------------------------


class RecurrenceSpec(Record):
    """A parsed recurrence description.

    Exactly one of ``closed_form`` (pairs of root and coefficient
    polynomial) and ``relation`` ((coeffs, initial) vectors) is set.
    ``var`` is the index letter used for rendering and for accepting
    expressions ("N" unless the document says otherwise).
    """

    __slots__ = ("name", "var", "closed_form", "relation")

    def __init__(
        self,
        name: str | None,
        var: str,
        closed_form: tuple[tuple[Fraction, UniPoly], ...] | None,
        relation: tuple[tuple[Fraction, ...], tuple[Fraction, ...]] | None,
    ):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "closed_form", closed_form)
        object.__setattr__(self, "relation", relation)

    def to_recurrence(self) -> LinearRecurrence:
        if self.closed_form is not None:
            return from_closed_form(self.closed_form)
        coeffs, initial = self.relation
        return from_relation(coeffs, initial)


def _schema_fail(message: str):
    raise SchemaError(message)


def parse_spec(text: str) -> RecurrenceSpec:
    """Parse and validate a spec document.

    Structural problems (JSON syntax, keys, types) raise SchemaError;
    problems inside the embedded expressions raise ParseError with
    position information.  An integer literal past the interpreter's
    digit limit, in an expression or as a JSON number, raises
    ResourceError.
    """
    try:
        doc = json.loads(text, parse_int=_int_literal)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        _schema_fail("spec document must be a JSON object")
    allowed = {"name", "var", "closed_form", "relation"}
    unknown = set(doc) - allowed
    if unknown:
        _schema_fail(f"unknown keys: {sorted(unknown)}")
    name = doc.get("name")
    if name is not None and not isinstance(name, str):
        _schema_fail("name must be a string")
    var = doc.get("var", "N")
    if not isinstance(var, str) or var.upper() not in ("M", "N"):
        _schema_fail('var must be "M" or "N"')
    var = var.upper()
    has_cf = "closed_form" in doc
    has_rel = "relation" in doc
    if has_cf == has_rel:
        _schema_fail("exactly one of closed_form/relation is required")
    if has_cf:
        entries = doc["closed_form"]
        if not isinstance(entries, list):
            _schema_fail("closed_form must be a list (empty means the zero sequence)")
        pairs = []
        for entry in entries:
            if not isinstance(entry, dict) or set(entry) != {"root", "coeff"}:
                _schema_fail("closed_form entries need exactly root and coeff")
            root_text, coeff_text = entry["root"], entry["coeff"]
            if not isinstance(root_text, str) or not isinstance(coeff_text, str):
                _schema_fail("root and coeff must be strings")
            pairs.append(
                (parse_rational(root_text), parse_polynomial(coeff_text, var))
            )
        # canonical order and duplicate-root merging, so that documents
        # describing the same sequence parse to equal specs
        spec = RecurrenceSpec(name, var, from_closed_form(pairs).terms, None)
    else:
        rel = doc["relation"]
        if not isinstance(rel, dict) or set(rel) != {"coeffs", "initial"}:
            _schema_fail("relation needs exactly coeffs and initial")
        vectors = []
        for key in ("coeffs", "initial"):
            raw = rel[key]
            if not isinstance(raw, list) or not raw:
                _schema_fail(f"relation.{key} must be a non-empty list")
            values = []
            for item in raw:
                if isinstance(item, str):
                    values.append(parse_rational(item))
                elif isinstance(item, int):
                    values.append(Fraction(item))
                else:
                    _schema_fail(f"relation.{key} entries must be rational literals")
            vectors.append(tuple(values))
        if len(vectors[0]) != len(vectors[1]):
            _schema_fail("relation.coeffs and relation.initial must have equal length")
        spec = RecurrenceSpec(name, var, None, (vectors[0], vectors[1]))
    spec.to_recurrence()
    return spec


def render_spec(
    rec: LinearRecurrence, name: str | None = None, var: str = "N"
) -> dict:
    """JSON-ready document; parse_spec(json.dumps(...)) round-trips it."""
    doc: dict = {}
    if name is not None:
        doc["name"] = name
    doc["var"] = var
    doc["closed_form"] = [
        {"root": str(root), "coeff": coeff.render("X")} for root, coeff in rec.terms
    ]
    return doc

