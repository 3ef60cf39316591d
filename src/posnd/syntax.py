"""Formulas and positions.

Positions are finite sequences of tokens (interned strings).  Formulas are
immutable trees over atoms and bottom with conjunction, disjunction,
implication, box, and diamond; negation is sugar for implication into bottom
and is *not* a constructor.  A p-formula is a formula decorated with the
position where it is asserted; an e-formula asserts that a position exists and
may occur only as an assumption.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from . import _sexpr
from ._sexpr import ParseError, brief

__all__ = [
    "Token",
    "Position",
    "Formula",
    "Atom",
    "Bottom",
    "And",
    "Or",
    "Imp",
    "Box",
    "Dia",
    "PFormula",
    "EFormula",
    "ParseError",
    "neg",
    "concat",
    "prefix_replace",
    "step_holds",
    "init_set",
    "degree",
    "parse_formula",
    "print_formula",
    "parse_position",
    "print_position",
    "valid_user_token",
    "RESERVED_TOKEN_PREFIX",
]

Token = str
Position = tuple[Token, ...]

#: Prefix reserved for internally generated fresh tokens; rejected on input.
RESERVED_TOKEN_PREFIX = "_"

_RESERVED_WORDS = frozenset(
    {"bot", "and", "or", "imp", "not", "box", "dia", "true", "false"}
)


class Formula:
    """Base class for formula nodes.  All subclasses are frozen dataclasses."""

    __slots__ = ()


@dataclass(frozen=True)
class Atom(Formula):
    name: str


@dataclass(frozen=True)
class Bottom(Formula):
    pass


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Imp(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Box(Formula):
    body: Formula


@dataclass(frozen=True)
class Dia(Formula):
    body: Formula


def neg(f: Formula) -> Formula:
    """Negation as derived form: ``neg(A) == Imp(A, Bottom())``."""
    return Imp(f, Bottom())


@dataclass(frozen=True)
class PFormula:
    """A formula asserted at a position."""

    formula: Formula
    position: Position


@dataclass(frozen=True)
class EFormula:
    """An assumption that a position exists (partial systems only)."""

    position: Position


# ---------------------------------------------------------------------------
# Position operations
# ---------------------------------------------------------------------------


def concat(s: Position, t: Position) -> Position:
    """Concatenation; associative with the empty position as identity."""
    return s + t


def prefix_replace(s: Position, u: Position, v: Position) -> Position:
    """Replace the prefix ``u`` of ``s`` by ``v``; identity when ``u`` is not
    a prefix of ``s``.  The empty ``u`` always matches."""
    if s[: len(u)] == u:
        return v + s[len(u) :]
    return s


def step_holds(kind: str, s: Position, t: Position) -> bool:
    """Whether ``t`` relates to ``s`` by the named one-step/path relation.

    Kinds: ``succ`` (t extends s by exactly one token), ``succ-refl`` (t equals
    s or extends it by one), ``trans`` (t properly extends s), ``refl-trans``
    (s is a prefix of t).
    """
    is_prefix = t[: len(s)] == s
    if kind == "succ":
        return is_prefix and len(t) == len(s) + 1
    if kind == "succ-refl":
        return is_prefix and len(t) - len(s) in (0, 1)
    if kind == "trans":
        return is_prefix and len(t) > len(s)
    if kind == "refl-trans":
        return is_prefix
    raise ValueError(f"unknown step kind: {kind!r}")


def init_set(positions: object) -> frozenset[Position]:
    """The prefix closure of a set of positions (including the empty position
    whenever the input is nonempty).  It is the least prefix-closed superset."""
    closure: set[Position] = set()
    for p in positions:
        for i in range(len(p) + 1):
            closure.add(p[:i])
    return frozenset(closure)


def degree(f: Formula) -> int:
    """Connective nesting degree: atoms and bottom are 0, box/diamond add one,
    binary connectives take the max of their sides plus one.  Note that the
    derived negation automatically gets ``degree(neg(A)) == degree(A) + 1``."""
    if isinstance(f, (Atom, Bottom)):
        return 0
    if isinstance(f, (Box, Dia)):
        return 1 + degree(f.body)
    if isinstance(f, (And, Or, Imp)):
        return 1 + max(degree(f.left), degree(f.right))
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# Concrete syntax
# ---------------------------------------------------------------------------


def valid_user_token(tok: str) -> bool:
    """User-suppliable position token: nonempty, no whitespace or parentheses,
    no reserved ``_`` prefix, and not a keyword-looking symbol."""
    if tok.startswith(RESERVED_TOKEN_PREFIX) or tok.startswith(":"):
        return False
    return _USER_TOKEN_RE.fullmatch(tok) is not None


_USER_TOKEN_RE = re.compile(r"[^\s();]+")


def _formula_from_sexpr(form: object) -> Formula:
    if isinstance(form, str):
        if form == "bot":
            return Bottom()
        if form in _RESERVED_WORDS or form.startswith(":") or form.startswith("("):
            raise ParseError(f"invalid atom name {form!r}", 1, 1)
        return Atom(form)
    if isinstance(form, int):
        return Atom(str(form))
    if isinstance(form, list) and form and isinstance(form[0], str):
        head = form[0]
        if head in ("and", "or", "imp"):
            if len(form) != 3:
                raise ParseError(f"({head} ...) takes two operands", 1, 1)
            ctor = {"and": And, "or": Or, "imp": Imp}[head]
            return ctor(_formula_from_sexpr(form[1]), _formula_from_sexpr(form[2]))
        if head == "not":
            if len(form) != 2:
                raise ParseError("(not ...) takes one operand", 1, 1)
            return neg(_formula_from_sexpr(form[1]))
        if head in ("box", "dia"):
            if len(form) != 2:
                raise ParseError(f"({head} ...) takes one operand", 1, 1)
            ctor = {"box": Box, "dia": Dia}[head]
            return ctor(_formula_from_sexpr(form[1]))
        raise ParseError(f"unknown formula head {head!r}", 1, 1)
    raise ParseError(f"not a formula: {brief(form)}", 1, 1)


def _formula_to_sexpr(f: Formula) -> object:
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Bottom):
        return "bot"
    if isinstance(f, And):
        return ["and", _formula_to_sexpr(f.left), _formula_to_sexpr(f.right)]
    if isinstance(f, Or):
        return ["or", _formula_to_sexpr(f.left), _formula_to_sexpr(f.right)]
    if isinstance(f, Imp):
        return ["imp", _formula_to_sexpr(f.left), _formula_to_sexpr(f.right)]
    if isinstance(f, Box):
        return ["box", _formula_to_sexpr(f.body)]
    if isinstance(f, Dia):
        return ["dia", _formula_to_sexpr(f.body)]
    raise TypeError(f"not a formula: {f!r}")


def parse_formula(text: str) -> Formula:
    """Parse the concrete formula syntax.  ``(not F)`` is accepted and read as
    ``(imp F bot)``; the printer never emits the sugar, so printing then
    parsing is the identity on values."""
    return _formula_from_sexpr(_sexpr.parse_one(text))


def print_formula(f: Formula) -> str:
    return _sexpr.dump(_formula_to_sexpr(f))


def _position_from_sexpr(form: object) -> Position:
    if not isinstance(form, list):
        raise ParseError(f"not a position: {form!r}", 1, 1)
    toks: list[str] = []
    for item in form:
        if isinstance(item, list):
            raise ParseError(f"invalid position token {brief(item)}", 1, 1)
        tok = str(item)
        if not valid_user_token(tok):
            raise ParseError(f"invalid position token {tok!r}", 1, 1)
        toks.append(tok)
    return tuple(toks)


def parse_position(text: str) -> Position:
    """Parse ``(tok1 tok2 ...)``; ``()`` is the empty position.  Tokens with
    the reserved ``_`` prefix are rejected."""
    return _position_from_sexpr(_sexpr.parse_one(text))


def print_position(p: Position) -> str:
    return "(" + " ".join(p) + ")"
