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
from ._sexpr import Fault, ParseError

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


#: An atom name written bare that reads back as the same atom: ASCII digits
#: only in canonical ``int`` form, not a reserved word, no keyword ``:``.  A
#: token also starts with neither the reserved prefix nor ``:``.
_VERBATIM_RE = re.compile(rf"(?!(?:0[0-9]+|{'|'.join(_RESERVED_WORDS)})\Z|:){_sexpr.SYMBOL}")
_WORD_RE = re.compile(rf"(?!{RESERVED_TOKEN_PREFIX}|:|0[0-9]+\Z){_sexpr.SYMBOL}")


def valid_user_token(tok: str) -> bool:
    """Whether a proof file carries ``tok`` as a position or witness token: a
    symbol that reads back as itself (ASCII digits only as a canonical ``int``,
    not ``007``), without the reserved ``_`` prefix or a keyword's ``:``."""
    return _WORD_RE.fullmatch(tok) is not None


#: The connectives by head: constructor and number of operands.
_CONNECTIVES = {
    "and": (And, 2), "or": (Or, 2), "imp": (Imp, 2), "not": (neg, 1), "box": (Box, 1),
    "dia": (Dia, 1),
}


def _reserved_name(name: str) -> bool:
    """Whether no formula carries ``name`` as an atom name, quoted or not."""
    return name in _RESERVED_WORDS or name.startswith((":", "("))


def _atom_formula(tok: str, at: int) -> Formula:
    """The formula a token other than ``(`` stands for."""
    if tok[0] not in '":)' and tok not in _RESERVED_WORDS and not tok.isdigit():
        return Atom(tok)
    if tok == ")":
        raise Fault(None, at)
    name = _sexpr.atom(tok)
    if isinstance(name, int):
        return Atom(str(name))
    if name == "bot":
        return Bottom()
    if _reserved_name(name):
        raise Fault(f"invalid atom name {name!r}", at)
    return Atom(name)


def _connective(toks: list[str], i: int, at: int) -> tuple:
    """The connective of the formula list at token ``i``."""
    name = _sexpr.atom_at(toks, i + 1)
    if not isinstance(name, str):
        raise Fault(f"not a formula: {_sexpr.brief(toks, i)}", at)
    if name not in _CONNECTIVES:
        raise Fault(f"unknown formula head {name!r}", at)
    return _CONNECTIVES[name]


def _operand_fault(toks: list[str], items: list[int]) -> str | None:
    """What is wrong with the operand count of a formula list's ``items``."""
    head = _sexpr.atom(toks[items[0]])
    n = _CONNECTIVES[head][1]
    if len(items) != n + 1:
        return f"({head} ...) takes " + ("two operands" if n == 2 else "one operand")
    return None


def _read_formula(toks: list[str], i: int, memo: dict, at: int) -> tuple[Formula, int]:
    """The formula that starts at token ``i`` and the index after it, read
    on an explicit stack.  ``memo`` shares the atoms and subformulas read
    before; a fault is placed at token ``at``."""
    stack: list = []  # open lists: (start, constructor, operand count, operands)
    try:
        while True:
            tok = toks[i]
            i += 1
            f = memo.get(tok)
            if f is None:
                if tok == "(":
                    ctor, n = _CONNECTIVES.get(toks[i]) or _connective(toks, i - 1, at)
                    stack.append((i - 1, ctor, n, []))
                    i += 1
                    continue
                f = _atom_formula(tok, at)
                if tok[0] != '"':  # a string is formula text at a file's top level
                    memo[tok] = f
            while stack:
                _start, ctor, n, ops = stack[-1]
                ops.append(f)
                if len(ops) < n:
                    break
                if toks[i] != ")":
                    raise Fault(None, at)
                i += 1
                stack.pop()
                key = (ctor, id(ops[0]), id(ops[-1]))
                f = memo.get(key)
                if f is None:
                    f = memo[key] = ctor(*ops)
            else:
                return f, i
    except Fault as fault:
        fault.frames += [(frame[0], at, _operand_fault) for frame in stack]
        raise


def parse_formula(text: str) -> Formula:
    """Parse the concrete formula syntax.  ``(not F)`` is accepted and read as
    ``(imp F bot)``; the printer never emits the sugar, so printing then
    parsing is the identity on values."""
    return _sexpr.read_one(text, lambda toks: _read_formula(toks, 0, {}, -1))


def print_formula(f: Formula) -> str:
    """The concrete syntax of ``f``; any nesting depth prints.  A plain
    ``str`` atom name is written as it is, a ``QStr`` quoted."""
    return _write_formula(f)


#: The text that opens a compound formula, and whether it has two operands.
_OPENERS = {c: (f"({h} ", n == 2) for h, (c, n) in _CONNECTIVES.items() if c is not neg}
_CLOSE, _SPACE = (")",), (" ",)  # text to write, told from formulas by identity


def _write_formula(f: Formula, strict: bool = False) -> str:
    """The text of ``f``, written in one pass on an explicit stack.  A plain
    ``str`` atom name is written as it is, with ``strict`` only if
    ``_VERBATIM_RE`` holds for it; any other name by :func:`_quoted_name`."""
    out, stack = [], [f]
    while stack:
        f = stack.pop()
        cls = type(f)
        if f is _CLOSE or f is _SPACE:
            out.append(f[0])
        elif cls in _OPENERS:
            head, binary = _OPENERS[cls]
            out.append(head)
            stack += (_CLOSE, f.right, _SPACE, f.left) if binary else (_CLOSE, f.body)
        elif cls is Atom:
            name = f.name
            if type(name) is not str or strict and not _VERBATIM_RE.fullmatch(name):
                name = _quoted_name(name, strict)
            out.append(name)
        elif cls is Bottom:
            out.append("bot")
        else:
            raise TypeError(f"not a formula: {f!r}")
    return "".join(out)


def _quoted_name(name: object, strict: bool) -> str:
    """An atom name written as a string literal: ``TypeError`` if it is not a
    ``str``, and with ``strict`` ``ValueError`` if no proof file carries it."""
    if not isinstance(name, str):
        raise TypeError(f"not a formula: {Atom(name)!r}")
    if strict and _reserved_name(name):
        raise ValueError(f"atom name {name!r} cannot be written in a proof file")
    return _sexpr._quote(name)


def _word(tok: str) -> str | None:
    """The position token a token other than ``)`` stands for, ``None`` if it
    is not a valid one."""
    word = "" if tok == "(" else str(_sexpr.atom(tok))
    return word if valid_user_token(word) else None


def _read_position(toks: list[str], i: int, words: dict, at: int) -> tuple[Position, int]:
    """The position whose ``(`` is token ``i`` and the index after its ``)``.
    ``words`` shares the tokens read before; a fault is placed at token
    ``at``."""
    if toks[i + 1] == ")":
        return (), i + 2
    j = _sexpr.skip(toks, i) - 1
    pos = toks[i + 1 : j]
    for k, tok in enumerate(pos):
        word = pos[k] = words.get(tok) or _word(tok)
        if word is None:
            raise Fault(f"invalid position token {_sexpr.brief(toks, i + 1 + k)}", at)
        words[tok] = word
    return tuple(pos), j + 1


def parse_position(text: str) -> Position:
    """Parse ``(tok1 tok2 ...)``; ``()`` is the empty position.  Tokens with
    the reserved ``_`` prefix are rejected."""

    def read(toks: list[str]) -> tuple[Position, int]:
        if toks[0] != "(":
            raise Fault(f"not a position: {_sexpr.brief(toks, 0)}", -1)
        return _read_position(toks, 0, {}, -1)

    return _sexpr.read_one(text, read)


def print_position(p: Position) -> str:
    return "(" + " ".join(p) + ")"
