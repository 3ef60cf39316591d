"""Minimal s-expression reader shared by the file formats.

Values map to Python as: symbols -> ``str``, ASCII digits -> ``int``,
double-quoted strings -> ``QStr`` (a ``str`` that writes back quoted).
Comments run from ``;`` to end of line.  A name written bare reads back as
itself only if it is a :data:`SYMBOL` (no whitespace, parenthesis, ``"`` or
``;``) and, if all ASCII digits, an ``int`` in canonical form (``007``
reads back as ``7``).  The writers write text directly, a string literal
through :func:`_quote`.

One compiled regular expression splits the text into parentheses, strings,
symbols and comments (:func:`tokens`).  The proof-file, formula, position
and model readers build their values from the tokens on explicit stacks of
their own, through :func:`read_one`; no reader builds a tree of lists.  Only
at a reader's first fault is the error worked out, from the tokens, and only
then are token offsets turned into a 1-based line and column.  Only ``\\n``
starts a line, except a newline escaped by a backslash inside a string,
which counts as two columns of the current line.
"""

from __future__ import annotations

import re


class ParseError(Exception):
    """Raised on malformed input; carries 1-based line and column."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"line {line}, column {column}: {message}")
        self.message = message
        self.line = line
        self.column = column


class QStr(str):
    """A string that round-trips as a double-quoted literal."""


#: A bare symbol: the tokenizer's pattern for a token that is not a
#: parenthesis, a string or a comment.  The rules for what names a proof
#: file carries (``syntax.valid_user_token``, ``kernel._LABEL_RE`` and the
#: formula writer's atom test) are built on it.
SYMBOL = r'[^\s();"]+'

# One token per match, in group 1, with the whitespace after it: a match
# ends where the next token starts, so a run of whitespace is skipped in one
# step (only leading whitespace is stepped over one character at a time).
# Skipping it before the token instead would rescan a trailing run from
# each of its characters.  ``\s`` matches exactly the characters for which
# ``str.isspace`` holds.
_TOKEN_RE = re.compile(
    r"""([()]"""  # a parenthesis
    r'''|"[^"\\]*(?:\\.[^"\\]*)*"'''  # a string
    rf"|{SYMBOL}"  # a symbol
    r"""|;[^\n]*"""  # a comment
    r'''|")'''  # a quote that never closes: the string runs to the end
    r"""\s*""",
    re.DOTALL,
)
_STRING_PREFIX_RE = re.compile(r'"[^"\\]*(?:\\.[^"\\]*)*', re.DOTALL)
_ESCAPE_RE = re.compile(r"\\(.)", re.DOTALL)
_ESCAPES = {"n": "\n", "t": "\t"}


def _unescape(body: str) -> str:
    return _ESCAPE_RE.sub(lambda e: _ESCAPES.get(e.group(1), e.group(1)), body)


def _note_escaped_newlines(body: str, start: int, escaped: list[int]) -> None:
    """Record the offsets of backslash-escaped newlines in a string body
    that begins at offset ``start``."""
    if "\\\n" in body:
        for e in _ESCAPE_RE.finditer(body):
            if e.group(1) == "\n":
                escaped.append(start + e.start(1))


def _error(text: str, message: str, offset: int, escaped=()) -> ParseError:
    """``message`` at the line and column of ``offset`` in ``text``: a
    ``\\n`` starts a line unless it is at one of the ``escaped`` offsets."""
    escaped = set(escaped)
    newline = text.rfind("\n", 0, offset)
    while newline in escaped:
        newline = text.rfind("\n", 0, newline)
    line = text.count("\n", 0, offset) + 1 - sum(e < offset for e in escaped)
    return ParseError(message, line, offset - newline)


def _unclosed_string(text: str) -> ParseError:
    """The error of a text with a string that never closes: it runs to the
    end of the text and is placed where it starts, or, if a lone backslash
    ends the text, is an unterminated escape placed there."""
    escaped: list[int] = []
    for m in _TOKEN_RE.finditer(text):
        tok, start = m.group(1), m.start(1)
        if tok == '"':
            break
        if tok[0] == '"':
            _note_escaped_newlines(tok[1:-1], start + 1, escaped)
    end = _STRING_PREFIX_RE.match(text, start).end()
    _note_escaped_newlines(text[start + 1 : end], start + 1, escaped)
    if end < len(text):
        return _error(text, "unterminated escape", end, escaped)
    return _error(text, "unterminated string", start, escaped)


def tokens(text: str) -> list[str]:
    """The tokens of ``text`` in order, its comments left out.  A string
    that never closes is the text's syntax error, raised here."""
    toks = _TOKEN_RE.findall(text)
    if '"' in text and '"' in toks:
        raise _unclosed_string(text)
    return [t for t in toks if t[0] != ";"] if ";" in text else toks


def atom(tok: str) -> object:
    """The value of a token other than a parenthesis: a ``QStr`` for a
    string, an ``int`` for ASCII digits, else the symbol itself."""
    if tok[0] == '"':
        body = tok[1:-1]
        return QStr(_unescape(body) if "\\" in body else body)
    # ASCII digits only: ``str.isdigit`` also holds for digits ``int``
    # cannot read (``²``) or reads as other ASCII digits (``٣``).
    return int(tok) if tok.isdigit() and tok.isascii() else tok


def atom_at(toks: list[str], i: int) -> object:
    """The value of token ``i``, ``None`` for a parenthesis."""
    return None if toks[i] in ("(", ")") else atom(toks[i])


def skip(toks: list[str], i: int) -> int:
    """The index after the expression that starts at token ``i``."""
    depth = 0
    while True:
        depth += (toks[i] == "(") - (toks[i] == ")")
        i += 1
        if depth <= 0:
            return i


class Fault(Exception):
    """A token reader's first fault: ``message`` at the ``(`` that is token
    ``at`` (-1: line 1, column 1).  ``frames`` hold the checks of the lists
    it had opened, ``(start, at, check)``: ``check(toks, items)``, given the
    token indices of the elements of the list at token ``start``, is
    ``None`` or a message placed at ``at``."""

    def __init__(self, message: str | None, at: int):
        super().__init__(message)
        self.message, self.at, self.frames = message, at, []


def read_one(text: str, read, single=("empty input", "expected a single expression")):
    """The value of the one expression in ``text``: ``read(tokens)`` gives
    it with the index after it.  On a :class:`Fault`, or when the tokens run
    out, the error is worked out from the tokens as a reader that checks a
    list before its elements would report it: the syntax error first, then
    ``single[0]`` (no expression) or ``single[1]`` (several), then the first
    message of the fault's frames, outermost first, then the fault itself."""
    toks = tokens(text)
    try:
        value, i = read(toks)
        if i == len(toks):
            return value
        raise Fault(None, -1)
    except (Fault, IndexError) as exc:
        fault = exc if isinstance(exc, Fault) else Fault(None, -1)
    ends = list(range(1, len(toks) + 1))  # the index after the expression at each token
    opened = []
    for k, tok in enumerate(toks):
        if tok == "(":
            opened.append(k)
        elif tok == ")":
            if not opened:
                raise _token_error(text, "unbalanced ')'", k)
            ends[opened.pop()] = k + 1
    if opened:
        raise _token_error(text, "unclosed '('", opened[-1])
    forms = i = 0
    while i < len(toks):
        forms, i = forms + 1, ends[i]
    if forms != 1:
        raise ParseError(single[forms > 1], 1, 1)
    message, at = fault.message, fault.at
    for start, where, check in fault.frames:
        items, k = [], start + 1
        while toks[k] != ")":
            items.append(k)
            k = ends[k]
        found = check(toks, items)
        if found is not None:
            message, at = found, where
            break
    raise _token_error(text, message, at) if at >= 0 else ParseError(message, 1, 1)


def _token_error(text: str, message: str, k: int) -> ParseError:
    """``message`` placed at token ``k`` of ``tokens(text)``."""
    escaped: list[int] = []
    for m in _TOKEN_RE.finditer(text):
        tok = m.group(1)
        if tok[0] != ";":
            if not k:
                break
            k -= 1
            if tok[0] == '"':
                _note_escaped_newlines(tok[1:-1], m.start(1) + 1, escaped)
    return _error(text, message, m.start(1), escaped)


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n") + '"'


_BRIEF = 40  # characters of a list that an error message shows


def brief(toks: list[str], k: int) -> str:
    """The expression at token ``k`` as an error message shows it: an atom
    as the ``repr`` of its value; a list written back, each atom as the text
    of its value (``007`` as ``7``, a string quoted again), cut to
    ``_BRIEF`` characters and ``...``.  Only the tokens shown are read, so
    any nesting depth is shown in bounded time."""
    if toks[k] != "(":
        return repr(atom(toks[k]))
    pieces, size, depth, first = ["("], 1, 1, True
    while depth and size <= _BRIEF:
        k += 1
        tok = toks[k]
        if tok == ")":
            depth, piece, first = depth - 1, ")", False
        else:
            opens = tok == "("
            text = tok if opens else _quote(atom(tok)) if tok[0] == '"' else str(atom(tok))
            piece = text if first else " " + text
            depth, first = depth + opens, opens
        pieces.append(piece)
        size += len(piece)
    text = "".join(pieces)
    return text if len(text) <= _BRIEF else text[:_BRIEF] + "..."
