"""Minimal s-expression reader/writer shared by the file formats.

Values map to Python as: lists -> lists, symbols -> ``str``, ASCII digits
-> ``int``, double-quoted strings -> ``QStr`` (a ``str`` that writes back
quoted).  Comments run from ``;`` to end of line.  A name written bare
reads back as itself only if it is a :data:`SYMBOL` (no whitespace,
parenthesis, ``"`` or ``;``) and, if all ASCII digits, an ``int`` in
canonical form (``007`` reads back as ``7``).  ``syntax.print_formula``
writes formulas as text; :func:`dump` writes lists around such text.

One compiled regular expression splits the text into parentheses, strings,
symbols and comments.  ``parse_all`` builds the lists on an explicit stack
in one pass, so nesting depth is not bounded by the recursion limit, and
can record each list's 1-based line and column.  The proof-file, formula
and position readers build their values from :func:`tokens` on explicit
stacks of their own, through :func:`read_one`: only at their first fault
are the lists built to place the error.  Only ``\\n`` starts a line,
except a newline escaped by a backslash inside a string, which counts as
two columns of the current line.
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


def parse_all(
    text: str, locations: dict[int, tuple[int, int]] | None = None
) -> list[object]:
    """Parse every top-level s-expression in ``text``.

    When ``locations`` is given, the (line, column) of every parsed list is
    recorded under ``id(list)``.
    """
    forms: list[object] = []
    items = forms
    stack: list[list[object]] = []  # enclosing lists of ``items``
    opened: list[list[object]] = []
    for tok in _TOKEN_RE.findall(text):
        c = tok[0]
        if c == "(":
            new: list[object] = []
            items.append(new)
            stack.append(items)
            if locations is not None:
                opened.append(new)
            items = new
        elif c == ")":
            if not stack:
                raise _located_error(text)
            items = stack.pop()
        elif tok == '"':
            raise _located_error(text)
        elif c != ";":
            items.append(atom(tok))
    if stack:
        raise _located_error(text)
    if opened:
        for lst, loc in _list_locations(text, opened):
            locations[id(lst)] = loc
    return forms


def _note_escaped_newlines(body: str, start: int, escaped: list[int]) -> None:
    """Record the offsets of backslash-escaped newlines in a string body
    that begins at offset ``start``."""
    if "\\\n" in body:
        for e in _ESCAPE_RE.finditer(body):
            if e.group(1) == "\n":
                escaped.append(start + e.start(1))


def _line_cols(text: str, offsets: list[int], escaped: list[int]):
    """Yield the (line, column) of each of the increasing ``offsets``."""
    if escaped:
        chars = list(text)
        for off in escaped:
            chars[off] = " "
        text = "".join(chars)
    line, line_start, prev = 1, 0, 0
    for off in offsets:
        newlines = text.count("\n", prev, off)
        if newlines:
            line += newlines
            line_start = text.rfind("\n", prev, off) + 1
        prev = off
        yield line, off - line_start + 1


def _list_locations(text: str, lists: list[list[object]]):
    """Pair each list, given in the order of their opening parentheses, with
    its (line, column)."""
    escaped: list[int] = []
    offsets: list[int] = []
    for m in _TOKEN_RE.finditer(text):
        tok = m.group(1)
        if tok == "(":
            offsets.append(m.start(1))
        elif tok[0] == '"':
            _note_escaped_newlines(tok[1:-1], m.start(1) + 1, escaped)
    return zip(lists, _line_cols(text, offsets, escaped))


def _error(text: str, message: str, offset: int, escaped: tuple | list = ()) -> ParseError:
    line, column = next(_line_cols(text, [offset], escaped))
    return ParseError(message, line, column)


def _located_error(text: str) -> ParseError:
    """The error a malformed ``text`` is reported with.  An unterminated
    string runs to the end of the text and is reported wherever it starts;
    otherwise the first unbalanced ')' is, then the innermost unclosed '('."""
    escaped: list[int] = []
    starts: list[int] = []
    unbalanced = None
    for m in _TOKEN_RE.finditer(text):
        tok = m.group(1)
        start = m.start(1)
        if tok == "(":
            starts.append(start)
        elif tok == ")":
            if starts:
                starts.pop()
            elif unbalanced is None:
                unbalanced = start
        elif tok == '"':
            return _unclosed_string(text, start, escaped)
        elif tok[0] == '"':
            _note_escaped_newlines(tok[1:-1], start + 1, escaped)
    if unbalanced is not None:
        return _error(text, "unbalanced ')'", unbalanced, escaped)
    return _error(text, "unclosed '('", starts[-1], escaped)


def _unclosed_string(text: str, quote: int, escaped: list[int]) -> ParseError:
    """The error for a string opened at ``quote`` that runs to the end of the
    text: a lone backslash at the very end is an unterminated escape."""
    end = _STRING_PREFIX_RE.match(text, quote).end()
    _note_escaped_newlines(text[quote + 1 : end], quote + 1, escaped)
    if end < len(text):
        return _error(text, "unterminated escape", end, escaped)
    return _error(text, "unterminated string", quote, escaped)


def tokens(text: str) -> list[str]:
    """The tokens of ``text`` in order, its comments left out.  A string
    that never closes is the text's syntax error, raised here."""
    toks = _TOKEN_RE.findall(text)
    if '"' in text and '"' in toks:
        raise _located_error(text)
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
    """A token reader's first fault: ``message`` (then the :func:`brief`
    value of the expression at token ``item``, if given) at the ``(`` that
    is token ``at`` (-1: line 1, column 1).  ``frames`` hold the checks of
    the lists it had opened, ``(start, at, check)``: ``check(the list at
    token start)`` is ``None`` or a message placed at ``at``."""

    def __init__(self, message: str | None, at: int, item: int | None = None):
        super().__init__(message)
        self.message, self.at, self.item, self.frames = message, at, item, []


def read_one(text: str, read, single=("empty input", "expected a single expression")):
    """The value of the one expression in ``text``: ``read(tokens)`` gives
    it with the index after it.  On a :class:`Fault`, or when the tokens run
    out, the lists are built only to place the error where a reader of
    ``parse_all``'s lists, which checks a list before its elements, would:
    the syntax error first, then ``single[0]`` (no expression) or
    ``single[1]`` (several), then the first message of the fault's frames,
    outermost first, then the fault itself."""
    toks = tokens(text)
    try:
        value, i = read(toks)
        if i == len(toks):
            return value
        raise Fault(None, -1)
    except (Fault, IndexError) as exc:
        fault = exc if isinstance(exc, Fault) else Fault(None, -1)
    locations: dict[int, tuple[int, int]] = {}
    forms = parse_all(text, locations)
    if len(forms) != 1:
        raise ParseError(single[len(forms) > 1], 1, 1)
    lists, stack = [], forms
    while stack:  # the lists in the order of their ``(``
        x = stack.pop()
        if isinstance(x, list):
            lists.append(x)
            stack += reversed(x)
    listed = dict(zip((k for k, t in enumerate(toks) if t == "("), lists))
    message, at = fault.message, fault.at
    for start, where, check in fault.frames:
        found = check(listed[start])
        if found is not None:
            message, at = found, where
            break
    else:
        if fault.item is not None:
            message += brief(listed.get(fault.item, atom_at(toks, fault.item)))
    raise ParseError(message, *(locations[id(listed[at])] if at >= 0 else (1, 1)))


def parse_one(text: str) -> object:
    """Parse exactly one top-level s-expression."""
    forms = parse_all(text)
    if len(forms) != 1:
        raise ParseError("expected a single expression" if forms else "empty input", 1, 1)
    return forms[0]


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n") + '"'


_DONE = object()
_BRIEF = 40  # characters of a list that an error message shows


def brief(value: object) -> str:
    """A value as an error message shows it: an atom as its ``repr``, a
    list as its s-expression text cut to ``_BRIEF`` characters and ``...``.
    The list is read on an explicit stack, only as far as it is shown, so
    any nesting depth is shown in bounded time and space."""
    if not isinstance(value, list):
        return repr(value)
    pieces, size, first = ["("], 1, True
    stack = [iter(value)]
    while stack and size <= _BRIEF:
        x = next(stack[-1], _DONE)
        if x is _DONE:
            stack.pop()
            piece, first = ")", False
        else:
            nested = isinstance(x, list)
            piece = ("" if first else " ") + ("(" if nested else dump(x))
            first = nested
            if nested:
                stack.append(iter(x))
        pieces.append(piece)
        size += len(piece)
    text = "".join(pieces)
    return text if len(text) <= _BRIEF else text[:_BRIEF] + "..."


def dump(value: object) -> str:
    """Render a nested list/str/int value as a canonical s-expression.  A
    plain ``str`` is written as it is: a symbol, or text already written,
    such as a formula's."""
    if type(value) is str:
        return value
    if isinstance(value, list):
        return "(" + " ".join(map(dump, value)) + ")"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, QStr):
        return _quote(value)
    if isinstance(value, str):
        return value
    raise TypeError(f"cannot serialize {type(value)!r}")
