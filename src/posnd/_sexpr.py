"""Minimal s-expression reader/writer shared by the file formats.

Values map to Python as: lists -> Python lists, symbols/keywords -> ``str``,
unsigned integers -> ``int``, double-quoted strings -> ``QStr`` (a ``str``
subclass that serializes back with quotes).  Comments run from ``;`` to end of
line.  Parse errors carry 1-based line/column information; ``parse_all`` can
also record the source location of every parsed list for later error
reporting.

The reader makes one pass: a single compiled regular expression splits the
text into parentheses, strings, symbols and comments, and the lists are built
on an explicit stack, so nesting depth is not bounded by the recursion
limit.  Character offsets, and the lines and columns computed from them, are
only looked at where they are reported: list starts when ``locations`` is
asked for, and errors.  Only ``\\n`` starts a line, except a newline escaped
by a backslash inside a string, which counts as two columns of the current
line.
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


# One token per match; ``\s`` matches exactly the characters for which
# ``str.isspace`` holds.
_TOKEN_RE = re.compile(
    r"""[()]"""  # a parenthesis
    r'''|"[^"\\]*(?:\\.[^"\\]*)*"'''  # a string
    r"""|[^\s();"]+"""  # a symbol
    r"""|;[^\n]*"""  # a comment
    r'''|"''',  # a quote that never closes: the string runs to the end
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
        elif c == '"':
            if len(tok) == 1:
                raise _located_error(text)
            body = tok[1:-1]
            items.append(QStr(_unescape(body) if "\\" in body else body))
        elif c != ";":
            items.append(int(tok) if tok.isdigit() else tok)
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
        tok = m.group()
        if tok == "(":
            offsets.append(m.start())
        elif tok[0] == '"':
            _note_escaped_newlines(tok[1:-1], m.start() + 1, escaped)
    return zip(lists, _line_cols(text, offsets, escaped))


def _error(text: str, message: str, offset: int, escaped: list[int]) -> ParseError:
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
        tok = m.group()
        if tok == "(":
            starts.append(m.start())
        elif tok == ")":
            if starts:
                starts.pop()
            elif unbalanced is None:
                unbalanced = m.start()
        elif tok == '"':
            return _unclosed_string(text, m.start(), escaped)
        elif tok[0] == '"':
            _note_escaped_newlines(tok[1:-1], m.start() + 1, escaped)
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


def parse_one(text: str) -> object:
    """Parse exactly one top-level s-expression."""
    forms = parse_all(text)
    if not forms:
        raise ParseError("empty input", 1, 1)
    if len(forms) > 1:
        raise ParseError("expected a single expression", 1, 1)
    return forms[0]


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n") + '"'


def dump(value: object) -> str:
    """Render a nested list/str/int value as a canonical s-expression."""
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
