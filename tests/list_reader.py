"""A frozen copy of the list reader and writer the token readers replaced.

``parse_all`` builds every top-level s-expression as nested lists on an
explicit stack and can record each list's 1-based line and column;
``parse_one`` reads exactly one; ``dump`` writes a nested list, ``str``,
``int``, ``bool`` or ``QStr`` value back as text; ``brief`` shows a value as
an error message did; ``parse_model`` reads a model file from the lists.
The oracle tests compare the package's readers and writers with these,
message, line and column alike, so the copies must not change.
"""

from __future__ import annotations

import re

from posnd._sexpr import ParseError, QStr
from posnd.semantics import _STEP_KIND, Node, TreeModel

_TOKEN_RE = re.compile(
    r"""([()]"""
    r'''|"[^"\\]*(?:\\.[^"\\]*)*"'''
    r"""|[^\s();"]+"""
    r"""|;[^\n]*"""
    r'''|")'''
    r"""\s*""",
    re.DOTALL,
)
_STRING_PREFIX_RE = re.compile(r'"[^"\\]*(?:\\.[^"\\]*)*', re.DOTALL)
_ESCAPE_RE = re.compile(r"\\(.)", re.DOTALL)
_ESCAPES = {"n": "\n", "t": "\t"}


def atom(tok: str) -> object:
    if tok[0] == '"':
        body = tok[1:-1]
        return QStr(_ESCAPE_RE.sub(lambda e: _ESCAPES.get(e.group(1), e.group(1)), body))
    return int(tok) if tok.isdigit() and tok.isascii() else tok


def parse_all(
    text: str, locations: dict[int, tuple[int, int]] | None = None
) -> list[object]:
    """Every top-level s-expression in ``text``; with ``locations``, the
    (line, column) of every list under ``id(list)``."""
    forms: list[object] = []
    items = forms
    stack: list[list[object]] = []
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
    if "\\\n" in body:
        for e in _ESCAPE_RE.finditer(body):
            if e.group(1) == "\n":
                escaped.append(start + e.start(1))


def _line_cols(text: str, offsets: list[int], escaped: list[int]):
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
            end = _STRING_PREFIX_RE.match(text, start).end()
            _note_escaped_newlines(text[start + 1 : end], start + 1, escaped)
            if end < len(text):
                return _error(text, "unterminated escape", end, escaped)
            return _error(text, "unterminated string", start, escaped)
        elif tok[0] == '"':
            _note_escaped_newlines(tok[1:-1], start + 1, escaped)
    if unbalanced is not None:
        return _error(text, "unbalanced ')'", unbalanced, escaped)
    return _error(text, "unclosed '('", starts[-1], escaped)


def parse_one(text: str) -> object:
    forms = parse_all(text)
    if len(forms) != 1:
        raise ParseError("expected a single expression" if forms else "empty input", 1, 1)
    return forms[0]


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n") + '"'


def dump(value: object) -> str:
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


_DONE = object()
_BRIEF = 40


def brief(value: object) -> str:
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


def parse_model(text: str) -> tuple[str, TreeModel]:
    locations: dict[int, tuple[int, int]] = {}
    forms = parse_all(text, locations)
    if len(forms) != 1:
        raise ParseError("expected a single model form", 1, 1)
    form = forms[0]

    def fail(message: str, obj: object) -> ParseError:
        return ParseError(message, *locations.get(id(obj), (1, 1)))

    if not isinstance(form, list) or not form or form[0] != "model":
        raise fail("expected a (model ...) form", form)
    items = form[1:]
    if len(items) < 2 or items[0] != ":logic" or not isinstance(items[1], str):
        raise fail("expected :logic <name> first", form)
    logic = items[1]
    if logic not in _STEP_KIND:
        raise fail(f"unknown logic {logic!r}", form)
    nodes: set[Node] = set()
    valuation: dict[Node, frozenset[str]] = {}
    serial = False
    rest = items[2:]
    i = 0
    while i < len(rest):
        item = rest[i]
        if item == ":serial-completion":
            if i + 1 >= len(rest) or rest[i + 1] not in ("true", "false"):
                raise fail(":serial-completion needs true or false", form)
            serial = rest[i + 1] == "true"
            i += 2
            continue
        if not isinstance(item, list) or not item or item[0] != "node":
            raise fail("expected a (node (...) :atoms (...)) form", item)
        if (
            len(item) != 4
            or not isinstance(item[1], list)
            or item[2] != ":atoms"
            or not isinstance(item[3], list)
        ):
            raise fail("expected (node (<nat>...) :atoms (<name>...))", item)
        if not all(isinstance(x, int) for x in item[1]):
            raise fail("world indices must be naturals", item)
        world = tuple(item[1])
        if world in nodes:
            raise fail(f"duplicate world {brief(item[1])}", item)
        atoms = []
        for a in item[3]:
            if not isinstance(a, str):
                raise fail("atom names must be symbols", item)
            atoms.append(a)
        nodes.add(world)
        if atoms:
            valuation[world] = frozenset(atoms)
        i += 1
    return logic, TreeModel(frozenset(nodes), valuation, serial)
