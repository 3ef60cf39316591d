"""Tests pinning the s-expression reader: tokens, values, locations and
errors, all through the package's own tokenizer, ``atom`` and readers."""

from __future__ import annotations

import re
import time

import pytest

from posnd import kernel as K
from posnd._sexpr import _TOKEN_RE, ParseError, QStr, _quote, _token_error, atom, tokens
from posnd.semantics import parse_model
from posnd.syntax import And, Atom, Imp, PFormula, parse_formula, parse_position

READERS = (parse_formula, parse_position, K.parse_proof, parse_model)


def _error(text: str) -> tuple[str, int, int]:
    """The syntax error of ``text``, the same from every reader."""
    got = set()
    for read in READERS:
        with pytest.raises(ParseError) as exc:
            read(text)
        got.add((exc.value.message, exc.value.line, exc.value.column))
    (want,) = got
    return want


def _places(text: str) -> list[tuple[int, int]]:
    """The (line, column) at which an error at each ``(`` is placed."""
    places = []
    for k, tok in enumerate(tokens(text)):
        if tok == "(":
            exc = _token_error(text, "", k)
            places.append((exc.line, exc.column))
    return places


# --- errors: message, line and column --------------------------------------


@pytest.mark.parametrize(
    "text, want",
    [
        (")", ("unbalanced ')'", 1, 1)),
        ("(a)\n  )", ("unbalanced ')'", 2, 3)),
        ("((a)\n)\n)", ("unbalanced ')'", 3, 1)),
        ("(a b", ("unclosed '('", 1, 1)),
        ("(a (b c)\n  (d", ("unclosed '('", 2, 3)),
        ("(a b c\n; hi\n", ("unclosed '('", 1, 1)),
        ('"abc', ("unterminated string", 1, 1)),
        ('(a) "x', ("unterminated string", 1, 5)),
        ('(a)\n\n  "x\ny', ("unterminated string", 3, 3)),
        # a lexical error at the end wins over an earlier stray ')'
        (') "abc', ("unterminated string", 1, 3)),
        (') (a "b\\', ("unterminated escape", 1, 8)),
        # unterminated escape: mid-line, at end of input, after a comment,
        # with CRLF line ends
        ('(a "b\\', ("unterminated escape", 1, 6)),
        ('"\\', ("unterminated escape", 1, 2)),
        ('x ; c\n "y\\', ("unterminated escape", 2, 4)),
        ('; "not a string\n"y\\', ("unterminated escape", 2, 3)),
        ('(a\r\n b)\r\n"q\\', ("unterminated escape", 3, 3)),
        ('(a\r\n "b\\', ("unterminated escape", 2, 4)),
        ('"a\\\\\\', ("unterminated escape", 1, 5)),
        # an escaped newline inside a string does not start a new line
        ('"a\\\nb" (', ("unclosed '('", 1, 8)),
        ('"a\\\nb" )', ("unbalanced ')'", 1, 8)),
        ('"a\nb" )', ("unbalanced ')'", 2, 4)),
        ('"a\\\nb\nc" )', ("unbalanced ')'", 2, 4)),
    ],
)
def test_error_location(text, want):
    assert _error(text) == want


def test_form_count_errors():
    for text in ("", "  ; only a comment\n"):
        with pytest.raises(ParseError) as exc:
            parse_formula(text)
        assert (exc.value.message, exc.value.line, exc.value.column) == (
            "empty input",
            1,
            1,
        )
    with pytest.raises(ParseError) as exc:
        parse_formula("a b")
    assert (exc.value.message, exc.value.line, exc.value.column) == (
        "expected a single expression",
        1,
        1,
    )
    assert str(exc.value) == "line 1, column 1: expected a single expression"
    for read, message in (
        (K.parse_proof, "expected exactly one proof form"),
        (parse_model, "expected a single model form"),
    ):
        for text in ("", "; c", "(a) (b)", "a\n(b)"):
            with pytest.raises(ParseError) as exc:
                read(text)
            assert (exc.value.message, exc.value.line, exc.value.column) == (message, 1, 1)


# --- values ----------------------------------------------------------------


def test_atom_types():
    toks = tokens('12 007 x12 -3 1.5 "5" "" :key a"b"')
    assert toks == ["12", "007", "x12", "-3", "1.5", '"5"', '""', ":key", "a", '"b"']
    values = list(map(atom, toks))
    assert values == [12, 7, "x12", "-3", "1.5", "5", "", ":key", "a", "b"]
    kinds = [type(v) for v in values]
    assert kinds == [int, int, str, str, str, QStr, QStr, str, str, QStr]


def test_non_ascii_digits_are_symbols():
    # ``str.isdigit`` holds for both, but only ASCII digits read as integers:
    # int() rejects "²" and reads "٣" as 3.
    assert list(map(atom, tokens("² ٣ 3"))) == ["²", "٣", 3]
    s4 = K.System("s4", "classical")
    d, _ = K.parse_proof("(proof :system s4 :flavor classical (hyp u ² ()))")
    assert d == K.hyp("u", Atom("²"), ())
    text = K.print_proof(K.hyp("u", Atom("٣"), ()), s4)
    assert "(hyp u ٣ ())" in text
    assert K.parse_proof(text)[0].content == PFormula(Atom("٣"), ())


def test_string_escapes():
    (tok,) = tokens(r'"a\nb\tc\"d\\e\qf"')
    s = atom(tok)
    assert isinstance(s, QStr)
    assert s == 'a\nb\tc"d\\eqf'
    assert atom('"x\\\ny"') == "x\ny"
    assert atom('"multi\nline"') == "multi\nline"
    assert _quote(s) == '"a\\nb\tc\\"d\\\\eqf"'


def test_comments_and_empty_input():
    assert tokens("") == []
    assert tokens("; nothing\n  \n;; more") == []
    assert tokens("(a ; (b\n c) ; d") == ["(", "a", "c", ")"]
    assert tokens("a;b\nc") == ["a", "c"]
    assert tokens('"x;y" z') == ['"x;y"', "z"]


def test_unusual_whitespace():
    # \x0b and \x1c are whitespace to str.isspace, as is the no-break space
    toks = tokens("a\x0bb\x1c(c d)\x1d\x85e f　g")
    assert toks == ["a", "b", "(", "c", "d", ")", "e", "f", "g"]
    assert _places("\x0b\x1c (x)") == [(1, 4)]
    with pytest.raises(ParseError) as exc:
        K.parse_proof("\x0b\x1c (proof :system s4)")
    assert (exc.value.line, exc.value.column) == (1, 4)
    # only '\n' starts a new line
    assert _error("\r\x0b\x1c\x85 )") == ("unbalanced ')'", 1, 6)


def test_nested_list_locations():
    text = "(proof\n  (a (b c)\n     (d))\n\t(e)) (f)\n(\n)"
    assert _places(text) == [(1, 1), (2, 3), (2, 6), (3, 6), (4, 2), (4, 7), (5, 1)]


def test_locations_after_strings_and_crlf():
    text = '(a "x\ny" (b))\r\n  (c "\\\n" (d))'
    # the escaped newline keeps the line count and adds two columns
    assert _places(text) == [(1, 1), (2, 4), (3, 3), (3, 11)]


def test_errors_are_placed_past_comments_and_strings():
    text = (
        '(proof :system s4 ; a comment (with a list)\n'
        '  :flavor classical ; "and a string\n'
        '  (and-i (hyp u "\\\n(and p q)" ())\n'
        '    (hyp v p)))'
    )
    with pytest.raises(ParseError) as exc:
        K.parse_proof(text)
    assert (exc.value.message, exc.value.line, exc.value.column) == (
        "hyp expects label, formula, position (3 arguments, got 2)",
        4,
        5,
    )


def test_quote_roundtrip():
    for s in ("x y\n\"z\"\\", "", "a;b", "(", "\t", "\\n"):
        (tok,) = tokens(_quote(s))
        assert atom(tok) == s and isinstance(atom(tok), QStr)


# --- proof files read formulas and positions from the forms --------------


_COMPOUND = [
    '(and "a b" 7)',
    '(imp (box "x") (dia (or p 007)))',
    '(not (and q "x y"))',
    '(or "bot" bot)',
    '(and "p" (imp "" q))',
]


@pytest.mark.parametrize("text", _COMPOUND)
def test_parse_proof_formula_equals_text_round_trip(text):
    proof = f"(proof :system s4 :flavor classical (hyp u {text} (a 2 b)))"
    d, _ = K.parse_proof(proof)
    assert d.content == PFormula(parse_formula(text), ("a", "2", "b"))


def test_parse_proof_bare_quoted_atoms():
    d, _ = K.parse_proof('(proof :system s4 :flavor classical (hyp u "p" ()))')
    assert d.content.formula == Atom("p")
    d, _ = K.parse_proof('(proof :system s4 :flavor classical (hyp u "(and p q)" ()))')
    assert d.content.formula == And(Atom("p"), Atom("q"))
    d, _ = K.parse_proof("(proof :system s4 :flavor classical (hyp u 12 ()))")
    assert d.content.formula == Atom("12")


def test_parse_proof_bare_quoted_atom_with_space_raises_at_node():
    text = '(proof :system s4 :flavor classical\n  (hyp u "a b" ()))'
    with pytest.raises(ParseError) as exc:
        K.parse_proof(text)
    assert (exc.value.message, exc.value.line, exc.value.column) == (
        "expected a single expression",
        2,
        3,
    )


def test_parse_proof_formula_error_located_at_list():
    text = "(proof :system s4 :flavor classical\n  (hyp u\n    (and p) ()))"
    with pytest.raises(ParseError) as exc:
        K.parse_proof(text)
    assert (exc.value.message, exc.value.line, exc.value.column) == (
        "(and ...) takes two operands",
        3,
        5,
    )


def test_parse_proof_bad_position_token():
    text = '(proof :system s4 :flavor classical (hyp u p (a "b c")))'
    with pytest.raises(ParseError) as exc:
        K.parse_proof(text)
    assert (exc.value.message, exc.value.line, exc.value.column) == (
        "invalid position token 'b c'",
        1,
        46,
    )


@pytest.mark.parametrize(
    "node,column",
    [("(hyp u p (a _1))", 12), ("(box-e (hyp u (box p) ()) (a _1))", 29)],
)
def test_parse_proof_bad_position_token_is_placed_at_its_list(node, column):
    text = f"(proof :system s4\n  :flavor classical\n  {node})"
    with pytest.raises(ParseError) as exc:
        K.parse_proof(text)
    assert (exc.value.message, exc.value.line, exc.value.column) == (
        "invalid position token '_1'",
        3,
        column,
    )


def test_printing_an_unreadable_atom_raises():
    # A reserved word, or a name that starts with ':' or '(', is no atom name
    # a formula carries, quoted or not: both writers refuse it.
    s4 = K.System("s4", "classical")
    for name in ("and", "bot", "true", ":k", "(x", QStr("not")):
        d = K.hyp("u", Imp(Atom(name), Atom("q")), ())
        for write in (lambda: K.print_proof(d, s4), lambda: K.print_check_report(K.check(d, s4))):
            with pytest.raises(ValueError, match="cannot be written in a proof file") as exc:
                write()
            assert repr(str(name)) in str(exc.value)


# Each odd name, the text the writers give it inside a formula and at the top
# of a formula slot: quoted unless it reads back bare, and at the top as
# formula text, a string read as the formula it holds.
_ODD = [
    ("a b", '"a b"', '"\\"a b\\""'),
    ("a  b", '"a  b"', '"\\"a  b\\""'),
    ("007", '"007"', '"\\"007\\""'),
    ("x;y", '"x;y"', '"\\"x;y\\""'),
    ("", '""', '"\\"\\""'),
    ("5", "5", "5"),
    ('a"b', '"a\\"b"', '"\\"a\\\\\\"b\\""'),
    ("a)", '"a)"', '"\\"a)\\""'),
    ("p\nq", '"p\\nq"', '"\\"p\\\\nq\\""'),
    (QStr("p"), '"p"', '"p"'),
    (QStr("a b"), '"a b"', '"\\"a b\\""'),
]


def _written_alike(d, text):
    """Both writers write ``text`` for the formula of ``hyp`` ``d``, and the
    printed proof reads back as ``d``."""
    s4 = K.System("s4", "classical")
    printed = K.print_proof(d, s4)
    assert f"(hyp u {text} ())" in printed
    assert f":formula {text} " in K.print_check_report(K.check(d, s4))
    assert K.parse_proof(printed)[0] == d


def test_printing_odd_atoms_inside_formulas_matches_text_round_trip():
    # Names that read back bare are written as before; the others are quoted
    # and read back, where the writers used to re-read the formula's text.
    for name, inside, _ in _ODD:
        _written_alike(K.hyp("u", Imp(Atom(name), Atom("q")), ()), f"(imp {inside} q)")
    d = K.hyp("u", Imp(Atom("("), Atom("q")), ())
    with pytest.raises(ValueError):
        K.print_proof(d, K.System("s4", "classical"))


@pytest.mark.parametrize("name, top", [(name, top) for name, _, top in _ODD])
def test_an_odd_atom_alone_is_written_as_formula_text(name, top):
    _written_alike(K.hyp("u", Atom(name), ()), top)


# --- the tokenizer ----------------------------------------------------------

# The token pattern before whitespace was consumed with each token: one
# token per match, whitespace stepped over one character at a time.
REFERENCE_TOKEN_RE = re.compile(
    r'''[()]|"[^"\\]*(?:\\.[^"\\]*)*"|[^\s();"]+|;[^\n]*|"''', re.DOTALL
)


def _indented(depth: int) -> str:
    return "".join(
        "  " * i + f"(and-i ; level {i}\n" for i in range(depth)
    ) + "(hyp u p ())" + ")" * depth + "\n"


TOKENIZER_TEXTS = [
    "",
    "   \n\t ",
    "(a b)",
    "  (a b)  \n",
    _indented(60),
    "(a ; comment (not a list)\n  b)\n; trailing comment",
    '(a "s t\\"u" ; c\n\t"x\\\ny")  ',
    '(a "never closed\n  (b c)',
    '(a)\n\n  "x\ny  ',
    ') (a "b\\',
    "(a\u00a0b\u2003c\u3000)\r\n(d)\x0b\x0c",
    "(a (b c)\n  (d",
]


@pytest.mark.parametrize("text", TOKENIZER_TEXTS)
def test_tokens_and_offsets_match_reference(text):
    got = [(m.group(1), m.start(1)) for m in _TOKEN_RE.finditer(text)]
    want = [(m.group(), m.start()) for m in REFERENCE_TOKEN_RE.finditer(text)]
    assert got == want
    assert _TOKEN_RE.findall(text) == REFERENCE_TOKEN_RE.findall(text)


@pytest.mark.parametrize(
    "text, want",
    [
        (_indented(40).replace("(hyp u p ())", "  (hyp u p (\n"), ("unclosed '('", 2, 3)),
        (_indented(3) + "  )", ("unbalanced ')'", 5, 3)),
        ("  ; c (\n    (a ; d\n  \"e", ("unterminated string", 3, 3)),
        ("\n\n      (a \"b\\", ("unterminated escape", 3, 12)),
    ],
)
def test_error_location_in_indented_and_commented_text(text, want):
    assert _error(text) == want


def test_whitespace_runs_cost_linear_time():
    # Skipping whitespace before each token would rescan a trailing run
    # from each of its characters: half a minute here, not milliseconds.
    n = 30_000
    text = " " * n + "(a\n" + "\t" * n + "b)" + " " * n
    start = time.perf_counter()
    assert tokens(text) == ["(", "a", "b", ")"]
    assert _error(text + "(") == ("unclosed '('", 2, 2 * n + 3)
    assert time.perf_counter() - start < 2
