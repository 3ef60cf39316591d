"""Tests pinning the s-expression reader: values, locations and errors."""

from __future__ import annotations

import pytest

from posnd import kernel as K
from posnd._sexpr import ParseError, QStr, dump, parse_all, parse_one
from posnd.syntax import And, Atom, Imp, PFormula, parse_formula


def _error(text: str) -> tuple[str, int, int]:
    with pytest.raises(ParseError) as exc:
        parse_all(text)
    return exc.value.message, exc.value.line, exc.value.column


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


def test_parse_one_errors():
    for text in ("", "  ; only a comment\n"):
        with pytest.raises(ParseError) as exc:
            parse_one(text)
        assert (exc.value.message, exc.value.line, exc.value.column) == (
            "empty input",
            1,
            1,
        )
    with pytest.raises(ParseError) as exc:
        parse_one("a b")
    assert (exc.value.message, exc.value.line, exc.value.column) == (
        "expected a single expression",
        1,
        1,
    )
    assert str(exc.value) == "line 1, column 1: expected a single expression"


# --- values ----------------------------------------------------------------


def test_atom_types():
    forms = parse_all('12 007 x12 -3 1.5 "5" "" :key a"b"')
    assert forms == [12, 7, "x12", "-3", "1.5", "5", "", ":key", "a", "b"]
    kinds = [type(f) for f in forms]
    assert kinds == [int, int, str, str, str, QStr, QStr, str, str, QStr]


def test_string_escapes():
    (s,) = parse_all(r'"a\nb\tc\"d\\e\qf"')
    assert isinstance(s, QStr)
    assert s == 'a\nb\tc"d\\eqf'
    assert parse_one('"x\\\ny"') == "x\ny"
    assert parse_one('"multi\nline"') == "multi\nline"
    assert dump(s) == '"a\\nb\tc\\"d\\\\eqf"'


def test_comments_and_empty_input():
    assert parse_all("") == []
    assert parse_all("; nothing\n  \n;; more") == []
    assert parse_all("(a ; (b\n c) ; d") == [["a", "c"]]
    assert parse_all("a;b\nc") == ["a", "c"]
    assert parse_all('"x;y" z') == ["x;y", "z"]


def test_unusual_whitespace():
    # \x0b and \x1c are whitespace to str.isspace, as is the no-break space
    forms = parse_all("a\x0bb\x1c(c d)\x1d\x85e f　g")
    assert forms == ["a", "b", ["c", "d"], "e", "f", "g"]
    locs: dict[int, tuple[int, int]] = {}
    forms = parse_all("\x0b\x1c (x)", locs)
    assert locs[id(forms[0])] == (1, 4)
    # only '\n' starts a new line
    assert _error("\r\x0b\x1c\x85 )") == ("unbalanced ')'", 1, 6)


def test_nested_list_locations():
    text = "(proof\n  (a (b c)\n     (d))\n\t(e)) (f)\n(\n)"
    locs: dict[int, tuple[int, int]] = {}
    forms = parse_all(text, locs)
    proof, f, empty = forms
    a = proof[1]
    assert locs[id(proof)] == (1, 1)
    assert locs[id(a)] == (2, 3)
    assert locs[id(a[1])] == (2, 6)
    assert locs[id(a[2])] == (3, 6)
    assert locs[id(proof[2])] == (4, 2)
    assert locs[id(f)] == (4, 7)
    assert locs[id(empty)] == (5, 1)
    assert len(locs) == 7


def test_locations_after_strings_and_crlf():
    text = '(a "x\ny" (b))\r\n  (c "\\\n" (d))'
    locs: dict[int, tuple[int, int]] = {}
    first, second = parse_all(text, locs)
    assert locs[id(first[2])] == (2, 4)
    assert locs[id(second)] == (3, 3)
    # the escaped newline keeps the line count and adds two columns
    assert locs[id(second[2])] == (3, 11)


def test_dump_roundtrip():
    value = ["a", 3, QStr("x y\n\"z\"\\"), [], [QStr(""), ["b"]], True, False]
    assert parse_one(dump(value)) == ["a", 3, "x y\n\"z\"\\", [], ["", ["b"]], "true", "false"]


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
    form = parse_one(text)
    proof = f"(proof :system s4 :flavor classical (hyp u {text} (a 2 b)))"
    d, _ = K.parse_proof(proof)
    assert d.content == PFormula(parse_formula(dump(form)), ("a", "2", "b"))


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
        1,
    )


def test_printing_an_unreadable_atom_raises():
    d = K.hyp("u", Atom("a b"), ())
    with pytest.raises(ParseError):
        K.print_proof(d, K.System("s4", "classical"))
    with pytest.raises(ParseError):
        K.print_check_report(K.check(d, K.System("s4", "classical")))


def test_printing_odd_atoms_inside_formulas_matches_text_round_trip():
    s4 = K.System("s4", "classical")
    for name in ("a b", "a  b", "007", "x;y", "", "5", "(", 'a"b'):
        d = K.hyp("u", Imp(Atom(name), Atom("q")), ())
        report = K.check(d, s4)
        try:
            want = dump(parse_one(dump(["imp", name, "q"])))
        except ParseError:
            with pytest.raises(ParseError):
                K.print_check_report(report)
            with pytest.raises(ParseError):
                K.print_proof(d, s4)
            continue
        assert want in K.print_check_report(report)
        assert want in K.print_proof(d, s4)
