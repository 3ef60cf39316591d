"""One rule for the names a proof file carries.

The reader, the keyword constructor, ``print_proof`` and
``print_check_report`` agree: a label or token is written only if it reads
back as itself, and reserved ``_N`` tokens, which the writers map or write
as they are, are the only exception.  The property tests build trees with
the rule constructors (``hyp``, ``box_i``, ...), which do not validate
names, over an alphabet of troublesome characters, and check each writer
against the reader itself: a name reads back as itself exactly when
reading it in a proof file or a position gives it back.
"""

from __future__ import annotations

import dataclasses
import re

import pytest
from hypothesis import given, settings, strategies as st

import list_reader
from posnd import kernel as K
from posnd._sexpr import ParseError
from posnd.syntax import Atom, Bottom, Box, Dia, parse_position, valid_user_token

S4 = K.System("s4", "classical")
P, Q = Atom("p"), Atom("q")


def _token_reads_back(tok: str) -> bool:
    try:
        return parse_position(f"({tok})") == (tok,)
    except ParseError:
        return False


def _label_reads_back(label: str) -> bool:
    try:
        d, _ = K.parse_proof(f"(proof :system s4 :flavor classical (hyp {label} p ()))")
    except ParseError:
        return False
    return d.label == label


@pytest.mark.parametrize(
    "tok",
    ["x", "x1", "0", "7", "10", "0a", "00a", "٣", "a:b", "7a", "-1", "a'b"],
)
def test_tokens_that_read_back_are_valid(tok):
    assert valid_user_token(tok) and _token_reads_back(tok)


@pytest.mark.parametrize(
    "tok",
    ['a"b', '"', "007", "00", "01", "", "a b", "a;b", "(", "a)", "_1", "_x", ":k", "a\tb"],
)
def test_tokens_that_do_not_read_back_are_invalid(tok):
    assert not valid_user_token(tok)
    if not tok.startswith(("_", ":")):  # those read back, but are not user syntax
        assert not _token_reads_back(tok)


@pytest.mark.parametrize("tok", ['a"b', "007", "a b", ":w", "", "x;y"])
def test_writers_refuse_a_token_they_cannot_write(tok):
    fault = re.escape(f"token {tok!r} cannot be written in a proof file")
    d = K.hyp("u", P, ("x", tok))
    report = K.check(d, S4)
    assert report.ok  # the checker takes it as before
    with pytest.raises(ValueError, match=fault):
        K.print_proof(d, S4)
    with pytest.raises(ValueError, match=fault):
        K.print_check_report(report)
    with pytest.raises(ValueError, match=fault):
        K.print_proof(K.box_e(K.hyp("u", Box(P), ()), (tok,)), S4)


def test_writers_map_or_keep_reserved_tokens():
    d = K.hyp("u", P, ("a", "_3"))
    assert "(hyp u p (a z1))" in K.print_proof(d, S4)
    assert ":position (a _3)" in K.print_check_report(K.check(d, S4))


@pytest.mark.parametrize("tok", ['a"b', "007"])
def test_the_keyword_constructor_refuses_a_token_it_cannot_write(tok):
    node = K.box_i(tok, frozenset(), K.hyp("u", P, (tok,)))
    with pytest.raises(ValueError, match=re.escape(f"token {tok!r} cannot be written")):
        dataclasses.replace(node)


# --- the property ------------------------------------------------------------

_ALPHABET = 'ab07 ";_:('
_WRITABLE = st.sampled_from(["u", "x", "y", "0", "7", "a1", "_1", "_7"])
_ANY = st.one_of(
    _WRITABLE,
    st.text(alphabet=_ALPHABET, max_size=3),
    st.sampled_from(["12", "007", "a b", 'a"b', "x;y", ":k", "_x"]),
)


@st.composite
def trees(draw, depth=2, names=None):
    """A tree whose names are all writable or drawn from ``_ANY``, half and
    half at the root."""
    if names is None:
        names = draw(st.sampled_from([_WRITABLE, _ANY]))
    positions = st.lists(names, max_size=3).map(tuple)
    pos = draw(positions)
    kind = draw(st.sampled_from(["hyp", "box-e", "dia-i", "box-i", "dia-e", "and-i"]))
    if kind == "hyp" or kind == "and-i" and depth == 0:
        return K.hyp(draw(names), P, pos)
    if kind == "box-e":
        return K.box_e(K.hyp(draw(names), Box(P), pos), draw(positions))
    if kind == "dia-i":
        beta = draw(positions)
        return K.dia_i(beta, K.hyp(draw(names), P, pos + beta))
    if kind == "box-i":
        x = draw(names)
        return K.box_i(x, frozenset(), K.hyp(draw(names), P, pos + (x,)))
    if kind == "dia-e":
        x, label = draw(names), draw(names)
        minor = K.bot_i(K.hyp(label, Bottom(), pos + (x,)), Q, pos)
        major = K.hyp(draw(names), Dia(Bottom()), pos)
        return K.dia_e(major, x, frozenset({label}), frozenset(), minor)
    return K.and_i(draw(trees(depth - 1, names)), draw(trees(depth - 1, names)))


def _names(d: K.Derivation) -> tuple[set, set]:
    """The labels and the tokens ``print_proof`` writes for ``d``."""
    labels, tokens = set(), set()
    for n in d:
        labels.update(x for x in (n.label,) if x is not None)
        labels.update(n.e_discharges, *n.discharges)
        tokens.update(n.content.position if n.content is not None else ())
        tokens.update(n.beta or ())
        tokens.update(x for x in (n.token,) if x is not None)
    return labels, tokens


@settings(max_examples=400, deadline=None, derandomize=True)
@given(trees())
def test_a_printed_proof_reads_back_to_a_tree_that_prints_the_same(d):
    labels, tokens = _names(d)
    writable = all(map(_label_reads_back, labels)) and all(
        t.startswith(K.RESERVED_TOKEN_PREFIX) or _token_reads_back(t) for t in tokens
    )
    try:
        text = K.print_proof(d, S4)
    except ValueError as exc:
        assert "cannot be written in a proof file" in str(exc)
        assert not writable
        return
    assert writable
    again, system = K.parse_proof(text)
    assert system == S4
    assert K.print_proof(again, S4) == text


@settings(max_examples=200, deadline=None, derandomize=True)
@given(trees())
def test_a_check_report_writes_each_open_position_as_it_reads_back(d):
    report = K.check(d, S4)
    writable = all(
        _label_reads_back(a.label)
        and all(re.fullmatch("_[0-9]+", t) or _token_reads_back(t) for t in a.content.position)
        for a in report.open_assumptions
    )
    try:
        text = K.print_check_report(report)
    except ValueError as exc:
        assert "cannot be written in a proof file" in str(exc)
        assert not writable
        return
    assert writable
    opens = list_reader.parse_one(text)[6]
    assert len(opens) == len(report.open_assumptions)
    for form, a in zip(opens, report.open_assumptions):
        assert [str(t) for t in form[-1]] == list(a.content.position)
        assert form[2] == a.label
