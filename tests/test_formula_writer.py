"""The formula writer against a frozen copy of the one it replaced.

Formulas used to be written through nested lists: ``_formula_to_sexpr``
built them, ``dump`` rendered them, and the proof and check-report writers
first asked ``_atoms_read_back`` whether every atom name read back as
itself, taking the text round trip ``parse_one(print_formula(f))`` where one
did not.  All three recursed.  ``print_formula`` and ``_formula_form`` now
write text in one pass on an explicit stack.  ``print_formula`` must give
the same text, or raise the same error, on random formulas, shared
subformulas, ``QStr`` atom names and odd names.  ``_formula_form`` must give
the same text wherever that text reads back as the formula; elsewhere it now
writes text that does, or refuses a name no formula carries.  Both print,
and the reader re-reads, formulas nested 100,000 deep under the default
recursion limit.
"""

from __future__ import annotations

import random
import re
import sys

import pytest

import proofgen
from list_reader import dump, parse_one
from posnd import kernel as K
from posnd._sexpr import ParseError, QStr
from posnd.syntax import (
    And,
    Atom,
    Bottom,
    Box,
    Dia,
    Imp,
    Or,
    parse_formula,
    print_formula,
)

# --- frozen copies of the list writer ---------------------------------------

_SYMBOL_RE = re.compile(r'[^\s();"]+')
_RESERVED_WORDS = frozenset({"bot", "and", "or", "imp", "not", "box", "dia", "true", "false"})


def _formula_to_sexpr(f):
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


def _atoms_read_back(f) -> bool:
    if isinstance(f, Atom):
        name = f.name
        return _SYMBOL_RE.fullmatch(name) is not None and not (
            name.isdigit() and name.isascii()
        )
    if isinstance(f, (And, Or, Imp)):
        return _atoms_read_back(f.left) and _atoms_read_back(f.right)
    if isinstance(f, (Box, Dia)):
        return _atoms_read_back(f.body)
    return True


def reference_print_formula(f) -> str:
    return dump(_formula_to_sexpr(f))


def reference_formula_form(f) -> str:
    """The text the writers used to write for ``f``."""
    if _atoms_read_back(f):
        return dump(_formula_to_sexpr(f))
    return dump(parse_one(reference_print_formula(f)))


def outcome(fn, f):
    try:
        return fn(f)
    except (ParseError, TypeError, ValueError) as exc:
        return type(exc).__name__, str(exc)


def _names(f) -> list:
    stack, names = [f], []
    while stack:
        g = stack.pop()
        if isinstance(g, Atom):
            names.append(g.name)
        elif isinstance(g, (And, Or, Imp)):
            stack += (g.right, g.left)
        elif isinstance(g, (Box, Dia)):
            stack.append(g.body)
    return names


def _reads_back(text, f) -> bool:
    """Whether a proof file that carries ``text`` in a formula slot reads it as ``f``."""
    proof = f"(proof :system s4 :flavor classical (hyp u {text} ()))"
    try:
        return K.parse_proof(proof)[0].content.formula == f
    except ParseError:
        return False


def assert_written_alike(f):
    """``print_formula`` writes as before.  ``_formula_form`` refuses a name
    no formula carries (a reserved word, or a start of ``:`` or ``(``), and
    otherwise writes as before where that text reads back as ``f``, and
    text that reads back as ``f`` elsewhere."""
    assert outcome(print_formula, f) == outcome(reference_print_formula, f)
    got, before = outcome(K._formula_form, f), outcome(reference_formula_form, f)
    refused = [n for n in _names(f) if n in _RESERVED_WORDS or n.startswith((":", "("))]
    if refused:
        assert got[0] == "ValueError" and repr(str(refused[0])) in got[1]
    elif isinstance(before, str) and _reads_back(before, f):
        assert got == before
    else:
        assert isinstance(got, str) and _reads_back(got, f), (got, before)


# --- corpora ----------------------------------------------------------------

# The odd names of ``test_sexpr.py``, and names near them.
ODD_NAMES = [
    "a b", "a  b", "007", "x;y", "", "5", "(", 'a"b', "0", "00", "7a", "0a",
    "\u0663", "bot", ":k", "_1", "a\tb", "a\nb", ")", "p", "q1",
]
QSTR_NAMES = [QStr(n) for n in ("p", "a b", 'a"b', "007", "", "x;y", "a\\b", "a\nb")]


def _random_formula(rng: random.Random, names: list, depth: int):
    if depth == 0 or rng.random() < 0.3:
        return Bottom() if rng.random() < 0.1 else Atom(rng.choice(names))
    kind = rng.choice((And, Or, Imp, Box, Dia))
    if kind in (Box, Dia):
        return kind(_random_formula(rng, names, depth - 1))
    return kind(_random_formula(rng, names, depth - 1), _random_formula(rng, names, depth - 1))


def test_random_formulas_write_as_before():
    rng = random.Random("formula-writer")
    for depth in (0, 1, 2, 3, 5):
        for _ in range(200):
            assert_written_alike(proofgen.random_formula(rng, depth=depth))


@pytest.mark.parametrize("name", ODD_NAMES + QSTR_NAMES, ids=repr)
def test_odd_and_quoted_names_write_as_before(name):
    atom = Atom(name)
    for f in (atom, Box(atom), Imp(atom, Atom("q")), And(Atom("p"), Dia(atom))):
        assert_written_alike(f)


def test_formulas_over_odd_names_write_as_before():
    rng = random.Random("odd-names")
    names = ODD_NAMES + QSTR_NAMES + ["p", "q"] * 10
    results = [outcome(reference_formula_form, _random_formula(rng, names, 4)) for _ in range(30)]
    for _ in range(600):
        assert_written_alike(_random_formula(rng, names, 4))
    # both the texts and the errors of the old round trip are reached
    assert any(isinstance(r, str) for r in results)
    assert any(isinstance(r, tuple) for r in results)


def test_shared_subformulas_write_as_before():
    p = Atom("p")
    shared = Imp(p, Box(p))
    f = And(shared, Or(shared, Dia(shared)))
    for _ in range(6):  # a tree of 2^6 copies of f, built from 7 nodes
        f = Imp(f, f)
    assert_written_alike(f)
    odd = Imp(Atom("007"), shared)
    assert_written_alike(And(odd, odd))


def test_non_formulas_raise_as_before():
    for f in (None, "p", And(Atom("p"), "q"), Box(3)):
        assert outcome(print_formula, f) == outcome(reference_print_formula, f)
    # A name that is not a ``str`` used to be written as ``dump`` wrote it
    # (``3``, ``true``); it is now no formula, for both writers.
    for name in (3, True, False):
        f = Imp(Atom("p"), Atom(name))
        want = ("TypeError", f"not a formula: {Atom(name)!r}")
        assert outcome(print_formula, f) == outcome(K._formula_form, f) == want


# --- any depth ----------------------------------------------------------------

DEEP = 100_000


def _deep_chain() -> object:
    """A chain of ``box`` and ``imp`` 100,000 deep, nested on both sides of
    ``imp``."""
    f = Atom("p")
    for i in range(DEEP):
        if i % 3 == 0:
            f = Box(f)
        elif i % 3 == 1:
            f = Imp(f, Atom("q"))
        else:
            f = Imp(Bottom(), f)
    return f


@pytest.fixture
def default_recursion_limit():
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield
    sys.setrecursionlimit(old)


def test_a_formula_100000_deep_prints_and_reads_back(default_recursion_limit):
    f = _deep_chain()
    text = print_formula(f)
    assert text.count("(") == DEEP and text.startswith("(box (imp bot (imp (box ")
    # ``==`` recurses, so the re-read formula is compared by its text
    assert print_formula(parse_formula(text)) == text
    assert K._formula_form(f) == text


def test_a_proof_with_a_formula_100000_deep_prints_and_reads_back(default_recursion_limit):
    system = K.System("s4", "classical")
    d = K.and_i(K.hyp("u", _deep_chain(), ("a",)), K.hyp("v", Atom("p"), ("a",)))
    text = K.print_proof(d, system)
    again, read_system = K.parse_proof(text)
    assert read_system == system
    assert K.print_proof(again, system) == text
