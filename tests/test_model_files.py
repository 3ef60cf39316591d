"""``parse_model`` against the frozen list reader's ``parse_model``.

Model files are read by the token reader the proof-file reader uses.  On the
printed models of ``enumerate_models`` and random edits of them (the proof
oracle's ``_edit``, and dropped node lines and replaced atom names), both
readers must give the same model or the same error: message, line and
column.  The one exception is a file the frozen
reader accepted though ``print_model`` cannot write its model back: worlds
that do not form a tree, or an atom name that does not read back bare.  The
token reader refuses such a file, at its node form or, with no world at
all, at the model form; every model it accepts prints and reads back as
itself.
"""

from __future__ import annotations

import random
import re

import pytest

import list_reader as L
from posnd._sexpr import ParseError
from posnd.semantics import Bounds, TreeModel, enumerate_models, holds, parse_model, print_model
from posnd.syntax import Atom
from test_proof_file_oracle import _edit

_BARE_NAME = re.compile(r'(?![0-9]+\Z)[^\s();"]+')
_REFUSALS = ("missing root world ()", "missing parent world ", "atom name ")


def outcome(read, text):
    try:
        return read(text)
    except ParseError as exc:
        return ("ParseError", exc.message, exc.line, exc.column)


def _unwritable(m: TreeModel) -> bool:
    """Whether ``print_model`` cannot write ``m`` so that it reads back."""
    return (
        () not in m.nodes
        or any(w and w[:-1] not in m.nodes for w in m.nodes)
        or any(not _BARE_NAME.fullmatch(a) for v in m.valuation.values() for a in v)
    )


def assert_same_reading(text):
    got, want = outcome(parse_model, text), outcome(L.parse_model, text)
    if got != want:
        assert isinstance(want[1], TreeModel) and _unwritable(want[1]), text
        assert got[0] == "ParseError" and got[1].startswith(_REFUSALS), (text, got)
    elif got[0] != "ParseError":
        logic, m = got
        assert parse_model(print_model(m, logic)) == got
    return got, want


def _model_texts():
    rng = random.Random("model-files")
    for logic, bounds in (("k", Bounds(2, 2, 1)), ("d", Bounds(2, 1, 2)), ("s4", Bounds(1, 3, 1))):
        for i, m in enumerate(enumerate_models(bounds, logic)):
            if i % 7 == 0:
                yield rng, print_model(m, logic)


_ODD = [
    "", "()", "(model)", "(model :logic)", "(model :logic k)", "(model :logic zz)",
    "(model :logic (k))", "(model :logic 7 (node () :atoms ()))", '(model ":logic" "k")',
    "(model :logic k (node))", "(model :logic k (node ()))", "(model :logic k (node () :atoms))",
    "(model :logic k (node () :atoms p))", "(model :logic k (node () :atoms () x))",
    "(model :logic k (node () :atoms ((p))))", "(model :logic k (node () :atoms (7)))",
    '(model :logic k (node () :atoms ("p q")))', '(model :logic k (node () :atoms ("7")))',
    '(model :logic k (node () :atoms ("p")))', "(model :logic k (node (0) :atoms ()))",
    "(model :logic k (node (0 1) :atoms (p)))", "(model :logic k (node (x) :atoms ()))",
    "(model :logic k (node ((0)) :atoms ()))", "(model :logic k (node (007) :atoms ()))",
    "(model :logic k (node () :atoms ()) (node () :atoms ()))",
    "(model :logic k (node () :atoms ()) (node (0 1) :atoms ()) (node (0) :atoms ()))",
    "(model :logic k (node (1) :atoms ()) (node () :atoms ()))",
    "(model :logic d (node () :atoms ()) :serial-completion)",
    "(model :logic d (node () :atoms ()) :serial-completion yes)",
    "(model :logic d :serial-completion true)",
    "(model :logic d (node () :atoms ()) :serial-completion false :serial-completion true)",
    "(model :logic k\n  (widget))", "(model :logic k\n  widget)", "(tree)", "model",
    "(model :logic k (node () :atoms ())) (x)", "(model :logic k (node () :atoms ())",
    '(model :logic k ; c\n  (node () :atoms ("a\\\nb" q)) (node (0) :atoms (")) x")))',
]


@pytest.mark.parametrize("text", _ODD)
def test_odd_model_texts_read_alike(text):
    assert_same_reading(text)


_NAMES = ('"p q"', '"7"', '"p"', '""', "r", "7", '"a\\"b"', "(p)")


def _model_edit(rng, text):
    """``text`` with one node line dropped or one atom name replaced."""
    lines = text.splitlines(keepends=True)
    nodes = [i for i, line in enumerate(lines) if "(node" in line]
    i = rng.choice(nodes)
    if rng.random() < 0.5:
        del lines[i]
    else:
        lines[i] = lines[i].replace(":atoms (", f":atoms ({rng.choice(_NAMES)} ")
    return "".join(lines)


def test_printed_models_and_their_edits_read_alike():
    results = []
    for rng, text in _model_texts():
        results.append(assert_same_reading(text))
        for _ in range(3):
            results.append(assert_same_reading(_edit(rng, text)))
        edited = _model_edit(rng, text)
        results.append(assert_same_reading(edited))
        results.append(assert_same_reading(_edit(rng, edited)))
    got = [g for g, _ in results]
    errors = sum(g[0] == "ParseError" for g in got)
    refused = sum(g != w for g, w in results)
    # the edits reach models, the frozen reader's errors and the new refusals
    assert len(got) - errors > 100 and errors - refused > 300 and refused > 10


@pytest.mark.parametrize(
    "text, want",
    [
        ("(model :logic k)", ("missing root world ()", 1, 1)),
        ("(model :logic k\n  (node (0 1) :atoms (p)))", ("missing parent world (0)", 2, 3)),
        (
            "(model :logic k (node () :atoms ())\n  (node (0 1) :atoms ()) (node (1) :atoms ()))",
            ("missing parent world (0)", 2, 3),
        ),
        (
            '(model :logic k\n  (node () :atoms (q "p q")))',
            ("atom name 'p q' cannot be written in a model file", 2, 3),
        ),
        ('(model :logic k (node () :atoms ("7")))', ("atom name '7' cannot be written in a model file", 1, 17)),
    ],
)
def test_models_print_model_cannot_write_are_refused(text, want):
    # The frozen reader accepted each of these; ``holds`` then failed on the
    # first two, and ``print_model`` wrote the atoms as other names.
    assert isinstance(L.parse_model(text)[1], TreeModel)
    with pytest.raises(ParseError) as exc:
        parse_model(text)
    assert (exc.value.message, exc.value.line, exc.value.column) == want


def test_a_model_that_reads_is_one_holds_takes():
    logic, m = parse_model("(model :logic k (node () :atoms ()) (node (0) :atoms (p)))")
    assert holds(m, logic, (0,), Atom("p")) and not holds(m, logic, (), Atom("p"))
