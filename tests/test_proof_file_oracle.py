"""The proof-file, formula and position readers and the proof writer
against frozen reference copies of their earlier versions.

The reading references are the list reader the one-pass token readers
replaced: ``list_reader.parse_all`` (a frozen copy) builds and places the
lists, and ``_parse_node`` reads a rule application by calling the
constructors, one branch per rule, over copies of its helpers.  The printing reference keeps one branch per rule:
``_node_form`` builds the nested list of a node and ``_pretty`` lays it out.
On proof texts and random edits of them, ``parse_proof`` must give an equal
tree or the same error (message, line and column), and ``print_proof`` the
same tokens, except that the reference also breaks the line before a label
list or position whose first element is a rule name and indents every line
by its full depth.  On formula and position texts and their edits,
``parse_formula`` and ``parse_position`` must agree with the list reader,
and a fault 100,000 levels deep must be reported as it placed it, in time
linear in the text and under the default recursion limit.
"""

from __future__ import annotations

import random
import re
import sys
import time

import pytest

import list_reader as L
import proofgen
from list_reader import brief
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
    PFormula,
    neg,
    parse_formula,
    parse_position,
    print_formula,
    print_position,
    valid_user_token,
)

SYSTEMS = [K.System(lg, fl) for lg in K.LOGICS for fl in K.FLAVORS]


# --- reference copies of the list reader -----------------------------------

_SYMBOL_RE = re.compile(r'[^\s();"]+')
_RESERVED_WORDS = frozenset(
    {"bot", "and", "or", "imp", "not", "box", "dia", "true", "false"}
)


def _formula_from_sexpr(form: object):
    if isinstance(form, str):
        if form == "bot":
            return Bottom()
        if form in _RESERVED_WORDS or form.startswith(":") or form.startswith("("):
            raise ParseError(f"invalid atom name {form!r}", 1, 1)
        return Atom(form)
    if isinstance(form, int):
        return Atom(str(form))
    if isinstance(form, list) and form and isinstance(form[0], str):
        head = form[0]
        if head in ("and", "or", "imp"):
            if len(form) != 3:
                raise ParseError(f"({head} ...) takes two operands", 1, 1)
            ctor = {"and": And, "or": Or, "imp": Imp}[head]
            return ctor(_formula_from_sexpr(form[1]), _formula_from_sexpr(form[2]))
        if head == "not":
            if len(form) != 2:
                raise ParseError("(not ...) takes one operand", 1, 1)
            return neg(_formula_from_sexpr(form[1]))
        if head in ("box", "dia"):
            if len(form) != 2:
                raise ParseError(f"({head} ...) takes one operand", 1, 1)
            ctor = {"box": Box, "dia": Dia}[head]
            return ctor(_formula_from_sexpr(form[1]))
        raise ParseError(f"unknown formula head {head!r}", 1, 1)
    raise ParseError(f"not a formula: {brief(form)}", 1, 1)


def _position_from_sexpr(form: object):
    if not isinstance(form, list):
        raise ParseError(f"not a position: {form!r}", 1, 1)
    toks: list[str] = []
    for item in form:
        if isinstance(item, list):
            raise ParseError(f"invalid position token {brief(item)}", 1, 1)
        tok = str(item)
        if not valid_user_token(tok):
            raise ParseError(f"invalid position token {tok!r}", 1, 1)
        toks.append(tok)
    return tuple(toks)


def reference_parse_formula(text):
    return _formula_from_sexpr(L.parse_one(text))


def reference_parse_position(text):
    return _position_from_sexpr(L.parse_one(text))


def _valid_label(s: object) -> bool:
    return (
        isinstance(s, str)
        and not isinstance(s, QStr)
        and _SYMBOL_RE.fullmatch(s) is not None
    )


def _loc(locs: dict, form: object, default=(1, 1)) -> tuple[int, int]:
    return locs.get(id(form), default)


def _parse_pos(form: object, locs, ctx: object):
    if not isinstance(form, list):
        raise ParseError("expected a position (tok ...)", *_loc(locs, ctx))
    try:
        return _position_from_sexpr(form)
    except ParseError as exc:
        raise ParseError(exc.message, *_loc(locs, form)) from None


def _parse_labels(form: object, locs, ctx: object) -> frozenset[str]:
    if not isinstance(form, list):
        raise ParseError("expected a label list (...)", *_loc(locs, ctx))
    labels = []
    for item in form:
        if not _valid_label(item):
            raise ParseError(f"invalid label {brief(item)}", *_loc(locs, form))
        labels.append(str(item))
    if len(set(labels)) != len(labels):
        raise ParseError("duplicate label in label list", *_loc(locs, form))
    return frozenset(labels)


def _parse_formula_form(form: object, locs, ctx: object):
    try:
        if isinstance(form, QStr):
            return reference_parse_formula(form)
        return _formula_from_sexpr(form)
    except ParseError as exc:
        where = _loc(locs, form if isinstance(form, list) else ctx)
        raise ParseError(exc.message, *where) from None


def reference_parse_proof(text):
    """The list reader: ``parse_all`` with the lists' locations, the header
    checks, then ``_parse_node`` on the root."""
    locs: dict[int, tuple[int, int]] = {}
    forms = L.parse_all(text, locs)
    if len(forms) != 1:
        raise ParseError("expected exactly one proof form", 1, 1)
    form = forms[0]
    line, col = _loc(locs, form)
    if not (isinstance(form, list) and form and form[0] == "proof"):
        raise ParseError("expected (proof ...)", line, col)
    rest = form[1:]
    kv: dict[str, object] = {}
    while rest and isinstance(rest[0], str) and str(rest[0]).startswith(":"):
        if len(rest) < 2:
            raise ParseError(f"missing value for {rest[0]}", line, col)
        kv[str(rest[0])] = rest[1]
        rest = rest[2:]
    if ":system" not in kv or ":flavor" not in kv:
        raise ParseError("proof header needs :system and :flavor", line, col)
    logic = kv[":system"]
    flavor = kv[":flavor"]
    if logic not in K.LOGICS:
        raise ParseError(f"unknown logic {brief(logic)}", line, col)
    if flavor not in K.FLAVORS:
        raise ParseError(f"unknown flavor {brief(flavor)}", line, col)
    if len(rest) != 1:
        raise ParseError("proof form needs exactly one root node", line, col)
    return _parse_node(rest[0], locs), K.System(str(logic), str(flavor))


def _parse_node(form: object, locs) -> K.Derivation:
    line, col = _loc(locs, form)
    if not (isinstance(form, list) and form and isinstance(form[0], str)):
        raise ParseError("expected a rule application (rule ...)", line, col)
    head = str(form[0])
    args = form[1:]

    def need(n: int, what: str) -> None:
        if len(args) != n:
            raise ParseError(
                f"{head} expects {what} ({n} argument{'s' if n != 1 else ''}, "
                f"got {len(args)})",
                line,
                col,
            )

    if head == "hyp":
        need(3, "label, formula, position")
        if not _valid_label(args[0]):
            raise ParseError(f"invalid label {brief(args[0])}", line, col)
        f = _parse_formula_form(args[1], locs, form)
        p = _parse_pos(args[2], locs, form)
        return K.hyp(str(args[0]), f, p)
    if head == "ehyp":
        need(2, "label, position")
        if not _valid_label(args[0]):
            raise ParseError(f"invalid label {brief(args[0])}", line, col)
        p = _parse_pos(args[1], locs, form)
        return K.ehyp(str(args[0]), p)
    if head == "and-i":
        need(2, "two premises")
        return K.and_i(_parse_node(args[0], locs), _parse_node(args[1], locs))
    if head in ("and-e1", "and-e2"):
        need(1, "one premise")
        ctor = K.and_e1 if head == "and-e1" else K.and_e2
        return ctor(_parse_node(args[0], locs))
    if head in ("or-i1", "or-i2"):
        need(2, "other disjunct, premise")
        other = _parse_formula_form(args[0], locs, form)
        ctor = K.or_i1 if head == "or-i1" else K.or_i2
        return ctor(other, _parse_node(args[1], locs))
    if head == "or-e":
        need(5, "major, labels, minor, labels, minor")
        return K.or_e(
            _parse_node(args[0], locs),
            _parse_labels(args[1], locs, form),
            _parse_node(args[2], locs),
            _parse_labels(args[3], locs, form),
            _parse_node(args[4], locs),
        )
    if head == "imp-i":
        if len(args) not in (2, 4):
            raise ParseError(
                "imp-i expects labels and premise, optionally followed by an "
                "explicit antecedent formula and position",
                line,
                col,
            )
        labels = _parse_labels(args[0], locs, form)
        prem = _parse_node(args[1], locs)
        if len(args) == 4:
            f = _parse_formula_form(args[2], locs, form)
            p = _parse_pos(args[3], locs, form)
            return K.imp_i(labels, prem, ante=PFormula(f, p))
        bound = K.bound_leaf_contents(prem, labels, "p")
        if not bound:
            raise ParseError(
                "imp-i discharges no open assumption; give the antecedent "
                "formula and position explicitly",
                line,
                col,
            )
        return K.imp_i(labels, prem, ante=bound[0])
    if head == "imp-e":
        need(2, "major, minor")
        return K.imp_e(_parse_node(args[0], locs), _parse_node(args[1], locs))
    if head == "bot-c":
        need(4, "labels, premise, formula, position")
        return K.bot_c(
            _parse_labels(args[0], locs, form),
            _parse_node(args[1], locs),
            _parse_formula_form(args[2], locs, form),
            _parse_pos(args[3], locs, form),
        )
    if head == "bot-i":
        need(3, "premise, formula, position")
        return K.bot_i(
            _parse_node(args[0], locs),
            _parse_formula_form(args[1], locs, form),
            _parse_pos(args[2], locs, form),
        )
    if head == "box-i":
        need(3, "token, e-labels, premise")
        if not valid_user_token(str(args[0]) if not isinstance(args[0], list) else ""):
            raise ParseError(f"invalid token {brief(args[0])}", line, col)
        return K.box_i(
            str(args[0]),
            _parse_labels(args[1], locs, form),
            _parse_node(args[2], locs),
        )
    if head == "box-e":
        if len(args) not in (2, 3):
            raise ParseError(
                "box-e expects major and step suffix, optionally an "
                "existence premise",
                line,
                col,
            )
        major = _parse_node(args[0], locs)
        beta = _parse_pos(args[1], locs, form)
        eprem = _parse_node(args[2], locs) if len(args) == 3 else None
        return K.box_e(major, beta, eprem)
    if head == "dia-i":
        if len(args) not in (2, 3):
            raise ParseError(
                "dia-i expects step suffix and premise, optionally an "
                "existence premise",
                line,
                col,
            )
        beta = _parse_pos(args[0], locs, form)
        prem = _parse_node(args[1], locs)
        eprem = _parse_node(args[2], locs) if len(args) == 3 else None
        return K.dia_i(beta, prem, eprem)
    if head == "dia-e":
        need(5, "major, token, labels, e-labels, minor")
        if not valid_user_token(str(args[1]) if not isinstance(args[1], list) else ""):
            raise ParseError(f"invalid token {brief(args[1])}", line, col)
        return K.dia_e(
            _parse_node(args[0], locs),
            str(args[1]),
            _parse_labels(args[2], locs, form),
            _parse_labels(args[3], locs, form),
            _parse_node(args[4], locs),
        )
    raise ParseError(f"unknown rule {head!r}", line, col)


def _pos_form(p) -> list:
    return list(p)


def _node_form(n: K.Derivation) -> list:
    r = n.rule
    if r == "hyp":
        return [
            "hyp",
            n.label,
            K._formula_form(n.content.formula),
            _pos_form(n.content.position),
        ]
    if r == "ehyp":
        return ["ehyp", n.label, _pos_form(n.content.position)]
    if r == "and-i":
        return ["and-i", _node_form(n.premises[0]), _node_form(n.premises[1])]
    if r in ("and-e1", "and-e2"):
        return [r, _node_form(n.premises[0])]
    if r in ("or-i1", "or-i2"):
        return [r, K._formula_form(n.other), _node_form(n.premises[0])]
    if r == "or-e":
        return [
            "or-e",
            _node_form(n.premises[0]),
            sorted(n.discharges[0]),
            _node_form(n.premises[1]),
            sorted(n.discharges[1]),
            _node_form(n.premises[2]),
        ]
    if r == "imp-i":
        base = ["imp-i", sorted(n.discharges[0]), _node_form(n.premises[0])]
        bound = K.bound_leaf_contents(n.premises[0], n.discharges[0], "p")
        if not bound:
            base.append(K._formula_form(n.ante.formula))
            base.append(_pos_form(n.ante.position))
        return base
    if r == "imp-e":
        return ["imp-e", _node_form(n.premises[0]), _node_form(n.premises[1])]
    if r == "bot-c":
        return [
            "bot-c",
            sorted(n.discharges[0]),
            _node_form(n.premises[0]),
            K._formula_form(n.target.formula),
            _pos_form(n.target.position),
        ]
    if r == "bot-i":
        return [
            "bot-i",
            _node_form(n.premises[0]),
            K._formula_form(n.target.formula),
            _pos_form(n.target.position),
        ]
    if r == "box-i":
        return [
            "box-i",
            n.token,
            sorted(n.e_discharges),
            _node_form(n.premises[0]),
        ]
    if r == "box-e":
        out = ["box-e", _node_form(n.premises[0]), _pos_form(n.beta or ())]
        if len(n.premises) > 1:
            out.append(_node_form(n.premises[1]))
        return out
    if r == "dia-i":
        out = ["dia-i", _pos_form(n.beta or ()), _node_form(n.premises[0])]
        if len(n.premises) > 1:
            out.append(_node_form(n.premises[1]))
        return out
    if r == "dia-e":
        return [
            "dia-e",
            _node_form(n.premises[0]),
            n.token,
            sorted(n.discharges[0]),
            sorted(n.e_discharges),
            _node_form(n.premises[1]),
        ]
    raise ValueError(f"unknown rule {r!r}")


def _pretty(form: object, indent: int = 0) -> str:
    pad = "  " * indent
    if not isinstance(form, list):
        return pad + L.dump(form)

    def is_node(x: object) -> bool:
        return isinstance(x, list) and bool(x) and x[0] in K.RULES

    if not any(is_node(x) for x in form[1:]):
        return pad + L.dump(form)
    lines: list[str] = []
    current = pad + "(" + L.dump(form[0])
    for item in form[1:]:
        if is_node(item):
            lines.append(current)
            current = _pretty(item, indent + 1)
        else:
            current += " " + L.dump(item)
    lines.append(current + ")")
    return "\n".join(lines)


def reference_print_proof(d, system):
    """The first ``print_proof``: the nested list of the whole tree, laid out."""
    form = [
        "proof",
        ":system",
        system.logic,
        ":flavor",
        system.flavor,
        _node_form(K.sanitize_tokens(d)),
    ]
    return _pretty(form) + "\n"


def outcome(fn, *args):
    try:
        return fn(*args)
    except ParseError as exc:
        return ("ParseError", exc.message, exc.line, exc.column)
    except (ValueError, TypeError, AttributeError, IndexError) as exc:
        return (type(exc).__name__, str(exc))


def assert_same_reading(text):
    got = outcome(K.parse_proof, text)
    want = outcome(reference_parse_proof, text)
    assert got == want, text
    if isinstance(got[0], K.Derivation):
        assert_same_printing(*got)
    return got


def _capped(line):
    body = line.lstrip(" ")
    return " " * min(len(line) - len(body), 2 * K._INDENT_LIMIT) + body


def assert_same_printing(d, system):
    got = outcome(K.print_proof, d, system)
    want = outcome(reference_print_proof, d, system)
    if got != want and isinstance(got, str) and isinstance(want, str):
        # The writer joins lines the reference breaks, and indents no line
        # deeper than ``K._INDENT_LIMIT`` levels.
        assert got.split() == want.split()
        assert got.count("\n") <= want.count("\n")
        if got.count("\n") == want.count("\n"):
            assert got.splitlines() == [_capped(line) for line in want.splitlines()]
    else:
        assert got == want


# Tokens of proof text, whitespace included, for editing.
_TOKEN_RE = re.compile(r'[()]|"[^"\\]*(?:\\.[^"\\]*)*"|[^\s();"]+|;[^\n]*|\s+')
_VOCAB = (
    "(", ")", "()", "(()", "x", "u", "p", "h1", "_1", ":k", "1", "bot", "and",
    "box", "not", "(a)", "(hyp)", "(hyp x)", '"a b"', '"(and p q)"', "frob",
    ";c\n", "\n  ", "007", "\u0663", '"p\\"q"', "(not p)", "(and p ;c\n q)",
) + K.RULES


def _edit(rng, text):
    toks = _TOKEN_RE.findall(text)
    for _ in range(rng.choice((1, 1, 2, 3))):
        if not toks:
            break
        i = rng.randrange(len(toks))
        op = rng.randrange(5)
        if op == 0:
            del toks[i]
        elif op == 1:
            toks.insert(i, rng.choice(toks))
        elif op == 2 and i + 1 < len(toks):
            toks[i], toks[i + 1] = toks[i + 1], toks[i]
        elif op == 3:
            toks[i] = rng.choice(_VOCAB)
        else:
            toks.insert(i, f" {rng.choice(_VOCAB)} ")
    return "".join(toks)


@pytest.mark.parametrize("system", SYSTEMS, ids=lambda s: f"{s.logic}-{s.flavor}")
def test_proof_texts_and_their_edits_read_and_print_alike(system):
    rng = random.Random(f"files-{system.logic}-{system.flavor}")
    results = []
    for _ in range(12):
        d = proofgen.random_derivation(rng, system, steps=14)
        assert_same_printing(d, system)
        text = reference_print_proof(d, system)
        assert assert_same_reading(text) == (d, system)
        for _ in range(12):
            results.append(assert_same_reading(_edit(rng, text)))
    # the edits reach errors and trees alike
    assert sum(isinstance(r[0], K.Derivation) for r in results) > 10
    assert sum(r[0] == "ParseError" for r in results) > 50


def test_builtins_read_and_print_alike():
    for axiom, logic in K.BUILTIN_PAIRS:
        d, system = K.builtin(axiom, logic)
        assert_same_printing(d, system)
        assert_same_printing(K.freshen(d), system)
        assert_same_reading(K.print_proof(d, system))


@pytest.mark.parametrize(
    "text",
    [
        "(proof :system s4 :flavor classical (hyp u p))",
        "(proof :system s4 :flavor classical (imp-i (u) (hyp u p ()) p))",
        "(proof :system s4 :flavor classical (box-e (hyp u (box p) ())))",
        "(proof :system s4 :flavor classical (dia-e (hyp 1 p ()) (x) () () v))",
        "(proof :system s4 :flavor classical (box-i _1 (1) (hyp 1 p (x))))",
        "(proof :system s4 :flavor classical (or-e (hyp u p ()) (u u) x () y))",
        "(proof :system s4 :flavor classical (ehyp (u) (x)))",
        "(proof :system s4 :flavor classical (imp-i (z) (hyp u p ())))",
        "(proof :system s4 :flavor classical (bot-c (u) (hyp u bot ()) (and p) ()))",
        "(proof :system s4 :flavor classical (dia-i (x) (hyp u p (x)) (hyp v p ())))",
        "(proof :system s4 :flavor classical (and-i (hyp u p ()) 7))",
        "(proof :system s4 :flavor classical (\"hyp\" u p ()))",
        "(proof :system s4 :flavor classical (or-i1 \"a b\" (hyp u p ())))",
        "(proof :system k :flavor classical\n  (box-i x (e)\n"
        "    (box-e (hyp u (box p) ()) (x) (ehyp e (x)))))",
    ],
)
def test_malformed_and_odd_texts_read_alike(text):
    assert_same_reading(text)


def _formula_texts(rng):
    yield print_formula(proofgen.random_formula(rng, depth=3))
    yield print_formula(proofgen.random_formula(rng, depth=1))
    yield print_position(proofgen.random_position(rng, maxlen=3))


def test_formula_and_position_texts_and_their_edits_read_alike():
    rng = random.Random("formula-texts")
    odd = [
        "", " ", "p", "007", "\u0663", '"a b"', '"(x"', '"bot"', "(not p q)",
        "(box)", "(and p)", "(frob p)", "(7 p)", "(() p)", "()", "(and p q) r",
        "(and (and p) q r)", "(x _1 y)", "(x (y))", "(:k)", "(and p ;c\n q)",
    ]
    results = []
    for text in odd + [t for _ in range(150) for t in _formula_texts(rng)]:
        for edited in [text] + [_edit(rng, text) for _ in range(6) if text.strip()]:
            for parse, reference in (
                (parse_formula, reference_parse_formula),
                (parse_position, reference_parse_position),
            ):
                got = outcome(parse, edited)
                assert got == outcome(reference, edited), edited
                results.append(got)
    errors = sum(isinstance(r, tuple) and r[:1] == ("ParseError",) for r in results)
    assert errors > 500 and len(results) - errors > 500


# --- faults at the bottom of deep texts ---------------------------------------

DEEP = 100_000


@pytest.fixture
def default_recursion_limit():
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield
    sys.setrecursionlimit(old)


def _deep_formula(depth: int) -> str:
    """``box`` nested ``depth`` deep over a ``box`` with two operands."""
    return "(box " * depth + "p q" + ")" * depth


def _deep_proof(depth: int) -> str:
    """An ``and-e1`` chain ``depth`` deep over a ``hyp`` short of its position."""
    return (
        "(proof :system s4 :flavor classical\n"
        + "(and-e1 " * depth + "\n  (hyp u p)" + ")" * depth + ")"
    )


def _innermost_list(text: str) -> tuple[int, int]:
    """Where the frozen list reader places the last list that opens."""
    locs: dict[int, tuple[int, int]] = {}
    L.parse_all(text, locs)
    return max(locs.values())


@pytest.mark.parametrize("read, reference, text, message, place", [
    (parse_formula, reference_parse_formula, _deep_formula,
     "(box ...) takes one operand", lambda text: (1, 1)),
    (K.parse_proof, reference_parse_proof, _deep_proof,
     "hyp expects label, formula, position (3 arguments, got 2)", _innermost_list),
], ids=["formula", "proof"])
def test_a_fault_at_the_bottom_of_a_deep_text(
    read, reference, text, message, place, default_recursion_limit
):
    # The recursive reference reaches a few hundred levels; deeper, its error
    # is the same message at the list the frozen list reader places.
    for depth in (1, 2, 300):
        assert outcome(read, text(depth)) == outcome(reference, text(depth))
        assert outcome(read, text(depth)) == ("ParseError", message, *place(text(depth)))
    deep = text(DEEP)
    start = time.perf_counter()
    got = outcome(read, deep)
    took = time.perf_counter() - start
    assert got == ("ParseError", message, *place(deep))
    assert took < 10, took
