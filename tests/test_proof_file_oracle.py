"""The proof-file reader and writer against reference copies of their first,
recursive versions.

The copies keep one branch per rule: ``_parse_node`` reads a rule
application by calling the constructors, ``_node_form`` builds the nested
list of a node and ``_pretty`` lays it out.  On proof texts and random edits
of them, ``parse_proof`` must give an equal tree or the same error (message,
line and column), and ``print_proof`` the same text, except that the
reference also breaks the line before a label list or position whose first
element is a rule name.
"""

from __future__ import annotations

import random
import re

import pytest

import proofgen
from posnd import _sexpr
from posnd import kernel as K
from posnd._sexpr import ParseError
from posnd.syntax import PFormula, valid_user_token

SYSTEMS = [K.System(lg, fl) for lg in K.LOGICS for fl in K.FLAVORS]


# --- reference copies ------------------------------------------------------


def _parse_node(form: object, locs) -> K.Derivation:
    line, col = K._loc(locs, form)
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
        if not K._valid_label(args[0]):
            raise ParseError(f"invalid label {_sexpr.brief(args[0])}", line, col)
        f = K._parse_formula_form(args[1], locs, form)
        p = K._parse_pos(args[2], locs, form)
        return K.hyp(str(args[0]), f, p)
    if head == "ehyp":
        need(2, "label, position")
        if not K._valid_label(args[0]):
            raise ParseError(f"invalid label {_sexpr.brief(args[0])}", line, col)
        p = K._parse_pos(args[1], locs, form)
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
        other = K._parse_formula_form(args[0], locs, form)
        ctor = K.or_i1 if head == "or-i1" else K.or_i2
        return ctor(other, _parse_node(args[1], locs))
    if head == "or-e":
        need(5, "major, labels, minor, labels, minor")
        return K.or_e(
            _parse_node(args[0], locs),
            K._parse_labels(args[1], locs, form),
            _parse_node(args[2], locs),
            K._parse_labels(args[3], locs, form),
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
        labels = K._parse_labels(args[0], locs, form)
        prem = _parse_node(args[1], locs)
        if len(args) == 4:
            f = K._parse_formula_form(args[2], locs, form)
            p = K._parse_pos(args[3], locs, form)
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
            K._parse_labels(args[0], locs, form),
            _parse_node(args[1], locs),
            K._parse_formula_form(args[2], locs, form),
            K._parse_pos(args[3], locs, form),
        )
    if head == "bot-i":
        need(3, "premise, formula, position")
        return K.bot_i(
            _parse_node(args[0], locs),
            K._parse_formula_form(args[1], locs, form),
            K._parse_pos(args[2], locs, form),
        )
    if head == "box-i":
        need(3, "token, e-labels, premise")
        if not valid_user_token(str(args[0]) if not isinstance(args[0], list) else ""):
            raise ParseError(f"invalid token {_sexpr.brief(args[0])}", line, col)
        return K.box_i(
            str(args[0]),
            K._parse_labels(args[1], locs, form),
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
        beta = K._parse_pos(args[1], locs, form)
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
        beta = K._parse_pos(args[0], locs, form)
        prem = _parse_node(args[1], locs)
        eprem = _parse_node(args[2], locs) if len(args) == 3 else None
        return K.dia_i(beta, prem, eprem)
    if head == "dia-e":
        need(5, "major, token, labels, e-labels, minor")
        if not valid_user_token(str(args[1]) if not isinstance(args[1], list) else ""):
            raise ParseError(f"invalid token {_sexpr.brief(args[1])}", line, col)
        return K.dia_e(
            _parse_node(args[0], locs),
            str(args[1]),
            K._parse_labels(args[2], locs, form),
            K._parse_labels(args[3], locs, form),
            _parse_node(args[4], locs),
        )
    raise ParseError(f"unknown rule {head!r}", line, col)


def _node_form(n: K.Derivation) -> list:
    r = n.rule
    if r == "hyp":
        return [
            "hyp",
            n.label,
            K._formula_form(n.content.formula),
            K._pos_form(n.content.position),
        ]
    if r == "ehyp":
        return ["ehyp", n.label, K._pos_form(n.content.position)]
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
            base.append(K._pos_form(n.ante.position))
        return base
    if r == "imp-e":
        return ["imp-e", _node_form(n.premises[0]), _node_form(n.premises[1])]
    if r == "bot-c":
        return [
            "bot-c",
            sorted(n.discharges[0]),
            _node_form(n.premises[0]),
            K._formula_form(n.target.formula),
            K._pos_form(n.target.position),
        ]
    if r == "bot-i":
        return [
            "bot-i",
            _node_form(n.premises[0]),
            K._formula_form(n.target.formula),
            K._pos_form(n.target.position),
        ]
    if r == "box-i":
        return [
            "box-i",
            n.token,
            sorted(n.e_discharges),
            _node_form(n.premises[0]),
        ]
    if r == "box-e":
        out = ["box-e", _node_form(n.premises[0]), K._pos_form(n.beta or ())]
        if len(n.premises) > 1:
            out.append(_node_form(n.premises[1]))
        return out
    if r == "dia-i":
        out = ["dia-i", K._pos_form(n.beta or ()), _node_form(n.premises[0])]
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
        return pad + _sexpr.dump(form)

    def is_node(x: object) -> bool:
        return isinstance(x, list) and bool(x) and x[0] in K.RULES

    if not any(is_node(x) for x in form[1:]):
        return pad + _sexpr.dump(form)
    lines: list[str] = []
    current = pad + "(" + _sexpr.dump(form[0])
    for item in form[1:]:
        if is_node(item):
            lines.append(current)
            current = _pretty(item, indent + 1)
        else:
            current += " " + _sexpr.dump(item)
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


def assert_same_reading(text, monkeypatch):
    got = outcome(K.parse_proof, text)
    with monkeypatch.context() as m:
        m.setattr(K, "_read_node", _parse_node)
        want = outcome(K.parse_proof, text)
    assert got == want, text
    if isinstance(got[0], K.Derivation):
        assert_same_printing(*got)
    return got


def assert_same_printing(d, system):
    got = outcome(K.print_proof, d, system)
    want = outcome(reference_print_proof, d, system)
    if got != want and isinstance(got, str) and isinstance(want, str):
        # The layout fix only joins lines.
        assert got.split() == want.split()
        assert got.count("\n") < want.count("\n")
    else:
        assert got == want


# Tokens of proof text, whitespace included, for editing.
_TOKEN_RE = re.compile(r'[()]|"[^"\\]*(?:\\.[^"\\]*)*"|[^\s();"]+|;[^\n]*|\s+')
_VOCAB = (
    "(", ")", "()", "(()", "x", "u", "p", "h1", "_1", ":k", "1", "bot", "and",
    "box", "not", "(a)", "(hyp)", "(hyp x)", '"a b"', '"(and p q)"', "frob",
    ";c\n", "\n  ",
) + K.RULES


def _edit(rng, text):
    toks = _TOKEN_RE.findall(text)
    for _ in range(rng.choice((1, 1, 2, 3))):
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
def test_proof_texts_and_their_edits_read_and_print_alike(system, monkeypatch):
    rng = random.Random(f"files-{system.logic}-{system.flavor}")
    results = []
    for _ in range(12):
        d = proofgen.random_derivation(rng, system, steps=14)
        assert_same_printing(d, system)
        text = reference_print_proof(d, system)
        assert assert_same_reading(text, monkeypatch) == (d, system)
        for _ in range(12):
            results.append(assert_same_reading(_edit(rng, text), monkeypatch))
    # the edits reach errors and trees alike
    assert sum(isinstance(r[0], K.Derivation) for r in results) > 10
    assert sum(r[0] == "ParseError" for r in results) > 50


def test_builtins_read_and_print_alike(monkeypatch):
    for axiom, logic in K.BUILTIN_PAIRS:
        d, system = K.builtin(axiom, logic)
        assert_same_printing(d, system)
        assert_same_printing(K.freshen(d), system)
        assert_same_reading(K.print_proof(d, system), monkeypatch)


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
def test_malformed_and_odd_texts_read_alike(text, monkeypatch):
    assert_same_reading(text, monkeypatch)
